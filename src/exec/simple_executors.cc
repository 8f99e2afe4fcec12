#include "exec/simple_executors.h"

#include <algorithm>

namespace elephant {

Status SortExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  const Schema& schema = child_->OutputSchema();
  rows_.Reset(schema);
  pos_ = 0;
  // Encoded sort key per row, built while the input streams in so key
  // expressions run vectorized and comparisons are plain memcmp.
  std::vector<std::pair<std::string, uint32_t>> keyed;
  Batch in;
  std::vector<const ColumnVector*> key_cols(keys_.size());
  std::vector<ColumnVector> scratch(keys_.size());
  std::string enc;
  uint32_t n = 0;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    const std::vector<uint32_t> positions = in.ActiveIndices();
    for (size_t k = 0; k < keys_.size(); k++) {
      ELE_ASSIGN_OR_RETURN(key_cols[k],
                           keys_[k].expr->EvalBatch(in, positions, &scratch[k]));
    }
    for (uint32_t pos : positions) {
      std::string key;
      for (size_t k = 0; k < keys_.size(); k++) {
        if (keys_[k].ascending) {
          EncodeCell(*key_cols[k], pos, &key);
        } else {
          // Descending: complement the encoded bytes so memcmp order flips.
          enc.clear();
          EncodeCell(*key_cols[k], pos, &enc);
          for (char& c : enc) c = static_cast<char>(~static_cast<unsigned char>(c));
          key += enc;
          key.push_back('\x00');  // terminator to avoid prefix aliasing
        }
      }
      keyed.emplace_back(std::move(key), n++);
    }
    GatherColumns(in, positions, 0, &rows_);
  }
  rows_.SetRowCount(n);
  ctx_->counters().sort_rows += n;
  std::sort(keyed.begin(), keyed.end());
  order_.clear();
  order_.reserve(n);
  for (const auto& [key, idx] : keyed) order_.push_back(idx);
  return Status::OK();
}

Result<bool> SortExecutor::NextBatch(Batch* out) {
  out->Reset(child_->OutputSchema());
  const size_t n = std::min<size_t>(kBatchCapacity, order_.size() - pos_);
  if (n == 0) return false;
  for (size_t c = 0; c < rows_.num_cols(); ++c) {
    out->col(c).Gather(rows_.col(c), order_.data() + pos_, n);
  }
  pos_ += n;
  out->SetRowCount(static_cast<uint32_t>(n));
  return true;
}

Result<bool> LimitExecutor::NextBatch(Batch* out) {
  if (emitted_ >= limit_) {
    out->Reset(child_->OutputSchema());
    return false;
  }
  ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
  if (!has) return false;
  const uint64_t left = limit_ - emitted_;
  if (out->ActiveCount() > left) {
    std::vector<uint32_t> keep = out->ActiveIndices();
    keep.resize(left);
    out->SetSelection(std::move(keep));
  }
  emitted_ += out->ActiveCount();
  return true;
}

}  // namespace elephant
