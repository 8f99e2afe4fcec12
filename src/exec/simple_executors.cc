#include "exec/simple_executors.h"

#include <algorithm>

namespace elephant {

Status SortExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  rows_.clear();
  pos_ = 0;
  // Encoded sort key per row, built while the input streams in so key
  // expressions run vectorized and comparisons are plain memcmp.
  std::vector<std::pair<std::string, size_t>> keyed;
  Batch in;
  std::vector<std::vector<Value>> key_cols(keys_.size());
  std::string enc;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    const std::vector<uint32_t> positions = in.ActiveIndices();
    for (size_t k = 0; k < keys_.size(); k++) {
      ELE_RETURN_NOT_OK(keys_[k].expr->EvalBatch(in, positions, &key_cols[k]));
    }
    for (uint32_t pos : positions) {
      std::string key;
      for (size_t k = 0; k < keys_.size(); k++) {
        if (keys_[k].ascending) {
          keycodec::Encode(key_cols[k][pos], &key);
        } else {
          // Descending: complement the encoded bytes so memcmp order flips.
          enc.clear();
          keycodec::Encode(key_cols[k][pos], &enc);
          for (char& c : enc) c = static_cast<char>(~static_cast<unsigned char>(c));
          key += enc;
          key.push_back('\x00');  // terminator to avoid prefix aliasing
        }
      }
      keyed.emplace_back(std::move(key), rows_.size());
      rows_.emplace_back();
      in.GatherRow(pos, &rows_.back());
    }
  }
  ctx_->counters().sort_rows += rows_.size();
  std::sort(keyed.begin(), keyed.end());
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (const auto& [key, idx] : keyed) sorted.push_back(std::move(rows_[idx]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortExecutor::NextBatch(Batch* out) {
  out->Reset(child_->OutputSchema().NumColumns());
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRowMove(std::move(rows_[pos_++]));
  }
  return out->num_rows() > 0;
}

Result<bool> LimitExecutor::NextBatch(Batch* out) {
  if (emitted_ >= limit_) {
    out->Reset(child_->OutputSchema().NumColumns());
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
