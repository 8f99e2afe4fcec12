#include "exec/scan_executor.h"

#include <algorithm>

namespace elephant {

void MakeKeyRange(const std::vector<Value>& eq_values,
                  const std::optional<Value>& lo, bool lo_inclusive,
                  const std::optional<Value>& hi, bool hi_inclusive,
                  KeyRange* out) {
  std::string& prefix = out->lo;
  prefix.clear();
  for (const Value& v : eq_values) keycodec::Encode(v, &prefix);
  out->hi.clear();
  if (hi.has_value()) {
    out->hi = prefix;
    keycodec::Encode(*hi, &out->hi);
    if (hi_inclusive) {
      // Inclusive upper bound: include every key extending this exact value.
      out->hi = keycodec::PrefixUpperBound(out->hi);
    }
  } else if (!prefix.empty()) {
    out->hi = keycodec::PrefixUpperBound(prefix);
  }
  if (lo.has_value()) {
    keycodec::Encode(*lo, &out->lo);
    if (!lo_inclusive) {
      // Exclusive lower bound: skip every key extending this exact value.
      out->lo = keycodec::PrefixUpperBound(out->lo);
    }
  }
}

KeyRange MakeKeyRange(const std::vector<Value>& eq_values,
                      const std::optional<Value>& lo, bool lo_inclusive,
                      const std::optional<Value>& hi, bool hi_inclusive) {
  KeyRange range;
  MakeKeyRange(eq_values, lo, lo_inclusive, hi, hi_inclusive, &range);
  return range;
}

IndexCursor::IndexCursor(ExecContext* ctx, const Table* table,
                         const SecondaryIndex* index, AccessIntent intent,
                         std::optional<std::vector<size_t>> cols)
    : ctx_(ctx), table_(table), index_(index), intent_(intent) {
  const Schema& source = index_ != nullptr ? index_->out_schema : table_->schema();
  if (cols.has_value()) {
    cols_ = std::move(*cols);
  } else {
    for (size_t c = 0; c < source.NumColumns(); c++) cols_.push_back(c);
  }
  schema_ = source.Project(cols_);
  for (size_t c : cols_) {
    if (index_ != nullptr && c < index_->key_cols.size()) {
      key_prefix_ = std::max(key_prefix_, c + 1);
    }
  }
  key_vals_.resize(key_prefix_);
}

Status IndexCursor::Seek(const KeyRange& range) {
  it_ = BPlusTree::Iterator();  // unpin the old leaf before descending
  const BPlusTree& tree =
      index_ != nullptr ? *index_->tree : table_->clustered();
  if (range.lo.empty()) {
    ELE_ASSIGN_OR_RETURN(it_, tree.SeekToFirst(intent_));
  } else {
    ELE_ASSIGN_OR_RETURN(it_, tree.Seek(range.lo, intent_));
  }
  hi_ = range.hi;
  return Status::OK();
}

Status IndexCursor::ReadInto(Batch* out, size_t first) {
  std::string_view tuple = it_.value();
  const Schema* tuple_schema = &table_->schema();
  size_t num_keys = 0;  // source positions below this come from the key
  if (index_ != nullptr) {
    // Key columns from the encoded key, then include columns from the
    // serialized payload.
    num_keys = index_->key_cols.size();
    size_t pos = 0;
    for (size_t k = 0; k < key_prefix_; k++) {
      ELE_ASSIGN_OR_RETURN(
          key_vals_[k],
          keycodec::Decode(index_->out_schema.ColumnAt(k).type, it_.key(), &pos));
    }
    tuple = DecodeSecondaryValue(tuple).include_bytes;
    tuple_schema = &index_->include_schema;
  }
  ELE_RETURN_NOT_OK(tuple::CheckTuple(tuple.data(), tuple.size()));
  for (size_t i = 0; i < cols_.size(); i++) {
    const size_t c = cols_[i];
    out->col(first + i).push_back(
        c < num_keys ? std::move(key_vals_[c])
                     : tuple::GetValue(*tuple_schema, tuple.data(),
                                       tuple.size(), c - num_keys));
  }
  ExecCounters& counters = ctx_->counters();
  counters.rows_scanned++;
  counters.columns_decoded += cols_.size();
  return it_.Next();
}

Result<bool> IndexScanExecutor::NextBatch(Batch* out) {
  out->Reset(cursor_.schema().NumColumns());
  uint32_t n = 0;
  for (; n < kBatchCapacity && cursor_.Valid(); n++) {
    ELE_RETURN_NOT_OK(cursor_.ReadInto(out, 0));
  }
  out->SetRowCount(n);
  return n > 0;
}

}  // namespace elephant
