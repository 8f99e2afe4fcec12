#include "exec/scan_executor.h"

#include <algorithm>

namespace elephant {

void BoundKeyRange(const std::string* lo, bool lo_inclusive,
                   const std::string* hi, bool hi_inclusive, KeyRange* out) {
  const std::string& prefix = out->lo;
  out->hi.clear();
  if (hi != nullptr) {
    out->hi = prefix;
    out->hi += *hi;
    if (hi_inclusive) {
      // Inclusive upper bound: include every key extending this exact value.
      out->hi.push_back('\xff');
    }
  } else if (!prefix.empty()) {
    out->hi = keycodec::PrefixUpperBound(prefix);
  }
  if (lo != nullptr) {
    out->lo += *lo;
    if (!lo_inclusive) {
      // Exclusive lower bound: skip every key extending this exact value.
      out->lo.push_back('\xff');
    }
  }
}

KeyRange MakeKeyRange(
    const std::vector<Value>& eq_values,  // lint:allow(value-in-batch-kernel)
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive) {
  KeyRange range;
  for (const Value& v : eq_values) keycodec::Encode(v, &range.lo);
  std::string lo_enc, hi_enc;
  if (lo.has_value()) keycodec::Encode(*lo, &lo_enc);
  if (hi.has_value()) keycodec::Encode(*hi, &hi_enc);
  BoundKeyRange(lo.has_value() ? &lo_enc : nullptr, lo_inclusive,
                hi.has_value() ? &hi_enc : nullptr, hi_inclusive, &range);
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
  key_cells_.resize(key_prefix_);
}

Status IndexCursor::Seek(const KeyRange& range) {
  hi_ = range.hi;
  if (!range.lo.empty() && it_.SeekInLeaf(range.lo)) return Status::OK();
  it_ = BPlusTree::Iterator();  // unpin the old leaf before descending
  const BPlusTree& tree =
      index_ != nullptr ? *index_->tree : table_->clustered();
  if (range.lo.empty()) {
    ELE_ASSIGN_OR_RETURN(it_, tree.SeekToFirst(intent_));
  } else {
    ELE_ASSIGN_OR_RETURN(it_, tree.Seek(range.lo, intent_));
  }
  return Status::OK();
}

namespace {

/// Appends tuple column `col` (of `schema`) to `out`, a column of its type.
void AppendTupleCell(const Schema& schema, const char* data, size_t col,
                     ColumnVector* out) {
  if (tuple::IsNull(data, col)) return out->AppendNull();
  switch (out->lane()) {
    case Lane::kInt: return out->AppendInt(tuple::GetInt(schema, data, col));
    case Lane::kDouble:
      return out->AppendDouble(tuple::GetDouble(schema, data, col));
    case Lane::kString:
      return out->AppendString(tuple::GetString(schema, data, col));
  }
}

void AppendKeyCell(const keycodec::KeyCell& cell, ColumnVector* out) {
  if (cell.is_null) return out->AppendNull();
  switch (out->lane()) {
    case Lane::kInt: return out->AppendInt(cell.i);
    case Lane::kDouble: return out->AppendDouble(cell.d);
    case Lane::kString: return out->AppendString(cell.s);
  }
}

}  // namespace

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
      ELE_RETURN_NOT_OK(keycodec::DecodeCell(
          index_->out_schema.ColumnAt(k).type, it_.key(), &pos, &key_cells_[k]));
    }
    tuple = DecodeSecondaryValue(tuple).include_bytes;
    tuple_schema = &index_->include_schema;
  }
  ELE_RETURN_NOT_OK(tuple::CheckTuple(tuple.data(), tuple.size()));
  for (size_t i = 0; i < cols_.size(); i++) {
    const size_t c = cols_[i];
    ColumnVector* dst = &out->col(first + i);
    if (c < num_keys) {
      AppendKeyCell(key_cells_[c], dst);
    } else {
      AppendTupleCell(*tuple_schema, tuple.data(), c - num_keys, dst);
    }
  }
  ExecCounters& counters = ctx_->counters();
  counters.rows_scanned++;
  counters.columns_decoded += cols_.size();
  return it_.Next();
}

Result<bool> IndexScanExecutor::NextBatch(Batch* out) {
  out->Reset(cursor_.schema());
  uint32_t n = 0;
  for (; n < kBatchCapacity && cursor_.Valid(); n++) {
    ELE_RETURN_NOT_OK(cursor_.ReadInto(out, 0));
  }
  out->SetRowCount(n);
  return n > 0;
}

}  // namespace elephant
