#include "exec/scan_executor.h"

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

Status IndexCursor::Read(Row* out) {
  const std::string_view value = it_.value();
  if (index_ == nullptr) {
    ELE_RETURN_NOT_OK(
        tuple::Deserialize(table_->schema(), value.data(), value.size(), out));
  } else {
    // Key columns from the encoded key, then include columns from the
    // serialized payload.
    out->clear();
    const std::string key(it_.key());
    size_t pos = 0;
    for (size_t c : index_->key_cols) {
      ELE_ASSIGN_OR_RETURN(
          Value v,
          keycodec::Decode(table_->schema().ColumnAt(c).type, key, &pos));
      out->push_back(std::move(v));
    }
    SecondaryEntry entry = DecodeSecondaryValue(value);
    Row include_row;
    ELE_RETURN_NOT_OK(tuple::Deserialize(index_->include_schema,
                                         entry.include_bytes.data(),
                                         entry.include_bytes.size(),
                                         &include_row));
    for (Value& v : include_row) out->push_back(std::move(v));
  }
  return it_.Next();
}

Result<bool> IndexScanExecutor::NextBatch(Batch* out) {
  out->Reset(cursor_.schema().NumColumns());
  Row row;
  while (!out->full() && cursor_.Valid()) {
    ELE_RETURN_NOT_OK(cursor_.Read(&row));
    ctx_->counters().rows_scanned++;
    out->AppendRowMove(std::move(row));
  }
  return out->num_rows() > 0;
}

}  // namespace elephant
