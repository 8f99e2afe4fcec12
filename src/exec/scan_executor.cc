#include "exec/scan_executor.h"

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

Result<bool> IndexScanExecutor::NextBatch(Batch* out) {
  out->Reset(cursor_.schema());
  uint32_t n = 0;
  for (; n < kBatchCapacity && cursor_.Valid(); n++) {
    ELE_RETURN_NOT_OK(cursor_.ReadInto(out, 0));
  }
  out->SetRowCount(n);
  ExecCounters& counters = ctx_->counters();
  counters.rows_scanned += n;
  counters.columns_decoded += uint64_t{n} * cursor_.schema().NumColumns();
  return n > 0;
}

}  // namespace elephant
