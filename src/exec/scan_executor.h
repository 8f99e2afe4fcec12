#pragma once

#include <optional>

#include "catalog/table.h"
#include "common/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"

namespace elephant {

/// Builds an encoded KeyRange from per-column bounds on the leading index
/// columns: `eq_values` constrain a prefix by equality; then an optional
/// range [lo, hi] (inclusive flags) on the next column. The planner's
/// static ranges, built once per plan from constants.
KeyRange MakeKeyRange(
    const std::vector<Value>& eq_values,  // lint:allow(value-in-batch-kernel)
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive);

/// The bound half of MakeKeyRange, over encodings: `out->lo` holds the
/// encoded equality prefix; `lo` and `hi` are the encoded bounds on the
/// next column (null when absent).
void BoundKeyRange(const std::string* lo, bool lo_inclusive,
                   const std::string* hi, bool hi_inclusive, KeyRange* out);

/// Scans a table's clustered index (`index` null) or a covering secondary
/// index within a key range, up to kBatchCapacity rows per NextBatch, each
/// row narrowed to the source positions in `cols` (every column without
/// it). Range scans over a key prefix touch only the qualifying leaves
/// (sequential I/O on bulk-loaded tables). Every row pulled from storage
/// counts once in ExecCounters::rows_scanned, and its decoded columns in
/// columns_decoded.
class IndexScanExecutor final : public BatchExecutor {
 public:
  IndexScanExecutor(ExecContext* ctx, const Table* table,
                    const SecondaryIndex* index = nullptr, KeyRange range = {},
                    AccessIntent intent = AccessIntent::kPointLookup,
                    std::optional<std::vector<size_t>> cols = std::nullopt)
      : ctx_(ctx),
        cursor_(table, index, intent, std::move(cols)),
        range_(std::move(range)) {}

  Status Init() override { return cursor_.Seek(range_); }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return cursor_.schema(); }

 private:
  ExecContext* ctx_;
  IndexCursor cursor_;
  KeyRange range_;
};

/// Emits a fixed list of rows (used for VALUES and for testing).
class ValuesExecutor final : public BatchExecutor {
 public:
  ValuesExecutor(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  Status Init() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextBatch(Batch* out) override {
    out->Reset(schema_);
    // lint:allow(value-in-batch-kernel): VALUES rows enter as Values.
    while (!out->full() && pos_ < rows_.size()) out->AppendRow(rows_[pos_++]);
    return out->num_rows() > 0;
  }
  const Schema& OutputSchema() const override { return schema_; }

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

}  // namespace elephant
