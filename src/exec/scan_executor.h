#pragma once

#include <optional>

#include "catalog/table.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"

namespace elephant {

/// A static key range over an index: an encoded lower bound (inclusive) and
/// upper bound (exclusive). Empty strings mean unbounded.
struct KeyRange {
  std::string lo;
  std::string hi;
};

/// Builds an encoded KeyRange from per-column bounds on the leading index
/// columns: `eq_values` constrain a prefix by equality; then an optional
/// range [lo, hi] (inclusive flags) on the next column. Re-encodes into
/// `*out`, reusing its buffers.
void MakeKeyRange(const std::vector<Value>& eq_values,
                  const std::optional<Value>& lo, bool lo_inclusive,
                  const std::optional<Value>& hi, bool hi_inclusive,
                  KeyRange* out);
KeyRange MakeKeyRange(const std::vector<Value>& eq_values,
                      const std::optional<Value>& lo, bool lo_inclusive,
                      const std::optional<Value>& hi, bool hi_inclusive);

/// A range cursor over a table's clustered index (`index` null) or one of
/// its covering secondary indexes. Seek() descends the tree once; Read()
/// then streams rows along the leaf chain until the range's exclusive upper
/// bound. Rows are the table schema (clustered) or the index's `out_schema`
/// (key columns, then include columns). A scan holds one cursor for its
/// range; an index nested-loop join re-seeks one cursor per outer row.
class IndexCursor {
 public:
  /// `intent` is the access-pattern hint for the leaf chain: full scans
  /// (and wide ranges) pass AccessIntent::kSequentialScan so the leaves they
  /// drag in recycle through the buffer pool's scan ring and prime the disk
  /// read-ahead window; selective ranges and probes keep point intent.
  IndexCursor(const Table* table, const SecondaryIndex* index,
              AccessIntent intent)
      : table_(table), index_(index), intent_(intent) {}

  const Schema& schema() const {
    return index_ != nullptr ? index_->out_schema : table_->schema();
  }

  /// Positions the cursor at the first entry of `range`, releasing the
  /// previous position first.
  Status Seek(const KeyRange& range);
  bool Valid() const {
    return it_.Valid() &&
           (hi_.empty() || std::string_view(it_.key()) < std::string_view(hi_));
  }
  /// Decodes the current entry into `*out` and advances.
  Status Read(Row* out);

 private:
  const Table* table_;
  const SecondaryIndex* index_;
  AccessIntent intent_;
  BPlusTree::Iterator it_;
  std::string hi_;
};

/// Scans a table's clustered index (`index` null) or a covering secondary
/// index within a key range, up to kBatchCapacity rows per NextBatch. Range
/// scans over a key prefix touch only the qualifying leaves (sequential I/O
/// on bulk-loaded tables). Every row pulled from storage counts once in
/// ExecCounters::rows_scanned.
class IndexScanExecutor final : public BatchExecutor {
 public:
  IndexScanExecutor(ExecContext* ctx, const Table* table,
                    const SecondaryIndex* index = nullptr, KeyRange range = {},
                    AccessIntent intent = AccessIntent::kPointLookup)
      : ctx_(ctx), cursor_(table, index, intent), range_(std::move(range)) {}

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
    out->Reset(schema_.NumColumns());
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
