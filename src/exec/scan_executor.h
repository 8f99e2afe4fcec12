#pragma once

#include <optional>

#include "catalog/table.h"
#include "common/batch.h"
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

/// A range cursor over a table's clustered index (`index` null) or one of
/// its covering secondary indexes. Seek() descends the tree once; ReadInto()
/// then streams entries along the leaf chain until the range's exclusive
/// upper bound. The source row is the table schema (clustered) or the
/// index's `out_schema` (key columns, then include columns); the cursor
/// decodes only the source positions in `cols`, each through an O(1)
/// fixed-slot read, straight into batch columns. Without `cols` it decodes
/// every source column, through the same code. A scan holds one cursor for
/// its range; an index nested-loop join re-seeks one cursor per outer row.
class IndexCursor {
 public:
  /// `intent` is the access-pattern hint for the leaf chain: full scans
  /// (and wide ranges) pass AccessIntent::kSequentialScan so the leaves they
  /// drag in recycle through the buffer pool's scan ring and prime the disk
  /// read-ahead window; selective ranges and probes keep point intent.
  /// `cols` lists distinct source positions in output order.
  IndexCursor(ExecContext* ctx, const Table* table, const SecondaryIndex* index,
              AccessIntent intent,
              std::optional<std::vector<size_t>> cols = std::nullopt);

  /// The decoded columns: the source schema projected onto `cols`.
  const Schema& schema() const { return schema_; }

  /// Positions the cursor at the first entry of `range`. When the cursor's
  /// pinned leaf already holds that entry (the range's lower bound sorts
  /// after the leaf's first key and not after its last), it re-seeks inside
  /// the leaf; otherwise it releases the leaf and descends from the root.
  /// Sorted probes of an index nested-loop join thus mostly stay in one
  /// leaf. A re-seek skips only the descent's pool hits on the root and
  /// inner pages; it never reads a page ahead of need (no sibling), so the
  /// leaves are read in the same order as by descents.
  Status Seek(const KeyRange& range);
  bool Valid() const {
    return it_.Valid() &&
           (hi_.empty() || std::string_view(it_.key()) < std::string_view(hi_));
  }
  /// Appends the current entry's decoded columns to columns [first, first +
  /// schema().NumColumns()) of `*out`, straight from the tuple's fixed
  /// slots (and the key, for a secondary index's key columns) into the
  /// typed lanes; counts the row in ExecCounters::rows_scanned and its
  /// columns in columns_decoded, and advances. The caller sets the batch's
  /// row count.
  Status ReadInto(Batch* out, size_t first);

 private:
  ExecContext* ctx_;
  const Table* table_;
  const SecondaryIndex* index_;
  AccessIntent intent_;
  std::vector<size_t> cols_;
  Schema schema_;
  /// Secondary index: how many leading key columns the listed positions
  /// need decoded (keys decode front to back), and their scratch cells.
  size_t key_prefix_ = 0;
  std::vector<keycodec::KeyCell> key_cells_;
  BPlusTree::Iterator it_;
  std::string hi_;
};

/// Scans a table's clustered index (`index` null) or a covering secondary
/// index within a key range, up to kBatchCapacity rows per NextBatch, each
/// row narrowed to the source positions in `cols` (every column without
/// it). Range scans over a key prefix touch only the qualifying leaves
/// (sequential I/O on bulk-loaded tables). Every row pulled from storage
/// counts once in ExecCounters::rows_scanned.
class IndexScanExecutor final : public BatchExecutor {
 public:
  IndexScanExecutor(ExecContext* ctx, const Table* table,
                    const SecondaryIndex* index = nullptr, KeyRange range = {},
                    AccessIntent intent = AccessIntent::kPointLookup,
                    std::optional<std::vector<size_t>> cols = std::nullopt)
      : cursor_(ctx, table, index, intent, std::move(cols)),
        range_(std::move(range)) {}

  Status Init() override { return cursor_.Seek(range_); }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return cursor_.schema(); }

 private:
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
