#pragma once

#include <optional>

#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/key_table.h"
#include "exec/scan_executor.h"

namespace elephant {

/// Correlated bounds on the inner index of an index nested-loop join,
/// evaluated against each *outer* row: `eq_exprs` pin a prefix of the inner
/// index key by equality; then an optional [lo, hi] range (with inclusivity
/// flags) constrains the next key column.
///
/// The paper's band join `T1.f BETWEEN T0.f AND T0.f + T0.c - 1` maps to
/// eq_exprs = {}, lo = T0.f (inclusive), hi = T0.f + T0.c - 1 (inclusive)
/// with the inner side being the c-table clustered on f.
struct InljBounds {
  std::vector<ExprPtr> eq_exprs;
  ExprPtr lo;
  bool lo_inclusive = true;
  ExprPtr hi;
  bool hi_inclusive = true;
};

/// Index nested-loop join: for each outer row, seeks the inner table's
/// clustered index (or a secondary covering index) with bounds computed from
/// the outer row, emitting outer ++ inner rows that pass the residual
/// predicate. Bounds are evaluated vectorized per outer batch; one inner
/// cursor serves the whole run and re-seeks once per outer row, inside its
/// pinned leaf when the probe key lands there (IndexCursor::Seek). Equality
/// bounds are encoded as the inner key column's type (EncodeKeyCell); an
/// outer row whose bound is NULL or out of that type's range is not probed.
/// Inner cells are decoded straight into the output lanes; the outer cells
/// of an output batch are gathered by row index.
/// Every inner probe increments ExecCounters::index_seeks — the "context
/// switches" the paper's Figure 4(b) optimization minimizes.
class IndexNestedLoopJoinExecutor final : public BatchExecutor {
 public:
  /// Inner = clustered index of `inner_table` when `inner_index` is null,
  /// else the given secondary covering index; each inner row is narrowed to
  /// the source positions in `inner_cols`, as in IndexCursor.
  IndexNestedLoopJoinExecutor(
      ExecContext* ctx, BatchExecutorPtr outer, const Table* inner_table,
      const SecondaryIndex* inner_index, InljBounds bounds, ExprPtr residual,
      std::optional<std::vector<size_t>> inner_cols = std::nullopt);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Pulls the next outer batch and evaluates the probe bounds over it.
  /// False at the end of the outer input.
  Result<bool> NextOuterBatch();
  /// Gathers the outer cells of the output rows appended since the last
  /// flush (outer_rows_) into `out`.
  void FlushOuter(Batch* out);
  /// Seeks the inner cursor to the bounds of outer row `r`; false, without
  /// a seek, when its equality bounds can match no inner key (a NULL, or a
  /// value outside the key column's type).
  Result<bool> Probe(uint32_t r);

  ExecContext* ctx_;
  BatchExecutorPtr outer_;
  InljBounds bounds_;
  std::vector<TypeId> eq_types_;  ///< inner key type under each eq bound
  ExprPtr residual_;
  Schema schema_;
  IndexCursor inner_;

  Batch outer_batch_;
  uint32_t outer_pos_ = 0;  ///< next live outer row to probe
  uint32_t outer_row_ = 0;  ///< physical index of the row being joined
  bool inner_open_ = false;
  bool outer_done_ = false;
  /// Probe bounds over the outer batch, indexed by physical row.
  std::vector<const ColumnVector*> eq_cols_;
  std::vector<ColumnVector> eq_scratch_;
  const ColumnVector* lo_col_ = nullptr;
  const ColumnVector* hi_col_ = nullptr;
  ColumnVector lo_scratch_, hi_scratch_;
  std::string lo_key_, hi_key_;
  KeyRange range_;
  /// Outer row of each output row not yet gathered into the output.
  std::vector<uint32_t> outer_rows_;
};

/// Hash join on equality keys: builds a KeyTable on the right child, then
/// probes with left batches. Output = left ++ right. With no keys it is the
/// nested product: every left row pairs with every right row.
///
/// Each key pair is encoded as its CommonKeyType, so an INT key joins a
/// BIGINT one exactly as Value::Compare says; a NULL key never joins. The
/// build rows live in typed build columns, one row per table entry (row id
/// = entry id), gathered out of the build input's lanes. A probe row meets
/// its matches newest build row first (KeyTable's chain order), and output
/// batches follow probe order, so a join's rows come out in one fixed
/// order. Output batches are gathered by (probe row, build row) index pairs.
class HashJoinExecutor final : public BatchExecutor {
 public:
  HashJoinExecutor(ExecContext* ctx, BatchExecutorPtr left,
                   BatchExecutorPtr right, std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys, ExprPtr residual);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Keys the live rows of one build batch and gathers those with a
  /// non-NULL key into build_.
  Status AddBuildBatch(const Batch& in);
  /// Encodes the join key of physical row `r` of the batch last keyed into
  /// key_cols_; false when the row can match nothing.
  bool EncodeKey(uint32_t r);
  /// Gathers the output rows listed in probe_rows_/build_rows_ into `out`.
  void FlushPairs(Batch* out);

  ExecContext* ctx_;
  BatchExecutorPtr left_, right_;
  std::vector<ExprPtr> left_keys_, right_keys_;
  std::vector<TypeId> key_types_;  ///< CommonKeyType of each key pair
  ExprPtr residual_;
  Schema schema_;

  KeyTable table_;
  /// Build row `id` is cell id of every build column.
  Batch build_;
  Batch probe_;
  /// Join-key columns of the batch being keyed (build or probe side).
  std::vector<const ColumnVector*> key_cols_;
  std::vector<ColumnVector> key_scratch_;
  std::string key_;
  /// Output rows not yet gathered: probe row and build row of each.
  std::vector<uint32_t> probe_rows_, build_rows_;
  uint32_t probe_pos_ = 0;  ///< next live probe row
  uint32_t probe_row_ = 0;  ///< physical index of the row being joined
  bool probe_done_ = false;
  uint32_t match_ = KeyTable::kNone;  ///< next build row for probe_row_
};

/// Merge-style band join over two sorted inputs: the outer rows carry ranges
/// [lo(outer), hi(outer)] in ascending lo order; the inner rows carry points
/// point(inner) in ascending order. Emits outer ++ inner for every
/// containment; a NULL bound or point matches nothing. Inner rows wait in a
/// window from the current lo onward, so overlapping ranges (a general band
/// join) pair with every point they contain; for the disjoint c-table ranges
/// of §2.2.1 the window holds one range's points at a time. Both inputs
/// are consumed exactly once — this is the "merge join" plan the paper says
/// the optimizer wrongly prefers over INLJ when it ignores data properties
/// (§3 "Query hints"): it must read the *entire* inner input even when the
/// outer ranges are highly selective.
class BandMergeJoinExecutor final : public BatchExecutor {
 public:
  BandMergeJoinExecutor(ExecContext* ctx, BatchExecutorPtr outer,
                        BatchExecutorPtr inner, ExprPtr outer_lo,
                        ExprPtr outer_hi, ExprPtr inner_point, ExprPtr residual);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Moves to the next outer row with non-NULL bounds and drops the window
  /// points below its lo (no later outer row can contain them).
  Status AdvanceOuter();
  /// Appends the next inner row with a non-NULL point >= lo to the window.
  /// False at the end of the inner input.
  Result<bool> PullInner();
  /// Window row `w` (counted from the window's front).
  uint32_t WindowRow(size_t w) const {
    return static_cast<uint32_t>(window_front_ + w);
  }

  ExecContext* ctx_;
  BatchExecutorPtr outer_, inner_;
  ExprPtr outer_lo_, outer_hi_, inner_point_;
  ExprPtr residual_;
  Schema schema_;

  Batch outer_batch_, inner_batch_;
  /// Bounds and points over the current batches, by physical row.
  const ColumnVector* los_ = nullptr;
  const ColumnVector* his_ = nullptr;
  const ColumnVector* points_ = nullptr;
  ColumnVector lo_scratch_, hi_scratch_, point_scratch_;
  uint32_t outer_pos_ = 0, inner_pos_ = 0;  ///< next live row of each batch
  uint32_t outer_row_ = 0;  ///< physical index of the current outer row
  bool outer_valid_ = false, inner_done_ = false;
  /// Inner rows read so far with point >= lo, in ascending point order:
  /// rows [window_front_, window_.num_rows()) of window_ (inner columns,
  /// then the point), compacted when the dropped front grows large.
  Schema window_schema_;
  Batch window_;
  size_t window_front_ = 0;
  /// Next window entry (from the front) to pair with the current outer row.
  size_t emit_pos_ = 0;
};

}  // namespace elephant
