#pragma once

#include <deque>
#include <optional>
#include <unordered_map>

#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"
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
/// cursor serves the whole run and re-descends the tree once per outer row.
/// Every inner probe increments ExecCounters::index_seeks — the "context
/// switches" the paper's Figure 4(b) optimization minimizes.
class IndexNestedLoopJoinExecutor final : public BatchExecutor {
 public:
  /// Inner = clustered index of `inner_table` when `inner_index` is null,
  /// else the given secondary covering index.
  IndexNestedLoopJoinExecutor(ExecContext* ctx, BatchExecutorPtr outer,
                              const Table* inner_table,
                              const SecondaryIndex* inner_index,
                              InljBounds bounds, ExprPtr residual);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Pulls the next outer batch and evaluates the probe bounds over it.
  /// False at the end of the outer input.
  Result<bool> NextOuterBatch();
  /// Seeks the inner cursor to the bounds of outer row `r`.
  Status Probe(uint32_t r);

  ExecContext* ctx_;
  BatchExecutorPtr outer_;
  InljBounds bounds_;
  ExprPtr residual_;
  Schema schema_;
  IndexCursor inner_;

  Batch outer_batch_;
  uint32_t outer_pos_ = 0;  ///< next live outer row to probe
  uint32_t outer_row_ = 0;  ///< physical index of the row being joined
  bool inner_open_ = false;
  bool outer_done_ = false;
  /// Probe bounds over the outer batch, indexed by physical row.
  std::vector<std::vector<Value>> eq_vals_;
  std::vector<Value> lo_vals_, hi_vals_;
  std::vector<Value> eq_row_;
  KeyRange range_;
  Row inner_row_;
};

/// Hash join on equality keys: builds a hash table on the right child, then
/// probes with left batches. Output = left ++ right. With no keys it is the
/// nested product: every left row pairs with every right row.
class HashJoinExecutor final : public BatchExecutor {
 public:
  HashJoinExecutor(ExecContext* ctx, BatchExecutorPtr left,
                   BatchExecutorPtr right, std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys, ExprPtr residual);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  using BuildTable = std::unordered_multimap<std::string, Row>;

  ExecContext* ctx_;
  BatchExecutorPtr left_, right_;
  std::vector<ExprPtr> left_keys_, right_keys_;
  ExprPtr residual_;
  Schema schema_;

  BuildTable build_;
  Batch probe_;
  /// Join-key columns of the batch being keyed (build or probe side).
  std::vector<std::vector<Value>> key_cols_;
  uint32_t probe_pos_ = 0;  ///< next live probe row
  uint32_t probe_row_ = 0;  ///< physical index of the row being joined
  bool probe_done_ = false;
  std::pair<BuildTable::iterator, BuildTable::iterator> matches_;
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

  ExecContext* ctx_;
  BatchExecutorPtr outer_, inner_;
  ExprPtr outer_lo_, outer_hi_, inner_point_;
  ExprPtr residual_;
  Schema schema_;

  Batch outer_batch_, inner_batch_;
  std::vector<Value> los_, his_, points_;  ///< per physical batch row
  uint32_t outer_pos_ = 0, inner_pos_ = 0;  ///< next live row of each batch
  uint32_t outer_row_ = 0;  ///< physical index of the current outer row
  bool outer_valid_ = false, inner_done_ = false;
  Value lo_, hi_;
  /// Inner rows read so far with point >= lo_, in ascending point order.
  std::deque<std::pair<Value, Row>> window_;
  /// Next window entry to pair with the current outer row.
  size_t emit_pos_ = 0;
};

}  // namespace elephant
