#pragma once

#include <deque>
#include <optional>
#include <unordered_map>

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

  InljBounds Clone() const;
};

/// Index nested-loop join: for each outer row, seeks the inner table's
/// clustered index (or a secondary covering index) with bounds computed from
/// the outer row, emitting outer ++ inner rows that pass the residual
/// predicate. Every inner probe increments ExecCounters::index_seeks — the
/// "context switches" the paper's Figure 4(b) optimization minimizes.
/// batch: opt-out — joins are row-at-a-time; the planner calls
/// EnsureRows() on every input before a join is built.
class IndexNestedLoopJoinExecutor final : public Executor {
 public:
  /// Inner = clustered index of `inner_table` when `inner_index` is null,
  /// else the given secondary covering index.
  IndexNestedLoopJoinExecutor(ExecContext* ctx, ExecutorPtr outer,
                              const Table* inner_table,
                              const SecondaryIndex* inner_index,
                              InljBounds bounds, ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Opens the inner scan for the current outer row.
  Status OpenInner();

  ExecContext* ctx_;
  ExecutorPtr outer_;
  const Table* inner_table_;
  const SecondaryIndex* inner_index_;
  InljBounds bounds_;
  ExprPtr residual_;
  Schema schema_;

  Row outer_row_;
  bool outer_valid_ = false;
  ExecutorPtr inner_scan_;
};

/// Hash join on equality keys: builds a hash table on the right child, then
/// probes with the left. Output = left ++ right.
/// batch: opt-out — joins are row-at-a-time (see
/// IndexNestedLoopJoinExecutor).
class HashJoinExecutor final : public Executor {
 public:
  HashJoinExecutor(ExecContext* ctx, ExecutorPtr left, ExecutorPtr right,
                   std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
                   ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  Result<std::string> EncodeKeys(const std::vector<ExprPtr>& exprs, const Row& row);

  ExecContext* ctx_;
  ExecutorPtr left_, right_;
  std::vector<ExprPtr> left_keys_, right_keys_;
  ExprPtr residual_;
  Schema schema_;

  std::unordered_multimap<std::string, Row> build_;
  Row probe_row_;
  bool probe_valid_ = false;
  std::pair<std::unordered_multimap<std::string, Row>::iterator,
            std::unordered_multimap<std::string, Row>::iterator>
      matches_;
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
/// batch: opt-out — joins are row-at-a-time (see
/// IndexNestedLoopJoinExecutor).
class BandMergeJoinExecutor final : public Executor {
 public:
  BandMergeJoinExecutor(ExecContext* ctx, ExecutorPtr outer, ExecutorPtr inner,
                        ExprPtr outer_lo, ExprPtr outer_hi, ExprPtr inner_point,
                        ExprPtr residual);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Moves to the next outer row with non-NULL bounds and drops the window
  /// points below its lo (no later outer row can contain them).
  Status AdvanceOuter();

  ExecContext* ctx_;
  ExecutorPtr outer_, inner_;
  ExprPtr outer_lo_, outer_hi_, inner_point_;
  ExprPtr residual_;
  Schema schema_;

  Row outer_row_;
  Row inner_row_;  ///< read buffer for the next inner row
  bool outer_valid_ = false, inner_done_ = false;
  Value lo_, hi_;
  /// Inner rows read so far with point >= lo_, in ascending point order.
  std::deque<std::pair<Value, Row>> window_;
  /// Next window entry to pair with the current outer row.
  size_t emit_pos_ = 0;
};

}  // namespace elephant
