#pragma once

#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/key_table.h"

namespace elephant {

/// Batch filter: narrows the child batch's selection vector to rows where
/// the predicate is non-NULL true (ApplyFilterToBatch), without copying
/// survivors. Fully-filtered batches are skipped internally, so a true
/// return always carries at least one live row.
class BatchFilterExecutor final : public BatchExecutor {
 public:
  BatchFilterExecutor(BatchExecutorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Init() override { return child_->Init(); }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  BatchExecutorPtr child_;
  ExprPtr predicate_;
};

/// Batch projection: evaluates one expression per output column over the
/// live rows of each child batch and emits a dense (selection-free) batch.
class BatchProjectExecutor final : public BatchExecutor {
 public:
  BatchProjectExecutor(BatchExecutorPtr child, std::vector<ExprPtr> exprs,
                       std::vector<std::string> names);

  Status Init() override { return child_->Init(); }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  BatchExecutorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// The grouping shared by every blocking aggregate: Init() consumes the whole
/// child, folding each batch into groups keyed by their encoded group values
/// in one KeyTable (group id = entry id); NextBatch() then drains the groups
/// in encoded-key order, kBatchCapacity rows at a time, so output is
/// deterministic. A group's key cells live in typed columns by group id and
/// its aggregates in one AggStates per aggregate, so emitting gathers lanes
/// by id. Subclasses differ only in how a batch is folded and how a group's
/// aggregates are emitted. A scalar aggregate (no group columns) over empty
/// input still yields one row.
class GroupedAggregateExecutor : public BatchExecutor {
 public:
  Status Init() final;
  Result<bool> NextBatch(Batch* out) final;
  const Schema& OutputSchema() const final { return schema_; }

 protected:
  /// `aggs` binds by reference so a subclass can derive `schema` from it in
  /// the same constructor call before it is moved in. The first
  /// `num_groups` columns of `schema` are the group columns.
  GroupedAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                           std::vector<AggSpec>&& aggs, size_t num_groups,
                           Schema schema);

  /// Folds the live rows of one child batch into the groups.
  virtual Status Fold(const Batch& in) = 0;
  /// Appends group `g`'s aggregate columns, from column `col` of `out` on.
  virtual void Emit(uint32_t g, Batch* out, size_t col) const = 0;

  /// Sets group_ids_[i] to the group of row positions[i], keyed by the
  /// cells of `keys` at that row; a new group takes its key cells and a
  /// fresh state in every AggStates.
  void AssignGroups(const std::vector<const ColumnVector*>& keys,
                    const std::vector<uint32_t>& positions);

  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::vector<AggSpec> aggs_;
  std::vector<AggStates> states_;    ///< one per aggregate
  std::vector<uint32_t> group_ids_;  ///< group of each position last assigned

 private:
  size_t num_groups_;
  Schema schema_;
  KeyTable table_;
  std::vector<ColumnVector> group_cols_;  ///< key cells, by group id
  std::string key_;                       ///< encoded key being looked up
  std::vector<uint32_t> emit_order_;      ///< group ids by encoded key
  size_t emit_pos_ = 0;
  bool inited_ = false;
};

/// Hash-based GROUP BY aggregation; group keys and aggregate arguments are
/// evaluated vectorized per batch and folded column by column through
/// AggStates. Output = group columns ++ aggregate columns. With `partial`,
/// it is the worker half of a parallel aggregation (one instance per
/// morsel): each group emits partial transfer columns instead of finalized
/// values (COUNT -> count, SUM -> running sum, AVG -> (sum, count), ...; see
/// MakePartialAggSchema) for a BatchFinalAggregateExecutor above the
/// exchange to merge exactly.
class BatchHashAggregateExecutor final : public GroupedAggregateExecutor {
 public:
  BatchHashAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                             std::vector<ExprPtr> group_exprs,
                             std::vector<AggSpec> aggs, bool partial = false);

 private:
  Status Fold(const Batch& in) override;
  void Emit(uint32_t g, Batch* out, size_t col) const override;

  std::vector<ExprPtr> group_exprs_;
  bool partial_;
  std::vector<const ColumnVector*> keys_, args_;
  std::vector<ColumnVector> key_scratch_, arg_scratch_;
};

/// Session-side half of a parallel aggregation: merges partial transfer rows
/// (group values ++ partial states) read straight from the Gather exchange
/// through AggStates::Merge, emitting in encoded-group-key order exactly
/// like the serial hash aggregate. Merging is exact for integer and decimal
/// aggregates; the input arrives in deterministic morsel order, so even
/// floating-point sums are reproducible run to run.
class BatchFinalAggregateExecutor final : public GroupedAggregateExecutor {
 public:
  BatchFinalAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                              size_t num_groups, std::vector<AggSpec> aggs,
                              Schema output_schema)
      : GroupedAggregateExecutor(ctx, std::move(child), std::move(aggs),
                                 num_groups, std::move(output_schema)),
        num_groups_(num_groups) {}

 private:
  Status Fold(const Batch& in) override;
  void Emit(uint32_t g, Batch* out, size_t col) const override;

  size_t num_groups_;
  std::vector<const ColumnVector*> keys_;
};

/// Stream aggregation over input already sorted (or at least clustered) by
/// the group expressions: emits each group as soon as the next group starts.
/// This is the "stream-based operator" of the paper's Figure 4(c) plan —
/// after an intermediate sort, grouping needs no hash table. The current
/// group's state is carried across batch boundaries, so a group split over
/// several batches folds exactly like one that fits in a single batch. Each
/// run of equal keys within a batch folds as one slice of positions.
class BatchStreamAggregateExecutor final : public BatchExecutor {
 public:
  BatchStreamAggregateExecutor(BatchExecutorPtr child,
                               std::vector<ExprPtr> group_exprs,
                               std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Pulls the next child batch and evaluates its group keys and aggregate
  /// arguments; false at the end of the input.
  Result<bool> NextInput();
  /// Starts a group with fresh states (and the key cells of input row
  /// `pos`, unless the aggregate is scalar).
  void StartGroup(uint32_t pos);
  /// Appends the current group's output row to `out`.
  void FinishGroup(Batch* out);

  BatchExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  std::vector<AggStates> states_;  ///< the current group's, as group 0

  bool has_group_ = false;
  bool child_done_ = false;
  bool final_emitted_ = false;
  std::string current_key_;
  std::vector<ColumnVector> group_values_;  ///< current group's key cells
  Batch in_;
  std::vector<uint32_t> positions_;  ///< live rows of in_
  size_t next_ = 0;                  ///< next index into positions_
  std::vector<std::string> keys_;    ///< encoded group key per position
  std::vector<const ColumnVector*> group_cols_, args_;
  std::vector<ColumnVector> group_scratch_, arg_scratch_;
  std::vector<uint32_t> run_, zeros_;
};

/// Output schema of an aggregate: group columns ++ aggregate columns.
Schema MakeAggOutputSchema(const std::vector<ExprPtr>& groups,
                           const std::vector<AggSpec>& aggs);

/// Output schema of a partial aggregate: group columns followed by each
/// aggregate's partial (transfer) columns — see AggStates::AppendPartial.
Schema MakePartialAggSchema(const std::vector<ExprPtr>& groups,
                            const std::vector<AggSpec>& aggs);

}  // namespace elephant
