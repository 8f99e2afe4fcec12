#pragma once

#include <deque>
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

/// Group-key and aggregate-argument vectors for one input batch: the
/// vectorized front half of aggregation. The fold itself then walks live
/// rows in input order through the AggState accumulators.
struct AggInputVectors {
  std::vector<std::vector<Value>> group_cols;
  std::vector<std::vector<Value>> agg_cols;  ///< unused entry for COUNT(*)
};

/// The grouping shared by every blocking aggregate: Init() consumes the whole
/// child, folding each batch into groups keyed by their encoded group values
/// in one KeyTable (group id = entry id); NextBatch() then drains the groups
/// in encoded-key order, kBatchCapacity rows at a time, so output is
/// deterministic. Subclasses differ only in how a batch is folded and how a
/// group is emitted. A scalar aggregate (no group columns) over empty input
/// still yields one row.
class GroupedAggregateExecutor : public BatchExecutor {
 public:
  Status Init() final;
  Result<bool> NextBatch(Batch* out) final;
  const Schema& OutputSchema() const final { return schema_; }

 protected:
  struct Group {
    Row group_values;
    std::vector<AggState> states;
  };

  /// `aggs` binds by reference so a subclass can derive `schema` from it in
  /// the same constructor call before it is moved in.
  GroupedAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                           std::vector<AggSpec>&& aggs, bool scalar,
                           Schema schema)
      : ctx_(ctx),
        child_(std::move(child)),
        aggs_(std::move(aggs)),
        scalar_(scalar),
        schema_(std::move(schema)) {}

  /// Folds the live rows of one child batch into the groups.
  virtual Status Fold(const Batch& in) = 0;
  /// Appends a group's aggregate columns after its group values.
  virtual void Emit(const Group& group, Row* out) const = 0;

  /// The group whose encoded key is in key_. A new group gets fresh states
  /// and empty group_values, which the caller fills (`*created` is true).
  Group& GroupForKey(bool* created);

  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::vector<AggSpec> aggs_;
  /// Encoded group key of the row being folded (reused across rows).
  std::string key_;

 private:
  bool scalar_;
  Schema schema_;
  KeyTable table_;
  /// Indexed by group id; a deque grows in chunks, never relocating groups.
  std::deque<Group> groups_;
  std::vector<uint32_t> emit_order_;  ///< group ids by encoded key
  size_t emit_pos_ = 0;
  bool inited_ = false;
};

/// Hash-based GROUP BY aggregation; group keys and aggregate arguments are
/// evaluated vectorized per batch and folded in row order through AggState.
/// Output = group columns ++ aggregate columns. With `partial`, it is the
/// worker half of a parallel aggregation (one instance per morsel): each
/// group emits partial transfer columns instead of finalized values (COUNT
/// -> count, SUM -> running sum, AVG -> (sum, count), ...; see
/// MakePartialAggSchema) for a BatchFinalAggregateExecutor above the
/// exchange to merge exactly.
class BatchHashAggregateExecutor final : public GroupedAggregateExecutor {
 public:
  BatchHashAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                             std::vector<ExprPtr> group_exprs,
                             std::vector<AggSpec> aggs, bool partial = false);

 private:
  Status Fold(const Batch& in) override;
  void Emit(const Group& group, Row* out) const override;

  std::vector<ExprPtr> group_exprs_;
  bool partial_;
  AggInputVectors inputs_;
};

/// Session-side half of a parallel aggregation: merges partial transfer rows
/// (group values ++ partial states) read straight from the Gather exchange
/// through AggState::MergePartial, emitting in encoded-group-key order
/// exactly like the serial hash aggregate. Merging is exact for integer and
/// decimal aggregates; the input arrives in deterministic morsel order, so
/// even floating-point sums are reproducible run to run.
class BatchFinalAggregateExecutor final : public GroupedAggregateExecutor {
 public:
  BatchFinalAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                              size_t num_groups, std::vector<AggSpec> aggs,
                              Schema output_schema)
      : GroupedAggregateExecutor(ctx, std::move(child), std::move(aggs),
                                 num_groups == 0, std::move(output_schema)),
        num_groups_(num_groups) {}

 private:
  Status Fold(const Batch& in) override;
  void Emit(const Group& group, Row* out) const override;

  size_t num_groups_;
};

/// Stream aggregation over input already sorted (or at least clustered) by
/// the group expressions: emits each group as soon as the next group starts.
/// This is the "stream-based operator" of the paper's Figure 4(c) plan —
/// after an intermediate sort, grouping needs no hash table. The current
/// group's state is carried across batch boundaries, so a group split over
/// several batches folds exactly like one that fits in a single batch.
class BatchStreamAggregateExecutor final : public BatchExecutor {
 public:
  BatchStreamAggregateExecutor(BatchExecutorPtr child,
                               std::vector<ExprPtr> group_exprs,
                               std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Folds one child batch into group states, appending each finished
  /// group's output row to `pending_`.
  Status ConsumeBatch(const Batch& in);
  Row FinishCurrent();

  BatchExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  bool has_group_ = false;
  bool child_done_ = false;
  bool final_emitted_ = false;
  std::string current_key_;
  std::string key_;  ///< encoded group key of the row being folded
  Row current_values_;
  std::vector<AggState> states_;
  std::deque<Row> pending_;
  Batch in_;
  AggInputVectors inputs_;
};

/// Output schema of an aggregate: group columns ++ aggregate columns.
Schema MakeAggOutputSchema(const std::vector<ExprPtr>& groups,
                           const std::vector<AggSpec>& aggs);

/// Output schema of a partial aggregate: group columns followed by each
/// aggregate's partial (transfer) columns — see AggState::AppendPartial.
Schema MakePartialAggSchema(const std::vector<ExprPtr>& groups,
                            const std::vector<AggSpec>& aggs);

}  // namespace elephant
