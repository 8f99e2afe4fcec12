#pragma once

#include <map>

#include "exec/executor.h"
#include "exec/expression.h"

namespace elephant {

/// Hash-based GROUP BY aggregation: consumes the whole child in Init(),
/// then drains groups. Output schema = group columns ++ aggregate columns.
/// Groups are emitted in encoded-group-key order (deterministic output).
/// batch: twin BatchHashAggregateExecutor (batch_executors.h).
class HashAggregateExecutor final : public Executor {
 public:
  HashAggregateExecutor(ExecContext* ctx, ExecutorPtr child,
                        std::vector<ExprPtr> group_exprs, std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  ExecContext* ctx_;
  ExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  struct Group {
    Row group_values;
    std::vector<AggState> states;
  };
  // std::map keyed by encoded group values: deterministic emission order.
  std::map<std::string, Group> groups_;
  std::map<std::string, Group>::iterator emit_it_;
  bool inited_ = false;
};

/// Stream aggregation over input already sorted (or at least clustered) by
/// the group expressions: emits each group as soon as the next group starts.
/// This is the "stream-based operator" of the paper's Figure 4(c) plan —
/// after an intermediate sort, grouping needs no hash table.
/// batch: twin BatchStreamAggregateExecutor (batch_executors.h).
class StreamAggregateExecutor final : public Executor {
 public:
  StreamAggregateExecutor(ExecContext* ctx, ExecutorPtr child,
                          std::vector<ExprPtr> group_exprs,
                          std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Folds `row` into the current group's states.
  Status Accumulate(const Row& row);
  /// Emits the current group into `out` and resets state.
  void EmitCurrent(Row* out);

  ExecContext* ctx_;
  ExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  bool has_group_ = false;
  bool child_done_ = false;
  std::string current_key_;
  Row current_values_;
  std::vector<AggState> states_;
};

/// Builds the output schema shared by both aggregate executors.
Schema MakeAggOutputSchema(const Schema& input, const std::vector<ExprPtr>& groups,
                           const std::vector<AggSpec>& aggs);

/// Fresh accumulator states for `aggs`, shared by the row and batch
/// aggregate executors so both fold inputs through identical AggState logic.
std::vector<AggState> FreshAggStates(const std::vector<AggSpec>& aggs);

/// Output schema of a BatchPartialAggregateExecutor: group columns followed by
/// each aggregate's partial (transfer) columns — see AggState::AppendPartial.
Schema MakePartialAggSchema(const std::vector<ExprPtr>& groups,
                            const std::vector<AggSpec>& aggs);

}  // namespace elephant
