#pragma once

#include <memory>

#include "common/batch.h"
#include "exec/executor.h"
#include "obs/plan_stats.h"

namespace elephant {
namespace obs {

/// Transparent operator decorator: forwards Init()/NextBatch() to the wrapped
/// operator while attributing wall time, row counts, buffer-pool hit/miss
/// deltas, and sequential/random page-read deltas to an OperatorStats slot.
/// `rows` advances by each emitted batch's live-row count; one NextBatch call
/// is one `next_calls` tick, so the clock is read once per batch, not per
/// row. The planner wraps every node of an instrumented plan, so the stats
/// of a node are inclusive of its subtree; RenderPlanTree/FlattenPlan
/// subtract children to report self-attributed numbers.
class InstrumentedBatchExecutor final : public BatchExecutor {
 public:
  InstrumentedBatchExecutor(ExecContext* ctx, BatchExecutorPtr child,
                            std::shared_ptr<OperatorStats> stats)
      : ctx_(ctx), child_(std::move(child)), stats_(std::move(stats)) {}

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::shared_ptr<OperatorStats> stats_;
};

}  // namespace obs
}  // namespace elephant
