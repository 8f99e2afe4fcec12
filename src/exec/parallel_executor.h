#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/scan_executor.h"
#include "obs/plan_stats.h"
#include "sched/thread_pool.h"

namespace elephant {

/// One morsel's executor pipeline plus its instrumentation hookups.
///
/// `stats` pairs a fresh per-morsel OperatorStats slot (written by an
/// InstrumentedBatchExecutor inside this pipeline) with the shared plan-tree
/// slot it should eventually be folded into. The worker accumulates per-morsel
/// slots locally; GatherExecutor merges them into the plan-tree slots on the
/// session thread after all workers have finished, so the shared slots are
/// never written concurrently.
struct MorselPlan {
  BatchExecutorPtr exec;
  std::vector<std::pair<std::shared_ptr<obs::OperatorStats>,
                        std::shared_ptr<obs::OperatorStats>>>
      stats;
};

/// Builds a fresh executor pipeline covering one morsel (key sub-range).
/// Called on worker threads; must only touch the thread-safe shared state
/// reachable through the given per-worker ExecContext.
using MorselPlanFactory =
    std::function<Result<MorselPlan>(const KeyRange& morsel, ExecContext* ctx)>;

/// Exchange operator for morsel-driven parallel scans.
///
/// Init() runs `workers` workers (workers-1 pool tasks plus the session
/// thread itself via TaskGroup::RunInline): each worker pops the next morsel
/// index from a shared counter, builds that morsel's pipeline through the
/// factory, and drains its batches into a per-morsel buffer. NextBatch()
/// then emits the buffered batches in morsel order — i.e. cluster-key order
/// — so the output row sequence is identical to the serial plan's,
/// independent of worker count and thread timing.
///
/// Per-query accounting stays exact under concurrency: each worker runs
/// under its own IoSink (IoScope), and after the barrier the worker sinks
/// are folded into the sink that was current when Init() began (the query's
/// sink). Worker ExecCounters and per-morsel operator stats are merged the
/// same way. An error from any morsel cancels the remaining morsels via
/// TaskGroup and is returned from Init().
class GatherExecutor final : public BatchExecutor {
 public:
  GatherExecutor(ExecContext* ctx, sched::ThreadPool* pool, size_t workers,
                 std::vector<KeyRange> morsels, MorselPlanFactory factory,
                 Schema schema);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

  size_t num_morsels() const { return morsels_.size(); }

 private:
  ExecContext* ctx_;
  sched::ThreadPool* pool_;
  size_t workers_;
  std::vector<KeyRange> morsels_;
  MorselPlanFactory factory_;
  Schema schema_;

  /// Non-empty batches indexed by morsel; emitted in morsel order.
  std::vector<std::vector<Batch>> chunks_;
  size_t chunk_ = 0;
  size_t pos_ = 0;
};

}  // namespace elephant
