#include "exec/parallel_executor.h"

#include <atomic>
#include <optional>
#include <unordered_map>

#include "obs/trace_log.h"
#include "sched/task_group.h"

namespace elephant {

GatherExecutor::GatherExecutor(ExecContext* ctx, sched::ThreadPool* pool,
                               size_t workers, std::vector<KeyRange> morsels,
                               MorselPlanFactory factory, Schema schema)
    : ctx_(ctx),
      pool_(pool),
      workers_(workers == 0 ? 1 : workers),
      morsels_(std::move(morsels)),
      factory_(std::move(factory)),
      schema_(std::move(schema)) {}

Status GatherExecutor::Init() {
  chunks_.assign(morsels_.size(), {});
  chunk_ = 0;
  pos_ = 0;

  // The sink that was current when this query reached the exchange — worker
  // I/O is folded into it after the barrier, inside this operator's
  // instrumented window, so Gather's inclusive I/O covers its workers.
  IoSink* parent_sink = CurrentIoSink();

  // No point spinning up more workers than morsels.
  const size_t nworkers =
      morsels_.empty() ? 1 : std::min(workers_, morsels_.size());

  struct WorkerState {
    ExecCounters counters;
    IoSink sink;
    // Shared plan-tree slot -> stats accumulated by this worker across all
    // the morsels it ran. Merged into the shared slots post-barrier.
    std::unordered_map<obs::OperatorStats*, obs::OperatorStats> stats;
  };
  std::vector<WorkerState> states(nworkers);
  std::atomic<size_t> next_morsel{0};
  sched::TaskGroup group(pool_);

  auto worker_fn = [&](size_t w) -> Status {
    WorkerState& st = states[w];
    ExecContext worker_ctx(ctx_->pool());
    // Route this worker's I/O to its private sink. On the session thread
    // (the RunInline worker) this temporarily shadows the query sink.
    IoScope scope(&st.sink);
    while (!group.cancelled()) {
      const size_t i = next_morsel.fetch_add(1, std::memory_order_relaxed);
      if (i >= morsels_.size()) break;
      // One span per morsel (gated: the args build costs a string when on).
      std::optional<obs::TraceSpan> morsel_span;
      if (obs::TraceLog::Global().enabled()) {
        morsel_span.emplace("morsel", "exec",
                            obs::TraceArgs{{"morsel", std::to_string(i)}});
      }
      auto plan = factory_(morsels_[i], &worker_ctx);
      if (!plan.ok()) return plan.status();
      MorselPlan mp = std::move(plan).value();
      ELE_RETURN_NOT_OK(mp.exec->Init());
      Batch batch;
      while (true) {
        ELE_ASSIGN_OR_RETURN(bool has, mp.exec->NextBatch(&batch));
        if (!has) break;
        if (!batch.empty()) chunks_[i].push_back(std::move(batch));
      }
      mp.exec.reset();  // release page pins before accounting
      for (auto& [slot, target] : mp.stats) {
        st.stats[target.get()] += *slot;
      }
    }
    st.counters = worker_ctx.counters();
    return Status::OK();
  };

  for (size_t w = 1; w < nworkers; w++) {
    group.Submit([&worker_fn, w] { return worker_fn(w); });
  }
  // The session thread contributes a worker share instead of blocking idle.
  group.RunInline([&worker_fn] { return worker_fn(0); });
  Status status = group.Wait();

  // Post-barrier merges, all on the session thread: worker I/O into the
  // query sink, worker counters into the session context, per-morsel
  // operator stats into the shared plan-tree slots.
  for (WorkerState& st : states) {
    if (parent_sink != nullptr) st.sink.AddTo(parent_sink);
    ctx_->counters() += st.counters;
    for (auto& [target, acc] : st.stats) *target += acc;
  }
  return status;
}

Result<bool> GatherExecutor::NextBatch(Batch* out) {
  while (chunk_ < chunks_.size()) {
    if (pos_ < chunks_[chunk_].size()) {
      *out = std::move(chunks_[chunk_][pos_++]);
      return true;
    }
    chunks_[chunk_].clear();
    chunks_[chunk_].shrink_to_fit();
    chunk_++;
    pos_ = 0;
  }
  out->Reset(schema_);
  return false;
}

}  // namespace elephant
