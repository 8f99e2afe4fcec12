#include "obs/instrumented_executor.h"

#include <chrono>

namespace elephant {
namespace obs {

namespace {

/// Snapshot of the shared I/O counters a call might advance.
struct IoSnapshot {
  IoStats disk;
  uint64_t pool_hits;
  uint64_t pool_misses;
};

IoSnapshot Snap(ExecContext* ctx) {
  IoSnapshot s;
  // Under an attached per-query/per-worker sink, snapshot the sink: it sees
  // only this thread of this query, so operator deltas stay exact even when
  // other sessions or workers drive I/O concurrently. Without a sink (bare
  // executors in tests), fall back to the global counters as before.
  if (const IoSink* sink = CurrentIoSink()) {
    s.disk = sink->ToStats();
    s.pool_hits = sink->pool_hits.load(std::memory_order_relaxed);
    s.pool_misses = sink->pool_misses.load(std::memory_order_relaxed);
    return s;
  }
  s.disk = ctx->pool()->disk()->stats();
  const BufferPoolStats pool = ctx->pool()->stats();
  s.pool_hits = pool.hits;
  s.pool_misses = pool.misses;
  return s;
}

void Accumulate(const IoSnapshot& before, const IoSnapshot& after,
                double seconds, OperatorStats* stats) {
  stats->seconds += seconds;
  stats->io += after.disk - before.disk;
  stats->pool_hits += after.pool_hits - before.pool_hits;
  stats->pool_misses += after.pool_misses - before.pool_misses;
}

}  // namespace

Status InstrumentedBatchExecutor::Init() {
  const IoSnapshot before = Snap(ctx_);
  const auto t0 = std::chrono::steady_clock::now();
  Status s = child_->Init();
  const auto t1 = std::chrono::steady_clock::now();
  Accumulate(before, Snap(ctx_), std::chrono::duration<double>(t1 - t0).count(),
             stats_.get());
  stats_->init_calls++;
  return s;
}

Result<bool> InstrumentedBatchExecutor::NextBatch(Batch* out) {
  const IoSnapshot before = Snap(ctx_);
  const auto t0 = std::chrono::steady_clock::now();
  Result<bool> has = child_->NextBatch(out);
  const auto t1 = std::chrono::steady_clock::now();
  Accumulate(before, Snap(ctx_), std::chrono::duration<double>(t1 - t0).count(),
             stats_.get());
  stats_->next_calls++;
  if (has.ok() && has.value()) stats_->rows += out->ActiveCount();
  return has;
}

}  // namespace obs
}  // namespace elephant
