#pragma once

#include "common/schema.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace elephant {

namespace sched {
class ThreadPool;
}  // namespace sched

/// Counters gathered while a plan runs. `index_seeks` counts inner-side index
/// probes of index nested-loop joins — the "context switches" the paper's
/// optimized Q3 rewrite (Figure 4(b)) is designed to reduce.
///
/// `rows_output` is the number of rows the PLAN ROOT emitted to the client;
/// the engine assigns it once when the drain loop finishes. Operators must
/// not bump it per intermediate row — doing so over-counted under
/// LIMIT-atop-Gather and double-counted multi-stage aggregation.
struct ExecCounters {
  uint64_t rows_output = 0;
  uint64_t index_seeks = 0;
  uint64_t rows_scanned = 0;
  uint64_t sort_rows = 0;
  /// Column values the storage cursors decoded: rows_scanned times the
  /// width each scan was narrowed to (the planner prunes unreferenced
  /// columns).
  uint64_t columns_decoded = 0;
  /// KeyTable traffic of hash joins and hash aggregates: entries added
  /// (build rows, groups) and keyed lookups (probe rows, folded rows).
  uint64_t hash_inserts = 0;
  uint64_t hash_probes = 0;
  /// Values built inside the executor. Batches hold typed lanes, so the
  /// only Values built are the rows leaving the plan root (DrainBatches):
  /// rows_output times the output width.
  uint64_t values_materialized = 0;

  ExecCounters& operator+=(const ExecCounters& o) {
    rows_output += o.rows_output;
    index_seeks += o.index_seeks;
    rows_scanned += o.rows_scanned;
    sort_rows += o.sort_rows;
    columns_decoded += o.columns_decoded;
    hash_inserts += o.hash_inserts;
    hash_probes += o.hash_probes;
    values_materialized += o.values_materialized;
    return *this;
  }
};

/// Shared state for one query execution. When a worker pool is attached via
/// `set_scheduler`, the planner may choose parallel (Gather-based) plans;
/// without one every plan runs serially on the calling thread.
class ExecContext {
 public:
  explicit ExecContext(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool() const { return pool_; }
  ExecCounters& counters() { return counters_; }

  sched::ThreadPool* scheduler() const { return scheduler_; }
  void set_scheduler(sched::ThreadPool* scheduler) { scheduler_ = scheduler; }

 private:
  BufferPool* pool_;
  ExecCounters counters_;
  sched::ThreadPool* scheduler_ = nullptr;
};

}  // namespace elephant
