#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace elephant {
namespace obs {

/// Runtime statistics of one physical operator, gathered by an
/// InstrumentedBatchExecutor. All values are INCLUSIVE of the operator's
/// children (a child's NextBatch() runs inside its parent's); self-attributed
/// numbers are derived from the plan tree by subtracting child totals.
struct OperatorStats {
  uint64_t init_calls = 0;
  uint64_t next_calls = 0;   ///< NextBatch() calls, including the final false
  uint64_t rows = 0;         ///< rows produced
  double seconds = 0;        ///< wall time inside Init() + NextBatch()
  IoStats io;                ///< disk traffic during Init() + NextBatch()
  uint64_t pool_hits = 0;    ///< buffer-pool hits during Init() + NextBatch()
  uint64_t pool_misses = 0;  ///< buffer-pool misses during Init() + NextBatch()
};

/// One node of the physical plan tree, as produced by the planner. Carries
/// the EXPLAIN label, the planner's estimates, and (when the plan was built
/// for EXPLAIN ANALYZE / instrumented execution) a stats slot filled in while
/// the plan runs.
struct PlanNode {
  std::string label;
  double est_rows = -1;  ///< planner cardinality estimate; < 0 = unknown
  double est_cost = -1;  ///< cumulative cost units (~rows processed in subtree)
  std::shared_ptr<OperatorStats> stats;  ///< null unless instrumented
  std::vector<std::unique_ptr<PlanNode>> children;
};

/// Self-attributed (exclusive) numbers for one operator: the node's
/// inclusive stats minus the sum of its direct children's inclusive stats.
/// Per-operator I/O pages sum exactly to the query-level IoStats total.
struct OperatorBreakdown {
  std::string op;           ///< first line of the node label
  int depth = 0;
  uint64_t rows = 0;        ///< rows produced (not self-attributed)
  uint64_t next_calls = 0;
  double seconds = 0;       ///< self wall time
  uint64_t seq_reads = 0;   ///< self sequential page reads
  uint64_t rand_reads = 0;  ///< self random page reads
  uint64_t page_writes = 0; ///< self page writes
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  double est_rows = -1;
};

/// Renders the plan tree as indented "-> label [est_rows=... cost=...]"
/// lines. With `with_actuals`, appends "(actual rows=... time=... io_seq=...
/// io_rand=...)" per node; io counts are self-attributed.
std::string RenderPlanTree(const PlanNode& root, bool with_actuals);

/// Pre-order flattening with self-attributed stats (requires an instrumented
/// run; nodes without stats report zeros).
std::vector<OperatorBreakdown> FlattenPlan(const PlanNode& root);

/// JSON form of the annotated tree: {"op":..., "est_rows":..., "actual":
/// {...}, "children":[...]}.
void AppendPlanJson(const PlanNode& root, bool with_actuals, JsonWriter* w);

}  // namespace obs
}  // namespace elephant
