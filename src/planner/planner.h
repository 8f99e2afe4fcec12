#pragma once

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/batch.h"
#include "exec/executor.h"
#include "obs/plan_stats.h"
#include "planner/bound_query.h"

namespace elephant {

/// A planned query: an executable operator tree plus its annotated plan tree
/// (labels, per-node cardinality/cost estimates, and — when planned with
/// `instrument` — per-operator runtime stats slots filled in as the plan
/// runs). `explain` is the tree rendered without actuals.
struct PlannedQuery {
  BatchExecutorPtr executor;
  std::unique_ptr<obs::PlanNode> plan;
  std::string explain;
  Schema output_schema;
};

/// Translates a BoundQuery into a physical operator tree.
///
/// The planner implements exactly the row-store machinery the paper relies
/// on: predicate pushdown into clustered/secondary index ranges, covering-
/// index selection, greedy cost-based join ordering (filtered-cardinality
/// heuristic over ANALYZE statistics), index nested-loop joins with
/// correlated equality *and band* bounds, hash joins, band merge joins, and
/// hash/stream aggregation — all overridable with `/*+ ... */` hints (§3,
/// "Query hints").
///
/// With `instrument`, every node of the plan is wrapped in an
/// obs::InstrumentedBatchExecutor so EXPLAIN ANALYZE can attribute wall time,
/// rows, buffer-pool traffic, and sequential/random page reads per operator.
class Planner {
 public:
  explicit Planner(ExecContext* ctx, bool instrument = false)
      : ctx_(ctx), instrument_(instrument) {}

  /// Consumes `q` (expressions are moved into the executors).
  Result<PlannedQuery> Plan(std::unique_ptr<BoundQuery> q);

 private:
  ExecContext* ctx_;
  bool instrument_;
};

}  // namespace elephant
