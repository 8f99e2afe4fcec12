#pragma once

#include <map>
#include <memory>
#include <string>

#include "benchlib/workload.h"
#include "cstore/colopt.h"
#include "cstore/ctable_builder.h"
#include "cstore/rewriter.h"
#include "engine/database.h"
#include "mv/view.h"
#include "obs/heatmap.h"
#include "obs/plan_stats.h"
#include "tpch/tpch.h"

namespace elephant {
namespace paper {

/// Result of running one strategy for one query instance.
struct StrategyResult {
  std::string strategy;     ///< "Row", "Row(MV)", "Row(Col)", "ColOpt"
  std::string sql;          ///< the SQL actually executed ("" for ColOpt)
  double seconds = 0;       ///< modeled disk time + measured CPU time
  double io_seconds = 0;
  double cpu_seconds = 0;
  uint64_t pages_sequential = 0;
  uint64_t pages_random = 0;
  uint64_t index_seeks = 0;  ///< the paper's "context switches"
  uint64_t rows = 0;
  /// Checksum over the result rows (order-insensitive) for cross-strategy
  /// result validation — all strategies must agree.
  uint64_t checksum = 0;
  /// Per-operator self-attributed breakdown (pre-order; empty for modeled
  /// strategies like ColOpt). Page counts sum to pages_sequential/_random.
  std::vector<obs::OperatorBreakdown> operators;
  /// Per-object page-access delta for this execution (table/index/c-table →
  /// hits, faults, reads, writes), from the engine's AccessHeatmap. Empty
  /// for modeled strategies.
  std::map<std::string, obs::ObjectIoStats> heatmap;
  /// The disk model the engine priced this execution's I/O with.
  DiskModel disk_model;
};

/// The full experimental rig of the paper: TPC-H data, the D1/D2/D4
/// projections as c-tables, the generalized materialized views, the ColOpt
/// model, and runners for every strategy. Queries run cold-cache (the pool
/// is dropped before each timed execution), matching the paper's setup.
class PaperBench {
 public:
  struct Options {
    double scale_factor = 0.05;
    bool build_ctables = true;
    bool build_views = true;
    uint32_t buffer_pool_pages = kDefaultBufferPoolPages;
  };

  explicit PaperBench(Options options);

  /// Dumps the engine's Prometheus metrics to the path given by the bench's
  /// `--metrics` flag (if any) before the Database goes away.
  ~PaperBench();

  /// Loads TPC-H and builds projections/views. Call once.
  Status Setup();

  Database& db() { return *db_; }
  mv::ViewManager& views() { return *views_; }
  const ProjectionMeta& projection(const std::string& name) const {
    return projections_.at(name);
  }

  /// Date D such that `l_shipdate > D` selects ~`fraction` of lineitem.
  Result<Value> ShipdateForSelectivity(double fraction);
  /// Date D such that `o_orderdate > D` selects ~`fraction` of orders.
  Result<Value> OrderdateForSelectivity(double fraction);
  /// A shipdate near the middle of the range (for Q2's equality predicate).
  Result<Value> MedianShipdate() { return ShipdateForSelectivity(0.5); }
  /// An orderdate near the middle of the range (for Q5's equality predicate).
  Result<Value> MedianOrderdate() { return OrderdateForSelectivity(0.5); }

  /// `Row`: the query directly over base tables (primary indexes only).
  Result<StrategyResult> RunRow(const AnalyticQuery& query);

  /// `Row(MV)`: via the best matching materialized view (NotFound when no
  /// view matches — the generality limitation of §2.1).
  Result<StrategyResult> RunMv(const AnalyticQuery& query);

  /// `Row(Col)`: via the mechanical c-table rewrite on the query's
  /// projection. With default options the harness also auto-tunes the join
  /// hint per selectivity (the paper's manual per-query hints, §3).
  Result<StrategyResult> RunCol(const AnalyticQuery& query,
                                const cstore::RewriteOptions& options = {});

  /// `Row(Col)` with the given options taken literally (no hint auto-tune) —
  /// for ablation experiments.
  Result<StrategyResult> RunColExact(const AnalyticQuery& query,
                                     const cstore::RewriteOptions& options);

  /// `ColOpt`: the modeled lower bound (no execution).
  Result<StrategyResult> RunColOpt(const AnalyticQuery& query);

 private:
  Result<StrategyResult> RunSql(const std::string& strategy,
                                const std::string& sql);
  /// Cumulative-distribution quantile of a date column via GROUP BY.
  Result<Value> DateQuantile(const std::string& table, const std::string& column,
                             double fraction);

  Options options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<mv::ViewManager> views_;
  std::map<std::string, ProjectionMeta> projections_;
};

/// Order-insensitive checksum of a result set (sorted row renderings hashed).
uint64_t ResultChecksum(const QueryResult& result);

}  // namespace paper
}  // namespace elephant
