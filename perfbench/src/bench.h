#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cstore/projection.h"
#include "engine/database.h"
#include "host_speed.h"
#include "mv/view.h"
#include "spans.h"

namespace perfbench {

using elephant::Database;
using elephant::QueryResult;
using elephant::Result;
using elephant::Status;

/// A metric as reported: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Timings of one setup, split by module call.
struct SetupTimes {
  double total_s = 0;
  double load_s = 0;          ///< TpchGenerator::LoadInto
  double ctable_build_s = 0;  ///< every CTableBuilder::Build
  double view_build_s = 0;    ///< every ViewManager::CreateView
  uint64_t ctable_pages = 0;  ///< on-disk pages of all c-tables
};

/// What one workload run produced: operation counts, correctness, the
/// deterministic counters that must repeat exactly, and named metrics.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First 20 failure descriptions (also printed to stderr as they occur).
  std::vector<std::string> errors;
  /// name -> value of every counter that must be identical across passes
  /// and across runs at one seed (pages, seeks, rows scanned, WAL bytes...).
  std::map<std::string, uint64_t> deterministic;
  std::map<std::string, Metric> metrics;
  /// Sample counts behind the percentile metrics, by metric name.
  std::map<std::string, uint64_t> samples;
  /// Host-speed kernel samples taken during the workload; Scale() converts
  /// its measured wall times.
  HostSpeed host;
  /// Raw timings of every set-up of the run, and the host speed sampled
  /// right after each (the host can change speed between set-up and
  /// workload, so each gets its own scale).
  std::vector<SetupTimes> setups;
  HostSpeed setup_host;

  /// Counts one failed operation and remembers why.
  void Fail(const std::string& why);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Parameters every workload receives.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale_factor = 0.01;
};

/// One built database: TPC-H base tables, optionally the D1/D2/D4
/// projections as c-tables, and the five generalized materialized views.
struct Rig {
  std::unique_ptr<Database> db;
  std::unique_ptr<elephant::mv::ViewManager> views;
  std::map<std::string, elephant::ProjectionMeta> projections;
};

/// The engine configuration the benchmark pins: the paper's simulated disk
/// (8.5 ms positioning, 100 MB/s, 8 KiB pages) and an 8,192-page buffer
/// pool. Read-ahead, replacement and batch execution stay at the engine's
/// defaults so that changes to them show in the results.
elephant::DatabaseOptions PinnedOptions(bool wal_enabled);

/// Builds a rig from scratch, timing each module call and recording a span
/// for it when `spans` is enabled.
Result<std::unique_ptr<Rig>> BuildRig(const RunConfig& config,
                                      bool with_ctables, bool wal_enabled,
                                      SpanRecorder* spans, SetupTimes* times);

/// Builds the rig `setups` times (dropping each before the next), samples
/// the host speed after each, and keeps the last rig; the timings go to
/// `out->setups` for ReportSetup.
Result<std::unique_ptr<Rig>> SetupRepeated(const RunConfig& config,
                                           bool with_ctables, bool wal_enabled,
                                           int setups, SpanRecorder* spans,
                                           Outcome* out);

/// Reports setup_s and each setup layer as the median over the run's
/// set-ups, scaled to the reference host speed.
void ReportSetup(Outcome* out);

/// Seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// Quantile `q` of `v` as a Gaussian-weighted average of the order
/// statistics around rank q*(n-1), with the width of the rank's own
/// sampling spread (sqrt(q(1-q)n)), as the Harrell-Davis estimator does.
/// Samples of a fixed statement list cluster by statement, and a plain
/// order statistic jumps between clusters from run to run; the weighted
/// one moves smoothly. 0 when empty. Sorts a copy.
double Quantile(std::vector<double> v, double q);

/// Date `D` such that `column > D` selects about `fraction` of `table`,
/// computed as the paper harness does (cumulative GROUP BY counts).
Result<elephant::Value> DateForSelectivity(Database* db,
                                           const std::string& table,
                                           const std::string& column,
                                           double fraction);

/// Every distinct value of a date column, ascending.
Result<std::vector<elephant::Value>> DistinctDates(Database* db,
                                                   const std::string& table,
                                                   const std::string& column);

/// `Row(Col)` SQL for `query`: the mechanical c-table rewrite with the join
/// hint chosen per selectivity exactly as the paper harness chooses it.
Result<std::string> ColSql(Database* db, const Rig& rig,
                           const elephant::AnalyticQuery& query);

/// Records a statement's phase spans (parse/bind/plan/execute from the
/// result's QueryTrace) and, when `operators` is set, per-operator self
/// time under the execute phase.
void RecordStatementChildren(SpanRecorder* spans, uint64_t stmt_span,
                             uint64_t trace_id, double start_s,
                             const QueryResult& result, bool operators);

// The three workloads. Each fills `out`, returns non-OK only when it could
// not run at all (setup failure).
Status RunFig2Cold(const RunConfig& config, SpanRecorder* spans, Outcome* out);
Status RunAdhocWarm(const RunConfig& config, SpanRecorder* spans,
                    Outcome* out);
Status RunAppendFresh(const RunConfig& config, SpanRecorder* spans,
                      Outcome* out);

}  // namespace perfbench
