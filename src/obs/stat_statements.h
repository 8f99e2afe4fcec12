#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/wait_events.h"
#include "storage/disk_manager.h"

namespace elephant {
namespace obs {

/// Normalizes a SQL statement into its *shape*: string and numeric literals
/// become `?`, whitespace runs collapse to one space, and everything outside
/// quoted literals is lower-cased (identifiers are case-insensitive in this
/// engine). Two statements differing only in literal values normalize to the
/// same text — the pg_stat_statements grouping discipline, done lexically
/// because the engine has no post-parse query tree serializer.
std::string NormalizeSql(std::string_view sql);

/// FNV-1a 64-bit hash.
uint64_t Fnv1a64(std::string_view data);

/// FNV-1a 64-bit hash of NormalizeSql(sql): the statement fingerprint.
uint64_t FingerprintSql(std::string_view sql);

/// FNV-1a 64-bit hash of NormalizeSql(plan_text): the plan *shape* hash.
/// Rendered plans embed literal-dependent text — predicate constants and
/// cardinality estimates ("rows=1432") — so hashing the raw rendering would
/// split one statement family across registry entries whenever a literal
/// shifts an estimate. Normalizing first keeps the operator tree and column
/// names while erasing the numbers, so a plan hash only changes when the
/// planner actually picks a different plan.
uint64_t PlanShapeHash(std::string_view plan_text);

/// 16-digit lower-case hex rendering of a fingerprint or plan hash (64-bit
/// hashes do not fit the engine's signed INT64 SQL type, so the virtual
/// tables and exports carry them as hex strings).
std::string HexHash(uint64_t value);

/// `io` as the JSON object stat-statements entries and EXPLAIN ANALYZE use:
/// {"sequential_reads", "random_reads", "page_writes", "readahead":
///  {"windows_issued", "pages_prefetched", "prefetch_hits",
///   "prefetch_wasted"}}.
void AppendIoJson(const IoStats& io, JsonWriter* w);

/// The operator class of an EXPLAIN label: its first token ("HashJoin",
/// "ClusteredScan on lineitem" -> "ClusteredScan").
std::string OperatorClassOf(std::string_view label);

/// One instrumented operator's contribution to the modeled-vs-measured
/// residual bookkeeping: the disk model's prediction for the operator's
/// self-attributed page traffic vs the wall-clock seconds it actually spent.
struct OperatorResidual {
  std::string op_class;
  double modeled_io_seconds = 0;
  double measured_seconds = 0;
};

/// One finished statement, built once by the engine and folded into
/// StatStatements. `fingerprint` and `plan_hash` are the join keys between
/// the registry and EXPLAIN ANALYZE output, always rendered with HexHash.
struct StatementRecord {
  std::string query;          ///< NormalizeSql of the statement text
  uint64_t fingerprint = 0;   ///< Fnv1a64(query), i.e. FingerprintSql(sql)
  uint64_t plan_hash = 0;     ///< PlanShapeHash of the rendered plan tree
  uint64_t rows = 0;
  double latency_seconds = 0; ///< measured wall-clock execution time
  double io_seconds = 0;      ///< modeled disk time for `io`
  IoStats io;                 ///< physical page traffic, incl. readahead
  /// Where the statement's blocked time went; the registry sums its total.
  WaitProfile wait_profile;
  /// Empty unless the statement ran instrumented (EXPLAIN ANALYZE):
  /// per-operator wall time only exists when every node is wrapped.
  std::vector<OperatorResidual> residuals;

  /// Derives `query` and `fingerprint` from the statement text.
  void SetSql(std::string_view sql);
};

/// Cumulative per-operator-class calibration data: how far the disk model's
/// predictions drift from measured wall time for this statement shape. The
/// ROADMAP's strategy advisor reads ResidualSeconds() to learn which
/// operator classes the model over- or under-charges.
struct OperatorClassStats {
  uint64_t operators = 0;        ///< instrumented operator instances folded in
  double modeled_io_seconds = 0; ///< disk-model prediction, summed
  double measured_seconds = 0;   ///< self-attributed wall seconds, summed

  /// Positive: the model undercharges this class (CPU-bound or mispriced
  /// I/O); negative: it overcharges (cache hits the model assumes go to disk).
  double ResidualSeconds() const { return measured_seconds - modeled_io_seconds; }
};

/// One registry entry: everything accumulated for a fingerprint × plan-hash
/// statement family.
struct StatementStats {
  std::string query;        ///< normalized statement text
  uint64_t fingerprint = 0;
  uint64_t plan_hash = 0;

  uint64_t calls = 0;
  uint64_t rows = 0;
  uint64_t instrumented_calls = 0;  ///< calls that contributed residuals

  double total_seconds = 0;     ///< measured wall time, summed
  double total_io_seconds = 0;  ///< modeled disk time, summed
  double total_wait_seconds = 0;  ///< WaitProfile::TotalSeconds, summed
  double min_seconds = 0;
  double max_seconds = 0;
  IoStats io;

  /// Per-call latency histogram over StatStatements::LatencyBounds().
  HistogramSnapshot latency;

  std::map<std::string, OperatorClassStats> operator_classes;

  double MeanSeconds() const {
    return calls > 0 ? total_seconds / static_cast<double>(calls) : 0;
  }
  /// Statement-level model drift: measured wall time minus modeled I/O time.
  double ResidualSeconds() const { return total_seconds - total_io_seconds; }
};

/// Thread-safe, bounded, engine-lifetime registry of cumulative statement
/// statistics keyed by statement fingerprint × plan hash — the engine's
/// pg_stat_statements. Entries are LRU-evicted past `capacity` (evictions
/// counted, never silent), so a workload with unbounded distinct statement
/// shapes cannot grow the registry without bound.
///
/// Writes are one mutex acquisition per finished statement; snapshots copy entries out so exporters never
/// hold the lock while formatting.
class StatStatements {
 public:
  static constexpr size_t kDefaultCapacity = 512;

  /// Per-call latency histogram bucket upper bounds (shared by every entry).
  static const std::vector<double>& LatencyBounds();

  explicit StatStatements(size_t capacity = kDefaultCapacity);
  StatStatements(const StatStatements&) = delete;
  StatStatements& operator=(const StatStatements&) = delete;

  /// Folds one finished statement into its entry (created — possibly
  /// evicting the least-recently-used entry — when new).
  void Record(const StatementRecord& record);

  /// Copies of every entry, most-recently-used first.
  std::vector<StatementStats> Snapshot() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t evicted_entries() const;

  /// Drops every entry and zeroes the eviction counter (tests).
  void Reset();

  /// The whole registry as one JSON document:
  ///   {"capacity":N, "entries":N, "evicted_entries":N,
  ///    "latency_bounds":[...],
  ///    "totals":{"calls":..,"rows":..,"total_seconds":..,
  ///              "total_io_seconds":..,"total_wait_seconds":..,"io":{...}},
  ///    "statements":[{...per-entry stats, hex hashes, residuals...}]}
  /// `totals` sums the surviving entries (reconciliation hook for
  /// scripts/telemetry_check.py).
  std::string ToJson() const;

 private:
  using Key = std::pair<uint64_t, uint64_t>;  ///< fingerprint, plan_hash

  const size_t capacity_;
  mutable Mutex mu_{LockRank::kStatStatements, "StatStatements::mu_"};
  /// Front = most recently used; `index_` points into the list.
  std::list<StatementStats> entries_ GUARDED_BY(mu_);
  std::map<Key, std::list<StatementStats>::iterator> index_ GUARDED_BY(mu_);
  uint64_t evicted_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace elephant
