#pragma once

#include <map>
#include <string>
#include <vector>

#include "benchlib/harness.h"
#include "obs/json.h"

namespace elephant {
namespace paper {

/// Structured telemetry sink for the bench binaries. Every bench accepts
/// `--json <path>`; when given, one JSON document is written there at exit:
///
///   {
///     "bench": "<binary name>",
///     "schema_version": 2,
///     "records": [
///       {"type": "strategy", "labels": {...}, "strategy": "Row(Col)",
///        "seconds": ..., "io_seconds": ..., "cpu_seconds": ...,
///        "pages_sequential": ..., "pages_random": ..., "index_seeks": ...,
///        "rows": ..., "checksum": "<hex>",
///        "operators": [{"op": ..., "depth": ..., "rows": ...,
///                       "seconds": ..., "seq_reads": ..., "rand_reads": ...,
///                       "pool_misses": ..., "est_rows": ...}, ...],
///        "heatmap": {"table:lineitem": {"pool_hits": ..., "pool_faults": ...,
///                    "sequential_reads": ..., "random_reads": ...,
///                    "prefetch_hits": ..., "page_writes": ...,
///                    "io_ms": ...}, ...}},
///       {"type": "metrics", "labels": {...}, "values": {...}}
///     ]
///   }
///
/// Three more flags ride along for the engine-lifetime telemetry:
///   `--trace <path>`    enable the process-wide obs::TraceLog and write a
///                       Chrome trace_event JSON there at Flush().
///   `--metrics <path>`  dump the engine's Prometheus text exposition there
///                       when the bench's PaperBench is torn down.
///   `--stat-statements <path>`  dump Database::ExportStatStatements() JSON
///                       there at the same teardown point.
///
/// Records accumulate in memory (benches are short); without --json the sink
/// is a no-op. Single-threaded, like the benches.
class BenchTelemetry {
 public:
  static BenchTelemetry& Instance();

  /// Reads `--json <path>`, `--trace <path>`, `--metrics <path>` and
  /// `--stat-statements <path>` from argv (consuming the tokens;
  /// `--flag=<path>` also accepted) and remembers the bench name. Enables
  /// the global TraceLog when --trace is present. Call first thing in
  /// main().
  void Configure(std::string bench_name, int* argc, char** argv);

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  /// One strategy execution, with free-form dimension labels
  /// ("query": "Q3", "selectivity": "0.1", ...).
  void RecordStrategy(const std::map<std::string, std::string>& labels,
                      const StrategyResult& result);

  /// One free-form numeric record (storage sizes, build times, ...).
  void RecordMetrics(const std::map<std::string, std::string>& labels,
                     const std::map<std::string, double>& values);

  /// Writes the engine metrics text (Prometheus exposition) captured by the
  /// bench harness at teardown. PaperBench calls this from its destructor;
  /// no-op unless --metrics was given.
  bool WriteMetricsText(const std::string& text);

  /// Writes the statement-registry JSON (Database::ExportStatStatements())
  /// captured at the same teardown point; no-op unless --stat-statements
  /// was given.
  bool WriteStatStatementsJson(const std::string& json);

  /// Writes the document to `path` (no-op when disabled) and, when --trace
  /// was given, the Chrome trace to `trace_path`. Returns false on I/O
  /// failure. Safe to call multiple times; the files are rewritten whole.
  bool Flush();

 private:
  std::string bench_name_;
  std::string path_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string stat_statements_path_;
  std::vector<std::string> records_;  ///< pre-serialized JSON objects
};

}  // namespace paper
}  // namespace elephant
