#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/thread_annotations.h"
#include "obs/stat_statements.h"

namespace elephant {
namespace obs {

/// Threshold-gated slow-query/audit log: statements whose wall-clock latency
/// meets the threshold are appended to a JSONL file (one self-contained JSON
/// object per line — statement, plan hash, latency, modeled I/O, session id)
/// the moment they finish, so the file is tail-able during a run. A
/// threshold of 0 audits every statement. `plan_hash` and `sql_fingerprint`
/// are HexHash strings, the same spelling elephant_stat_statements, EXPLAIN
/// ANALYZE JSON and the Prometheus labels use, so the log joins against them
/// directly.
///
/// Disabled until Open() succeeds; Record() is a single relaxed atomic load
/// when disabled. Thread-safe: concurrent sessions append whole lines under
/// an internal mutex.
class QueryLog {
 public:
  QueryLog() = default;
  ~QueryLog();
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Starts logging statements with latency >= threshold to `path`
  /// (truncates any existing file). False when the file cannot be opened.
  bool Open(const std::string& path, double threshold_seconds);
  void Close();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  double threshold_seconds() const;

  /// Appends `record` when the log is open and the latency meets the
  /// threshold.
  void Record(const StatementRecord& record);

  /// Number of entries appended since Open() (for tests).
  uint64_t EntriesWritten() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_{LockRank::kQueryLog, "QueryLog::mu_"};
  std::FILE* file_ GUARDED_BY(mu_) = nullptr;
  double threshold_seconds_ GUARDED_BY(mu_) = 0;
  uint64_t entries_written_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace elephant
