#include "obs/query_log.h"

#include "obs/json.h"

namespace elephant {
namespace obs {

QueryLog::~QueryLog() { Close(); }

bool QueryLog::Open(const std::string& path, double threshold_seconds) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  MutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  threshold_seconds_ = threshold_seconds;
  entries_written_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void QueryLog::Close() {
  MutexLock lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

double QueryLog::threshold_seconds() const {
  MutexLock lock(mu_);
  return threshold_seconds_;
}

void QueryLog::Record(const StatementRecord& record) {
  if (!enabled()) return;
  if (record.latency_seconds < threshold_seconds()) return;
  JsonWriter w;
  w.BeginObject();
  w.Key("sql").String(record.sql);
  w.Key("plan_hash").String(HexHash(record.plan_hash));
  w.Key("sql_fingerprint").String(HexHash(record.fingerprint));
  w.Key("latency_ms").Double(record.latency_seconds * 1e3);
  w.Key("io_ms").Double(record.io_seconds * 1e3);
  w.Key("sequential_reads").UInt(record.io.sequential_reads);
  w.Key("random_reads").UInt(record.io.random_reads);
  w.Key("page_writes").UInt(record.io.page_writes);
  w.Key("rows").UInt(record.rows);
  w.Key("session_id").Int(record.session_id);
  w.Key("wait_profile");
  record.wait_profile.AppendJson(&w);
  w.EndObject();
  const std::string line = std::move(w).str();

  MutexLock lock(mu_);
  if (file_ == nullptr || record.latency_seconds < threshold_seconds_) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);  // tail-able while the engine runs
  entries_written_++;
}

uint64_t QueryLog::EntriesWritten() const {
  MutexLock lock(mu_);
  return entries_written_;
}

}  // namespace obs
}  // namespace elephant
