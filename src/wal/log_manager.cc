#include "wal/log_manager.h"

#include <string>

#include "obs/wait_events.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"

namespace elephant::wal {

LogManager::LogManager(DiskManager* disk, std::string durable_image)
    : disk_(disk), buffer_(std::move(durable_image)) {
  durable_bytes_ = buffer_.size();
}

lsn_t LogManager::Append(const LogRecord& rec) {
  MutexLock lock(mu_);
  rec.EncodeTo(&buffer_);
  stats_.records_appended++;
  stats_.bytes_appended += rec.EncodedSize();
  if (rec.type == LogRecordType::kCheckpoint) {
    stats_.checkpoint_lsn = buffer_.size();
  }
  return buffer_.size();
}

lsn_t LogManager::AppendCheckpoint() {
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  return Append(rec);
}

Status LogManager::FlushLocked(lsn_t lsn) {
  if (lsn > buffer_.size()) {
    return Status::Internal("WAL order: flush requested to LSN " +
                            std::to_string(lsn) + " past the end of the log (" +
                            std::to_string(buffer_.size()) + ")");
  }
  if (durable_bytes_ >= lsn) return Status::OK();
  const uint64_t pending = buffer_.size() - durable_bytes_;
  const uint64_t kept = injector_ != nullptr ? injector_->OnLogFlush(pending) : pending;
  Status sync = disk_ != nullptr ? disk_->Sync() : Status::OK();
  if (kept < pending) {
    // Crash mid-write: only `kept` bytes reached the platter (0 when the
    // machine died before the write; a positive prefix is the torn tail
    // recovery truncates at the damaged CRC).
    durable_bytes_ += kept;
    if (kept > 0) {
      stats_.flushes++;
      stats_.bytes_flushed += kept;
    }
    return Status::IoError("simulated crash during log flush");
  }
  if (!sync.ok()) {
    // Dropped fsync: the bytes sit in a volatile drive cache, so nothing may
    // be treated as durable — no commit and no page write-back may build on
    // this flush. The watermark stays put; a later flush retries the tail.
    return sync;
  }
  durable_bytes_ += pending;
  stats_.flushes++;
  stats_.bytes_flushed += pending;
  return Status::OK();
}

Status LogManager::FlushUntil(lsn_t lsn, const std::source_location& caller) {
  lock_rank::AssertMayBlock("LogManager::FlushUntil", caller);
  // The WAL scope opens before the log mutex: committers queued behind an
  // in-progress group flush are waiting on WAL durability, not on a latch.
  // The nested LWLock:LogManager and IO:DataFileSync scopes are inert.
  obs::WaitScope wait(obs::WaitEventId::kWalFlush);
  MutexLock lock(mu_);
  return FlushLocked(lsn);
}

Status LogManager::Flush(const std::source_location& caller) {
  lock_rank::AssertMayBlock("LogManager::Flush", caller);
  obs::WaitScope wait(obs::WaitEventId::kWalFlush);
  MutexLock lock(mu_);
  return FlushLocked(buffer_.size());
}

Status LogManager::Scan(
    const std::function<Status(const LogRecord&, lsn_t)>& cb) const {
  std::string durable;
  {
    MutexLock lock(mu_);
    durable = buffer_.substr(0, durable_bytes_);
  }
  size_t off = 0;
  while (off < durable.size()) {
    auto decoded = LogRecord::Decode(
        std::string_view(durable.data() + off, durable.size() - off));
    if (!decoded.ok()) break;  // torn tail: valid prefix ends here
    off += decoded->second;
    ELE_RETURN_NOT_OK(cb(decoded->first, off));
  }
  return Status::OK();
}

Result<LogRecord> LogManager::ReadRecordEndingAt(lsn_t lsn) const {
  MutexLock lock(mu_);
  return LogRecord::DecodeEndingAt(buffer_, lsn);
}

void LogManager::TruncateTo(lsn_t lsn) {
  MutexLock lock(mu_);
  if (lsn < buffer_.size()) buffer_.resize(lsn);
  if (durable_bytes_ > lsn) durable_bytes_ = lsn;
}

}  // namespace elephant::wal
