#pragma once

#include <functional>
#include <source_location>
#include <string>

#include "common/config.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "wal/log_record.h"

namespace elephant {

class DiskManager;
class FaultInjector;

namespace wal {

/// Counters describing WAL activity (surfaced via elephant_stat_wal and the
/// Prometheus exporter).
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t flushes = 0;        ///< group flushes that reached the disk
  uint64_t bytes_flushed = 0;  ///< bytes made durable by those flushes
  lsn_t current_lsn = kInvalidLsn;     ///< end of the log buffer
  lsn_t durable_lsn = kInvalidLsn;     ///< end of the durable prefix
  lsn_t checkpoint_lsn = kInvalidLsn;  ///< most recent checkpoint record
};

/// The append-only write-ahead log. Records accumulate in an in-memory tail
/// buffer; `FlushUntil(lsn)` makes everything up to `lsn` durable in one
/// write+fsync — because the whole pending tail is flushed together, every
/// commit waiting on an earlier LSN rides the same fsync (group commit).
///
/// An LSN is the byte offset of a record's end, so `durable_lsn >= lsn`
/// means that record is on stable storage. The log "file" is a byte string
/// kept alongside the DiskManager's simulated platter; a crash test carries
/// `DurablePrefix()` (not the in-memory tail) across the simulated reboot.
///
/// Thread-safe; a single mutex serializes appends and flushes.
class LogManager {
 public:
  /// `disk` receives one Sync() per group flush (fsync accounting + fault
  /// injection); `durable_image` seeds the log with the bytes recovered
  /// from a previous incarnation (the reboot path).
  explicit LogManager(DiskManager* disk, std::string durable_image = "");

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Appends `rec` to the log tail and returns its LSN. The record is NOT
  /// durable until FlushUntil reaches that LSN.
  lsn_t Append(const LogRecord& rec);

  /// Appends a checkpoint marker and returns its LSN (recovery redo starts
  /// after the most recent durable one; the engine stores it in the meta
  /// page after flushing).
  lsn_t AppendCheckpoint();

  /// Makes the log durable up to at least `lsn` (entire pending tail is
  /// flushed — group commit). Fails with kIoError when fault injection
  /// kills the flush or drops the fsync; on a torn flush the surviving
  /// prefix is accounted durable (recovery truncates at the damaged CRC).
  /// An `lsn` past the end of the appended log is a WAL-order bug (a page
  /// stamped with an LSN no record carries) and fails with kInternal.
  /// Both flushes abort when the caller holds the buffer-pool latch
  /// (lock_rank::AssertMayBlock).
  Status FlushUntil(lsn_t lsn, const std::source_location& caller =
                                   std::source_location::current());

  /// Flushes everything appended so far.
  Status Flush(const std::source_location& caller =
                   std::source_location::current());

  /// True when the record ending at `lsn` is on stable storage.
  bool IsDurable(lsn_t lsn) const {
    MutexLock lock(mu_);
    return durable_bytes_ >= lsn;
  }

  /// The durable byte prefix of the log — what survives a crash.
  std::string DurablePrefix() const {
    MutexLock lock(mu_);
    return buffer_.substr(0, durable_bytes_);
  }

  /// Iterates decodable records in [0, durable end), calling
  /// `cb(record, lsn)` for each (lsn = record end offset). Stops silently
  /// at the first truncated/CRC-damaged record: that is the torn tail, and
  /// `TruncateToDurable` removes it. The durable prefix is copied first, so
  /// callbacks may touch the buffer pool without holding the log mutex.
  Status Scan(const std::function<Status(const LogRecord&, lsn_t)>& cb) const;

  /// Discards everything after the last decodable record (called once by
  /// recovery after Scan hit a torn tail, before new records are appended).
  void TruncateTo(lsn_t lsn);

  /// Decodes the record ending at `lsn` (durable or not). Rollback walks a
  /// transaction's prev_lsn chain with this instead of keeping images in
  /// memory — the log tail IS the undo log.
  Result<LogRecord> ReadRecordEndingAt(lsn_t lsn) const;

  void SetFaultInjector(FaultInjector* injector) {
    MutexLock lock(mu_);
    injector_ = injector;
  }

  WalStats stats() const {
    MutexLock lock(mu_);
    WalStats s = stats_;
    s.current_lsn = buffer_.size();
    s.durable_lsn = durable_bytes_;
    return s;
  }

 private:
  Status FlushLocked(lsn_t lsn) REQUIRES(mu_);

  DiskManager* const disk_;
  mutable Mutex mu_{LockRank::kLogManager, "LogManager::mu_"};
  std::string buffer_ GUARDED_BY(mu_);  ///< entire log; [0, durable_bytes_) is on "disk"
  uint64_t durable_bytes_ GUARDED_BY(mu_) = 0;
  WalStats stats_ GUARDED_BY(mu_);
  FaultInjector* injector_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace wal
}  // namespace elephant
