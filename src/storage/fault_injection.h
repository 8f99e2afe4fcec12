#pragma once

#include <algorithm>
#include <cstdint>

#include "common/thread_annotations.h"

namespace elephant {

/// Describes one simulated storage failure. The injector counts *durable
/// ops* — page writes reaching the disk and WAL flushes — and fires at the
/// `crash_after_ops`-th one (1-based), after which every durable op fails as
/// if the process had been killed. The crash-recovery matrix sweeps
/// `crash_after_ops` across a workload to exercise every interleaving of
/// page and log persistence.
struct FaultPlan {
  enum class Mode {
    kNone,           ///< no faults
    kCrashAtWrite,   ///< drop the Nth durable op and die
    kTornLogFlush,   ///< the Nth durable op, if a log flush, persists only a
                     ///< prefix of the flushed bytes (a torn/short write),
                     ///< then dies — recovery must truncate at the bad CRC
    kDropFsync,      ///< fsyncs after `drop_fsync_after` silently do nothing
                     ///< (a lying drive); the WAL rule must keep the on-disk
                     ///< state consistent as of the last real fsync
  };

  Mode mode = Mode::kNone;
  uint64_t crash_after_ops = 0;   ///< 1-based durable-op index to crash at (0 = never)
  uint32_t torn_keep_bytes = 0;   ///< kTornLogFlush: bytes of the final flush kept
  uint64_t drop_fsync_after = 0;  ///< kDropFsync: fsyncs after this count are dropped
};

/// Thread-safe fault-injection state shared between the DiskManager (page
/// writes, fsyncs) and the LogManager (log flushes). Once `crashed()` the
/// simulated machine is dead: all durable ops fail until the test clones the
/// durable image and reopens.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Consulted before a page write reaches the backing store. Returns false
  /// when the write must be dropped (machine crashed at or before this op).
  bool OnPageWrite() {
    MutexLock lock(mu_);
    if (crashed_) return false;
    if (plan_.mode == FaultPlan::Mode::kNone) return true;
    ops_++;
    if (HitCrashPoint() && plan_.mode != FaultPlan::Mode::kTornLogFlush) {
      crashed_ = true;
      return false;
    }
    return true;
  }

  /// Consulted before `len` freshly flushed WAL bytes become durable.
  /// Returns how many of them actually persist: `len` on success, a shorter
  /// prefix for a torn final flush, 0 when the machine is dead.
  uint64_t OnLogFlush(uint64_t len) {
    MutexLock lock(mu_);
    if (crashed_) return 0;
    if (plan_.mode == FaultPlan::Mode::kNone) return len;
    ops_++;
    if (HitCrashPoint()) {
      crashed_ = true;
      if (plan_.mode == FaultPlan::Mode::kTornLogFlush) {
        return std::min<uint64_t>(plan_.torn_keep_bytes, len);
      }
      return 0;
    }
    return len;
  }

  /// Consulted on fsync. Returns false when the sync is dropped (either the
  /// machine is dead or the kDropFsync threshold has passed); a dropped sync
  /// must not advance any durability watermark.
  bool OnSync() {
    MutexLock lock(mu_);
    if (crashed_) return false;
    if (plan_.mode == FaultPlan::Mode::kDropFsync && plan_.drop_fsync_after != 0) {
      syncs_++;
      if (syncs_ > plan_.drop_fsync_after) return false;
    }
    return true;
  }

  /// Consulted before a page read is served. Reads normally survive a crash
  /// plan (the platter is intact, only new durability is lost); they fail
  /// only while `FailReads(true)` is armed — a dying disk surface. Exists so
  /// tests can force failures on paths that only read (e.g. rollback undo
  /// re-fetching an evicted tree page) and prove those errors are surfaced.
  bool OnPageRead() {
    MutexLock lock(mu_);
    return !fail_reads_;
  }

  /// Arms/disarms read failures (independent of the crash plan).
  void FailReads(bool fail) {
    MutexLock lock(mu_);
    fail_reads_ = fail;
  }

  bool crashed() const {
    MutexLock lock(mu_);
    return crashed_;
  }

  /// Durable ops observed so far (page writes + log flushes). A fault-free
  /// run's total bounds the useful `crash_after_ops` sweep range.
  uint64_t ops() const {
    MutexLock lock(mu_);
    return ops_;
  }

 private:
  bool HitCrashPoint() const REQUIRES(mu_) {
    return plan_.crash_after_ops != 0 && ops_ >= plan_.crash_after_ops;
  }

  const FaultPlan plan_;
  mutable Mutex mu_{LockRank::kFaultInjector, "FaultInjector::mu_"};
  uint64_t ops_ GUARDED_BY(mu_) = 0;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  bool crashed_ GUARDED_BY(mu_) = false;
  bool fail_reads_ GUARDED_BY(mu_) = false;
};

}  // namespace elephant
