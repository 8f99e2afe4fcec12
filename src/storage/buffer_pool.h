#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/page_guard.h"

namespace elephant {

/// A buffered page frame. `data()` exposes the raw kPageSize bytes.
class Frame {
 public:
  char* data() { return data_.get(); }
  const char* data() const { return data_.get(); }

 private:
  friend class BufferPool;
  std::unique_ptr<char[]> data_;
  page_id_t page_id_ = kInvalidPageId;
  int pin_count_ = 0;
  bool dirty_ = false;
  bool in_scan_ring_ = false;  ///< replacement region (see BufferPool docs)
  /// Highest WAL LSN recorded against this frame (kInvalidLsn outside WAL
  /// mode). The WAL rule: the log must be durable up to this LSN before the
  /// frame's bytes may be written back to disk.
  lsn_t last_lsn_ = kInvalidLsn;
};

/// Buffer-pool hit/miss counters (cache behaviour, distinct from disk I/O).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  /// Misses fetched under AccessIntent::kSequentialScan, which entered the
  /// scan ring instead of the young LRU region.
  uint64_t scan_ring_inserts = 0;
  /// Point-lookup hits on scan-ring pages that promoted the page into the
  /// young region (proof of reuse beyond the scan).
  uint64_t scan_ring_promotions = 0;
  /// Unpin of a non-resident page or of a frame whose pin count is already
  /// zero — always a caller bug (double unpin / unpin-after-evict). Kept as
  /// a counter so tests can assert the pin protocol was never violated.
  uint64_t pin_protocol_errors = 0;
};

/// A fixed-capacity scan-resistant buffer pool over a DiskManager. All page
/// access in the engine flows through here, so "cold cache" experiments are
/// obtained by calling `EvictAll()` before a run.
///
/// Replacement is two-region. Pages fetched with the default
/// AccessIntent::kPointLookup live in the *young* region, an exact LRU —
/// point-lookup-only workloads see byte-identical eviction behaviour to a
/// plain LRU pool. Pages faulted in under AccessIntent::kSequentialScan
/// enter the *scan ring* instead, and victims are always taken from the
/// ring before the young region, so one large sequential scan recycles its
/// own ring pages and cannot flush a hot B+-tree working set (PostgreSQL's
/// bulk-read ring buffer, MySQL's midpoint insertion). A point-lookup hit on
/// a ring page promotes it into the young region (it has proven reuse); a
/// sequential hit keeps it in the ring.
///
/// Thread-safe: one latch guards the page table, the replacement state and
/// the frame metadata (pin counts, dirty bits), and is held across the disk
/// read that services a miss. `frames_` is sized once in the constructor and
/// never reallocates, so Frame pointers handed to callers stay valid; a
/// pinned frame can never be evicted, so callers may read a pinned frame's
/// data without the latch. The latch is taken once per page (not per row),
/// which keeps contention low for scan-heavy workloads. The latch is never
/// held across a WAL flush: write-back that needs the log durable first
/// drops the latch for the flush (lock_rank::AssertMayBlock aborts on an
/// fsync under it).
class BufferPool {
 public:
  /// A non-null `heatmap` additionally receives every hit/fault, attributed
  /// to the calling thread's AccessScope label under the pool latch (so the
  /// per-object totals sum exactly to stats() — pass the same heatmap the
  /// DiskManager uses and one object's hits+faults+reads stay consistent).
  BufferPool(DiskManager* disk, uint32_t capacity_pages = kDefaultBufferPoolPages,
             obs::AccessHeatmap* heatmap = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page and wraps the pin in a guard that releases it on scope
  /// exit. The only fetch API engine code outside this class may use
  /// (enforced by the `raw-page-api` lint rule). `intent` selects the
  /// replacement region on a miss and flows to the disk read-ahead.
  Result<PageGuard> FetchPageGuarded(
      page_id_t page_id, AccessIntent intent = AccessIntent::kPointLookup);

  /// Allocates a new page on disk and returns a guard over its (zeroed,
  /// already dirty) frame. Bulk-load paths pass kSequentialScan so freshly
  /// built structures do not flush the young region.
  Result<PageGuard> NewPageGuarded(
      page_id_t* page_id, AccessIntent intent = AccessIntent::kPointLookup);

  /// Pins the page in memory, reading it from disk on a miss.
  /// Caller must Unpin() exactly once per fetch. Prefer FetchPageGuarded:
  /// outside this class and PageGuard, the raw pair is banned by the linter
  /// (it exists for the pool's own tests).
  Result<Frame*> FetchPage(page_id_t page_id,
                           AccessIntent intent = AccessIntent::kPointLookup);

  /// Allocates a new page on disk and pins its (zeroed, dirty) frame.
  /// Same caveat as FetchPage: engine code uses NewPageGuarded.
  Result<Frame*> NewPage(page_id_t* page_id,
                         AccessIntent intent = AccessIntent::kPointLookup);

  /// Releases one pin; `dirty` marks the frame as modified.
  void UnpinPage(page_id_t page_id, bool dirty);

  /// Installs the WAL-rule hook: before any dirty frame with a recorded LSN
  /// is written back, `flush(lsn)` is invoked with the latch released and
  /// must make the log durable up to that LSN (or fail, which blocks the
  /// write-back). Wired by the Database to LogManager::FlushUntil in WAL
  /// mode; nullptr disables.
  void SetWalFlushCallback(std::function<Status(lsn_t)> flush) {
    MutexLock lock(latch_);
    wal_flush_ = std::move(flush);
  }

  /// Records that the log record ending at `lsn` modified `page_id`. The
  /// page must be resident and pinned (the caller just mutated it under a
  /// guard). Part of the WAL protocol: callers outside src/wal/ and src/txn/
  /// are rejected by elephant_lint (rule wal-protocol).
  void RecordPageLsn(page_id_t page_id, lsn_t lsn);

  /// Writes back all dirty frames. In WAL mode the log is first flushed
  /// past the highest dirty LSN, with the latch released.
  Status FlushAll();

  /// Flushes and drops every unpinned frame — the cold-cache knob for
  /// benchmarks. When pinned frames remain resident (a caller still holds a
  /// guard), every unpinned frame is still evicted, bookkeeping stays
  /// consistent, and a FailedPrecondition listing the pinned pages is
  /// returned.
  Status EvictAll();

  /// Number of frames currently pinned (invariant checks and tests).
  size_t PinnedFrames() const;

  /// Number of frames holding a page right now (occupancy gauge).
  size_t ResidentPages() const {
    MutexLock lock(latch_);
    return page_table_.size();
  }

  /// True when `page_id` is resident (tests of replacement behaviour).
  bool IsResident(page_id_t page_id) const {
    MutexLock lock(latch_);
    return page_table_.count(page_id) != 0;
  }

  /// Number of resident pages currently in the scan ring (tests/gauges).
  size_t ScanRingPages() const {
    MutexLock lock(latch_);
    return scan_ring_.size();
  }

  /// OK when no frame is pinned; otherwise an Internal error listing every
  /// pinned page and its pin count. The query-end invariant: once a
  /// statement's executors are destroyed, every pin they took must be gone.
  Status CheckNoPinsHeld() const;

  /// Debug invariant: aborts with a diagnostic when any pin is held. Wired
  /// into tests after every statement; cheap enough (one latched scan) to
  /// call freely outside hot loops.
  void AssertNoPinsHeld() const;

  /// Snapshot of the hit/miss counters (copied under the latch).
  BufferPoolStats stats() const {
    MutexLock lock(latch_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(latch_);
    stats_ = BufferPoolStats{};
  }

  DiskManager* disk() { return disk_; }
  uint32_t capacity() const { return capacity_; }

 private:
  /// Returns a free frame, evicting from the scan ring first, then the
  /// young-LRU tail. Pinned frames are skipped; all-pinned pools fail with
  /// ResourceExhausted and untouched bookkeeping. Stealing a dirty frame
  /// whose LSN is not yet durable drops the latch for the log flush.
  Result<size_t> GetVictimFrame() REQUIRES(latch_);
  /// Pins a resident frame and applies the replacement policy's touch.
  Frame* PinResident(size_t frame_idx, AccessIntent intent) REQUIRES(latch_);
  /// Writes a dirty frame back; fails with Internal (writing nothing) when
  /// its LSN is past wal_durable_lsn_.
  Status FlushFrame(size_t frame_idx) REQUIRES(latch_);
  /// Runs wal_flush_(lsn) with the latch dropped, then retakes it and, on
  /// success, advances wal_durable_lsn_. The pool may change meanwhile.
  Status FlushLogUnlatched(lsn_t lsn) REQUIRES(latch_);
  /// Makes the log durable past every dirty frame's LSN, so the caller can
  /// write them all back in one latch hold. No-op outside WAL mode.
  Status MakeDirtyFramesDurable() REQUIRES(latch_);
  /// Moves the frame to the front of the young region (exact LRU touch),
  /// pulling it out of the scan ring if it was there.
  void Touch(size_t frame_idx) REQUIRES(latch_);
  /// Moves the frame to the front of the scan ring, pulling it out of the
  /// young region if it was there.
  void TouchRing(size_t frame_idx) REQUIRES(latch_);
  /// Removes the frame from whichever replacement list holds it.
  void RemoveFromReplacer(size_t frame_idx) REQUIRES(latch_);

  mutable Mutex latch_{LockRank::kBufferPool, "BufferPool::latch_"};
  DiskManager* const disk_;
  const uint32_t capacity_;
  obs::AccessHeatmap* const heatmap_;
  /// Frame *metadata* (page id, pin count, dirty bit) is guarded; the page
  /// bytes of a pinned frame may be read without the latch (see class doc).
  std::vector<Frame> frames_ GUARDED_BY(latch_);
  std::unordered_map<page_id_t, size_t> page_table_ GUARDED_BY(latch_);
  // Young region LRU: front = most recent. Entries are frame indices of
  // resident point-access pages.
  std::list<size_t> lru_ GUARDED_BY(latch_);
  // Scan ring: front = most recent sequential page. Victimized before lru_.
  std::list<size_t> scan_ring_ GUARDED_BY(latch_);
  // Position of every resident frame in its list (which list a frame is on
  // is recorded in Frame::in_scan_ring_).
  std::unordered_map<size_t, std::list<size_t>::iterator> list_pos_
      GUARDED_BY(latch_);
  std::vector<size_t> free_frames_ GUARDED_BY(latch_);
  BufferPoolStats stats_ GUARDED_BY(latch_);
  std::function<Status(lsn_t)> wal_flush_ GUARDED_BY(latch_);
  /// The log is known durable up to here: the highest LSN a wal_flush_ call
  /// succeeded for. Commits flush the log without telling the pool, so the
  /// real watermark may be higher; a steal then costs a no-op flush call.
  lsn_t wal_durable_lsn_ GUARDED_BY(latch_) = kInvalidLsn;
};

}  // namespace elephant
