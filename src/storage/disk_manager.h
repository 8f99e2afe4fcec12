#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <source_location>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace elephant {

namespace obs {
class AccessHeatmap;  // heatmap.h includes this header; see src/obs
}  // namespace obs

class FaultInjector;  // storage/fault_injection.h

/// How the caller expects to touch the page it is fetching. The hint flows
/// from the planner (which knows whether an access path is a full scan or a
/// point probe) down through the buffer pool to the disk manager:
///
///   kPointLookup      index descents, probes, bounded range scans — pages
///                     enter the pool's exact-LRU young region and the disk
///                     opens no read-ahead window.
///   kSequentialScan   full clustered scans, c-table concat scans, bulk
///                     loads — pages enter the pool's scan ring (evicted
///                     before the young region, so one big scan cannot flush
///                     a hot index working set) and the disk opens a
///                     read-ahead window at the stream head.
enum class AccessIntent {
  kPointLookup,
  kSequentialScan,
};

/// Read-ahead activity at the disk layer. A "window" is one modeled transfer
/// that stages the next N pages of a sequential stream into the drive
/// buffer; demanded reads landing inside a window are prefetch hits.
struct ReadaheadStats {
  uint64_t windows_issued = 0;    ///< prefetch transfers started or extended
  uint64_t pages_prefetched = 0;  ///< pages staged into windows
  uint64_t prefetch_hits = 0;     ///< demanded reads served from a window
  uint64_t prefetch_wasted = 0;   ///< staged pages discarded unread

  ReadaheadStats& operator+=(const ReadaheadStats& o) {
    windows_issued += o.windows_issued;
    pages_prefetched += o.pages_prefetched;
    prefetch_hits += o.prefetch_hits;
    prefetch_wasted += o.prefetch_wasted;
    return *this;
  }

  ReadaheadStats operator-(const ReadaheadStats& o) const {
    ReadaheadStats r;
    r.windows_issued = windows_issued - o.windows_issued;
    r.pages_prefetched = pages_prefetched - o.pages_prefetched;
    r.prefetch_hits = prefetch_hits - o.prefetch_hits;
    r.prefetch_wasted = prefetch_wasted - o.prefetch_wasted;
    return r;
  }
};

/// Counters describing physical I/O traffic observed at the disk layer.
struct IoStats {
  uint64_t sequential_reads = 0;  ///< page reads contiguous with the previous read
  uint64_t random_reads = 0;      ///< page reads requiring a head seek
  uint64_t page_writes = 0;
  uint64_t fsyncs = 0;            ///< Sync() calls (WAL group flushes, checkpoints)
  ReadaheadStats readahead;       ///< prefetch-window activity

  uint64_t TotalReads() const { return sequential_reads + random_reads; }

  IoStats& operator+=(const IoStats& o) {
    sequential_reads += o.sequential_reads;
    random_reads += o.random_reads;
    page_writes += o.page_writes;
    fsyncs += o.fsyncs;
    readahead += o.readahead;
    return *this;
  }

  IoStats operator-(const IoStats& o) const {
    IoStats r;
    r.sequential_reads = sequential_reads - o.sequential_reads;
    r.random_reads = random_reads - o.random_reads;
    r.page_writes = page_writes - o.page_writes;
    r.fsyncs = fsyncs - o.fsyncs;
    r.readahead = readahead - o.readahead;
    return r;
  }
};

/// Analytical model of a spinning disk, used to convert IoStats into seconds.
/// Defaults approximate the paper's 7200 RPM SATA drive: average positioning
/// time (seek + half rotation), a sustained sequential transfer rate, and a
/// per-request command overhead.
struct DiskModel {
  double seek_seconds = 0.0085;            ///< average seek + rotational latency
  double transfer_bytes_per_sec = 100e6;   ///< sustained sequential bandwidth
  /// Command turnaround charged on every demanded read the drive buffer could
  /// not satisfy: the host issues the request, the drive completes it, the
  /// host issues the next one. Read-ahead exists to hide exactly this — a
  /// prefetch hit streams straight from the drive buffer and pays transfer
  /// only. Random reads' seek already subsumes it.
  double request_overhead_seconds = 0.0002;

  /// Seconds to serve the given traffic: every random read pays a seek plus a
  /// page transfer; a sequential read pays transfer plus, unless it was
  /// served from a read-ahead window, the per-request overhead. Prefetched
  /// pages that are later demanded pay their transfer at demand time (the
  /// bandwidth is consumed either way); wasted prefetch overlaps the stream
  /// and is not charged.
  double Seconds(const IoStats& s) const {
    const double page_xfer = static_cast<double>(kPageSize) / transfer_bytes_per_sec;
    const uint64_t hits = s.readahead.prefetch_hits < s.sequential_reads
                              ? s.readahead.prefetch_hits
                              : s.sequential_reads;
    return static_cast<double>(s.random_reads) * (seek_seconds + page_xfer) +
           static_cast<double>(s.sequential_reads - hits) *
               (request_overhead_seconds + page_xfer) +
           static_cast<double>(hits) * page_xfer;
  }

  /// Seconds to sequentially read `bytes` from disk (used by the ColOpt
  /// lower-bound model: time to just scan the compressed column data).
  double SequentialReadSeconds(uint64_t bytes) const {
    const uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
    return seek_seconds +  // one initial positioning
           static_cast<double>(pages) * kPageSize / transfer_bytes_per_sec;
  }
};

/// Per-query (or per-worker) I/O attribution sink. The disk manager and the
/// buffer pool record every page access into the sink attached to the
/// current thread (see IoScope) in addition to their global counters, so a
/// query's I/O can be totalled exactly even while other sessions run
/// concurrently — the global-counter delta the engine used when it was
/// single-threaded would blend all sessions together.
///
/// Counters are atomic so worker sinks can be folded into a query sink while
/// the owning thread still reads it.
struct IoSink {
  std::atomic<uint64_t> sequential_reads{0};
  std::atomic<uint64_t> random_reads{0};
  std::atomic<uint64_t> page_writes{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> pool_misses{0};
  std::atomic<uint64_t> readahead_windows{0};
  std::atomic<uint64_t> pages_prefetched{0};
  std::atomic<uint64_t> prefetch_hits{0};
  std::atomic<uint64_t> prefetch_wasted{0};

  IoStats ToStats() const {
    IoStats s;
    s.sequential_reads = sequential_reads.load(std::memory_order_relaxed);
    s.random_reads = random_reads.load(std::memory_order_relaxed);
    s.page_writes = page_writes.load(std::memory_order_relaxed);
    s.readahead.windows_issued = readahead_windows.load(std::memory_order_relaxed);
    s.readahead.pages_prefetched = pages_prefetched.load(std::memory_order_relaxed);
    s.readahead.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
    s.readahead.prefetch_wasted = prefetch_wasted.load(std::memory_order_relaxed);
    return s;
  }

  /// Adds this sink's counts into `other` (used when a worker finishes and
  /// its traffic is folded into the query-level sink).
  void AddTo(IoSink* other) const {
    other->sequential_reads.fetch_add(
        sequential_reads.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other->random_reads.fetch_add(random_reads.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
    other->page_writes.fetch_add(page_writes.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
    other->pool_hits.fetch_add(pool_hits.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
    other->pool_misses.fetch_add(pool_misses.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
    other->readahead_windows.fetch_add(
        readahead_windows.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other->pages_prefetched.fetch_add(
        pages_prefetched.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other->prefetch_hits.fetch_add(
        prefetch_hits.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other->prefetch_wasted.fetch_add(
        prefetch_wasted.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
};

/// The sink attached to the calling thread (nullptr when none).
IoSink* CurrentIoSink();

/// RAII scope that attaches `sink` to the current thread, restoring the
/// previous attachment on destruction (scopes nest: a worker's sink shadows
/// the session's query sink while the worker runs on that thread).
class IoScope {
 public:
  explicit IoScope(IoSink* sink);
  ~IoScope();

  IoScope(const IoScope&) = delete;
  IoScope& operator=(const IoScope&) = delete;

 private:
  IoSink* prev_;
};

/// An in-memory simulated disk. Pages live in RAM, but every read/write is
/// accounted for and classified sequential vs. random so that a DiskModel can
/// report the time a real spinning disk would have taken. This stands in for
/// the paper's 250 GB SATA drive and makes experiments deterministic.
///
/// Classification tracks a small set of concurrent read streams (modeling
/// drive readahead / command queueing): a read is sequential when it extends
/// any recently active stream by one page. This matters for the paper's §3
/// observation that index-nested-loop probes over c-tables arrive in
/// strictly ascending page order and therefore do NOT pay a seek per probe,
/// even though a naive cost model assumes they would.
///
/// Read-ahead: each stream additionally carries a forward prefetch window —
/// the interval (last_page, buffered_until] modeled as staged in the drive
/// buffer. A window opens when a read arrives with
/// AccessIntent::kSequentialScan (or when a stream is extended page-by-page)
/// and is topped up as the stream consumes it, so a steady scan sees every
/// page after the first as a prefetch hit. Demanded reads inside a window
/// are still counted as sequential_reads (the page-count invariants are
/// unchanged); they are *also* counted as prefetch hits, which the DiskModel
/// exempts from per-request overhead. Plain point reads never open windows,
/// so random-I/O-dominated workloads are byte-identical with read-ahead on
/// or off.
///
/// Thread-safe: a single mutex guards the page directory, the stream
/// classifier and the global counters, so per-read classification and
/// accounting stay exact (serialized, like a real drive head) no matter how
/// many sessions or workers issue I/O concurrently. Per-query totals are
/// exact via IoSink; the sequential/random *split* of interleaved streams
/// depends on arrival order, exactly as it would on hardware.
class DiskManager {
 public:
  /// When `heatmap` is non-null, every read/write is additionally recorded
  /// there — attributed to the calling thread's AccessScope label, under the
  /// same critical section that bumps the global counters, so per-object
  /// totals sum exactly to stats().
  explicit DiskManager(obs::AccessHeatmap* heatmap = nullptr)
      : heatmap_(heatmap) {}

  /// Number of concurrent sequential streams the classifier tracks.
  static constexpr int kReadStreams = 8;

  /// Default read-ahead window: 32 pages = 256 KiB, the classic drive /
  /// kernel readahead size.
  static constexpr uint32_t kDefaultReadaheadPages = 32;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocates a fresh zeroed page and returns its id.
  page_id_t AllocatePage();

  /// Reads a page into `dest` (kPageSize bytes). `intent` is the caller's
  /// access-pattern hint: kSequentialScan opens a read-ahead window at the
  /// head of a new stream, kPointLookup never does.
  Status ReadPage(page_id_t page_id, char* dest,
                  AccessIntent intent = AccessIntent::kPointLookup);

  /// Writes a page from `src` (kPageSize bytes). With a fault injector
  /// armed, the write may be dropped (simulated crash), in which case the
  /// backing store is untouched and kIoError is returned.
  Status WritePage(page_id_t page_id, const char* src);

  /// Simulated fsync: counted in IoStats::fsyncs. Returns kIoError when a
  /// fault injector drops the sync (the caller's durability watermark must
  /// not advance). Aborts when the caller holds the buffer-pool latch
  /// (lock_rank::AssertMayBlock).
  Status Sync(const std::source_location& caller =
                  std::source_location::current());

  /// Arms (or with nullptr disarms) fault injection on page writes and
  /// syncs. The injector is owned by the caller and must outlive its use;
  /// the same injector is typically shared with the LogManager so page and
  /// log durability share one crash-op counter.
  void SetFaultInjector(FaultInjector* injector) {
    MutexLock lock(mu_);
    injector_ = injector;
  }

  /// Deep-copies the backing store — the "platter image" a crash test
  /// carries across a simulated reboot. Dropped (post-crash) writes are
  /// naturally absent because they never reached pages_.
  std::vector<std::string> ClonePages() const;

  /// Installs a platter image into a freshly constructed DiskManager (the
  /// reboot counterpart of ClonePages). Fails unless no page has been
  /// allocated yet.
  Status RestorePages(const std::vector<std::string>& pages);

  /// Enables/disables read-ahead and sets the window size in pages.
  /// Read-ahead is on by default. Window sizes of 0 disable it.
  void ConfigureReadahead(bool enabled,
                          uint32_t window_pages = kDefaultReadaheadPages) {
    MutexLock lock(mu_);
    readahead_enabled_ = enabled && window_pages > 0;
    readahead_pages_ = window_pages;
  }

  /// Number of allocated pages.
  uint32_t NumPages() const {
    MutexLock lock(mu_);
    return static_cast<uint32_t>(pages_.size());
  }

  /// Snapshot of the global counters (copied under the lock).
  IoStats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }
  void ResetStats() {
    MutexLock lock(mu_);
    stats_ = IoStats{};
    for (int i = 0; i < kReadStreams; i++) streams_[i] = StreamPos{};
    clock_ = 0;
  }

 private:
  struct StreamPos {
    page_id_t last_page = kInvalidPageId - 1;
    /// Highest page staged in this stream's prefetch window; the interval
    /// (last_page, buffered_until] is "in the drive buffer". Equal to
    /// last_page when no window is open.
    page_id_t buffered_until = kInvalidPageId - 1;
    uint64_t last_used = 0;
  };

  /// Opens or tops up the prefetch window of `s` so that at least half a
  /// window is staged ahead of last_page (bounded by the allocated extent).
  void MaybeExtendWindow(StreamPos* s, uint64_t* windows_issued,
                         uint64_t* pages_prefetched) REQUIRES(mu_);

  obs::AccessHeatmap* const heatmap_;
  mutable Mutex mu_{LockRank::kDiskManager, "DiskManager::mu_"};
  std::vector<std::unique_ptr<char[]>> pages_ GUARDED_BY(mu_);
  IoStats stats_ GUARDED_BY(mu_);
  StreamPos streams_[kReadStreams] GUARDED_BY(mu_);
  uint64_t clock_ GUARDED_BY(mu_) = 0;
  bool readahead_enabled_ GUARDED_BY(mu_) = true;
  uint32_t readahead_pages_ GUARDED_BY(mu_) = kDefaultReadaheadPages;
  FaultInjector* injector_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace elephant
