#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "storage/disk_manager.h"

namespace elephant {
namespace obs {

/// Page-access counters for one storage object (a table's clustered index, a
/// secondary index, or a c-table — anything that owns pages).
struct ObjectIoStats {
  uint64_t pool_hits = 0;         ///< buffer-pool hits
  uint64_t pool_faults = 0;       ///< buffer-pool misses (each causes a read)
  uint64_t sequential_reads = 0;  ///< disk reads contiguous with a stream
  uint64_t random_reads = 0;      ///< disk reads paying a head seek
  uint64_t prefetch_hits = 0;     ///< sequential reads served from read-ahead
  uint64_t page_writes = 0;

  uint64_t TotalReads() const { return sequential_reads + random_reads; }

  /// Modeled disk time for this object's read traffic (same model the
  /// query-level io_seconds uses; writes are not modeled there either).
  double ModeledReadSeconds(const DiskModel& model) const {
    IoStats s;
    s.sequential_reads = sequential_reads;
    s.random_reads = random_reads;
    s.readahead.prefetch_hits = prefetch_hits;
    return model.Seconds(s);
  }

  void Add(const ObjectIoStats& o) {
    pool_hits += o.pool_hits;
    pool_faults += o.pool_faults;
    sequential_reads += o.sequential_reads;
    random_reads += o.random_reads;
    prefetch_hits += o.prefetch_hits;
    page_writes += o.page_writes;
  }
};

/// The access-attribution label for everything the calling thread is not
/// inside an AccessScope for.
const std::string& UnattributedLabel();

/// The label attached to the calling thread (UnattributedLabel() when none).
const std::string& CurrentAccessLabel();

/// RAII thread-local access attribution, the per-object analogue of IoScope:
/// storage objects (B+-trees, via their owning Table) install their label
/// around page accesses, and the heatmap hooks in DiskManager/BufferPool read
/// it at the access site. A null label leaves the current attribution
/// untouched (unlabeled trees inherit their caller's scope). Scopes nest and
/// restore on destruction.
class AccessScope {
 public:
  explicit AccessScope(const std::string* label);
  ~AccessScope();
  AccessScope(const AccessScope&) = delete;
  AccessScope& operator=(const AccessScope&) = delete;

 private:
  const std::string* prev_;
};

/// Engine-lifetime per-object page-access heatmap. The DiskManager and
/// BufferPool record every fault, hit, read (with its sequential/random
/// classification) and write under the same critical section that bumps
/// their global counters, attributed to CurrentAccessLabel() — so the
/// per-object totals sum EXACTLY to the global IoStats/BufferPoolStats, a
/// property tests enforce. Accesses outside any AccessScope land on
/// UnattributedLabel().
///
/// Thread-safe (one internal mutex, taken once per page access — same
/// granularity as the pool latch, so it adds no new contention point).
class AccessHeatmap {
 public:
  void RecordHit(const std::string& label);
  void RecordFault(const std::string& label);
  void RecordRead(const std::string& label, bool sequential,
                  bool prefetch_hit = false);
  void RecordWrite(const std::string& label);

  /// Copy of the per-object counters, keyed by label.
  std::map<std::string, ObjectIoStats> Snapshot() const;

  /// Sum over all objects (equals the global IoStats totals).
  ObjectIoStats Total() const;

  void Reset();

  /// {"objects": {label: {hits, faults, sequential_reads, ...}}, "total":
  /// {...}} with per-object modeled I/O milliseconds from `model`.
  std::string ToJson(const DiskModel& model) const;

  /// Aligned text table, one object per row, sorted by modeled I/O time.
  std::string ToString(const DiskModel& model) const;

 private:
  mutable Mutex mu_{LockRank::kHeatmap, "Heatmap::mu_"};
  std::map<std::string, ObjectIoStats> objects_ GUARDED_BY(mu_);
};

class JsonWriter;

/// Writes one object's counters as a JSON object — {pool_hits,
/// pool_faults, sequential_reads, random_reads, prefetch_hits, page_writes,
/// io_ms} with io_ms modeled by `model` — the one writer of per-object I/O
/// JSON (the heatmap document and the bench telemetry both use it).
void AppendObjectJson(const ObjectIoStats& s, const DiskModel& model,
                      JsonWriter* w);

/// Per-object difference `after - before` of two Snapshot() results (objects
/// with no traffic in between are omitted) — how benches attribute one
/// strategy's I/O when the heatmap has been accumulating engine-lifetime.
std::map<std::string, ObjectIoStats> HeatmapDelta(
    const std::map<std::string, ObjectIoStats>& before,
    const std::map<std::string, ObjectIoStats>& after);

}  // namespace obs
}  // namespace elephant
