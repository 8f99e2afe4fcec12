#pragma once

// The engine's one bucketed-latency histogram, shared by the engine's
// statement counters, the wait-event registry and the stat-statements
// entries.
//
// wait_events.h includes this header and is itself included by
// common/thread_annotations.h, so it must not include that back: standard
// library only.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace elephant {
namespace obs {

/// Exponential latency buckets from 10us to ~100s.
std::vector<double> DefaultLatencyBuckets();

/// Fixed-bucket histogram state as a plain value. Bucket i counts
/// observations with `v <= bounds[i]`; one overflow bucket (last) catches
/// the rest. Histogram::Snapshot() produces one; a single writer that
/// already serializes its updates (a StatStatements entry under the
/// registry mutex) observes into one directly.
struct HistogramSnapshot {
  std::vector<double> bounds;     ///< ascending upper bounds
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  uint64_t count = 0;
  double sum = 0;

  HistogramSnapshot() = default;
  /// Empty histogram over `upper_bounds` (must be ascending).
  explicit HistogramSnapshot(std::vector<double> upper_bounds);

  /// Index of the bucket `v` falls in: the first bound >= v, or
  /// bounds.size() (overflow).
  static size_t BucketIndex(const std::vector<double>& bounds, double v);

  void Observe(double v);

  /// Quantile estimate for q in [0,1] (clamped), assuming observations are
  /// spread uniformly within their bucket (the first bucket spans [0,
  /// bounds[0]]): the q·count-th observation interpolated between its
  /// bucket's edges. The overflow bucket has no upper edge and reports the
  /// last finite bound. 0 when empty.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram safe to observe from any thread, including from
/// inside Mutex::Lock (the wait-event registry records there): Observe()
/// takes no lock and never allocates — relaxed atomic bucket increments
/// plus an atomic add to the sum. The count is not stored; Snapshot()
/// derives it from the buckets, so a snapshot's count always equals the sum
/// of its buckets.
class Histogram {
 public:
  /// Bounds are sorted ascending.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }

  HistogramSnapshot Snapshot() const;

  /// Zeroes every bucket and the sum (racing observers land in the fresh
  /// epoch).
  void Reset();

 private:
  std::vector<double> bounds_;  ///< immutable after the constructor
  std::vector<std::atomic<uint64_t>> buckets_;  ///< bounds_.size() + 1
  std::atomic<double> sum_{0};
};

}  // namespace obs
}  // namespace elephant
