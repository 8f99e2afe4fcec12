#include "obs/histogram.h"

#include <algorithm>

namespace elephant {
namespace obs {

HistogramSnapshot::HistogramSnapshot(std::vector<double> upper_bounds)
    : bounds(std::move(upper_bounds)), buckets(bounds.size() + 1, 0) {}

size_t HistogramSnapshot::BucketIndex(const std::vector<double>& bounds,
                                      double v) {
  return static_cast<size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

void HistogramSnapshot::Observe(double v) {
  buckets[BucketIndex(bounds, v)]++;
  count++;
  sum += v;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  const double last = bounds.empty() ? 0 : bounds.back();
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); i++) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(seen + buckets[i]) >= target) {
      if (i >= bounds.size()) return last;
      const double lo = i == 0 ? 0 : bounds[i - 1];
      const double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(buckets[i]);
      return lo + frac * (bounds[i] - lo);
    }
    seen += buckets[i];
  }
  return last;
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
}

void Histogram::Observe(double v) {
  buckets_[HistogramSnapshot::BucketIndex(bounds_, v)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap(bounds_);
  for (size_t i = 0; i < buckets_.size(); i++) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (std::atomic<uint64_t>& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace elephant
