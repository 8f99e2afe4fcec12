#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/histogram.h"
#include "obs/json.h"

namespace elephant {
namespace obs {

/// Monotonically increasing counter. Lock-free: safe to increment from any
/// thread (concurrent sessions all bump the same statement counters).
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time value (last write wins). Thread-safe; Add() uses a CAS loop
/// since atomic double addition predates this codebase's toolchain floor.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Exponential latency buckets from 10us to ~100s.
std::vector<double> DefaultLatencyBuckets();

/// Named metric registry. Handles are stable for the registry's lifetime;
/// looking a name up again returns the same instrument (a histogram's bucket
/// bounds are fixed by the first registration). Thread-safe: registration
/// and lookup take an internal mutex, and the instruments themselves are
/// individually thread-safe, so concurrent sessions can share one registry.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = DefaultLatencyBuckets());

  /// Nullptr when the name is not registered (or is a different kind).
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Current values of every instrument of one kind, keyed by name —
  /// consistent snapshots for exporters (the Prometheus serializer walks
  /// these rather than holding the registry lock while formatting).
  std::map<std::string, uint64_t> CounterValues() const;
  std::map<std::string, double> GaugeValues() const;
  std::map<std::string, HistogramSnapshot> HistogramValues() const;

  /// Snapshot of every instrument, keyed by name.
  std::string ToJson() const;
  /// Human-readable one-instrument-per-line dump.
  std::string ToString() const;

  /// Process-wide default registry.
  static MetricsRegistry& Global();

 private:
  mutable Mutex mu_{LockRank::kMetricsRegistry, "MetricsRegistry::mu_"};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace elephant
