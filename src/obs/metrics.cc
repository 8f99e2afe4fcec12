#include "obs/metrics.h"

#include <cstdio>

namespace elephant {
namespace obs {

std::vector<double> DefaultLatencyBuckets() {
  std::vector<double> b;
  for (double v = 1e-5; v < 200.0; v *= 10) {
    b.push_back(v);
    b.push_back(2.5 * v);
    b.push_back(5 * v);
  }
  return b;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return slot.get();
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  MutexLock lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, double> MetricsRegistry::GaugeValues() const {
  MutexLock lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::HistogramValues()
    const {
  MutexLock lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out[name] = h->Snapshot();
  return out;
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, c] : counters_) w.Key(name).UInt(c->value());
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, g] : gauges_) w.Key(name).Double(g->value());
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h->Snapshot();
    w.Key(name).BeginObject();
    w.Key("count").UInt(snap.count);
    w.Key("sum").Double(snap.sum);
    w.Key("p50").Double(snap.Quantile(0.5));
    w.Key("p99").Double(snap.Quantile(0.99));
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i < snap.buckets.size(); i++) {
      if (snap.buckets[i] == 0) continue;
      w.BeginObject();
      w.Key("le");
      if (i < snap.bounds.size()) {
        w.Double(snap.bounds[i]);
      } else {
        w.String("+Inf");
      }
      w.Key("count").UInt(snap.buckets[i]);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).str();
}

std::string MetricsRegistry::ToString() const {
  MutexLock lock(mu_);
  std::string out;
  char buf[64];
  for (const auto& [name, c] : counters_) {
    out += name + " = " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "%g", g->value());
    out += name + " = " + buf + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h->Snapshot();
    std::snprintf(buf, sizeof(buf), "count=%llu sum=%g p50=%g p99=%g",
                  static_cast<unsigned long long>(snap.count), snap.sum,
                  snap.Quantile(0.5), snap.Quantile(0.99));
    out += name + " = " + buf + "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace obs
}  // namespace elephant
