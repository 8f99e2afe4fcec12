#include "obs/heatmap.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/json.h"

namespace elephant {
namespace obs {

namespace {

thread_local const std::string* t_access_label = nullptr;

}  // namespace

void AppendObjectJson(const ObjectIoStats& s, const DiskModel& model,
                      JsonWriter* w) {
  w->BeginObject();
  w->Key("pool_hits").UInt(s.pool_hits);
  w->Key("pool_faults").UInt(s.pool_faults);
  w->Key("sequential_reads").UInt(s.sequential_reads);
  w->Key("random_reads").UInt(s.random_reads);
  w->Key("prefetch_hits").UInt(s.prefetch_hits);
  w->Key("page_writes").UInt(s.page_writes);
  w->Key("io_ms").Double(s.ModeledReadSeconds(model) * 1e3);
  w->EndObject();
}

const std::string& UnattributedLabel() {
  static const std::string label = "(unattributed)";
  return label;
}

const std::string& CurrentAccessLabel() {
  return t_access_label != nullptr ? *t_access_label : UnattributedLabel();
}

AccessScope::AccessScope(const std::string* label) : prev_(t_access_label) {
  if (label != nullptr) t_access_label = label;
}

AccessScope::~AccessScope() { t_access_label = prev_; }

void AccessHeatmap::RecordHit(const std::string& label) {
  MutexLock lock(mu_);
  objects_[label].pool_hits++;
}

void AccessHeatmap::RecordFault(const std::string& label) {
  MutexLock lock(mu_);
  objects_[label].pool_faults++;
}

void AccessHeatmap::RecordRead(const std::string& label, bool sequential,
                               bool prefetch_hit) {
  MutexLock lock(mu_);
  ObjectIoStats& s = objects_[label];
  if (sequential) {
    s.sequential_reads++;
    if (prefetch_hit) s.prefetch_hits++;
  } else {
    s.random_reads++;
  }
}

void AccessHeatmap::RecordWrite(const std::string& label) {
  MutexLock lock(mu_);
  objects_[label].page_writes++;
}

std::map<std::string, ObjectIoStats> AccessHeatmap::Snapshot() const {
  MutexLock lock(mu_);
  return objects_;
}

ObjectIoStats AccessHeatmap::Total() const {
  MutexLock lock(mu_);
  ObjectIoStats total;
  for (const auto& [label, s] : objects_) total.Add(s);
  return total;
}

void AccessHeatmap::Reset() {
  MutexLock lock(mu_);
  objects_.clear();
}

std::string AccessHeatmap::ToJson(const DiskModel& model) const {
  const std::map<std::string, ObjectIoStats> snap = Snapshot();
  ObjectIoStats total;
  JsonWriter w;
  w.BeginObject();
  w.Key("objects").BeginObject();
  for (const auto& [label, s] : snap) {
    total.Add(s);
    w.Key(label);
    AppendObjectJson(s, model, &w);
  }
  w.EndObject();
  w.Key("total");
  AppendObjectJson(total, model, &w);
  w.EndObject();
  return std::move(w).str();
}

std::string AccessHeatmap::ToString(const DiskModel& model) const {
  const std::map<std::string, ObjectIoStats> snap = Snapshot();
  std::vector<std::pair<std::string, ObjectIoStats>> rows(snap.begin(),
                                                          snap.end());
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    return a.second.ModeledReadSeconds(model) >
           b.second.ModeledReadSeconds(model);
  });
  size_t width = 6;  // strlen("object")
  for (const auto& [label, s] : rows) width = std::max(width, label.size());
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%-*s %10s %10s %12s %10s %10s %10s\n",
                static_cast<int>(width), "object", "hits", "faults",
                "seq_reads", "rnd_reads", "writes", "io_ms");
  std::string out = buf;
  ObjectIoStats total;
  for (const auto& [label, s] : rows) {
    total.Add(s);
    std::snprintf(buf, sizeof(buf),
                  "%-*s %10llu %10llu %12llu %10llu %10llu %10.2f\n",
                  static_cast<int>(width), label.c_str(),
                  static_cast<unsigned long long>(s.pool_hits),
                  static_cast<unsigned long long>(s.pool_faults),
                  static_cast<unsigned long long>(s.sequential_reads),
                  static_cast<unsigned long long>(s.random_reads),
                  static_cast<unsigned long long>(s.page_writes),
                  s.ModeledReadSeconds(model) * 1e3);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "%-*s %10llu %10llu %12llu %10llu %10llu %10.2f\n",
                static_cast<int>(width), "TOTAL",
                static_cast<unsigned long long>(total.pool_hits),
                static_cast<unsigned long long>(total.pool_faults),
                static_cast<unsigned long long>(total.sequential_reads),
                static_cast<unsigned long long>(total.random_reads),
                static_cast<unsigned long long>(total.page_writes),
                total.ModeledReadSeconds(model) * 1e3);
  out += buf;
  return out;
}

std::map<std::string, ObjectIoStats> HeatmapDelta(
    const std::map<std::string, ObjectIoStats>& before,
    const std::map<std::string, ObjectIoStats>& after) {
  std::map<std::string, ObjectIoStats> delta;
  for (const auto& [label, a] : after) {
    ObjectIoStats d = a;
    const auto it = before.find(label);
    if (it != before.end()) {
      const ObjectIoStats& b = it->second;
      d.pool_hits -= b.pool_hits;
      d.pool_faults -= b.pool_faults;
      d.sequential_reads -= b.sequential_reads;
      d.random_reads -= b.random_reads;
      d.prefetch_hits -= b.prefetch_hits;
      d.page_writes -= b.page_writes;
    }
    if (d.pool_hits == 0 && d.pool_faults == 0 && d.sequential_reads == 0 &&
        d.random_reads == 0 && d.page_writes == 0) {
      continue;
    }
    delta[label] = d;
  }
  return delta;
}

}  // namespace obs
}  // namespace elephant
