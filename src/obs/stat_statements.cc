#include "obs/stat_statements.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "obs/json.h"
#include "obs/metrics.h"

namespace elephant {
namespace obs {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void AddIo(IoStats* a, const IoStats& b) {
  a->sequential_reads += b.sequential_reads;
  a->random_reads += b.random_reads;
  a->page_writes += b.page_writes;
  a->readahead.windows_issued += b.readahead.windows_issued;
  a->readahead.pages_prefetched += b.readahead.pages_prefetched;
  a->readahead.prefetch_hits += b.readahead.prefetch_hits;
  a->readahead.prefetch_wasted += b.readahead.prefetch_wasted;
}

}  // namespace

std::string NormalizeSql(std::string_view sql) {
  std::string out;
  out.reserve(sql.size());
  bool pending_space = false;
  auto emit = [&out, &pending_space](char c) {
    if (pending_space && !out.empty()) out.push_back(' ');
    pending_space = false;
    out.push_back(c);
  };
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      pending_space = true;
      i++;
      continue;
    }
    if (c == '\'') {
      // String literal ('' escapes a quote): the whole token becomes `?`.
      i++;
      while (i < sql.size()) {
        if (sql[i] == '\'') {
          if (i + 1 < sql.size() && sql[i + 1] == '\'') {
            i += 2;
            continue;
          }
          i++;
          break;
        }
        i++;
      }
      emit('?');
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 &&
        (out.empty() || !IsIdentChar(out.back()))) {
      // Numeric literal (digits with embedded dots); digits inside an
      // identifier like `col2` stay part of the identifier.
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) != 0 ||
              sql[i] == '.')) {
        i++;
      }
      emit('?');
      continue;
    }
    emit(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    i++;
  }
  return out;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 14695981039346656037ull;
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FingerprintSql(std::string_view sql) {
  return Fnv1a64(NormalizeSql(sql));
}

uint64_t PlanShapeHash(std::string_view plan_text) {
  return Fnv1a64(NormalizeSql(plan_text));
}

std::string HexHash(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string OperatorClassOf(std::string_view label) {
  size_t end = 0;
  while (end < label.size() && label[end] != ' ' && label[end] != '\n') end++;
  return std::string(label.substr(0, end));
}

void AppendIoJson(const IoStats& io, JsonWriter* w) {
  w->BeginObject();
  w->Key("sequential_reads").UInt(io.sequential_reads);
  w->Key("random_reads").UInt(io.random_reads);
  w->Key("page_writes").UInt(io.page_writes);
  w->Key("readahead").BeginObject();
  w->Key("windows_issued").UInt(io.readahead.windows_issued);
  w->Key("pages_prefetched").UInt(io.readahead.pages_prefetched);
  w->Key("prefetch_hits").UInt(io.readahead.prefetch_hits);
  w->Key("prefetch_wasted").UInt(io.readahead.prefetch_wasted);
  w->EndObject();
  w->EndObject();
}

void StatementRecord::SetSql(std::string text) {
  sql = std::move(text);
  query = NormalizeSql(sql);
  fingerprint = Fnv1a64(query);
}

const std::vector<double>& StatStatements::LatencyBounds() {
  static const std::vector<double> bounds = DefaultLatencyBuckets();
  return bounds;
}

StatStatements::StatStatements(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void StatStatements::Record(const StatementRecord& record) {
  const Key key{record.fingerprint, record.plan_hash};

  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    if (entries_.size() >= capacity_) {
      // Evict the least-recently-used entry (list tail) — counted, so
      // exporters can tell a quiet workload from a churning one.
      const StatementStats& victim = entries_.back();
      index_.erase(Key{victim.fingerprint, victim.plan_hash});
      entries_.pop_back();
      evicted_++;
    }
    StatementStats fresh;
    fresh.query = record.query;
    fresh.fingerprint = record.fingerprint;
    fresh.plan_hash = record.plan_hash;
    fresh.latency = HistogramSnapshot(LatencyBounds());
    fresh.min_seconds = record.latency_seconds;
    fresh.max_seconds = record.latency_seconds;
    entries_.push_front(std::move(fresh));
    it = index_.emplace(key, entries_.begin()).first;
  } else if (it->second != entries_.begin()) {
    entries_.splice(entries_.begin(), entries_, it->second);  // mark MRU
  }

  StatementStats& entry = *it->second;
  entry.calls++;
  entry.rows += record.rows;
  entry.total_seconds += record.latency_seconds;
  entry.total_io_seconds += record.io_seconds;
  entry.min_seconds = std::min(entry.min_seconds, record.latency_seconds);
  entry.max_seconds = std::max(entry.max_seconds, record.latency_seconds);
  AddIo(&entry.io, record.io);
  entry.latency.Observe(record.latency_seconds);

  if (!record.residuals.empty()) {
    entry.instrumented_calls++;
    for (const OperatorResidual& r : record.residuals) {
      OperatorClassStats& cls = entry.operator_classes[r.op_class];
      cls.operators++;
      cls.modeled_io_seconds += r.modeled_io_seconds;
      cls.measured_seconds += r.measured_seconds;
    }
  }
}

std::vector<StatementStats> StatStatements::Snapshot() const {
  MutexLock lock(mu_);
  return std::vector<StatementStats>(entries_.begin(), entries_.end());
}

size_t StatStatements::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

uint64_t StatStatements::evicted_entries() const {
  MutexLock lock(mu_);
  return evicted_;
}

void StatStatements::Reset() {
  MutexLock lock(mu_);
  entries_.clear();
  index_.clear();
  evicted_ = 0;
}

std::string StatStatements::ToJson() const {
  const std::vector<StatementStats> entries = Snapshot();
  uint64_t evicted;
  {
    MutexLock lock(mu_);
    evicted = evicted_;
  }

  uint64_t total_calls = 0, total_rows = 0;
  double total_seconds = 0, total_io_seconds = 0;
  IoStats total_io;
  for (const StatementStats& e : entries) {
    total_calls += e.calls;
    total_rows += e.rows;
    total_seconds += e.total_seconds;
    total_io_seconds += e.total_io_seconds;
    AddIo(&total_io, e.io);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("capacity").UInt(capacity_);
  w.Key("entries").UInt(entries.size());
  w.Key("evicted_entries").UInt(evicted);
  w.Key("latency_bounds").BeginArray();
  for (double b : LatencyBounds()) w.Double(b);
  w.EndArray();
  w.Key("totals").BeginObject();
  w.Key("calls").UInt(total_calls);
  w.Key("rows").UInt(total_rows);
  w.Key("total_seconds").Double(total_seconds);
  w.Key("total_io_seconds").Double(total_io_seconds);
  w.Key("io");
  AppendIoJson(total_io, &w);
  w.EndObject();
  w.Key("statements").BeginArray();
  for (const StatementStats& e : entries) {
    w.BeginObject();
    w.Key("fingerprint").String(HexHash(e.fingerprint));
    w.Key("plan_hash").String(HexHash(e.plan_hash));
    w.Key("query").String(e.query);
    w.Key("calls").UInt(e.calls);
    w.Key("rows").UInt(e.rows);
    w.Key("instrumented_calls").UInt(e.instrumented_calls);
    w.Key("total_seconds").Double(e.total_seconds);
    w.Key("mean_seconds").Double(e.MeanSeconds());
    w.Key("min_seconds").Double(e.min_seconds);
    w.Key("max_seconds").Double(e.max_seconds);
    w.Key("p95_seconds").Double(e.latency.Quantile(0.95));
    w.Key("total_io_seconds").Double(e.total_io_seconds);
    w.Key("residual_seconds").Double(e.ResidualSeconds());
    w.Key("io");
    AppendIoJson(e.io, &w);
    w.Key("latency_buckets").BeginArray();
    for (uint64_t c : e.latency.buckets) w.UInt(c);
    w.EndArray();
    w.Key("operator_classes").BeginObject();
    for (const auto& [name, cls] : e.operator_classes) {
      w.Key(name).BeginObject();
      w.Key("operators").UInt(cls.operators);
      w.Key("modeled_io_seconds").Double(cls.modeled_io_seconds);
      w.Key("measured_seconds").Double(cls.measured_seconds);
      w.Key("residual_seconds").Double(cls.ResidualSeconds());
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

std::string StatStatements::ToPrometheusTopN(size_t n) const {
  std::vector<StatementStats> entries = Snapshot();
  if (entries.empty() || n == 0) return "";
  std::sort(entries.begin(), entries.end(),
            [](const StatementStats& a, const StatementStats& b) {
              return a.total_io_seconds > b.total_io_seconds;
            });
  if (entries.size() > n) entries.resize(n);

  auto labels = [](const StatementStats& e) {
    return "{fingerprint=\"" + HexHash(e.fingerprint) + "\",plan_hash=\"" +
           HexHash(e.plan_hash) + "\"}";
  };
  std::string out;
  out += "# TYPE elephant_stat_statements_calls_total counter\n";
  for (const StatementStats& e : entries) {
    out += "elephant_stat_statements_calls_total" + labels(e) + " " +
           std::to_string(e.calls) + "\n";
  }
  char buf[64];
  out += "# TYPE elephant_stat_statements_seconds_total counter\n";
  for (const StatementStats& e : entries) {
    std::snprintf(buf, sizeof(buf), "%.17g", e.total_seconds);
    out += "elephant_stat_statements_seconds_total" + labels(e) + " " + buf +
           "\n";
  }
  out += "# TYPE elephant_stat_statements_io_seconds_total counter\n";
  for (const StatementStats& e : entries) {
    std::snprintf(buf, sizeof(buf), "%.17g", e.total_io_seconds);
    out += "elephant_stat_statements_io_seconds_total" + labels(e) + " " +
           buf + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace elephant
