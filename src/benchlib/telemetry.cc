#include "benchlib/telemetry.h"

#include <cstdio>
#include <cstring>

#include "obs/trace_log.h"

namespace elephant {
namespace paper {

namespace {

void AppendLabels(const std::map<std::string, std::string>& labels,
                  obs::JsonWriter* w) {
  w->Key("labels").BeginObject();
  for (const auto& [k, v] : labels) w->Key(k).String(v);
  w->EndObject();
}

std::string ChecksumHex(uint64_t checksum) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

}  // namespace

BenchTelemetry& BenchTelemetry::Instance() {
  static BenchTelemetry instance;
  return instance;
}

namespace {

/// Extracts `--<flag> <path>` or `--<flag>=<path>` from argv (consuming the
/// tokens), storing the path in `*out`. Returns how many tokens argv shrank
/// by at position i (0 when no match).
int ExtractPathFlag(const char* flag, int i, int* argc, char** argv,
                    std::string* out) {
  if (std::strcmp(argv[i], flag) == 0 && i + 1 < *argc) {
    *out = argv[i + 1];
    for (int j = i; j + 2 < *argc; j++) argv[j] = argv[j + 2];
    *argc -= 2;
    return 2;
  }
  const std::string prefix = std::string(flag) + "=";
  if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
    *out = argv[i] + prefix.size();
    for (int j = i; j + 1 < *argc; j++) argv[j] = argv[j + 1];
    *argc -= 1;
    return 1;
  }
  return 0;
}

}  // namespace

void BenchTelemetry::Configure(std::string bench_name, int* argc, char** argv) {
  bench_name_ = std::move(bench_name);
  int i = 1;
  while (i < *argc) {
    if (ExtractPathFlag("--json", i, argc, argv, &path_) > 0) continue;
    if (ExtractPathFlag("--trace", i, argc, argv, &trace_path_) > 0) continue;
    if (ExtractPathFlag("--metrics", i, argc, argv, &metrics_path_) > 0) {
      continue;
    }
    if (ExtractPathFlag("--stat-statements", i, argc, argv,
                        &stat_statements_path_) > 0) {
      continue;
    }
    i++;
  }
  if (!trace_path_.empty()) obs::TraceLog::Global().Enable();
}

void BenchTelemetry::RecordStrategy(
    const std::map<std::string, std::string>& labels,
    const StrategyResult& result) {
  if (!enabled()) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("strategy");
  AppendLabels(labels, &w);
  w.Key("strategy").String(result.strategy);
  w.Key("sql").String(result.sql);
  w.Key("seconds").Double(result.seconds);
  w.Key("io_seconds").Double(result.io_seconds);
  w.Key("cpu_seconds").Double(result.cpu_seconds);
  w.Key("pages_sequential").UInt(result.pages_sequential);
  w.Key("pages_random").UInt(result.pages_random);
  w.Key("index_seeks").UInt(result.index_seeks);
  w.Key("rows").UInt(result.rows);
  w.Key("checksum").String(ChecksumHex(result.checksum));
  w.Key("operators").BeginArray();
  for (const obs::OperatorBreakdown& op : result.operators) {
    w.BeginObject();
    w.Key("op").String(op.op);
    w.Key("depth").Int(op.depth);
    w.Key("rows").UInt(op.rows);
    w.Key("next_calls").UInt(op.next_calls);
    w.Key("seconds").Double(op.seconds);
    w.Key("seq_reads").UInt(op.io.sequential_reads);
    w.Key("rand_reads").UInt(op.io.random_reads);
    w.Key("page_writes").UInt(op.io.page_writes);
    w.Key("pool_hits").UInt(op.pool_hits);
    w.Key("pool_misses").UInt(op.pool_misses);
    if (op.est_rows >= 0) w.Key("est_rows").Double(op.est_rows);
    w.EndObject();
  }
  w.EndArray();
  w.Key("heatmap").BeginObject();
  for (const auto& [object, io] : result.heatmap) {
    w.Key(object);
    obs::AppendObjectJson(io, result.disk_model, &w);
  }
  w.EndObject();
  w.EndObject();
  records_.push_back(std::move(w).str());
}

void BenchTelemetry::RecordMetrics(
    const std::map<std::string, std::string>& labels,
    const std::map<std::string, double>& values) {
  if (!enabled()) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("metrics");
  AppendLabels(labels, &w);
  w.Key("values").BeginObject();
  for (const auto& [k, v] : values) w.Key(k).Double(v);
  w.EndObject();
  w.EndObject();
  records_.push_back(std::move(w).str());
}

bool BenchTelemetry::WriteMetricsText(const std::string& text) {
  if (metrics_path_.empty()) return true;
  std::FILE* f = std::fopen(metrics_path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s\n", metrics_path_.c_str());
    return false;
  }
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0;
}

bool BenchTelemetry::WriteStatStatementsJson(const std::string& json) {
  if (stat_statements_path_.empty()) return true;
  std::FILE* f = std::fopen(stat_statements_path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s\n",
                 stat_statements_path_.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  return std::fclose(f) == 0;
}

bool BenchTelemetry::Flush() {
  bool ok = true;
  if (!trace_path_.empty() &&
      !obs::TraceLog::Global().WriteFile(trace_path_)) {
    std::fprintf(stderr, "telemetry: cannot write trace %s\n",
                 trace_path_.c_str());
    ok = false;
  }
  if (!enabled()) return ok;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s\n", path_.c_str());
    return false;
  }
  obs::JsonWriter head;
  head.BeginObject();
  head.Key("bench").String(bench_name_);
  head.Key("schema_version").Int(2);
  const std::string& prefix = head.str();
  std::fputs(prefix.c_str(), f);
  // Splice the records array into the open object by hand: the records are
  // already serialized.
  std::fputs(",\"records\":[", f);
  for (size_t i = 0; i < records_.size(); i++) {
    if (i > 0) std::fputc(',', f);
    std::fputs(records_[i].c_str(), f);
  }
  std::fputs("]}", f);
  std::fputc('\n', f);
  return (std::fclose(f) == 0) && ok;
}

}  // namespace paper
}  // namespace elephant
