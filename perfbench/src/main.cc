// perfbench: runs one benchmark workload against the engine's public API
// and prints one JSON report line. See perfbench/README.md.
//
//   perfbench --workload fig2_cold|adhoc_warm|append_fresh --seed N
//             --seconds S --trace 0|1 [--scale-factor F] [--out-dir DIR]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/json.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig2_cold|adhoc_warm|append_fresh --seed N --seconds S "
               "--trace 0|1 [--scale-factor F] [--out-dir DIR]\n",
               why);
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// FNV-1a over the sorted "name=value" lines of the deterministic counters.
std::string Digest(const std::map<std::string, uint64_t>& counters) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [name, value] : counters) {
    const std::string line = name + "=" + std::to_string(value) + "\n";
    for (char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string out_dir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--scale-factor") {
      config.scale_factor = std::strtod(value, &end);
      if (end == value || *end != '\0' || config.scale_factor <= 0) {
        return Usage("bad --scale-factor");
      }
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  SpanRecorder spans(config.trace);
  Outcome out;
  Status status;
  if (config.workload == "fig2_cold") {
    status = RunFig2Cold(config, &spans, &out);
  } else if (config.workload == "adhoc_warm") {
    status = RunAdhocWarm(config, &spans, &out);
  } else if (config.workload == "append_fresh") {
    status = RunAppendFresh(config, &spans, &out);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s could not run: %s\n",
                 config.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  ReportSetup(&out);
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.Set("host.scale", out.host.Scale(), "ratio");

  const std::string stem = out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  std::string trace_file;
  if (config.trace) {
    trace_file = stem + ".spans.jsonl";
    if (!spans.WriteJsonl(trace_file)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
  }
  {
    std::ofstream counters(stem + ".counters.txt", std::ios::trunc);
    for (const auto& [name, value] : out.deterministic) {
      counters << name << '=' << value << '\n';
    }
  }

  elephant::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(config.workload);
  w.Key("seed").UInt(config.seed);
  w.Key("seconds").Double(config.seconds);
  w.Key("trace").Bool(config.trace);
  w.Key("scale_factor").Double(config.scale_factor);
  w.Key("host").BeginObject();
  w.Key("nproc").UInt(std::thread::hardware_concurrency());
  w.Key("cpu_model").String(CpuModel());
  w.Key("compiler").String(PERFBENCH_COMPILER);
  w.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w.Key("speed_kernel_s").Double(out.host.MedianSeconds());
  w.Key("speed_kernel_samples").UInt(out.host.samples());
  w.Key("speed_scale").Double(out.host.Scale());
  w.Key("setup_speed_scale").Double(out.setup_host.Scale());
  w.EndObject();
  w.Key("correct").Bool(out.failed == 0);
  w.Key("attempted").UInt(out.attempted);
  w.Key("failed").UInt(out.failed);
  w.Key("errors").BeginArray();
  for (const std::string& e : out.errors) w.String(e);
  w.EndArray();
  w.Key("deterministic_digest").String(Digest(out.deterministic));
  w.Key("deterministic_counters").UInt(out.deterministic.size());
  w.Key("trace_file").String(trace_file);
  w.Key("samples").BeginObject();
  for (const auto& [name, n] : out.samples) w.Key(name).UInt(n);
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const auto& [name, m] : out.metrics) {
    w.Key(name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
