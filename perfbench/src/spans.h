#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span: a named interval with the span that caused it. Spans
/// of one statement (or one setup step) share `trace_id`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t trace_id = 0;
  std::string name;
  double start_s = 0;  ///< seconds since the recorder was created
  double end_s = 0;
};

/// In-memory span recorder for the traced run. The benchmark opens spans
/// around its own calls into the engine's modules; children derived from
/// data the engine returns (phase timings, per-operator self time) carry
/// measured durations laid back to back inside their parent. Disabled
/// recorders keep nothing, so the untraced run pays one branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Seconds since the recorder was created (steady clock).
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Starts a trace: returns a fresh id for a group of related spans.
  uint64_t NewTrace() { return enabled_ ? ++next_trace_ : 0; }

  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Add(std::string name, uint64_t parent, uint64_t trace_id,
               double start_s, double end_s);

  /// Opens a span starting now, so that spans it causes can name it as
  /// their parent; End() closes it. Returns 0 when disabled.
  uint64_t Begin(std::string name, uint64_t parent, uint64_t trace_id) {
    const double now = Now();
    return Add(std::move(name), parent, trace_id, now, now);
  }
  void End(uint64_t id) {
    if (id != 0) spans_[id - 1].end_s = Now();
  }

  /// Writes every span as one JSON object per line. Returns false on an
  /// I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  uint64_t next_id_ = 0;
  uint64_t next_trace_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
