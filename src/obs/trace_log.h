#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/json.h"

namespace elephant {
namespace obs {

/// One finished span: a named phase with its nesting depth and duration.
/// Spans appear in start order, so a depth-annotated flat list reconstructs
/// the tree.
struct SpanRecord {
  std::string name;
  int depth = 0;
  double seconds = 0;
};

/// The phase timings of one query, collected from its phase spans (see
/// QueryTraceScope) and attached to QueryResult: parse -> bind -> plan ->
/// execute, plus any nested phases.
struct QueryTrace {
  std::vector<SpanRecord> spans;

  /// Seconds of the first span with this name, or 0 when absent.
  double SecondsFor(const std::string& name) const;

  /// "parse 0.01ms | bind 0.02ms | plan 0.1ms | execute 5.2ms" (top level
  /// spans only; nested spans are indented on ToString's following lines).
  std::string ToString() const;
  void AppendJson(JsonWriter* w) const;
};

/// RAII thread-local QueryTrace collector: while installed, phase spans
/// (TraceSpan::Phase) opened on this thread append a SpanRecord to `trace`,
/// at depths counted from 0. Nests/restores like IoScope; a statement
/// installs one before its parse phase. Worker threads never inherit it,
/// and non-phase spans (statement, task, morsel, fault) never record into
/// it. The scope and `trace` must outlive every phase span opened under it.
class QueryTraceScope {
 public:
  explicit QueryTraceScope(QueryTrace* trace);
  ~QueryTraceScope();
  QueryTraceScope(const QueryTraceScope&) = delete;
  QueryTraceScope& operator=(const QueryTraceScope&) = delete;

 private:
  QueryTrace* prev_;
  int prev_depth_;
};

/// Extra string arguments attached to a trace event ({"sql": "...",
/// "page": "17"}). Keys must be literals or otherwise outlive the call.
using TraceArgs = std::vector<std::pair<const char*, std::string>>;

/// One Chrome-trace ("trace_event") record. `name` and `cat` must be string
/// literals (spans are named at fixed call sites), which keeps recording
/// allocation-free apart from the args vector.
struct TraceEvent {
  char ph = 'B';           ///< 'B' begin, 'E' end, 'i' instant
  const char* name = "";
  const char* cat = "";
  int64_t ts_us = 0;       ///< microseconds since the log was constructed
  int32_t pid = 0;         ///< Perfetto process track: 0 = engine, n = session n-1
  uint32_t tid = 0;        ///< Perfetto thread track: small per-thread id
  uint64_t span_id = 0;    ///< 0 on instants
  uint64_t parent_id = 0;  ///< owning span (0 = root), crosses threads
  TraceArgs args;
};

/// Engine-lifetime Chrome-trace/Perfetto event log. Every thread records
/// into one shared log: session statements, per-morsel worker tasks,
/// buffer-pool faults and simulated-disk seeks all land on their own
/// thread/process tracks, so `WriteFile()` output opens directly in
/// Perfetto (ui.perfetto.dev) or chrome://tracing.
///
/// Disabled by default: recording sites check `enabled()` (one relaxed
/// atomic load) before building any event, so the always-compiled hooks cost
/// nothing in production runs. Thread-safe; the event buffer is bounded
/// (kMaxEvents) and drops begin/instant events past the cap while always
/// admitting matching 'E' events, so captured spans stay balanced.
class TraceLog {
 public:
  /// Soft cap on buffered events; ~100 bytes each.
  static constexpr size_t kMaxEvents = 1u << 20;

  /// Process-wide log (one engine per process in every current deployment).
  static TraceLog& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops all buffered events (thread names are kept).
  void Clear();

  /// Shrinks (or restores) the event-buffer cap. Production code leaves the
  /// default kMaxEvents; tests shrink it so the balanced-drop path can be
  /// exercised without buffering a million events. 0 is clamped to 1.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  /// Appends one event, filling in ts/tid (and pid from the session scope)
  /// when the caller left them zero. Returns false when the event was
  /// dropped (log disabled or buffer full).
  bool Emit(TraceEvent ev);

  /// Records an instant event on the calling thread's track.
  void Instant(const char* name, const char* cat, TraceArgs args = {});

  /// Fresh unique span id (never 0).
  uint64_t NextSpanId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Names the calling thread's track in the exported trace.
  void SetCurrentThreadName(const std::string& name);

  std::vector<TraceEvent> Snapshot() const;
  size_t EventCount() const;
  size_t DroppedCount() const;

  /// The full trace document: {"traceEvents": [...], ...} with process/
  /// thread metadata records. Valid JSON (json.load / Perfetto accept it).
  std::string ToJson() const;

  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteFile(const std::string& path) const;

  /// Microseconds since this log was constructed (the trace timebase).
  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// Small stable id for the calling thread (assigned on first use).
  static uint32_t CurrentThreadTrackId();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  const std::chrono::steady_clock::time_point t0_ =
      std::chrono::steady_clock::now();
  mutable Mutex mu_{LockRank::kTraceLog, "TraceLog::mu_"};
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);
  size_t capacity_ GUARDED_BY(mu_) = kMaxEvents;
  size_t dropped_ GUARDED_BY(mu_) = 0;
  std::map<uint32_t, std::string> thread_names_ GUARDED_BY(mu_);
};

/// The session id attached to the calling thread (-1 = engine work outside
/// any session). Trace events use it as their Perfetto process track.
int CurrentSessionId();

/// RAII thread-local session attribution; nests/restores like IoScope.
/// Installed by Session::Execute and propagated to worker threads by
/// sched::TaskGroup.
class SessionIdScope {
 public:
  explicit SessionIdScope(int session_id);
  ~SessionIdScope();
  SessionIdScope(const SessionIdScope&) = delete;
  SessionIdScope& operator=(const SessionIdScope&) = delete;

 private:
  int prev_;
};

/// The innermost open span on the calling thread (0 = none). Worker spans
/// nest under it; TaskGroup captures it at Submit() time so spans created on
/// pool threads link back to the owning query's span.
uint64_t CurrentSpanId();

/// RAII thread-local parent-span attribution for cross-thread nesting: a
/// pool task installs the submitting thread's span id as the local parent,
/// so spans opened on the worker carry the right parent_id.
class TraceParentScope {
 public:
  explicit TraceParentScope(uint64_t parent_span_id);
  ~TraceParentScope();
  TraceParentScope(const TraceParentScope&) = delete;
  TraceParentScope& operator=(const TraceParentScope&) = delete;

 private:
  uint64_t prev_;
};

/// RAII span, the engine's one span type: emits a 'B' event at
/// construction and the matching 'E' at destruction on the same thread
/// track, maintaining the thread's current-span chain for parent
/// attribution. Inert (and allocation-free) when the global log is disabled;
/// hot paths with argument strings should still gate on
/// TraceLog::Global().enabled() to avoid building args.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, TraceArgs args = {});
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// A statement phase ("parse", "bind", "plan", "execute"): an "engine"
  /// span that also appends a timed SpanRecord to the calling thread's
  /// QueryTrace collector, when one is installed — whether or not the log
  /// is enabled.
  static TraceSpan Phase(const char* name);

 private:
  TraceSpan(const char* name, const char* cat, TraceArgs args,
            QueryTrace* trace);

  const char* name_;
  const char* cat_;
  uint64_t id_ = 0;  ///< 0 = inert (log disabled or event dropped)
  uint64_t prev_current_ = 0;
  QueryTrace* trace_ = nullptr;  ///< phase spans: the collector recorded into
  size_t record_ = 0;            ///< index of this span in trace_->spans
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace elephant
