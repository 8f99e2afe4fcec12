#include "obs/trace_log.h"

#include <cstdio>

#include "obs/json.h"

namespace elephant {
namespace obs {

namespace {

thread_local int t_session_id = -1;
thread_local uint64_t t_current_span = 0;
thread_local QueryTrace* t_query_trace = nullptr;
thread_local int t_phase_depth = 0;  ///< open phase spans in t_query_trace

uint32_t AssignThreadTrackId() {
  static std::atomic<uint32_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

void AppendEventJson(const TraceEvent& ev, JsonWriter* w) {
  w->BeginObject();
  w->Key("ph").String(std::string_view(&ev.ph, 1));
  w->Key("name").String(ev.name);
  w->Key("cat").String(*ev.cat == '\0' ? "misc" : ev.cat);
  w->Key("ts").Int(ev.ts_us);
  w->Key("pid").Int(ev.pid);
  w->Key("tid").UInt(ev.tid);
  if (ev.ph == 'i') w->Key("s").String("t");  // thread-scoped instant
  if (ev.ph == 'B' || ev.ph == 'i') {
    w->Key("args").BeginObject();
    if (ev.span_id != 0) w->Key("span_id").UInt(ev.span_id);
    if (ev.parent_id != 0) w->Key("parent_span_id").UInt(ev.parent_id);
    for (const auto& [k, v] : ev.args) w->Key(k).String(v);
    w->EndObject();
  }
  w->EndObject();
}

void AppendMetadataJson(const char* name, int32_t pid, uint32_t tid,
                        const char* arg_key, const std::string& arg_value,
                        JsonWriter* w) {
  w->BeginObject();
  w->Key("ph").String("M");
  w->Key("name").String(name);
  w->Key("pid").Int(pid);
  w->Key("tid").UInt(tid);
  w->Key("args").BeginObject().Key(arg_key).String(arg_value).EndObject();
  w->EndObject();
}

std::string FormatMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
  return buf;
}

}  // namespace

double QueryTrace::SecondsFor(const std::string& name) const {
  for (const SpanRecord& s : spans) {
    if (s.name == name) return s.seconds;
  }
  return 0;
}

std::string QueryTrace::ToString() const {
  std::string top;
  std::string nested;
  for (const SpanRecord& s : spans) {
    if (s.depth == 0) {
      if (!top.empty()) top += " | ";
      top += s.name + " " + FormatMs(s.seconds);
    } else {
      nested.append(static_cast<size_t>(s.depth) * 2, ' ');
      nested += s.name + " " + FormatMs(s.seconds) + "\n";
    }
  }
  return nested.empty() ? top : top + "\n" + nested;
}

void QueryTrace::AppendJson(JsonWriter* w) const {
  w->BeginArray();
  for (const SpanRecord& s : spans) {
    w->BeginObject();
    w->Key("name").String(s.name);
    w->Key("depth").Int(s.depth);
    w->Key("seconds").Double(s.seconds);
    w->EndObject();
  }
  w->EndArray();
}

QueryTraceScope::QueryTraceScope(QueryTrace* trace)
    : prev_(t_query_trace), prev_depth_(t_phase_depth) {
  t_query_trace = trace;
  t_phase_depth = 0;
}

QueryTraceScope::~QueryTraceScope() {
  t_query_trace = prev_;
  t_phase_depth = prev_depth_;
}

TraceLog& TraceLog::Global() {
  static TraceLog log;
  return log;
}

uint32_t TraceLog::CurrentThreadTrackId() {
  thread_local uint32_t id = AssignThreadTrackId();
  return id;
}

void TraceLog::Clear() {
  MutexLock lock(mu_);
  events_.clear();
  dropped_ = 0;
}

void TraceLog::SetCapacity(size_t capacity) {
  MutexLock lock(mu_);
  capacity_ = capacity > 0 ? capacity : 1;
}

size_t TraceLog::capacity() const {
  MutexLock lock(mu_);
  return capacity_;
}

bool TraceLog::Emit(TraceEvent ev) {
  if (!enabled()) return false;
  if (ev.ts_us == 0) ev.ts_us = NowMicros();
  if (ev.tid == 0) ev.tid = CurrentThreadTrackId();
  if (ev.pid == 0) ev.pid = CurrentSessionId() + 1;
  MutexLock lock(mu_);
  // Admit 'E' past the cap so every recorded 'B' stays matched.
  if (events_.size() >= capacity_ && ev.ph != 'E') {
    dropped_++;
    return false;
  }
  events_.push_back(std::move(ev));
  return true;
}

void TraceLog::Instant(const char* name, const char* cat, TraceArgs args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.ph = 'i';
  ev.name = name;
  ev.cat = cat;
  ev.parent_id = CurrentSpanId();
  ev.args = std::move(args);
  Emit(std::move(ev));
}

void TraceLog::SetCurrentThreadName(const std::string& name) {
  // Build the map node before taking mu_. A pool starts all its workers at
  // once and each names itself first thing; a new thread's first heap
  // allocation also sets up its malloc arena, and doing that under mu_
  // holds it past the Mutex spin budget, so pool startup would park workers
  // and count LWLock waits. The locked section only links the node.
  std::map<uint32_t, std::string> staged;
  staged.emplace(CurrentThreadTrackId(), name);
  auto node = staged.extract(staged.begin());
  MutexLock lock(mu_);
  auto result = thread_names_.insert(std::move(node));
  if (!result.inserted) result.position->second.swap(result.node.mapped());
}

std::vector<TraceEvent> TraceLog::Snapshot() const {
  MutexLock lock(mu_);
  return events_;
}

size_t TraceLog::EventCount() const {
  MutexLock lock(mu_);
  return events_.size();
}

size_t TraceLog::DroppedCount() const {
  MutexLock lock(mu_);
  return dropped_;
}

std::string TraceLog::ToJson() const {
  MutexLock lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  if (dropped_ > 0) w.Key("droppedEvents").UInt(dropped_);
  w.Key("traceEvents").BeginArray();
  // Process/thread metadata first: one process track per session (pid 0 is
  // engine work outside any session), one named thread track per thread.
  std::map<int32_t, bool> pids;
  std::map<std::pair<int32_t, uint32_t>, bool> tids;
  for (const TraceEvent& ev : events_) {
    pids[ev.pid] = true;
    tids[{ev.pid, ev.tid}] = true;
  }
  for (const auto& [pid, unused] : pids) {
    AppendMetadataJson("process_name", pid, 0, "name",
                       pid == 0 ? std::string("engine")
                                : "session " + std::to_string(pid - 1),
                       &w);
  }
  for (const auto& [key, unused] : tids) {
    const auto it = thread_names_.find(key.second);
    AppendMetadataJson("thread_name", key.first, key.second, "name",
                       it != thread_names_.end()
                           ? it->second
                           : "thread " + std::to_string(key.second),
                       &w);
  }
  for (const TraceEvent& ev : events_) AppendEventJson(ev, &w);
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

bool TraceLog::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = ToJson();
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return (std::fputc('\n', f) != EOF) & wrote & (std::fclose(f) == 0);
}

int CurrentSessionId() { return t_session_id; }

SessionIdScope::SessionIdScope(int session_id) : prev_(t_session_id) {
  t_session_id = session_id;
}

SessionIdScope::~SessionIdScope() { t_session_id = prev_; }

uint64_t CurrentSpanId() { return t_current_span; }

TraceParentScope::TraceParentScope(uint64_t parent_span_id)
    : prev_(t_current_span) {
  t_current_span = parent_span_id;
}

TraceParentScope::~TraceParentScope() { t_current_span = prev_; }

TraceSpan TraceSpan::Phase(const char* name) {
  return TraceSpan(name, "engine", {}, t_query_trace);
}

TraceSpan::TraceSpan(const char* name, const char* cat, TraceArgs args)
    : TraceSpan(name, cat, std::move(args), nullptr) {}

TraceSpan::TraceSpan(const char* name, const char* cat, TraceArgs args,
                     QueryTrace* trace)
    : name_(name), cat_(cat), trace_(trace) {
  if (trace_ != nullptr) {
    record_ = trace_->spans.size();
    trace_->spans.push_back(SpanRecord{name_, t_phase_depth++, 0});
    start_ = std::chrono::steady_clock::now();
  }
  TraceLog& log = TraceLog::Global();
  if (!log.enabled()) return;
  const uint64_t id = log.NextSpanId();
  TraceEvent ev;
  ev.ph = 'B';
  ev.name = name_;
  ev.cat = cat_;
  ev.span_id = id;
  ev.parent_id = t_current_span;
  ev.args = std::move(args);
  if (!log.Emit(std::move(ev))) return;  // dropped: stay inert, no 'E'
  id_ = id;
  prev_current_ = t_current_span;
  t_current_span = id_;
}

TraceSpan::~TraceSpan() {
  if (id_ != 0) {
    t_current_span = prev_current_;
    TraceEvent ev;
    ev.ph = 'E';
    ev.name = name_;
    ev.cat = cat_;
    ev.span_id = id_;
    TraceLog::Global().Emit(std::move(ev));
  }
  if (trace_ != nullptr) {
    trace_->spans[record_].seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_).count();
    t_phase_depth--;
  }
}

}  // namespace obs
}  // namespace elephant
