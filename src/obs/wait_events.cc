#include "obs/wait_events.h"

#include <chrono>
#include <cstdio>

#include "obs/json.h"

namespace elephant {
namespace obs {

namespace {

// Thread-attachment state. The in-wait flag implements outermost-wins
// nesting: a WaitScope constructed while another is timing on this thread is
// inert, so compound blocking points (WAL flush -> disk sync -> log mutex)
// count once under the outermost classification.
thread_local bool t_in_wait = false;
thread_local WaitSink* t_wait_sink = nullptr;
thread_local SessionWaitState* t_session_state = nullptr;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatSeconds(double nanos) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", nanos / 1e6);
  return buf;
}

}  // namespace

const char* WaitClassName(WaitClass c) {
  switch (c) {
    case WaitClass::kLWLock:
      return "LWLock";
    case WaitClass::kLock:
      return "Lock";
    case WaitClass::kIO:
      return "IO";
    case WaitClass::kWAL:
      return "WAL";
    case WaitClass::kCondVar:
      return "CondVar";
    case WaitClass::kScheduler:
      return "Scheduler";
  }
  return "Unknown";
}

std::string WaitEventName(int event_index) {
  if (event_index < 0 || event_index >= kNumWaitEvents) return "";
  const WaitEventInfo& info = kWaitEventInfos[event_index];
  return std::string(info.class_name) + ":" + info.event_name;
}

WaitEventId WaitEventForRank(LockRank rank) {
  switch (rank) {
    case LockRank::kSessionManager:
      return WaitEventId::kLWLockSessionManager;
    case LockRank::kScheduler:
    case LockRank::kTaskGroup:
      // Queue-handoff contention is scheduling overhead, not lock
      // discipline: see the taxonomy note in the header.
      return WaitEventId::kSchedulerMutex;
    case LockRank::kTxnManager:
      return WaitEventId::kLWLockTxnManager;
    case LockRank::kTxnLockManager:
      return WaitEventId::kLWLockLockManager;
    case LockRank::kBufferPool:
      return WaitEventId::kLWLockBufferPool;
    case LockRank::kLogManager:
      return WaitEventId::kLWLockLogManager;
    case LockRank::kDiskManager:
      return WaitEventId::kLWLockDiskManager;
    default:
      break;
  }
  // Observability leaves all rank 700+; everything else (catalog, table
  // heaps, fault injector, unranked) folds into Other.
  return static_cast<int>(rank) >= 700 ? WaitEventId::kLWLockObservability
                                       : WaitEventId::kLWLockOther;
}

uint64_t WaitProfile::ClassCount(WaitClass c) const {
  uint64_t total = 0;
  for (int i = 0; i < kNumWaitEvents; i++) {
    if (kWaitEventInfos[i].wait_class == c) total += counts[i];
  }
  return total;
}

uint64_t WaitProfile::ClassNanos(WaitClass c) const {
  uint64_t total = 0;
  for (int i = 0; i < kNumWaitEvents; i++) {
    if (kWaitEventInfos[i].wait_class == c) total += nanos[i];
  }
  return total;
}

uint64_t WaitProfile::TotalNanos() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumWaitEvents; i++) total += nanos[i];
  return total;
}

uint64_t WaitProfile::TotalCount() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumWaitEvents; i++) total += counts[i];
  return total;
}

int WaitProfile::TopEvent() const {
  int top = -1;
  uint64_t top_nanos = 0;
  for (int i = 0; i < kNumWaitEvents; i++) {
    if (nanos[i] > top_nanos || (nanos[i] > 0 && top < 0)) {
      top = i;
      top_nanos = nanos[i];
    }
  }
  return top;
}

std::string WaitProfile::ToString() const {
  std::string out = "total=" + FormatSeconds(static_cast<double>(TotalNanos()));
  static constexpr struct {
    WaitClass c;
    const char* label;
  } kOrder[] = {
      {WaitClass::kLWLock, "lwlock"},   {WaitClass::kLock, "lock"},
      {WaitClass::kIO, "io"},           {WaitClass::kWAL, "wal"},
      {WaitClass::kCondVar, "condvar"}, {WaitClass::kScheduler, "scheduler"},
  };
  for (const auto& entry : kOrder) {
    out += std::string(" ") + entry.label + "=" +
           FormatSeconds(static_cast<double>(ClassNanos(entry.c)));
  }
  const std::string top = TopEventName();
  if (!top.empty()) out += " | top=" + top;
  return out;
}

void WaitProfile::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("total_seconds").Double(TotalSeconds());
  w->Key("lwlock_seconds").Double(ClassSeconds(WaitClass::kLWLock));
  w->Key("lock_seconds").Double(ClassSeconds(WaitClass::kLock));
  w->Key("io_seconds").Double(ClassSeconds(WaitClass::kIO));
  w->Key("wal_seconds").Double(ClassSeconds(WaitClass::kWAL));
  w->Key("condvar_seconds").Double(ClassSeconds(WaitClass::kCondVar));
  w->Key("scheduler_seconds").Double(ClassSeconds(WaitClass::kScheduler));
  w->Key("top_event").String(TopEventName());
  w->EndObject();
}

WaitProfile WaitSink::ToProfile() const {
  WaitProfile p;
  for (int i = 0; i < kNumWaitEvents; i++) {
    p.counts[i] = counts[i].load(std::memory_order_relaxed);
    p.nanos[i] = nanos[i].load(std::memory_order_relaxed);
  }
  return p;
}

WaitSink* CurrentWaitSink() { return t_wait_sink; }

WaitSinkScope::WaitSinkScope(WaitSink* sink) : prev_(t_wait_sink) {
  t_wait_sink = sink;
}

WaitSinkScope::~WaitSinkScope() { t_wait_sink = prev_; }

const char* SessionActivityStateName(SessionActivityState s) {
  switch (s) {
    case SessionActivityState::kIdle:
      return "idle";
    case SessionActivityState::kRunning:
      return "running";
    case SessionActivityState::kWaiting:
      return "waiting";
    case SessionActivityState::kIdleInTxn:
      return "idle in transaction";
  }
  return "unknown";
}

SessionWaitState* CurrentSessionWaitState() { return t_session_state; }

SessionWaitStateScope::SessionWaitStateScope(SessionWaitState* state)
    : prev_(t_session_state) {
  t_session_state = state;
}

SessionWaitStateScope::~SessionWaitStateScope() { t_session_state = prev_; }

const std::vector<double>& WaitEventRegistry::BucketBounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double bound = 1e-6; b.size() < 15; bound *= 4) b.push_back(bound);
    return b;
  }();
  return bounds;
}

void WaitEventRegistry::Record(WaitEventId event, uint64_t wait_nanos) {
  PerEvent& e = events_[static_cast<int>(event)];
  e.count.fetch_add(1, std::memory_order_relaxed);
  e.nanos.fetch_add(wait_nanos, std::memory_order_relaxed);
  e.latency.Observe(static_cast<double>(wait_nanos) / 1e9);
}

uint64_t WaitEventRegistry::Count(WaitEventId event) const {
  return events_[static_cast<int>(event)].count.load(
      std::memory_order_relaxed);
}

uint64_t WaitEventRegistry::Nanos(WaitEventId event) const {
  return events_[static_cast<int>(event)].nanos.load(
      std::memory_order_relaxed);
}

WaitEventRegistry::EventSnapshot WaitEventRegistry::Snapshot(
    WaitEventId event) const {
  const PerEvent& e = events_[static_cast<int>(event)];
  EventSnapshot snap;
  snap.count = e.count.load(std::memory_order_relaxed);
  snap.nanos = e.nanos.load(std::memory_order_relaxed);
  snap.latency = e.latency.Snapshot();
  return snap;
}

WaitProfile WaitEventRegistry::ToProfile() const {
  WaitProfile p;
  for (int i = 0; i < kNumWaitEvents; i++) {
    p.counts[i] = events_[i].count.load(std::memory_order_relaxed);
    p.nanos[i] = events_[i].nanos.load(std::memory_order_relaxed);
  }
  return p;
}

std::string WaitEventRegistry::ToPrometheus() const {
  std::string out = "# TYPE elephant_wait_events_total counter\n";
  for (int i = 0; i < kNumWaitEvents; i++) {
    const WaitEventInfo& info = kWaitEventInfos[i];
    out += std::string("elephant_wait_events_total{class=\"") +
           info.class_name + "\",event=\"" + info.event_name + "\"} " +
           std::to_string(events_[i].count.load(std::memory_order_relaxed)) +
           "\n";
  }
  out += "# TYPE elephant_wait_seconds_total counter\n";
  for (int i = 0; i < kNumWaitEvents; i++) {
    const WaitEventInfo& info = kWaitEventInfos[i];
    char buf[64];
    std::snprintf(
        buf, sizeof(buf), "%.9f",
        static_cast<double>(events_[i].nanos.load(std::memory_order_relaxed)) /
            1e9);
    out += std::string("elephant_wait_seconds_total{class=\"") +
           info.class_name + "\",event=\"" + info.event_name + "\"} " + buf +
           "\n";
  }
  return out;
}

void WaitEventRegistry::Reset() {
  for (int i = 0; i < kNumWaitEvents; i++) {
    events_[i].count.store(0, std::memory_order_relaxed);
    events_[i].nanos.store(0, std::memory_order_relaxed);
    events_[i].latency.Reset();
  }
}

WaitEventRegistry& WaitEventRegistry::Global() {
  static WaitEventRegistry registry;
  return registry;
}

namespace {
// The registry's histograms allocate their buckets on construction; build
// it at load time rather than on the first wait, which runs inside
// Mutex::Lock.
[[maybe_unused]] const WaitEventRegistry& g_eager_registry =
    WaitEventRegistry::Global();
}  // namespace

WaitScope::WaitScope(WaitEventId event) : event_(event) {
  if (t_in_wait) return;  // nested: the outermost scope records
  t_in_wait = true;
  active_ = true;
  start_nanos_ = NowNanos();
  SessionWaitState* session = t_session_state;
  if (session != nullptr) {
    prev_state_ = session->state.load(std::memory_order_relaxed);
    session->wait_event.store(static_cast<int>(event_),
                              std::memory_order_relaxed);
    session->state.store(static_cast<int>(SessionActivityState::kWaiting),
                         std::memory_order_relaxed);
  }
}

WaitScope::~WaitScope() { Finish(); }

uint64_t WaitScope::Finish() {
  if (!active_ || finished_) return recorded_nanos_;
  finished_ = true;
  const uint64_t end = NowNanos();
  recorded_nanos_ = end > start_nanos_ ? end - start_nanos_ : 0;
  WaitEventRegistry::Global().Record(event_, recorded_nanos_);
  if (t_wait_sink != nullptr) t_wait_sink->Add(event_, recorded_nanos_);
  SessionWaitState* session = t_session_state;
  if (session != nullptr) {
    session->state.store(prev_state_, std::memory_order_relaxed);
    session->wait_event.store(-1, std::memory_order_relaxed);
  }
  t_in_wait = false;
  return recorded_nanos_;
}

}  // namespace obs
}  // namespace elephant
