#pragma once

// Wait-event accounting, PostgreSQL-style: every blocking point in the
// engine is classified into a (class, event) pair and timed through a
// thread-local WaitScope RAII. The taxonomy answers the question I/O
// attribution alone cannot: a query stalled on a table lock, the buffer-pool
// latch, or a WAL group flush looks identical to one burning CPU unless the
// *waits* are named and measured.
//
//   LWLock     contended acquires of ranked engine mutexes (try-then-block
//              in the Mutex wrapper: the uncontended fast path records
//              nothing, exactly like PostgreSQL's lightweight locks)
//   Lock       LockManager table S/X waits (heavyweight, deadline-bounded)
//   IO         DiskManager page read/write/sync (the simulated device;
//              device-mutex queueing is subsumed — iowait semantics)
//   WAL        group-flush commit waits at the LogManager flush entry
//   CondVar    generic condition waits + the ASH sampler's interval sleep
//   Scheduler  task-queue idle and TaskGroup gather waits
//
// Scopes are NESTING-INERT: the outermost WaitScope on a thread wins and
// nested scopes record nothing, so a WAL flush that syncs the disk under the
// log mutex counts once as WAL, not three times as WAL + IO + LWLock.
//
// Recording fans out to three sinks, none of which locks or allocates
// (relaxed atomics only — WaitScope runs inside Mutex::Lock itself):
//   - the process-wide WaitEventRegistry (cumulative counts + histograms),
//   - the per-query WaitSink attached to the thread (see WaitSinkScope;
//     TaskGroup propagates the query's sink to its workers),
//   - the session's SessionWaitState, so the ASH sampler observes
//     "waiting on <event>" while the wait is in progress.
//
// This header is included by common/thread_annotations.h (the Mutex/CondVar
// hooks), so it must not include it back: lock_rank.h, histogram.h and the
// standard library only.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "obs/histogram.h"

namespace elephant {
namespace obs {

class JsonWriter;

enum class WaitClass : uint8_t {
  kLWLock,
  kLock,
  kIO,
  kWAL,
  kCondVar,
  kScheduler,
};
inline constexpr int kNumWaitClasses = 6;

const char* WaitClassName(WaitClass c);

/// Every nameable blocking point in the engine. Kept dense (0..N-1) so the
/// registry and profiles are plain arrays indexed by event.
enum class WaitEventId : uint8_t {
  // LWLock: one event per ranked mutex family (contended acquires only).
  kLWLockSessionManager = 0,
  kLWLockTxnManager,
  kLWLockLockManager,
  kLWLockBufferPool,
  kLWLockLogManager,
  kLWLockDiskManager,
  kLWLockObservability,
  kLWLockOther,
  // Lock: heavyweight table locks.
  kLockTableShared,
  kLockTableExclusive,
  // IO: simulated-device operations.
  kIoDataFileRead,
  kIoDataFileWrite,
  kIoDataFileSync,
  // WAL: commit-path group flush.
  kWalFlush,
  // CondVar.
  kCondVarWait,
  kCondVarSamplerSleep,
  // Scheduler: morsel workers and gather points. Includes the pool/group
  // mutexes themselves — queue-handoff contention is scheduling overhead,
  // not a lock-discipline signal, so an uncontended PARALLEL query reports
  // zero LWLock waits by construction.
  kSchedulerMutex,
  kSchedulerWorkerIdle,
  kSchedulerGather,
};
inline constexpr int kNumWaitEvents = 19;

struct WaitEventInfo {
  WaitClass wait_class;
  const char* class_name;  ///< WaitClassName(wait_class), denormalized
  const char* event_name;
};

/// The taxonomy, indexed by WaitEventId. scripts/telemetry_check.py parses
/// this table textually (--wait-events), so keep each entry on one line in
/// the form {WaitClass::kX, "Class", "Event"},
inline constexpr WaitEventInfo kWaitEventInfos[kNumWaitEvents] = {
    {WaitClass::kLWLock, "LWLock", "SessionManager"},
    {WaitClass::kLWLock, "LWLock", "TxnManager"},
    {WaitClass::kLWLock, "LWLock", "LockManager"},
    {WaitClass::kLWLock, "LWLock", "BufferPool"},
    {WaitClass::kLWLock, "LWLock", "LogManager"},
    {WaitClass::kLWLock, "LWLock", "DiskManager"},
    {WaitClass::kLWLock, "LWLock", "Observability"},
    {WaitClass::kLWLock, "LWLock", "Other"},
    {WaitClass::kLock, "Lock", "TableShared"},
    {WaitClass::kLock, "Lock", "TableExclusive"},
    {WaitClass::kIO, "IO", "DataFileRead"},
    {WaitClass::kIO, "IO", "DataFileWrite"},
    {WaitClass::kIO, "IO", "DataFileSync"},
    {WaitClass::kWAL, "WAL", "Flush"},
    {WaitClass::kCondVar, "CondVar", "Wait"},
    {WaitClass::kCondVar, "CondVar", "SamplerSleep"},
    {WaitClass::kScheduler, "Scheduler", "Mutex"},
    {WaitClass::kScheduler, "Scheduler", "WorkerIdle"},
    {WaitClass::kScheduler, "Scheduler", "Gather"},
};

/// "Class:Event" rendering ("Lock:TableExclusive"), or "" out of range.
std::string WaitEventName(int event_index);

/// The LWLock event a contended acquire of a mutex with this rank records.
/// Scheduler-family ranks map into the Scheduler class instead (see the
/// taxonomy note above).
WaitEventId WaitEventForRank(LockRank rank);

/// Per-query (or per-statement) wait totals, the wait-side sibling of
/// IoStats: a plain value folded into QueryResult, the EXPLAIN ANALYZE
/// footer and the slow-query log.
struct WaitProfile {
  std::array<uint64_t, kNumWaitEvents> counts{};
  std::array<uint64_t, kNumWaitEvents> nanos{};

  void Add(WaitEventId event, uint64_t wait_nanos) {
    counts[static_cast<int>(event)]++;
    nanos[static_cast<int>(event)] += wait_nanos;
  }

  uint64_t ClassCount(WaitClass c) const;
  uint64_t ClassNanos(WaitClass c) const;
  double ClassSeconds(WaitClass c) const {
    return static_cast<double>(ClassNanos(c)) / 1e9;
  }
  uint64_t TotalNanos() const;
  uint64_t TotalCount() const;
  double TotalSeconds() const {
    return static_cast<double>(TotalNanos()) / 1e9;
  }

  /// Index of the event with the most accumulated time, -1 when no waits.
  int TopEvent() const;
  /// "Lock:TableExclusive", or "" when no waits were recorded.
  std::string TopEventName() const { return WaitEventName(TopEvent()); }

  /// One line for the EXPLAIN ANALYZE footer:
  /// "total=1.204ms lwlock=0.000ms lock=1.102ms io=0.072ms wal=0.030ms
  ///  condvar=0.000ms scheduler=0.000ms | top=Lock:TableExclusive"
  std::string ToString() const;

  /// The same totals as a JSON object, shared by the EXPLAIN ANALYZE JSON
  /// "waits" key and the slow-query log's "wait_profile" key:
  /// {"total_seconds", "lwlock_seconds", "lock_seconds", "io_seconds",
  ///  "wal_seconds", "condvar_seconds", "scheduler_seconds", "top_event"}.
  void AppendJson(JsonWriter* w) const;
};

/// Per-query wait attribution sink, the wait-side sibling of IoSink: every
/// WaitScope on a thread with a sink attached adds its (event, nanos) there
/// in addition to the global registry. Counters are atomic so TaskGroup can
/// hand the *same* sink to its workers and their waits fold in while the
/// session thread still reads it.
struct WaitSink {
  std::array<std::atomic<uint64_t>, kNumWaitEvents> counts{};
  std::array<std::atomic<uint64_t>, kNumWaitEvents> nanos{};

  void Add(WaitEventId event, uint64_t wait_nanos) {
    const int i = static_cast<int>(event);
    counts[i].fetch_add(1, std::memory_order_relaxed);
    nanos[i].fetch_add(wait_nanos, std::memory_order_relaxed);
  }

  WaitProfile ToProfile() const;
};

/// The wait sink attached to the calling thread (nullptr when none).
WaitSink* CurrentWaitSink();

/// RAII scope attaching `sink` to the current thread, restoring the previous
/// attachment on destruction (nests like IoScope; nullptr detaches).
class WaitSinkScope {
 public:
  explicit WaitSinkScope(WaitSink* sink);
  ~WaitSinkScope();

  WaitSinkScope(const WaitSinkScope&) = delete;
  WaitSinkScope& operator=(const WaitSinkScope&) = delete;

 private:
  WaitSink* prev_;
};

/// What a live session is doing right now, as sampled by the ASH thread and
/// served by elephant_stat_activity. Matches PostgreSQL's pg_stat_activity
/// states, minus the network-protocol ones the engine does not have yet.
enum class SessionActivityState : uint8_t {
  kIdle = 0,       ///< registered, no statement in flight
  kRunning = 1,    ///< executing a statement, not blocked
  kWaiting = 2,    ///< inside a WaitScope (wait_event says which)
  kIdleInTxn = 3,  ///< between statements with an open transaction
};

const char* SessionActivityStateName(SessionActivityState s);

/// One live session's state, written with relaxed atomics by the owning
/// thread (Session::Execute and any WaitScope running on it) and read by the
/// ASH sampler and the stat tables without any lock.
struct SessionWaitState {
  std::atomic<int> session_id{-1};
  std::atomic<int> state{static_cast<int>(SessionActivityState::kIdle)};
  std::atomic<int> wait_event{-1};  ///< WaitEventId while kWaiting, else -1
  std::atomic<uint64_t> sql_fingerprint{0};
  std::atomic<int64_t> txn_id{-1};
  std::atomic<uint64_t> statements{0};
};

/// The session state attached to the calling thread (nullptr when none).
SessionWaitState* CurrentSessionWaitState();

/// RAII scope attaching a session's state to the current thread for the
/// duration of a statement, so WaitScopes flip it waiting/running. TaskGroup
/// does NOT propagate this to workers: the session is "waiting on gather"
/// while its morsels run, which is what the session thread reports.
class SessionWaitStateScope {
 public:
  explicit SessionWaitStateScope(SessionWaitState* state);
  ~SessionWaitStateScope();

  SessionWaitStateScope(const SessionWaitStateScope&) = delete;
  SessionWaitStateScope& operator=(const SessionWaitStateScope&) = delete;

 private:
  SessionWaitState* prev_;
};

/// Process-wide cumulative wait accounting: per-event exact counts and
/// total nanos plus a log-scale latency Histogram. Lock- and allocation-free
/// (relaxed atomics) because it is invoked from inside Mutex::Lock — it can
/// never take a lock, allocate, or re-enter itself.
class WaitEventRegistry {
 public:
  /// Histogram upper bounds in seconds: 1µs·4^i for i=0..14 (≈268s); the
  /// histogram adds the overflow bucket.
  static const std::vector<double>& BucketBounds();

  void Record(WaitEventId event, uint64_t wait_nanos);

  uint64_t Count(WaitEventId event) const;
  uint64_t Nanos(WaitEventId event) const;
  uint64_t ClassCount(WaitClass c) const { return ToProfile().ClassCount(c); }
  uint64_t ClassNanos(WaitClass c) const { return ToProfile().ClassNanos(c); }
  double ClassSeconds(WaitClass c) const {
    return ToProfile().ClassSeconds(c);
  }

  struct EventSnapshot {
    uint64_t count = 0;
    uint64_t nanos = 0;
    HistogramSnapshot latency;  ///< wait seconds; p50/p95 via Quantile()
  };
  EventSnapshot Snapshot(WaitEventId event) const;

  /// Everything as a WaitProfile (the stat table's data source).
  WaitProfile ToProfile() const;

  /// Prometheus exposition: two labeled counter families,
  /// elephant_wait_events_total{class,event} and
  /// elephant_wait_seconds_total{class,event}, every taxonomy entry emitted
  /// (zeros included) so dashboards see the full event space. Histograms are
  /// deliberately not exported as labeled series — they surface as
  /// p50/p95 columns in elephant_stat_wait_events instead.
  std::string ToPrometheus() const;

  /// Zeroes all counters (tests; racing recorders simply land in the fresh
  /// epoch).
  void Reset();

  static WaitEventRegistry& Global();

 private:
  struct PerEvent {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> nanos{0};
    Histogram latency{BucketBounds()};
  };
  PerEvent events_[kNumWaitEvents];
};

/// RAII timer for one blocking point. The outermost scope on a thread is the
/// one that records (nested scopes are inert), fanning out to the global
/// registry, the thread's WaitSink, and the thread's SessionWaitState.
/// Finish() is idempotent and returns the recorded nanos (0 when inert) so
/// callers like LockManager can reconcile their own counters exactly.
class WaitScope {
 public:
  explicit WaitScope(WaitEventId event);
  ~WaitScope();

  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

  uint64_t Finish();

 private:
  WaitEventId event_;
  bool active_ = false;
  bool finished_ = false;
  uint64_t start_nanos_ = 0;
  uint64_t recorded_nanos_ = 0;
  int prev_state_ = 0;  ///< session state to restore (active scopes only)
};

}  // namespace obs
}  // namespace elephant
