#pragma once

#include <source_location>

// Ranked-lock deadlock freedom.
//
// Every long-lived engine mutex is assigned a static rank, and the runtime
// validator below enforces that a thread only ever acquires locks in
// strictly increasing rank order. Any two code paths that respect the order
// cannot deadlock on these mutexes: a wait-for cycle would need at least one
// edge from a higher-ranked holder to a lower-ranked lock, which the order
// forbids.
//
// The rank order follows the engine's layering, front-of-house first:
//
//   kSessionManager (100)         engine/session.h     session registry
//     -> kDatabaseWorkers (150)   engine/database.h    worker-pool handle
//       -> kScheduler (200)       sched/thread_pool.h  task queue
//         -> kTaskGroup (250)     sched/task_group.h   group error slot
//   kCatalog (300)                catalog/catalog.h    derived-table change log
//     -> kTxnManager (350)        txn/transaction_manager.h  txn stats/ids
//       -> kTxnLockManager (400)  txn/lock_manager.h   table lock queues
//           -> kBufferPool (500)  storage/buffer_pool.h  frame table latch
//             -> kLogManager (550)   wal/log_manager.h  WAL buffer + tail
//               -> kDiskManager (600) storage/disk_manager.h  page store
//                 -> kFaultInjector (650) storage/fault_injection.h
//   observability leaves (700+): safe to touch from under any engine lock.
//
// A default-constructed Mutex is *unranked* and exempt from validation
// (scratch mutexes in tests, short-lived local locks). Ranked mutexes pass
// a LockRank and a human-readable name to the Mutex constructor; the
// validator keeps a thread-local stack of held ranked locks and aborts with
// both lock names the moment an acquisition would invert the order.
//
// The same held stack enforces the blocking-under-latch rule: no fsync, WAL
// flush or condition wait while the buffer-pool latch is held
// (AssertMayBlock). The hooks are compiled into every build.

namespace elephant {

enum class LockRank : int {
  kUnranked = 0,  ///< exempt from validation

  // Engine front: sessions feed work to the database's worker pool.
  kSessionManager = 100,
  kDatabaseWorkers = 150,

  // Scheduler: pool queue, then per-query task groups.
  kScheduler = 200,
  kTaskGroup = 250,

  // The canonical descent of a statement through the engine.
  kCatalog = 300,  ///< catalog/catalog.h: derived-table change tracking
  kTxnManager = 350,
  kTxnLockManager = 400,
  kBufferPool = 500,
  kLogManager = 550,
  kDiskManager = 600,
  kFaultInjector = 650,

  // Observability leaves: recorded from under arbitrary engine locks, so
  // they outrank everything and must never call back down.
  kStatStatements = 700,
  kTraceLog = 740,
  kHeatmap = 760,
};

/// Enumerator name for diagnostics ("kBufferPool"); "kUnranked" if unknown.
const char* LockRankName(LockRank rank);

namespace lock_rank {

/// Validates and records an acquisition of a ranked mutex by this thread.
/// Aborts (with both lock names) if a held ranked lock has rank >= `rank`.
void OnAcquire(const void* mutex, LockRank rank, const char* name);

/// Records a successful try_lock. Try-acquisitions cannot deadlock (they
/// never block), so the order is not enforced — but the lock still goes on
/// the held stack so locks taken *after* it are validated against it.
void OnTryAcquire(const void* mutex, LockRank rank, const char* name);

/// Records the release of a ranked mutex (out-of-LIFO-order release is
/// fine). Aborts if the mutex is not on this thread's held stack.
void OnRelease(const void* mutex, const char* name);

/// Number of ranked locks the calling thread currently holds.
int HeldCount();

/// Highest rank the calling thread currently holds; kUnranked if none.
LockRank MaxHeldRank();

/// Called on entry to every wrapper that blocks for device time or without
/// bound (DiskManager::Sync, LogManager::Flush/FlushUntil, CondVar::Wait/
/// WaitFor). The buffer-pool latch serializes every page lookup in the
/// engine, so blocking under it stalls them all (and a condition wait under
/// it can deadlock against a waker that needs the latch). Aborts, naming
/// `what`, the held latch and `caller`, when this thread holds a
/// kBufferPool-ranked lock.
void AssertMayBlock(const char* what, const std::source_location& caller);

}  // namespace lock_rank
}  // namespace elephant
