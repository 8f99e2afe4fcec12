#include "common/lock_rank.h"

#include <cstdio>
#include <cstdlib>

namespace elephant {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kSessionManager: return "kSessionManager";
    case LockRank::kDatabaseWorkers: return "kDatabaseWorkers";
    case LockRank::kScheduler: return "kScheduler";
    case LockRank::kTaskGroup: return "kTaskGroup";
    case LockRank::kCatalog: return "kCatalog";
    case LockRank::kTxnManager: return "kTxnManager";
    case LockRank::kTxnLockManager: return "kTxnLockManager";
    case LockRank::kTableHeap: return "kTableHeap";
    case LockRank::kBufferPool: return "kBufferPool";
    case LockRank::kLogManager: return "kLogManager";
    case LockRank::kDiskManager: return "kDiskManager";
    case LockRank::kFaultInjector: return "kFaultInjector";
    case LockRank::kStatStatements: return "kStatStatements";
    case LockRank::kQueryLog: return "kQueryLog";
    case LockRank::kTraceLog: return "kTraceLog";
    case LockRank::kHeatmap: return "kHeatmap";
    case LockRank::kMetricsRegistry: return "kMetricsRegistry";
    case LockRank::kWaitSessionRegistry: return "kWaitSessionRegistry";
    case LockRank::kAshRing: return "kAshRing";
    case LockRank::kAshSampler: return "kAshSampler";
  }
  return "kUnranked";
}

namespace lock_rank {
namespace {

// A plain POD stack so the thread_local needs no dynamic initialization and
// the hooks never allocate (they run under every engine lock, including on
// I/O and commit paths).
constexpr int kMaxHeld = 64;

struct HeldLock {
  const void* mutex;
  LockRank rank;
  const char* name;
};

struct HeldStack {
  HeldLock entries[kMaxHeld];
  int size;
};

thread_local HeldStack t_held;

void Push(const void* mutex, LockRank rank, const char* name) {
  if (t_held.size >= kMaxHeld) {
    std::fprintf(stderr,
                 "lock-rank violation: thread holds %d ranked locks while "
                 "acquiring \"%s\" — held-lock stack overflow (runaway "
                 "recursion or a lock leak)\n",
                 t_held.size, name);
    std::abort();
  }
  t_held.entries[t_held.size++] = HeldLock{mutex, rank, name};
}

}  // namespace

void OnAcquire(const void* mutex, LockRank rank, const char* name) {
  // Compare against the highest-ranked held lock: strict increase required,
  // so equal ranks (including recursive acquisition) are violations too.
  int worst = -1;
  for (int i = 0; i < t_held.size; i++) {
    if (t_held.entries[i].rank >= rank &&
        (worst < 0 || t_held.entries[i].rank > t_held.entries[worst].rank)) {
      worst = i;
    }
  }
  if (worst >= 0) {
    const HeldLock& held = t_held.entries[worst];
    std::fprintf(
        stderr,
        "lock-rank violation: acquiring \"%s\" (%s=%d) while holding \"%s\" "
        "(%s=%d); ranked locks must be acquired in strictly increasing rank "
        "order\n",
        name, LockRankName(rank), static_cast<int>(rank), held.name,
        LockRankName(held.rank), static_cast<int>(held.rank));
    std::abort();
  }
  Push(mutex, rank, name);
}

void OnTryAcquire(const void* mutex, LockRank rank, const char* name) {
  Push(mutex, rank, name);
}

void OnRelease(const void* mutex, const char* name) {
  for (int i = t_held.size - 1; i >= 0; i--) {
    if (t_held.entries[i].mutex != mutex) continue;
    for (int j = i; j < t_held.size - 1; j++) {
      t_held.entries[j] = t_held.entries[j + 1];
    }
    t_held.size--;
    return;
  }
  std::fprintf(stderr,
               "lock-rank violation: releasing ranked lock \"%s\" that this "
               "thread does not hold\n",
               name);
  std::abort();
}

int HeldCount() { return t_held.size; }

LockRank MaxHeldRank() {
  LockRank max = LockRank::kUnranked;
  for (int i = 0; i < t_held.size; i++) {
    if (t_held.entries[i].rank > max) max = t_held.entries[i].rank;
  }
  return max;
}

void AssertMayBlock(const char* what, const std::source_location& caller) {
  for (int i = 0; i < t_held.size; i++) {
    const HeldLock& held = t_held.entries[i];
    if (held.rank != LockRank::kBufferPool) continue;
    std::fprintf(stderr,
                 "blocking-under-latch violation: %s called from %s:%u (%s) "
                 "while holding \"%s\" (%s); release the buffer-pool latch "
                 "before blocking\n",
                 what, caller.file_name(), caller.line(),
                 caller.function_name(), held.name, LockRankName(held.rank));
    std::abort();
  }
}

}  // namespace lock_rank
}  // namespace elephant
