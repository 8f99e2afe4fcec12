#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <source_location>
#include <thread>

#include "common/lock_rank.h"
#include "obs/wait_events.h"

// Clang thread-safety analysis (-Wthread-safety) macros plus the annotated
// Mutex / MutexLock / CondVar wrappers every mutex in this engine must use
// (enforced by the raw-mutex rule of scripts/elephant_lint.py: bare
// std::mutex is banned outside this header). The annotations document the
// locking discipline; under GCC they expand to nothing. What is checked at
// runtime is the lock-rank order and the blocking-under-latch rule
// (common/lock_rank.h). The macro set mirrors the Clang documentation names.

#if defined(__clang__) && !defined(SWIG)
#define ELE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ELE_THREAD_ANNOTATION_(x)
#endif

/// Declares a class to be a capability (lockable) type.
#define CAPABILITY(x) ELE_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor.
#define SCOPED_CAPABILITY ELE_THREAD_ANNOTATION_(scoped_lockable)

/// Data member may only be accessed while holding the given capability.
#define GUARDED_BY(x) ELE_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member: the pointed-to data is protected by the capability.
#define PT_GUARDED_BY(x) ELE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define ACQUIRED_BEFORE(...) ELE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) ELE_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// The function may only be called while holding the given capabilities.
#define REQUIRES(...) \
  ELE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  ELE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the given capabilities.
#define ACQUIRE(...) ELE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  ELE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) ELE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  ELE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability when it returns `ret`.
#define TRY_ACQUIRE(ret, ...) \
  ELE_THREAD_ANNOTATION_(try_acquire_capability(ret, __VA_ARGS__))

/// The function must NOT be called while holding the given capabilities.
#define EXCLUDES(...) ELE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime) that the calling thread holds the capability.
#define ASSERT_CAPABILITY(x) ELE_THREAD_ANNOTATION_(assert_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) ELE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis of the annotated function's body.
#define NO_THREAD_SAFETY_ANALYSIS \
  ELE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace elephant {

/// An annotated exclusive mutex. Thin wrapper over std::mutex that carries
/// the `capability` attribute so Clang can check the locking discipline of
/// everything GUARDED_BY it. Exposes both CamelCase engine spellings and the
/// std BasicLockable interface (lock/unlock), so a CondVar can block on it.
///
/// A Mutex may additionally carry a LockRank and a name (see
/// common/lock_rank.h): ranked mutexes are validated at runtime against the
/// engine-wide acquisition order, and the process aborts — naming both locks
/// — on the first inversion. Default-constructed mutexes are unranked and
/// exempt. CondVar::Wait composes cleanly: the wait releases and reacquires
/// through lock()/unlock(), so the held-rank stack stays accurate across it.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    // Rank check first: an inversion aborts before blocking. The slow path
    // then spins briefly and only a true sleep records an LWLock wait event
    // — the uncontended fast path records nothing (obs/wait_events.h).
    RankCheckAcquire();
    if (mu_.try_lock()) return;
    LockSlow();
  }
  void Unlock() RELEASE() {
    RankCheckRelease();
    mu_.unlock();
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    RankCheckTryAcquire();
    return true;
  }

  // BasicLockable interface (std interop; same capability semantics,
  // including the contended-acquire wait event).
  void lock() ACQUIRE() {
    RankCheckAcquire();
    if (mu_.try_lock()) return;
    LockSlow();
  }
  void unlock() RELEASE() {
    RankCheckRelease();
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  /// A contended acquire spins briefly before sleeping. Engine critical
  /// sections are sub-microsecond (map lookups, counter bumps), so the spin
  /// absorbs micro-contention and an LWLock wait event means the thread
  /// actually parked — PostgreSQL's LWLock semantic (spin, then sleep and
  /// count). This is also what makes "an uncontended run records zero
  /// LWLock waits" deterministic enough to test: workers brushing past each
  /// other on the buffer-pool latch never reach the recording path. Holders
  /// that keep the mutex for real work (a group flush syncing the log) blow
  /// through the budget and get counted. The periodic yield lets a
  /// preempted holder run on machines with fewer cores than threads.
  static constexpr int kSpinIterations = 4096;
  static constexpr int kSpinYieldEvery = 128;
  void LockSlow() {
    for (int i = 1; i <= kSpinIterations; i++) {
      if (mu_.try_lock()) return;
      if (i % kSpinYieldEvery == 0) std::this_thread::yield();
    }
    obs::WaitScope wait(obs::WaitEventForRank(rank_));
    mu_.lock();
  }

  // The acquire check runs *before* blocking on the std::mutex so an
  // inversion aborts loudly instead of deadlocking quietly; the release
  // hook pops before unlocking so the stack never understates what's held.
  void RankCheckAcquire() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnAcquire(this, rank_, name_);
    }
  }
  void RankCheckTryAcquire() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnTryAcquire(this, rank_, name_);
    }
  }
  void RankCheckRelease() {
    if (rank_ != LockRank::kUnranked) {
      lock_rank::OnRelease(this, name_);
    }
  }

  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "unranked";
};

/// RAII lock for Mutex, annotated as a scoped capability so the analysis
/// knows the mutex is held for exactly the guard's lifetime.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait() atomically releases the
/// mutex while blocked and reacquires it before returning; callers must
/// re-check their predicate in a loop (spurious wakeups). The body is
/// excluded from analysis (the release/reacquire happens inside the
/// std::condition_variable_any template). Both waits abort when the caller
/// holds the buffer-pool latch (lock_rank::AssertMayBlock).
class CondVar {
 public:
  void Wait(Mutex& mu, const std::source_location& caller =
                           std::source_location::current())
      REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    lock_rank::AssertMayBlock("CondVar::Wait", caller);
    // The generic CondVar wait event; callers with a sharper classification
    // (lock manager, scheduler, WAL) open their own WaitScope first, which
    // makes this one inert (outermost-wins nesting).
    obs::WaitScope wait(obs::WaitEventId::kCondVarWait);
    cv_.wait(mu);
  }
  /// Timed wait: returns false when `seconds` elapsed without a notify
  /// (callers still re-check their predicate either way). Used by the lock
  /// manager to resolve deadlocks by timeout.
  bool WaitFor(Mutex& mu, double seconds,
               const std::source_location& caller =
                   std::source_location::current())
      REQUIRES(mu) NO_THREAD_SAFETY_ANALYSIS {
    lock_rank::AssertMayBlock("CondVar::WaitFor", caller);
    obs::WaitScope wait(obs::WaitEventId::kCondVarWait);
    return cv_.wait_for(mu, std::chrono::duration<double>(seconds)) ==
           std::cv_status::no_timeout;
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace elephant
