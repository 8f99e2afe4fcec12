// Runtime ranked-lock validator (common/lock_rank.h): the thread-local
// held-rank stack must stay exact through RAII guards, manual Lock/Unlock,
// try-locks, out-of-LIFO releases, and CondVar waits — and an acquisition
// that inverts the rank order must abort naming BOTH locks, as must a
// blocking call made under the buffer-pool latch. Death assertions
// use the "threadsafe" style so the re-executed child is safe even though
// the test binary links the threaded engine.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "wal/log_manager.h"

namespace elephant {
namespace {

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EQ(lock_rank::HeldCount(), 0);
  }
  void TearDown() override { ASSERT_EQ(lock_rank::HeldCount(), 0); }
};

TEST_F(LockRankTest, InOrderNestingIsSilent) {
  Mutex low(LockRank::kBufferPool, "test::low");
  Mutex mid(LockRank::kLogManager, "test::mid");
  Mutex high(LockRank::kDiskManager, "test::high");
  MutexLock a(low);
  EXPECT_EQ(lock_rank::HeldCount(), 1);
  EXPECT_EQ(lock_rank::MaxHeldRank(), LockRank::kBufferPool);
  {
    MutexLock b(mid);
    MutexLock c(high);
    EXPECT_EQ(lock_rank::HeldCount(), 3);
    EXPECT_EQ(lock_rank::MaxHeldRank(), LockRank::kDiskManager);
  }
  EXPECT_EQ(lock_rank::HeldCount(), 1);
}

TEST_F(LockRankTest, InversionAbortsNamingBothLocks) {
  Mutex pool(LockRank::kBufferPool, "test::pool_latch");
  Mutex txn(LockRank::kTxnManager, "test::txn_mu");
  MutexLock hold(pool);
  // Acquiring a lower-ranked lock while a higher-ranked one is held must
  // abort, and the message must identify both ends of the inversion.
  EXPECT_DEATH({ MutexLock bad(txn); },
               "lock-rank violation.*test::txn_mu.*test::pool_latch");
}

TEST_F(LockRankTest, EqualRankNestingAborts) {
  Mutex a(LockRank::kDiskManager, "test::disk_a");
  Mutex b(LockRank::kDiskManager, "test::disk_b");
  MutexLock hold(a);
  // Strictly increasing order: two locks of the same rank never nest (this
  // is also what makes ranked locks non-recursive).
  EXPECT_DEATH({ MutexLock bad(b); },
               "lock-rank violation.*test::disk_b.*test::disk_a");
}

TEST_F(LockRankTest, RecursiveAcquisitionAborts) {
  Mutex mu(LockRank::kLogManager, "test::recursive");
  mu.Lock();
  EXPECT_DEATH(mu.Lock(), "lock-rank violation.*test::recursive");
  mu.Unlock();
}

TEST_F(LockRankTest, UnrankedMutexesAreExempt) {
  Mutex ranked(LockRank::kDiskManager, "test::ranked");
  Mutex scratch;  // unranked: no order constraints in either direction
  MutexLock a(ranked);
  MutexLock b(scratch);  // below a ranked lock: fine
  EXPECT_EQ(lock_rank::HeldCount(), 1);  // only the ranked lock is tracked
}

TEST_F(LockRankTest, OutOfLifoReleaseIsFine) {
  Mutex low(LockRank::kBufferPool, "test::low");
  Mutex high(LockRank::kLogManager, "test::high");
  low.Lock();
  high.Lock();
  low.Unlock();  // release order need not mirror acquisition order
  EXPECT_EQ(lock_rank::HeldCount(), 1);
  EXPECT_EQ(lock_rank::MaxHeldRank(), LockRank::kLogManager);
  high.Unlock();
}

TEST_F(LockRankTest, TryLockRecordsButDoesNotEnforceOrder) {
  Mutex low(LockRank::kTxnManager, "test::low");
  Mutex high(LockRank::kDiskManager, "test::high");
  MutexLock hold(high);
  // A try-lock can never deadlock, so taking a lower rank this way is
  // allowed — but it still lands on the held stack, so ordinary blocking
  // acquisitions after it are validated against it.
  ASSERT_TRUE(low.TryLock());
  EXPECT_EQ(lock_rank::HeldCount(), 2);
  Mutex lower(LockRank::kSessionManager, "test::lower");
  EXPECT_DEATH({ MutexLock bad(lower); },
               "lock-rank violation.*test::lower.*test::high");
  low.Unlock();
}

TEST_F(LockRankTest, CondVarWaitKeepsStackAccurate) {
  Mutex mu(LockRank::kScheduler, "test::cv_mu");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    // Wait releases through unlock() and reacquires through lock(), so the
    // held stack dips to zero while blocked and is restored on wakeup.
    while (!ready) cv.Wait(mu);
    EXPECT_EQ(lock_rank::HeldCount(), 1);
    EXPECT_EQ(lock_rank::MaxHeldRank(), LockRank::kScheduler);
  }
  waker.join();
  EXPECT_EQ(lock_rank::HeldCount(), 0);
}

TEST_F(LockRankTest, HeldStacksArePerThread) {
  Mutex high(LockRank::kDiskManager, "test::high");
  Mutex low(LockRank::kTxnManager, "test::low");
  MutexLock hold(high);
  // Another thread is unconstrained by this thread's held locks.
  std::thread other([&] {
    EXPECT_EQ(lock_rank::HeldCount(), 0);
    MutexLock ok(low);
    EXPECT_EQ(lock_rank::MaxHeldRank(), LockRank::kTxnManager);
  });
  other.join();
  EXPECT_EQ(lock_rank::HeldCount(), 1);
}

// Blocking-under-latch (lock_rank::AssertMayBlock): an fsync, a WAL flush or
// a condition wait while a kBufferPool-ranked lock is held aborts, naming the
// blocking call, its call site in this file and the held latch. The same
// calls without the latch are silent.
TEST_F(LockRankTest, SyncUnderPoolLatchAborts) {
  DiskManager disk;
  ASSERT_TRUE(disk.Sync().ok());
  Mutex latch(LockRank::kBufferPool, "test::pool_latch");
  MutexLock hold(latch);
  EXPECT_DEATH(EXPECT_TRUE(disk.Sync().ok()),
               "blocking-under-latch violation: DiskManager::Sync called "
               "from .*lock_rank_test.cc.*test::pool_latch");
}

TEST_F(LockRankTest, WalFlushUnderPoolLatchAborts) {
  DiskManager disk;
  wal::LogManager log(&disk);
  ASSERT_TRUE(log.FlushUntil(log.AppendCheckpoint()).ok());
  const lsn_t lsn = log.AppendCheckpoint();
  Mutex latch(LockRank::kBufferPool, "test::pool_latch");
  MutexLock hold(latch);
  EXPECT_DEATH(EXPECT_TRUE(log.FlushUntil(lsn).ok()),
               "blocking-under-latch violation: LogManager::FlushUntil called "
               "from .*lock_rank_test.cc.*test::pool_latch");
  EXPECT_DEATH(EXPECT_TRUE(log.Flush().ok()),
               "blocking-under-latch violation: LogManager::Flush called "
               "from .*lock_rank_test.cc.*test::pool_latch");
}

TEST_F(LockRankTest, CondVarWaitUnderPoolLatchAborts) {
  Mutex latch(LockRank::kBufferPool, "test::pool_latch");
  Mutex mu(LockRank::kTraceLog, "test::cv_mu");
  CondVar cv;
  MutexLock hold(latch);
  MutexLock lock(mu);
  // The notifier makes an unchecked Wait return, so a missing check fails
  // the death test instead of hanging it.
  EXPECT_DEATH(
      {
        std::atomic<bool> woke{false};
        std::thread notifier([&] {
          while (!woke) {
            cv.NotifyAll();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
        cv.Wait(mu);
        woke = true;
        notifier.join();
      },
      "blocking-under-latch violation: CondVar::Wait called from "
      ".*lock_rank_test.cc.*test::pool_latch");
  EXPECT_DEATH(cv.WaitFor(mu, 0.001),
               "blocking-under-latch violation: CondVar::WaitFor called from "
               ".*lock_rank_test.cc.*test::pool_latch");
}

TEST_F(LockRankTest, RankAndNameAccessors) {
  Mutex mu(LockRank::kHeatmap, "test::named");
  EXPECT_EQ(mu.rank(), LockRank::kHeatmap);
  EXPECT_STREQ(mu.name(), "test::named");
  Mutex anon;
  EXPECT_EQ(anon.rank(), LockRank::kUnranked);
  EXPECT_STREQ(LockRankName(LockRank::kBufferPool), "kBufferPool");
  EXPECT_STREQ(LockRankName(LockRank::kUnranked), "kUnranked");
}

}  // namespace
}  // namespace elephant
