#include <gtest/gtest.h>

#include <utility>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page_guard.h"

namespace elephant {
namespace {

// Allocates one page through a guard and returns its id (pin released).
page_id_t MakePage(BufferPool* pool) {
  page_id_t pid;
  auto guard = pool->NewPageGuarded(&pid);
  EXPECT_TRUE(guard.ok());
  return pid;
}

TEST(PageGuardTest, UnpinsOnScopeExit) {
  DiskManager disk;
  BufferPool pool(&disk, 1);  // capacity 1: a leaked pin wedges the pool
  page_id_t pid = MakePage(&pool);
  {
    auto guard = pool.FetchPageGuarded(pid);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(pool.PinnedFrames(), 1u);
  }
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  // The single frame must be reusable again — proves the pin is gone.
  page_id_t pid2;
  EXPECT_TRUE(pool.NewPageGuarded(&pid2).ok());
  EXPECT_EQ(pool.stats().pin_protocol_errors, 0u);
}

TEST(PageGuardTest, MoveTransfersThePin) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);

  auto fetched = pool.FetchPageGuarded(pid);
  ASSERT_TRUE(fetched.ok());
  PageGuard a = std::move(fetched).value();
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.page_id(), pid);

  PageGuard b(std::move(a));  // move construction
  EXPECT_FALSE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(pool.PinnedFrames(), 1u);

  PageGuard c;
  c = std::move(b);  // move assignment into an empty guard
  EXPECT_FALSE(b.valid());
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(pool.PinnedFrames(), 1u);

  c.Release();
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  // One fetch, exactly one unpin across all the moves.
  EXPECT_EQ(pool.stats().pin_protocol_errors, 0u);
}

TEST(PageGuardTest, MoveAssignReleasesTheOverwrittenPin) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t p1 = MakePage(&pool);
  page_id_t p2 = MakePage(&pool);

  auto g1 = pool.FetchPageGuarded(p1);
  auto g2 = pool.FetchPageGuarded(p2);
  ASSERT_TRUE(g1.ok() && g2.ok());
  EXPECT_EQ(pool.PinnedFrames(), 2u);

  PageGuard target = std::move(g1).value();
  target = std::move(g2).value();  // must unpin p1 before adopting p2
  EXPECT_EQ(pool.PinnedFrames(), 1u);
  EXPECT_EQ(target.page_id(), p2);
  target.Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.stats().pin_protocol_errors, 0u);
}

TEST(PageGuardTest, ReleaseIsIdempotent) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);
  auto guard = pool.FetchPageGuarded(pid);
  ASSERT_TRUE(guard.ok());
  guard.value().Release();
  guard.value().Release();  // second release (and the destructor) are no-ops
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.stats().pin_protocol_errors, 0u);
}

TEST(PageGuardTest, DirtyPropagatesOnlyWhenMarked) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);
  // Write back the freshly allocated (dirty-from-birth) frame so the frame
  // state is clean before the unmarked write below.
  ASSERT_TRUE(pool.EvictAll().ok());

  {  // Not marked dirty: the write must be lost across eviction.
    auto guard = pool.FetchPageGuarded(pid);
    ASSERT_TRUE(guard.ok());
    guard.value().data()[0] = 'X';
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  {
    auto guard = pool.FetchPageGuarded(pid);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard.value().data()[0], '\0');

    guard.value().data()[0] = 'Y';  // marked dirty: must persist
    guard.value().MarkDirty();
    EXPECT_TRUE(guard.value().dirty());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  {
    auto guard = pool.FetchPageGuarded(pid);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard.value().data()[0], 'Y');
  }
}

TEST(PageGuardTest, CheckNoPinsHeldSeesHeldGuards) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);
  EXPECT_TRUE(pool.CheckNoPinsHeld().ok());
  {
    auto guard = pool.FetchPageGuarded(pid);
    ASSERT_TRUE(guard.ok());
    Status s = pool.CheckNoPinsHeld();
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("pin leak"), std::string::npos);
  }
  EXPECT_TRUE(pool.CheckNoPinsHeld().ok());
}

#if GTEST_HAS_DEATH_TEST
TEST(PageGuardDeathTest, AssertNoPinsHeldAbortsOnLeak) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);
  auto guard = pool.FetchPageGuarded(pid);
  ASSERT_TRUE(guard.ok());
  EXPECT_DEATH(pool.AssertNoPinsHeld(), "pin leak");
}
#endif

#if defined(__SANITIZE_ADDRESS__)
// Page escape: an unpinned frame is poisoned under ASan, so reading the page
// through a pointer kept past the guard's release dies.
TEST(PageGuardDeathTest, ReadThroughReleasedGuardIsUseAfterPoison) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);
  auto guard = pool.FetchPageGuarded(pid);
  ASSERT_TRUE(guard.ok());
  const volatile char* escaped = guard.value().data();
  EXPECT_EQ(escaped[0], '\0');  // fine while pinned
  guard.value().Release();
  EXPECT_DEATH(EXPECT_EQ(escaped[0], '\0'), "use-after-poison");
}
#endif

TEST(PinProtocolTest, DoubleUnpinIsCounted) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid = MakePage(&pool);
  // Raw API on purpose (this is the pool's own contract test).
  ASSERT_TRUE(pool.FetchPage(pid).ok());
  pool.UnpinPage(pid, false);
  EXPECT_EQ(pool.stats().pin_protocol_errors, 0u);
  pool.UnpinPage(pid, false);  // double unpin: caller bug, counted
  EXPECT_EQ(pool.stats().pin_protocol_errors, 1u);
  pool.UnpinPage(static_cast<page_id_t>(9999), false);  // not resident
  EXPECT_EQ(pool.stats().pin_protocol_errors, 2u);
}

}  // namespace
}  // namespace elephant
