#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "storage/table_heap.h"

namespace elephant {
namespace {

TEST(DiskManagerTest, SequentialVsRandomClassification) {
  DiskManager disk;
  for (int i = 0; i < 100; i++) disk.AllocatePage();
  char buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage(0, buf).ok());   // first read: random (seek)
  ASSERT_TRUE(disk.ReadPage(1, buf).ok());   // sequential
  ASSERT_TRUE(disk.ReadPage(2, buf).ok());   // sequential
  ASSERT_TRUE(disk.ReadPage(60, buf).ok());  // random (beyond any window)
  ASSERT_TRUE(disk.ReadPage(61, buf).ok());  // sequential
  EXPECT_EQ(disk.stats().sequential_reads, 3u);
  EXPECT_EQ(disk.stats().random_reads, 2u);
}

TEST(DiskManagerTest, ReadaheadDisabledKeepsLegacyClassification) {
  DiskManager disk;
  disk.ConfigureReadahead(false);
  for (int i = 0; i < 10; i++) disk.AllocatePage();
  char buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage(0, buf).ok());  // random
  ASSERT_TRUE(disk.ReadPage(1, buf).ok());  // sequential
  ASSERT_TRUE(disk.ReadPage(2, buf).ok());  // sequential
  ASSERT_TRUE(disk.ReadPage(7, buf).ok());  // random (no window to land in)
  ASSERT_TRUE(disk.ReadPage(8, buf).ok());  // sequential
  const IoStats s = disk.stats();
  EXPECT_EQ(s.sequential_reads, 3u);
  EXPECT_EQ(s.random_reads, 2u);
  EXPECT_EQ(s.readahead.windows_issued, 0u);
  EXPECT_EQ(s.readahead.prefetch_hits, 0u);
}

TEST(DiskManagerTest, ReadaheadWindowServesForwardJumps) {
  DiskManager disk;
  for (int i = 0; i < 100; i++) disk.AllocatePage();
  char buf[kPageSize];
  ASSERT_TRUE(disk.ReadPage(0, buf).ok());  // random; no window (point intent)
  ASSERT_TRUE(disk.ReadPage(1, buf).ok());  // sequential; opens a window
  ASSERT_TRUE(disk.ReadPage(7, buf).ok());  // inside the window: prefetch hit
  const IoStats s = disk.stats();
  EXPECT_EQ(s.random_reads, 1u);
  EXPECT_EQ(s.sequential_reads, 2u);
  EXPECT_GE(s.readahead.windows_issued, 1u);
  EXPECT_EQ(s.readahead.prefetch_hits, 1u);
  // Pages 2..6 were staged and skipped over: transferred for nothing.
  EXPECT_EQ(s.readahead.prefetch_wasted, 5u);
}

TEST(DiskManagerTest, SequentialIntentOpensWindowAtStreamStart) {
  DiskManager disk;
  for (int i = 0; i < 100; i++) disk.AllocatePage();
  char buf[kPageSize];
  // Plan-driven scan start: the very first read stages a window, so every
  // following page of the scan is a prefetch hit.
  ASSERT_TRUE(disk.ReadPage(10, buf, AccessIntent::kSequentialScan).ok());
  for (page_id_t p = 11; p < 42; p++) {
    ASSERT_TRUE(disk.ReadPage(p, buf, AccessIntent::kSequentialScan).ok());
  }
  const IoStats s = disk.stats();
  EXPECT_EQ(s.random_reads, 1u);
  EXPECT_EQ(s.sequential_reads, 31u);
  EXPECT_EQ(s.readahead.prefetch_hits, 31u);
  EXPECT_GE(s.readahead.windows_issued, 1u);
  EXPECT_GE(s.readahead.pages_prefetched, 31u);
}

TEST(DiskManagerTest, PointLookupsNeverOpenWindows) {
  DiskManager disk;
  for (int i = 0; i < 100; i++) disk.AllocatePage();
  char buf[kPageSize];
  // Scattered probes with the default point intent: all random, no windows.
  for (page_id_t p : {5, 50, 17, 80, 33}) {
    ASSERT_TRUE(disk.ReadPage(p, buf).ok());
  }
  const IoStats s = disk.stats();
  EXPECT_EQ(s.random_reads, 5u);
  EXPECT_EQ(s.sequential_reads, 0u);
  EXPECT_EQ(s.readahead.windows_issued, 0u);
  EXPECT_EQ(s.readahead.pages_prefetched, 0u);
}

TEST(DiskManagerTest, ReadUnallocatedFails) {
  DiskManager disk;
  char buf[kPageSize];
  EXPECT_FALSE(disk.ReadPage(0, buf).ok());
  EXPECT_FALSE(disk.ReadPage(-1, buf).ok());
}

TEST(DiskManagerTest, WriteReadRoundTrip) {
  DiskManager disk;
  page_id_t p = disk.AllocatePage();
  char w[kPageSize], r[kPageSize];
  for (uint32_t i = 0; i < kPageSize; i++) w[i] = static_cast<char>(i * 7);
  ASSERT_TRUE(disk.WritePage(p, w).ok());
  ASSERT_TRUE(disk.ReadPage(p, r).ok());
  EXPECT_EQ(0, memcmp(w, r, kPageSize));
}

TEST(DiskModelTest, RandomCostsMoreThanSequential) {
  DiskModel model;
  // A streamed scan: every page after the first is served from read-ahead.
  IoStats seq;
  seq.sequential_reads = 100;
  seq.readahead.prefetch_hits = 99;
  IoStats rnd;
  rnd.random_reads = 100;
  EXPECT_GT(model.Seconds(rnd), 50 * model.Seconds(seq));
}

TEST(DiskModelTest, PrefetchHitsAvoidRequestOverhead) {
  DiskModel model;
  IoStats unbuffered;
  unbuffered.sequential_reads = 100;
  IoStats streamed = unbuffered;
  streamed.readahead.prefetch_hits = 99;
  // Without a prefetch pipeline every sequential page pays the per-request
  // command turnaround; with one, only the stream head does.
  const double page_xfer = kPageSize / model.transfer_bytes_per_sec;
  EXPECT_GT(model.Seconds(unbuffered), model.Seconds(streamed));
  EXPECT_NEAR(model.Seconds(unbuffered) - model.Seconds(streamed),
              99 * model.request_overhead_seconds, 1e-12);
  EXPECT_NEAR(model.Seconds(streamed),
              model.request_overhead_seconds + 100 * page_xfer, 1e-12);
  // And a random read still costs far more than even an unbuffered
  // sequential one.
  IoStats one_random;
  one_random.random_reads = 1;
  IoStats one_seq;
  one_seq.sequential_reads = 1;
  EXPECT_GT(model.Seconds(one_random), 10 * model.Seconds(one_seq));
}

TEST(DiskModelTest, SequentialReadSecondsScalesWithBytes) {
  DiskModel model;
  EXPECT_LT(model.SequentialReadSeconds(1 << 20), model.SequentialReadSeconds(100 << 20));
}

TEST(BufferPoolTest, HitAfterMiss) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pid;
  ASSERT_TRUE(pool.NewPage(&pid).ok());
  pool.UnpinPage(pid, true);
  ASSERT_TRUE(pool.FetchPage(pid).ok());  // hit (resident)
  pool.UnpinPage(pid, false);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  page_id_t p0, p1, p2;
  {
    auto f = pool.NewPage(&p0);
    ASSERT_TRUE(f.ok());
    f.value()->data()[0] = 'X';
    pool.UnpinPage(p0, true);
  }
  ASSERT_TRUE(pool.NewPage(&p1).ok());
  pool.UnpinPage(p1, true);
  ASSERT_TRUE(pool.NewPage(&p2).ok());  // must evict p0 or p1
  pool.UnpinPage(p2, true);
  auto f0 = pool.FetchPage(p0);
  ASSERT_TRUE(f0.ok());
  EXPECT_EQ(f0.value()->data()[0], 'X');
  pool.UnpinPage(p0, false);
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  page_id_t p0, p1, p2;
  ASSERT_TRUE(pool.NewPage(&p0).ok());
  ASSERT_TRUE(pool.NewPage(&p1).ok());
  auto r = pool.NewPage(&p2);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  pool.UnpinPage(p0, false);
  pool.UnpinPage(p1, false);
}

TEST(BufferPoolTest, FailedReadReturnsVictimFrame) {
  // A fetch whose disk read fails must hand its victim frame back: more
  // failed fetches than frames, then a valid fetch, on a 4-frame pool.
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t valid;
  ASSERT_TRUE(pool.NewPage(&valid).ok());
  pool.UnpinPage(valid, true);
  ASSERT_TRUE(pool.EvictAll().ok());
  for (page_id_t bad = 100; bad < 110; bad++) {
    auto r = pool.FetchPage(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << "page " << bad;
  }
  auto f = pool.FetchPage(valid);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  pool.UnpinPage(valid, false);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST(BufferPoolTest, EvictAllMakesNextFetchMiss) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  page_id_t pid;
  ASSERT_TRUE(pool.NewPage(&pid).ok());
  pool.UnpinPage(pid, true);
  ASSERT_TRUE(pool.EvictAll().ok());
  disk.ResetStats();
  ASSERT_TRUE(pool.FetchPage(pid).ok());
  pool.UnpinPage(pid, false);
  EXPECT_EQ(disk.stats().TotalReads(), 1u);
}

TEST(BufferPoolTest, SequentialScanDoesNotEvictYoungWorkingSet) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  // Hot working set: four point-access pages.
  std::vector<page_id_t> hot;
  for (int i = 0; i < 4; i++) {
    page_id_t pid;
    ASSERT_TRUE(pool.NewPage(&pid).ok());
    pool.UnpinPage(pid, true);
    hot.push_back(pid);
  }
  // A scan four times the pool size streams through under sequential intent.
  std::vector<page_id_t> scanned;
  for (int i = 0; i < 32; i++) {
    page_id_t pid;
    ASSERT_TRUE(pool.NewPage(&pid, AccessIntent::kSequentialScan).ok());
    pool.UnpinPage(pid, true);
    scanned.push_back(pid);
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  for (page_id_t p : hot) {
    ASSERT_TRUE(pool.FetchPage(p).ok());
    pool.UnpinPage(p, false);
  }
  for (page_id_t p : scanned) {
    ASSERT_TRUE(pool.FetchPage(p, AccessIntent::kSequentialScan).ok());
    pool.UnpinPage(p, false);
  }
  // The ring recycled the scan's own pages: every hot page is still
  // resident, and the ring never grew past the frames the young region
  // wasn't using.
  for (page_id_t p : hot) EXPECT_TRUE(pool.IsResident(p)) << p;
  EXPECT_GT(pool.stats().scan_ring_inserts, 0u);
  EXPECT_LE(pool.ScanRingPages(), 4u);
}

TEST(BufferPoolTest, PointHitOnRingPagePromotesToYoung) {
  DiskManager disk;
  BufferPool pool(&disk, 8);
  page_id_t pid;
  ASSERT_TRUE(pool.NewPage(&pid, AccessIntent::kSequentialScan).ok());
  pool.UnpinPage(pid, true);
  EXPECT_EQ(pool.ScanRingPages(), 1u);
  // A point hit proves reuse beyond the scan: the page moves to the young
  // region and stops being a preferred victim.
  ASSERT_TRUE(pool.FetchPage(pid).ok());
  pool.UnpinPage(pid, false);
  EXPECT_EQ(pool.ScanRingPages(), 0u);
  EXPECT_EQ(pool.stats().scan_ring_promotions, 1u);
}

TEST(BufferPoolTest, PointOnlyWorkloadEvictsInExactLruOrder) {
  DiskManager disk;
  BufferPool pool(&disk, 3);
  page_id_t p0, p1, p2, p3;
  ASSERT_TRUE(pool.NewPage(&p0).ok());
  pool.UnpinPage(p0, true);
  ASSERT_TRUE(pool.NewPage(&p1).ok());
  pool.UnpinPage(p1, true);
  ASSERT_TRUE(pool.NewPage(&p2).ok());
  pool.UnpinPage(p2, true);
  // Touch p0: recency order becomes p0 > p2 > p1.
  ASSERT_TRUE(pool.FetchPage(p0).ok());
  pool.UnpinPage(p0, false);
  // Next miss must evict exactly the least recently used page: p1.
  ASSERT_TRUE(pool.NewPage(&p3).ok());
  pool.UnpinPage(p3, true);
  EXPECT_TRUE(pool.IsResident(p0));
  EXPECT_FALSE(pool.IsResident(p1));
  EXPECT_TRUE(pool.IsResident(p2));
  // And with no sequential intent anywhere, the ring never engages.
  EXPECT_EQ(pool.stats().scan_ring_inserts, 0u);
  EXPECT_EQ(pool.ScanRingPages(), 0u);
}

TEST(BufferPoolTest, EvictAllWithPinnedPageFailsCleanly) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  page_id_t pinned, loose;
  ASSERT_TRUE(pool.NewPage(&pinned).ok());  // stays pinned
  ASSERT_TRUE(pool.NewPage(&loose).ok());
  pool.UnpinPage(loose, true);
  Status s = pool.EvictAll();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.ToString().find(std::to_string(pinned)), std::string::npos)
      << s.ToString();
  // The unpinned page was still evicted and bookkeeping stayed consistent.
  EXPECT_TRUE(pool.IsResident(pinned));
  EXPECT_FALSE(pool.IsResident(loose));
  EXPECT_EQ(pool.PinnedFrames(), 1u);
  pool.UnpinPage(pinned, false);
  EXPECT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(pool.ResidentPages(), 0u);
}

TEST(BufferPoolTest, CapacityOnePoolSurvivesBothIntents) {
  DiskManager disk;
  BufferPool pool(&disk, 1);
  page_id_t p0, p1;
  ASSERT_TRUE(pool.NewPage(&p0).ok());
  pool.UnpinPage(p0, true);
  ASSERT_TRUE(pool.NewPage(&p1, AccessIntent::kSequentialScan).ok());
  pool.UnpinPage(p1, true);
  // Alternate intents against a single frame: each miss must find a victim.
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(pool.FetchPage(p0).ok());
    pool.UnpinPage(p0, false);
    ASSERT_TRUE(pool.FetchPage(p1, AccessIntent::kSequentialScan).ok());
    pool.UnpinPage(p1, false);
  }
  EXPECT_EQ(pool.ResidentPages(), 1u);
  EXPECT_EQ(pool.stats().pin_protocol_errors, 0u);
  // While the only frame is pinned, either intent fails with a clean
  // ResourceExhausted and the pinned page is untouched.
  ASSERT_TRUE(pool.FetchPage(p0).ok());
  auto miss = pool.FetchPage(p1, AccessIntent::kSequentialScan);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(pool.IsResident(p0));
  pool.UnpinPage(p0, false);
  ASSERT_TRUE(pool.FetchPage(p1).ok());
  pool.UnpinPage(p1, false);
}

TEST(DiskManagerTest, ReadaheadLowersModeledScanTime) {
  DiskModel model;
  auto stream_seconds = [&](bool readahead) {
    DiskManager disk;
    disk.ConfigureReadahead(readahead);
    for (int i = 0; i < 200; i++) disk.AllocatePage();
    char buf[kPageSize];
    for (page_id_t p = 0; p < 200; p++) {
      EXPECT_TRUE(disk.ReadPage(p, buf, AccessIntent::kSequentialScan).ok());
    }
    return model.Seconds(disk.stats());
  };
  const double with = stream_seconds(true);
  const double without = stream_seconds(false);
  // Same scan, same model: the prefetch pipeline saves the per-request
  // overhead on every page after the stream head.
  EXPECT_LT(with, without);
  EXPECT_NEAR(without - with, 199 * model.request_overhead_seconds, 1e-9);
}

TEST(SlottedPageTest, InsertGetDelete) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  auto s0 = page.Insert("hello");
  auto s1 = page.Insert("world!");
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(page.Get(s0.value()).value(), "hello");
  EXPECT_EQ(page.Get(s1.value()).value(), "world!");
  ASSERT_TRUE(page.Delete(s0.value()).ok());
  EXPECT_FALSE(page.Get(s0.value()).ok());
  EXPECT_EQ(page.Get(s1.value()).value(), "world!");
}

TEST(SlottedPageTest, FillsUntilFull) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  std::string rec(100, 'x');
  int inserted = 0;
  while (page.Insert(rec).ok()) inserted++;
  // 100-byte records + 4-byte slots into ~8184 usable bytes.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  // Every record is still readable.
  for (int i = 0; i < inserted; i++) {
    EXPECT_EQ(page.Get(static_cast<slot_id_t>(i)).value(), rec);
  }
}

TEST(SlottedPageTest, UpdateInPlace) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  auto s = page.Insert("abcdef");
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(page.Update(s.value(), "ABCDEF").ok());
  EXPECT_EQ(page.Get(s.value()).value(), "ABCDEF");
  // Larger payload is rejected.
  EXPECT_FALSE(page.Update(s.value(), "toolongforslot").ok());
  // Smaller payload shrinks.
  ASSERT_TRUE(page.Update(s.value(), "xy").ok());
  EXPECT_EQ(page.Get(s.value()).value(), "xy");
}

TEST(TableHeapTest, InsertAcrossPagesAndScan) {
  DiskManager disk;
  BufferPool pool(&disk, 64);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  const int n = 500;
  std::string rec(100, 'r');
  std::vector<Rid> rids;
  for (int i = 0; i < n; i++) {
    rec[0] = static_cast<char>('a' + i % 26);
    auto rid = heap.value().Insert(rec);
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  EXPECT_GT(heap.value().last_page(), heap.value().first_page());
  // Point gets.
  std::string out;
  ASSERT_TRUE(heap.value().Get(rids[123], &out).ok());
  EXPECT_EQ(out[0], 'a' + 123 % 26);
  // Full scan sees all rows in insertion order.
  auto it = heap.value().Begin();
  ASSERT_TRUE(it.ok());
  int count = 0;
  while (it.value().Valid()) {
    EXPECT_EQ(it.value().record()[0], 'a' + count % 26);
    count++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(count, n);
}

TEST(TableHeapTest, DeleteSkippedByScan) {
  DiskManager disk;
  BufferPool pool(&disk, 16);
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 10; i++) {
    rids.push_back(heap.value().Insert("row" + std::to_string(i)).value());
  }
  ASSERT_TRUE(heap.value().Delete(rids[3]).ok());
  ASSERT_TRUE(heap.value().Delete(rids[7]).ok());
  auto it = heap.value().Begin();
  ASSERT_TRUE(it.ok());
  int count = 0;
  while (it.value().Valid()) {
    EXPECT_NE(it.value().record(), "row3");
    EXPECT_NE(it.value().record(), "row7");
    count++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(count, 8);
}

TEST(TableHeapTest, HeapScanIsMostlySequentialIo) {
  DiskManager disk;
  BufferPool pool(&disk, 4);  // tiny pool: scan must re-read from disk
  auto heap = TableHeap::Create(&pool);
  ASSERT_TRUE(heap.ok());
  std::string rec(200, 'q');
  for (int i = 0; i < 2000; i++) ASSERT_TRUE(heap.value().Insert(rec).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  disk.ResetStats();
  auto it = heap.value().Begin();
  ASSERT_TRUE(it.ok());
  int n = 0;
  while (it.value().Valid()) {
    n++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(n, 2000);
  // Pages are chained in allocation order, so the scan is sequential I/O.
  EXPECT_GT(disk.stats().sequential_reads, disk.stats().random_reads * 10);
}

}  // namespace
}  // namespace elephant
