#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/schema.h"
#include "index/btree.h"
#include "storage/btree_node.h"

namespace elephant {
namespace {

std::string IntKey(int64_t v) {
  std::string k;
  keycodec::Encode(Value::Int64(v), &k);
  return k;
}

struct TreeFixture {
  DiskManager disk;
  BufferPool pool;
  TreeFixture() : pool(&disk, 4096) {}
};

TEST(BTreeNodeTest, InsertAndReadCells) {
  char buf[kPageSize];
  BTreeNode node(buf);
  node.Init(BTreeNode::kLeaf);
  node.InsertCell(0, "bbb", "v1");
  node.InsertCell(0, "aaa", "v0");
  node.InsertCell(2, "ccc", "v2");
  ASSERT_EQ(node.Count(), 3);
  EXPECT_EQ(node.KeyAt(0), "aaa");
  EXPECT_EQ(node.KeyAt(1), "bbb");
  EXPECT_EQ(node.KeyAt(2), "ccc");
  EXPECT_EQ(node.ValueAt(1), "v1");
}

TEST(BTreeNodeTest, LowerUpperBound) {
  char buf[kPageSize];
  BTreeNode node(buf);
  node.Init(BTreeNode::kLeaf);
  node.InsertCell(0, "a", "");
  node.InsertCell(1, "b", "");
  node.InsertCell(2, "b", "");
  node.InsertCell(3, "d", "");
  EXPECT_EQ(node.LowerBound("b"), 1);
  EXPECT_EQ(node.UpperBound("b"), 3);
  EXPECT_EQ(node.LowerBound("c"), 3);
  EXPECT_EQ(node.LowerBound("z"), 4);
  EXPECT_EQ(node.LowerBound(""), 0);
}

TEST(BTreeNodeTest, CompactReclaimsDeletedSpace) {
  char buf[kPageSize];
  BTreeNode node(buf);
  node.Init(BTreeNode::kLeaf);
  std::string big(1000, 'x');
  for (int i = 0; i < 7; i++) {
    node.InsertCell(i, "k" + std::to_string(i), big);
  }
  uint32_t before = node.ContiguousFree();
  node.RemoveCell(0);
  node.RemoveCell(0);
  EXPECT_EQ(node.ContiguousFree(), before + 2 * BTreeNode::kSlotBytes);
  node.Compact();
  EXPECT_GT(node.ContiguousFree(), before + 2000u);
  EXPECT_EQ(node.KeyAt(0), "k2");
}

TEST(BTreeTest, EmptyTreeBehaviour) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree.value().Get(IntKey(1)).ok());
  auto it = tree.value().SeekToFirst();
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it.value().Valid());
  EXPECT_EQ(tree.value().CountEntries().value(), 0u);
}

TEST(BTreeTest, InsertGetSmall) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(tree.value().Insert(IntKey(i), "val" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 100; i++) {
    auto v = tree.value().Get(IntKey(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(v.value(), "val" + std::to_string(i));
  }
  EXPECT_FALSE(tree.value().Get(IntKey(100)).ok());
}

TEST(BTreeTest, InsertManySplitsAndStaysSorted) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  const int n = 20000;
  // Insert in a scrambled order to exercise splits at all positions.
  for (int i = 0; i < n; i++) {
    int k = static_cast<int>((static_cast<int64_t>(i) * 7919) % n);
    ASSERT_TRUE(tree.value().Insert(IntKey(k), "v" + std::to_string(k)).ok());
  }
  EXPECT_GT(tree.value().Height().value(), 1u);
  // Full scan must be sorted and complete.
  auto it = tree.value().SeekToFirst();
  ASSERT_TRUE(it.ok());
  int count = 0;
  std::string prev;
  while (it.value().Valid()) {
    std::string k(it.value().key());
    if (count > 0) EXPECT_LE(prev, k);
    prev = k;
    count++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(count, n);
}

TEST(BTreeTest, DuplicateKeysAllFound) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  // 50 distinct keys x 200 duplicates, interleaved.
  for (int rep = 0; rep < 200; rep++) {
    for (int k = 0; k < 50; k++) {
      ASSERT_TRUE(tree.value().Insert(IntKey(k), "r" + std::to_string(rep)).ok());
    }
  }
  for (int k = 0; k < 50; k++) {
    auto it = tree.value().Seek(IntKey(k));
    ASSERT_TRUE(it.ok());
    int count = 0;
    while (it.value().Valid() && it.value().key() == IntKey(k)) {
      count++;
      ASSERT_TRUE(it.value().Next().ok());
    }
    EXPECT_EQ(count, 200) << "key " << k;
  }
  EXPECT_EQ(tree.value().CountEntries().value(), 10000u);
}

TEST(BTreeTest, SeekFindsFirstGreaterOrEqual) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 1000; i += 10) {
    ASSERT_TRUE(tree.value().Insert(IntKey(i), std::to_string(i)).ok());
  }
  auto it = tree.value().Seek(IntKey(45));
  ASSERT_TRUE(it.ok());
  ASSERT_TRUE(it.value().Valid());
  EXPECT_EQ(it.value().value(), "50");
  it = tree.value().Seek(IntKey(40));
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(it.value().value(), "40");
  it = tree.value().Seek(IntKey(99999));
  ASSERT_TRUE(it.ok());
  EXPECT_FALSE(it.value().Valid());
}

TEST(BTreeTest, LookupsFetchEachLevelOnce) {
  // The descent hands its pinned leaf to Seek, Get, Update and Delete, so a
  // lookup fetches each page on the root-to-leaf path exactly once.
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(tree.value().Insert(IntKey(i), std::string(40, 'v')).ok());
  }
  const uint64_t height = tree.value().Height().value();
  ASSERT_GE(height, 2u);
  auto fetches = [&] { return f.pool.stats().hits + f.pool.stats().misses; };
  uint64_t before = fetches();
  ASSERT_TRUE(tree.value().Seek(IntKey(2500)).ok());
  EXPECT_EQ(fetches() - before, height);
  before = fetches();
  ASSERT_TRUE(tree.value().Get(IntKey(1234)).ok());
  EXPECT_EQ(fetches() - before, height);
  before = fetches();
  ASSERT_TRUE(tree.value().Update(IntKey(77), std::string(40, 'w')).ok());
  EXPECT_EQ(fetches() - before, height);
  before = fetches();
  ASSERT_TRUE(tree.value().Delete(IntKey(4321)).ok());
  EXPECT_EQ(fetches() - before, height);
}

TEST(BTreeTest, DeleteRemovesOnlyFirstMatch) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value().Insert(IntKey(5), "a").ok());
  ASSERT_TRUE(tree.value().Insert(IntKey(5), "b").ok());
  ASSERT_TRUE(tree.value().Delete(IntKey(5)).ok());
  EXPECT_EQ(tree.value().CountEntries().value(), 1u);
  ASSERT_TRUE(tree.value().Delete(IntKey(5)).ok());
  EXPECT_FALSE(tree.value().Delete(IntKey(5)).ok());
}

TEST(BTreeTest, UpdateSameAndDifferentLength) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree.value().Insert(IntKey(1), "aaaa").ok());
  ASSERT_TRUE(tree.value().Update(IntKey(1), "bbbb").ok());
  EXPECT_EQ(tree.value().Get(IntKey(1)).value(), "bbbb");
  ASSERT_TRUE(tree.value().Update(IntKey(1), "longer-value").ok());
  EXPECT_EQ(tree.value().Get(IntKey(1)).value(), "longer-value");
  EXPECT_FALSE(tree.value().Update(IntKey(2), "x").ok());
}

TEST(BTreeTest, BulkLoadMatchesContents) {
  TreeFixture f;
  const int n = 50000;
  int i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= n) return false;
    *k = IntKey(i);
    *v = "bulk" + std::to_string(i);
    i++;
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&f.pool, stream);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().CountEntries().value(), static_cast<uint64_t>(n));
  // Point lookups across the range.
  for (int k = 0; k < n; k += 997) {
    auto v = tree.value().Get(IntKey(k));
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(v.value(), "bulk" + std::to_string(k));
  }
  // Scan is sorted.
  auto it = tree.value().SeekToFirst();
  ASSERT_TRUE(it.ok());
  std::string prev;
  while (it.value().Valid()) {
    std::string k(it.value().key());
    EXPECT_LE(prev, k);
    prev = k;
    ASSERT_TRUE(it.value().Next().ok());
  }
}

TEST(BTreeTest, BulkLoadEmptyStream) {
  TreeFixture f;
  auto stream = [](std::string*, std::string*) { return false; };
  auto tree = BPlusTree::BulkLoad(&f.pool, stream);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().CountEntries().value(), 0u);
}

// Regression: BulkLoad used to leak the pinned current leaf when a pool
// fetch/alloc failed mid-load (e.g. fixing up the previous leaf's link).
// With a capacity-1 pool the leaf switch needs two frames at once, so the
// load must fail — and must leave zero pins behind.
TEST(BTreeTest, BulkLoadFailureLeaksNoPins) {
  DiskManager disk;
  BufferPool pool(&disk, 1);
  int i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= 8) return false;
    *k = IntKey(i);
    *v = std::string(1000, 'v');  // ~1KB per entry: spans multiple leaves
    i++;
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&pool, stream);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  // The pool must still be fully usable afterwards.
  page_id_t pid;
  EXPECT_TRUE(pool.NewPageGuarded(&pid).ok());
}

// Same invariant on the oversized-payload error return: the partially
// filled leaf's pin is released by its guard.
TEST(BTreeTest, BulkLoadOversizedEntryLeaksNoPins) {
  TreeFixture f;
  int i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= 2) return false;
    *k = IntKey(i);
    *v = i == 0 ? "ok" : std::string(BPlusTree::kMaxCellPayload + 1, 'x');
    i++;
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&f.pool, stream);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(f.pool.PinnedFrames(), 0u);
}

TEST(BTreeTest, BulkLoadedScanIsSequentialIo) {
  TreeFixture f;
  const int n = 100000;
  int i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= n) return false;
    *k = IntKey(i);
    *v = std::string(40, 'v');
    i++;
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&f.pool, stream);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(f.pool.EvictAll().ok());
  f.disk.ResetStats();
  auto it = tree.value().SeekToFirst();
  ASSERT_TRUE(it.ok());
  while (it.value().Valid()) ASSERT_TRUE(it.value().Next().ok());
  // Bulk-loaded leaves are consecutive pages: the leaf walk reads them in
  // order, so nearly all I/O is sequential (root descent aside).
  EXPECT_GT(f.disk.stats().sequential_reads, 100u);
  EXPECT_LT(f.disk.stats().random_reads, 10u);
}

// The tentpole behaviour: a full-tree scan under sequential intent recycles
// its own ring pages instead of flushing the point-lookup working set, so a
// warm root/inner path stays resident across the scan.
TEST(BTreeTest, SequentialScanLeavesPointWorkingSetResident) {
  DiskManager disk;
  BufferPool pool(&disk, 32);  // far smaller than the leaf count
  const int n = 100000;
  int i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= n) return false;
    *k = IntKey(i);
    *v = std::string(40, 'v');
    i++;
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&pool, stream);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  // Warm the descent path with point lookups, then measure their cost.
  const std::vector<int> probes{1000, 40000, 70000, 99000};
  for (int k : probes) ASSERT_TRUE(tree.value().Get(IntKey(k)).ok());
  disk.ResetStats();
  for (int k : probes) ASSERT_TRUE(tree.value().Get(IntKey(k)).ok());
  const uint64_t warm_reads = disk.stats().TotalReads();
  EXPECT_EQ(warm_reads, 0u);  // fully cached working set
  // Scan the whole tree (hundreds of leaves through 32 frames).
  auto it = tree.value().SeekToFirst(AccessIntent::kSequentialScan);
  ASSERT_TRUE(it.ok());
  while (it.value().Valid()) ASSERT_TRUE(it.value().Next().ok());
  // The probes' inner path survived the scan: repeating them faults at most
  // a couple of leaves (the scan descent itself touched the leftmost path),
  // not the whole descent times four.
  disk.ResetStats();
  for (int k : probes) ASSERT_TRUE(tree.value().Get(IntKey(k)).ok());
  EXPECT_LE(disk.stats().TotalReads(), probes.size());
}

TEST(BTreeTest, InsertsAfterBulkLoad) {
  TreeFixture f;
  int i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= 1000) return false;
    *k = IntKey(i * 2);  // even keys
    *v = "even";
    i++;
    return true;
  };
  auto tree = BPlusTree::BulkLoad(&f.pool, stream);
  ASSERT_TRUE(tree.ok());
  for (int k = 0; k < 1000; k++) {
    ASSERT_TRUE(tree.value().Insert(IntKey(k * 2 + 1), "odd").ok());
  }
  EXPECT_EQ(tree.value().CountEntries().value(), 2000u);
  EXPECT_EQ(tree.value().Get(IntKey(501)).value(), "odd");
  EXPECT_EQ(tree.value().Get(IntKey(500)).value(), "even");
}

TEST(BTreeTest, RejectsOversizedPayload) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  std::string huge(BPlusTree::kMaxCellPayload + 1, 'x');
  EXPECT_FALSE(tree.value().Insert("k", huge).ok());
}

/// Property test: a reference std::multimap and the tree agree after a random
/// workload of inserts, deletes and updates.
class BTreeRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeRandomizedTest, MatchesReferenceModel) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(GetParam());
  std::multimap<std::string, std::string> model;
  for (int op = 0; op < 8000; op++) {
    int64_t key_num = rng.Uniform(0, 500);
    std::string k = IntKey(key_num);
    int action = static_cast<int>(rng.Uniform(0, 9));
    if (action < 6) {  // insert
      std::string v = "v" + std::to_string(rng.Uniform(0, 1000000));
      ASSERT_TRUE(tree.value().Insert(k, v).ok());
      model.emplace(k, v);
    } else if (action < 8) {  // delete first match
      Status s = tree.value().Delete(k);
      auto it = model.find(k);
      if (it != model.end()) {
        EXPECT_TRUE(s.ok());
        model.erase(it);
      } else {
        EXPECT_FALSE(s.ok());
      }
    } else {  // point get matches some model value for that key
      auto v = tree.value().Get(k);
      if (model.count(k) == 0) {
        EXPECT_FALSE(v.ok());
      } else {
        ASSERT_TRUE(v.ok());
      }
    }
  }
  // Final full-scan comparison: same multiset of keys in sorted order.
  auto it = tree.value().SeekToFirst();
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  uint64_t n = 0;
  while (it.value().Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(std::string(it.value().key()), mit->first);
    ++mit;
    n++;
    ASSERT_TRUE(it.value().Next().ok());
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_EQ(n, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeRandomizedTest,
                         ::testing::Values(1, 2, 3, 42, 12345));

TEST(BTreeTest, VariableLengthKeysAndValues) {
  TreeFixture f;
  auto tree = BPlusTree::Create(&f.pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(77);
  std::multimap<std::string, std::string> model;
  for (int i = 0; i < 3000; i++) {
    std::string k;
    int klen = static_cast<int>(rng.Uniform(1, 40));
    for (int j = 0; j < klen; j++) {
      k.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
    }
    std::string v(static_cast<size_t>(rng.Uniform(0, 300)), 'p');
    ASSERT_TRUE(tree.value().Insert(k, v).ok());
    model.emplace(k, v);
  }
  EXPECT_EQ(tree.value().CountEntries().value(), model.size());
  auto it = tree.value().SeekToFirst();
  ASSERT_TRUE(it.ok());
  auto mit = model.begin();
  while (it.value().Valid()) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(std::string(it.value().key()), mit->first);
    ++mit;
    ASSERT_TRUE(it.value().Next().ok());
  }
}

}  // namespace
}  // namespace elephant
