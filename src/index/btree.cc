#include "index/btree.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <vector>

#include "storage/btree_node.h"

namespace elephant {

namespace {

/// Little-endian child pid payload for internal cells.
std::string ChildValue(page_id_t pid) {
  std::string v(4, '\0');
  for (int i = 0; i < 4; i++) v[i] = static_cast<char>((pid >> (8 * i)) & 0xff);
  return v;
}

}  // namespace

Result<BPlusTree> BPlusTree::Create(BufferPool* pool) {
  page_id_t pid;
  ELE_ASSIGN_OR_RETURN(PageGuard guard, pool->NewPageGuarded(&pid));
  BTreeNode node(guard.data());
  node.Init(BTreeNode::kLeaf);
  guard.MarkDirty();
  return BPlusTree(pool, pid);
}

Result<PageGuard> BPlusTree::FindLeaf(
    std::string_view key, std::vector<std::pair<page_id_t, int>>* path) const {
  page_id_t pid = root_;
  while (true) {
    ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(pid));
    BTreeNode node(guard.data());
    if (node.IsLeaf()) return guard;
    int idx = node.LowerBound(key);  // strict <: equal keys route left
    page_id_t child = node.ChildForIndex(idx);
    if (path != nullptr) path->emplace_back(pid, idx);
    pid = child;
  }
}

namespace {

/// Split index m of an overfull node: the left half keeps about half of
/// its live bytes, and each half at least one cell.
int SplitPoint(BTreeNode& node) {
  const int count = node.Count();
  const uint32_t half = node.LiveBytes() / 2;
  uint32_t acc = 0;
  int m = 0;
  for (; m < count - 1; m++) {
    acc += BTreeNode::CellBytes(node.KeyAt(m).size(), node.ValueAt(m).size());
    if (acc >= half) break;
  }
  return std::clamp(m, 1, count - 1);
}

/// Splits `node` at m into itself and the empty page `right` (`right_pid`).
/// A leaf keeps cells [0,m) and moves [m,count) right; an internal node
/// keeps [0,m), moves (m,count) right and drops cell m, whose key the
/// caller posts to the parent as the separator.
void SplitNode(BTreeNode& node, BTreeNode& right, page_id_t right_pid, int m) {
  const int count = node.Count();
  if (node.IsLeaf()) {
    right.Init(BTreeNode::kLeaf);
    for (int i = m; i < count; i++) {
      right.InsertCell(i - m, node.KeyAt(i), node.ValueAt(i));
    }
    right.SetLink(node.Link());
    node.SetLink(right_pid);
  } else {
    right.Init(BTreeNode::kInternal);
    right.SetLink(node.ChildCellAt(m));  // separator's child becomes leftmost
    for (int i = m + 1; i < count; i++) {
      right.InsertCell(i - m - 1, node.KeyAt(i), node.ValueAt(i));
    }
  }
  node.Truncate(m);
}

}  // namespace

Status BPlusTree::Split(page_id_t leaf_pid,
                        std::vector<std::pair<page_id_t, int>> path,
                        const wal::TreeWriter* w) {
  // First pin every page the split changes, walking up while the parent
  // cannot take the separator, and allocate the new pages. Nothing changes
  // yet: a failure here leaves the tree as it was.
  struct Level {
    PageGuard node;     ///< the overfull node
    int m;              ///< its split index
    int child_idx;      ///< where the separator from the level below goes
    PageGuard right;    ///< the new right half
  };
  std::vector<Level> levels;
  PageGuard parent;  // the node that takes the last separator; none: the root splits
  int parent_idx = 0;
  int child_idx = 0;
  ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(leaf_pid));
  while (true) {
    BTreeNode node(guard.data());
    if (node.Count() < 2) return Status::Internal("split of node with <2 cells");
    const int m = SplitPoint(node);
    const uint32_t need = BTreeNode::CellBytes(node.KeyAt(m).size(), 4);
    levels.push_back(Level{std::move(guard), m, child_idx, PageGuard()});
    if (path.empty()) break;
    const auto [pid, idx] = path.back();
    path.pop_back();
    ELE_ASSIGN_OR_RETURN(guard, pool_->FetchPageGuarded(pid));
    if (need <= BTreeNode(guard.data()).TotalFree()) {
      parent = std::move(guard);
      parent_idx = idx;
      break;
    }
    child_idx = idx;
  }
  for (Level& level : levels) {
    page_id_t pid;
    ELE_ASSIGN_OR_RETURN(level.right, pool_->NewPageGuarded(&pid));
  }
  PageGuard new_left;
  if (!parent.valid()) {
    page_id_t pid;
    ELE_ASSIGN_OR_RETURN(new_left, pool_->NewPageGuarded(&pid));
  }

  // Then split bottom-up; nothing below can fail. Each level above the leaf
  // takes the separator from the level below into the half its pre-split
  // position falls in (positional, so duplicate keys stay ordered).
  std::vector<PageGuard*> rewrote;
  std::string separator;
  page_id_t new_child = kInvalidPageId;
  for (Level& level : levels) {
    BTreeNode node(level.node.data());
    BTreeNode right(level.right.data());
    std::string promoted(node.KeyAt(level.m));
    SplitNode(node, right, level.right.page_id(), level.m);
    if (new_child != kInvalidPageId) {
      const bool left = level.child_idx <= level.m;
      BTreeNode& half = left ? node : right;
      half.InsertCell(left ? level.child_idx : level.child_idx - level.m - 1,
                      separator, ChildValue(new_child));
    }
    separator = std::move(promoted);
    new_child = level.right.page_id();
    rewrote.push_back(&level.node);
    rewrote.push_back(&level.right);
  }
  if (!parent.valid()) {
    // The root page stays put: its cells (the left half) move to a new
    // child, and it becomes the internal node over that child and the new
    // right half. So a tree's root never changes, and the catalog names a
    // logged tree's root once, at the checkpoint.
    PageGuard& root = levels.back().node;
    std::memcpy(new_left.data(), root.data(), kPageSize);
    BTreeNode node(root.data());
    node.Init(BTreeNode::kInternal);
    node.SetLink(new_left.page_id());
    node.InsertCell(0, separator, ChildValue(new_child));
    rewrote.push_back(&new_left);
  }
  wal::LogSplit(w, rewrote, parent.valid() ? &parent : nullptr, parent_idx,
                separator, ChildValue(new_child));
  return Status::OK();
}

Status BPlusTree::Insert(std::string_view key, std::string_view value,
                         const wal::TreeWriter* w) {
  obs::AccessScope access(access_label_);
  if (key.size() + value.size() > kMaxCellPayload) {
    return Status::InvalidArgument("btree entry exceeds max payload");
  }
  const uint32_t need = BTreeNode::CellBytes(key.size(), value.size());
  while (true) {
    std::vector<std::pair<page_id_t, int>> path;
    ELE_ASSIGN_OR_RETURN(PageGuard guard, FindLeaf(key, &path));
    const page_id_t leaf_pid = guard.page_id();
    BTreeNode leaf(guard.data());
    if (need <= leaf.TotalFree()) {
      wal::InsertCell(w, &guard, leaf.LowerBound(key), key, value);
      return Status::OK();
    }
    guard.Release();  // leaf overfull: drop the pin, split it, descend again
    ELE_RETURN_NOT_OK(Split(leaf_pid, std::move(path), w));
  }
}

namespace {

/// Moves `*leaf`, the pinned leaf FindLeaf returned, to the leaf holding the
/// first exact occurrence of `key` and returns its cell index.
Result<int> LocateExact(BufferPool* pool, std::string_view key,
                        PageGuard* leaf) {
  while (true) {
    BTreeNode node(leaf->data());
    const int pos = node.LowerBound(key);
    if (pos < node.Count()) {
      if (node.KeyAt(pos) == key) return pos;
      return Status::NotFound("key not in btree");
    }
    // Duplicates/edge: the first key >= `key` may start on the next leaf.
    const page_id_t next = node.Link();
    leaf->Release();
    if (next == kInvalidPageId) return Status::NotFound("key not in btree");
    ELE_ASSIGN_OR_RETURN(*leaf, pool->FetchPageGuarded(next));
  }
}

}  // namespace

Result<std::string> BPlusTree::Get(std::string_view key) const {
  obs::AccessScope access(access_label_);
  ELE_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key, nullptr));
  ELE_ASSIGN_OR_RETURN(int pos, LocateExact(pool_, key, &leaf));
  return std::string(BTreeNode(leaf.data()).ValueAt(pos));
}

Status BPlusTree::Delete(std::string_view key, const wal::TreeWriter* w) {
  obs::AccessScope access(access_label_);
  ELE_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key, nullptr));
  ELE_ASSIGN_OR_RETURN(int pos, LocateExact(pool_, key, &leaf));
  wal::RemoveCell(w, &leaf, pos);
  return Status::OK();
}

Status BPlusTree::Update(std::string_view key, std::string_view value,
                         const wal::TreeWriter* w) {
  obs::AccessScope access(access_label_);
  {
    ELE_ASSIGN_OR_RETURN(PageGuard leaf, FindLeaf(key, nullptr));
    ELE_ASSIGN_OR_RETURN(int pos, LocateExact(pool_, key, &leaf));
    if (BTreeNode(leaf.data()).ValueAt(pos).size() == value.size()) {
      wal::SetValue(w, &leaf, pos, value);
      return Status::OK();
    }
    wal::RemoveCell(w, &leaf, pos);
  }  // drop the pin before re-inserting (Insert may split this leaf)
  return Insert(key, value, w);
}

Status BPlusTree::Iterator::LoadCell() {
  BTreeNode node(guard_.data());
  if (pos_ < node.Count()) {
    key_ = node.KeyAt(pos_);
    value_ = node.ValueAt(pos_);
    valid_ = true;
    return Status::OK();
  }
  return AdvanceLeaf();
}

Status BPlusTree::Iterator::AdvanceLeaf() {
  while (true) {
    BTreeNode node(guard_.data());
    page_id_t next = node.Link();
    guard_.Release();
    if (next == kInvalidPageId) {
      valid_ = false;
      return Status::OK();
    }
    ELE_ASSIGN_OR_RETURN(guard_, pool_->FetchPageGuarded(next, intent_));
    leaf_ = next;
    pos_ = 0;
    BTreeNode nnode(guard_.data());
    if (nnode.Count() > 0) {
      key_ = nnode.KeyAt(0);
      value_ = nnode.ValueAt(0);
      valid_ = true;
      return Status::OK();
    }
  }
}

Status BPlusTree::Iterator::Next() {
  obs::AccessScope access(access_label_);
  pos_++;
  return LoadCell();
}

Result<BPlusTree::Iterator> BPlusTree::SeekToFirst(AccessIntent intent) const {
  obs::AccessScope access(access_label_);
  // Descend along leftmost children. The descent itself is point I/O even
  // for a scan: inner pages are the hot working set a scan must not evict,
  // so only the leaf-chain walk (AdvanceLeaf) carries the caller's intent.
  page_id_t pid = root_;
  while (true) {
    ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(pid));
    BTreeNode node(guard.data());
    if (node.IsLeaf()) {
      Iterator it;
      it.pool_ = pool_;
      it.access_label_ = access_label_;
      it.intent_ = intent;
      it.guard_ = std::move(guard);
      it.leaf_ = pid;
      it.pos_ = 0;
      ELE_RETURN_NOT_OK(it.LoadCell());
      return it;
    }
    pid = node.Link();
  }
}

Result<BPlusTree::Iterator> BPlusTree::Seek(std::string_view key,
                                            AccessIntent intent) const {
  obs::AccessScope access(access_label_);
  ELE_ASSIGN_OR_RETURN(PageGuard guard, FindLeaf(key, nullptr));
  Iterator it;
  it.pool_ = pool_;
  it.access_label_ = access_label_;
  it.intent_ = intent;
  it.leaf_ = guard.page_id();
  BTreeNode node(guard.data());
  it.pos_ = node.LowerBound(key);
  it.guard_ = std::move(guard);
  ELE_RETURN_NOT_OK(it.LoadCell());
  return it;
}

Result<BPlusTree> BPlusTree::BulkLoad(BufferPool* pool, const KvStream& stream,
                                      double fill_fraction) {
  const uint32_t budget = static_cast<uint32_t>(
      (kPageSize - BTreeNode::kHeaderBytes) * fill_fraction);

  // Level 0: pack leaves. Collect (first key, pid) per leaf. `cur_guard`
  // holds the pin on the leaf being filled; every early return (oversized
  // payload, allocation failure, link-fixup failure) releases it — the old
  // manual unpins leaked the pin on the two failure paths below it.
  std::vector<std::pair<std::string, page_id_t>> level;
  page_id_t cur_pid = kInvalidPageId;
  page_id_t prev_pid = kInvalidPageId;
  PageGuard cur_guard;
  uint32_t used = 0;
  std::string key, value;
  while (stream(&key, &value)) {
    if (key.size() + value.size() > kMaxCellPayload) {
      return Status::InvalidArgument("btree entry exceeds max payload");
    }
    const uint32_t need = BTreeNode::CellBytes(key.size(), value.size());
    if (!cur_guard.valid() || used + need > budget) {
      if (cur_guard.valid()) {
        cur_guard.MarkDirty();
        cur_guard.Release();
        prev_pid = cur_pid;
      }
      page_id_t pid;
      // Bulk-load pages are written once, front to back: scan-ring residency
      // keeps a large build from flushing the young region.
      ELE_ASSIGN_OR_RETURN(
          PageGuard guard,
          pool->NewPageGuarded(&pid, AccessIntent::kSequentialScan));
      BTreeNode node(guard.data());
      node.Init(BTreeNode::kLeaf);
      guard.MarkDirty();
      if (prev_pid != kInvalidPageId) {
        ELE_ASSIGN_OR_RETURN(
            PageGuard pguard,
            pool->FetchPageGuarded(prev_pid, AccessIntent::kSequentialScan));
        BTreeNode(pguard.data()).SetLink(pid);
        pguard.MarkDirty();
      }
      cur_pid = pid;
      cur_guard = std::move(guard);
      used = 0;
      level.emplace_back(key, pid);
    }
    BTreeNode node(cur_guard.data());
    node.InsertCell(node.Count(), key, value);
    used += need;
  }
  if (cur_guard.valid()) {
    cur_guard.MarkDirty();
    cur_guard.Release();
  } else {
    // Empty input: an empty tree.
    return Create(pool);
  }

  // Upper levels: pack (separator, child) fan-out nodes until one root.
  while (level.size() > 1) {
    std::vector<std::pair<std::string, page_id_t>> next_level;
    size_t i = 0;
    while (i < level.size()) {
      page_id_t pid;
      ELE_ASSIGN_OR_RETURN(
          PageGuard guard,
          pool->NewPageGuarded(&pid, AccessIntent::kSequentialScan));
      BTreeNode node(guard.data());
      node.Init(BTreeNode::kInternal);
      node.SetLink(level[i].second);
      guard.MarkDirty();
      next_level.emplace_back(level[i].first, pid);
      i++;
      uint32_t node_used = 0;
      while (i < level.size()) {
        const uint32_t need = BTreeNode::CellBytes(level[i].first.size(), 4);
        if (node_used + need > budget) break;
        node.InsertCell(node.Count(), level[i].first, ChildValue(level[i].second));
        node_used += need;
        i++;
      }
    }
    level = std::move(next_level);
  }
  return BPlusTree(pool, level[0].second);
}

Result<uint64_t> BPlusTree::CountEntries() const {
  obs::AccessScope access(access_label_);
  uint64_t n = 0;
  ELE_ASSIGN_OR_RETURN(Iterator it, SeekToFirst(AccessIntent::kSequentialScan));
  while (it.Valid()) {
    n++;
    ELE_RETURN_NOT_OK(it.Next());
  }
  return n;
}

Result<uint64_t> BPlusTree::CountPages() const {
  obs::AccessScope access(access_label_);
  uint64_t n = 0;
  std::deque<page_id_t> queue{root_};
  while (!queue.empty()) {
    page_id_t pid = queue.front();
    queue.pop_front();
    n++;
    ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(pid));
    BTreeNode node(guard.data());
    if (!node.IsLeaf()) {
      queue.push_back(node.Link());
      for (int i = 0; i < node.Count(); i++) queue.push_back(node.ChildCellAt(i));
    }
  }
  return n;
}

Result<uint32_t> BPlusTree::Height() const {
  obs::AccessScope access(access_label_);
  uint32_t h = 1;
  page_id_t pid = root_;
  while (true) {
    ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(pid));
    BTreeNode node(guard.data());
    if (node.IsLeaf()) return h;
    h++;
    pid = node.Link();
  }
}

Result<std::vector<std::string>> BPlusTree::PartitionKeys(
    size_t target, std::string_view lo, std::string_view hi) const {
  obs::AccessScope access(access_label_);
  std::vector<std::string> separators;
  if (target < 2) return separators;
  std::vector<page_id_t> level{root_};
  while (true) {
    // Peek at the level's first node: leaf level means no more separators.
    {
      ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(level[0]));
      if (BTreeNode(guard.data()).IsLeaf()) break;
    }
    std::vector<std::string> keys;
    std::vector<page_id_t> next;
    for (page_id_t pid : level) {
      ELE_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchPageGuarded(pid));
      BTreeNode node(guard.data());
      const int count = node.Count();
      for (int i = 0; i <= count; i++) next.push_back(node.ChildForIndex(i));
      for (int i = 0; i < count; i++) keys.emplace_back(node.KeyAt(i));
    }
    separators = std::move(keys);
    level = std::move(next);
    // One level of separators per descent; stop once it is fine enough.
    if (separators.size() + 1 >= target) break;
  }
  // Clip to the open interval (lo, hi); keys are already in ascending order.
  std::vector<std::string> clipped;
  for (std::string& k : separators) {
    const std::string_view kv(k);
    if (!lo.empty() && kv <= lo) continue;
    if (!hi.empty() && kv >= hi) continue;
    if (!clipped.empty() && clipped.back() == k) continue;
    clipped.push_back(std::move(k));
  }
  // Evenly subsample down to at most target - 1 split points.
  if (clipped.size() > target - 1) {
    std::vector<std::string> sampled;
    sampled.reserve(target - 1);
    const size_t n = clipped.size();
    for (size_t j = 1; j < target; j++) {
      sampled.push_back(std::move(clipped[j * n / target]));
    }
    clipped = std::move(sampled);
  }
  return clipped;
}

}  // namespace elephant
