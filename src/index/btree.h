#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/config.h"
#include "common/status.h"
#include "obs/heatmap.h"
#include "storage/buffer_pool.h"
#include "wal/tree_ops.h"

namespace elephant {

/// A disk-resident B+-tree over opaque byte-string keys and values. Keys are
/// compared with memcmp (callers encode with keycodec so memcmp order equals
/// value order). Duplicate keys are allowed; Seek/Get find the first
/// occurrence in key order.
///
/// Leaves form a singly linked chain for range scans. Bulk loading packs
/// leaves into consecutively allocated pages, so full scans of freshly built
/// indexes are sequential I/O — matching the behaviour of a clustered index
/// in a real row-store.
///
/// Deletions do not rebalance (read-mostly engine); pages may stay underfull.
///
/// Every write takes an optional wal::TreeWriter. With one, the tree is a
/// logged, durable store: each page change goes through the wal:: tree
/// helpers, and each split reaches the log as one record. Without one the
/// tree is unlogged. Either way a root split keeps the root page where it
/// is (its cells move into two new children), so a tree's root never
/// changes and the catalog names a logged tree's root once, at the
/// checkpoint.
class BPlusTree {
 public:
  /// Creates an empty tree (root = single empty leaf).
  static Result<BPlusTree> Create(BufferPool* pool);

  /// Opens an existing tree.
  BPlusTree(BufferPool* pool, page_id_t root) : pool_(pool), root_(root) {}

  /// A sorted key/value producer for bulk loading. Returns false at end.
  using KvStream = std::function<bool(std::string* key, std::string* value)>;

  /// Builds a tree from a stream of key-ascending entries (duplicates OK).
  /// `fill_fraction` controls leaf packing (1.0 = fully packed).
  static Result<BPlusTree> BulkLoad(BufferPool* pool, const KvStream& stream,
                                    double fill_fraction = 0.95);

  /// Inserts an entry. key.size()+value.size() must be <= kMaxCellPayload.
  Status Insert(std::string_view key, std::string_view value,
                const wal::TreeWriter* w = nullptr);

  /// Removes the first entry with exactly this key (NotFound if absent).
  Status Delete(std::string_view key, const wal::TreeWriter* w = nullptr);

  /// Replaces the value of the first entry with exactly this key: in place
  /// when the size is unchanged, else as a delete and an insert.
  Status Update(std::string_view key, std::string_view value,
                const wal::TreeWriter* w = nullptr);

  /// Returns the value of the first entry with exactly this key.
  Result<std::string> Get(std::string_view key) const;

  /// Forward iterator over entries, in key order, across the leaf chain.
  /// Holds one pinned page while valid; destroy or exhaust before EvictAll.
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const { return valid_; }
    Status Next();
    /// Re-positions at the first entry >= `key` without leaving the pinned
    /// leaf, when that entry is in it: the iterator is valid and the leaf's
    /// first key < `key` <= its last key (every earlier leaf then holds only
    /// smaller keys). Returns false, the iterator unchanged, otherwise; the
    /// caller then seeks from the root. Reads no page.
    bool SeekInLeaf(std::string_view key);
    std::string_view key() const { return key_; }
    std::string_view value() const { return value_; }

   private:
    friend class BPlusTree;
    Status LoadCell();
    Status AdvanceLeaf();

    BufferPool* pool_ = nullptr;
    PageGuard guard_;
    page_id_t leaf_ = kInvalidPageId;
    int pos_ = 0;
    bool valid_ = false;
    std::string_view key_;
    std::string_view value_;
    /// Copied from the owning tree: iterators do lazy I/O (leaf faults
    /// happen inside Next, far from the Seek call), so the attribution
    /// label travels with the iterator.
    const std::string* access_label_ = nullptr;
    /// Like the label, the access intent travels with the iterator: a
    /// range-scan iterator faults each next leaf under kSequentialScan so
    /// the chain walk uses the scan ring and the disk read-ahead window,
    /// while the descent that positioned it stays kPointLookup.
    AccessIntent intent_ = AccessIntent::kPointLookup;
  };

  /// Iterator positioned at the first entry (end iterator if empty).
  /// `intent` applies to the leaf-chain pages the iterator touches (the
  /// descent to the first leaf is always point I/O: inner pages are the hot
  /// working set a scan must not displace).
  Result<Iterator> SeekToFirst(
      AccessIntent intent = AccessIntent::kPointLookup) const;

  /// Iterator positioned at the first entry with key >= `key`. `intent` as
  /// in SeekToFirst.
  Result<Iterator> Seek(std::string_view key,
                        AccessIntent intent = AccessIntent::kPointLookup) const;

  page_id_t root() const { return root_; }

  /// Number of entries (full leaf walk; for tests/stats, not hot paths).
  Result<uint64_t> CountEntries() const;

  /// Number of pages reachable from the root (tree size on disk).
  Result<uint64_t> CountPages() const;

  /// Tree height (1 = root is a leaf).
  Result<uint32_t> Height() const;

  /// Returns up to `target - 1` separator keys that split (lo, hi) into
  /// roughly equal key ranges, for morsel-driven parallel scans. Walks the
  /// internal levels from the root, descending until one level carries at
  /// least `target` separators (or the leaf level is reached), then clips to
  /// the open interval (lo, hi) and subsamples evenly. Empty `lo`/`hi` mean
  /// unbounded. May return fewer separators than requested (small trees or
  /// narrow ranges); returns none when the root is a leaf.
  Result<std::vector<std::string>> PartitionKeys(size_t target,
                                                 std::string_view lo,
                                                 std::string_view hi) const;

  /// Largest key+value payload a single cell may carry.
  static constexpr uint32_t kMaxCellPayload = 1900;

  /// Attaches a heatmap attribution label ("table:lineitem",
  /// "index:orders.o_custkey") to this tree: every public operation — and
  /// every iterator obtained from it — installs the label as an AccessScope,
  /// so page traffic lands on the owning object in the heatmap even when
  /// iterators fault pages long after the Seek that created them. `label`
  /// must outlive the tree (the catalog owns it); nullptr (the default)
  /// leaves the caller's scope in effect.
  void SetAccessLabel(const std::string* label) { access_label_ = label; }
  const std::string* access_label() const { return access_label_; }

 private:
  /// Descends to the leaf that should contain `key` (lower-bound routing),
  /// recording the path of (page id, child index) pairs when `path` != null.
  /// Returns the leaf still pinned, so callers read it without a second
  /// fetch.
  Result<PageGuard> FindLeaf(std::string_view key,
                             std::vector<std::pair<page_id_t, int>>* path) const;

  /// Splits the overfull leaf `leaf_pid` reached by `path`, and each
  /// ancestor the separator does not fit in, as one logged change
  /// (wal::LogSplit). A root split keeps the root page where it is.
  Status Split(page_id_t leaf_pid, std::vector<std::pair<page_id_t, int>> path,
               const wal::TreeWriter* w);

  BufferPool* pool_ = nullptr;
  page_id_t root_ = kInvalidPageId;
  const std::string* access_label_ = nullptr;  ///< owned by the catalog
};

}  // namespace elephant
