#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/table_heap.h"

namespace elephant {

namespace wal {
class LogManager;
}

class Table;

/// One volatile-side undo step, recorded by the Txn write methods. ROLLBACK
/// replays these in reverse to restore the in-memory structures (clustered
/// tree, secondary indexes, rid map, row count); the durable heap side is
/// undone separately by walking the transaction's WAL chain backwards.
struct UndoEntry {
  enum class Kind { kInsert, kDelete, kUpdate };
  Kind kind;
  Table* table;
  std::string ckey;  ///< encoded clustering key of the affected row
  Rid rid;           ///< heap address the row had before this op took effect
  Row before;        ///< kDelete/kUpdate: the row image to restore
  Row after;         ///< kInsert/kUpdate: the row image to remove
};

/// Logging context a transaction threads through every Txn write method.
/// `last_lsn` is the head of the transaction's WAL chain; `undo` collects
/// volatile undo steps in op order.
struct TxnWriteContext {
  wal::LogManager* log = nullptr;
  txn_id_t txn_id = kInvalidTxnId;
  lsn_t* last_lsn = nullptr;
  std::vector<UndoEntry>* undo = nullptr;
};

/// Per-column statistics gathered by Table::Analyze, consumed by the planner.
struct ColumnStats {
  uint64_t distinct = 0;
  uint64_t null_count = 0;
  Value min;
  Value max;
};

/// A secondary covering index: key = (key columns ++ clustering key) so
/// entries are unique, value = (clustering key bytes ++ included columns).
/// Scans produce rows over `out_schema` = key columns ++ include columns —
/// enough to answer covered queries without touching the base table.
struct SecondaryIndex {
  std::string name;
  std::string access_label;  ///< "index:<table>.<name>"; the tree points here
  std::vector<size_t> key_cols;      ///< base-schema positions of key columns
  std::vector<size_t> include_cols;  ///< base-schema positions of included columns
  Schema out_schema;                 ///< key cols then include cols
  Schema include_schema;             ///< include cols only (value payload layout)
  std::unique_ptr<BPlusTree> tree;
};

/// A clustered-index-organized table (the only organization the engine uses
/// for named tables, mirroring a row-store where every table has a primary
/// index). The clustering key is (cluster columns ++ u64 sequence number);
/// the sequence uniquifier makes every key distinct while preserving range
/// scans on the cluster-column prefix. Leaf values are full serialized rows.
class Table {
 public:
  /// `unique_cluster` declares the cluster-column combination unique: the
  /// 8-byte sequence uniquifier is then omitted from every clustered key
  /// (and from every secondary-index bookmark), saving per-row storage.
  /// The engine does not enforce the uniqueness; callers assert it.
  static Result<std::unique_ptr<Table>> Create(BufferPool* pool, std::string name,
                                               Schema schema,
                                               std::vector<size_t> cluster_cols,
                                               bool unique_cluster = false);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<size_t>& cluster_cols() const { return cluster_cols_; }
  bool unique_cluster() const { return unique_cluster_; }
  uint64_t row_count() const { return row_count_; }
  BufferPool* pool() const { return pool_; }
  const BPlusTree& clustered() const { return *clustered_; }

  /// Inserts one row, maintaining all secondary indexes. `ckey`, when
  /// given, receives the encoded clustering key the row is stored under.
  Status Insert(const Row& row, std::string* ckey = nullptr);

  /// Bulk-loads rows into an empty table (sorts by clustering key first).
  /// Far faster than repeated Insert and produces sequentially laid-out
  /// leaves. Consumes `rows`.
  Status BulkLoadRows(std::vector<Row>&& rows);

  /// Replaces the table's entire contents: fresh clustered tree, bulk-load
  /// of `rows`, secondary indexes rebuilt. The rebuild path for stale
  /// derived tables (MVs, c-tables); not valid for WAL-heap tables, whose
  /// contents are owned by the log.
  Status ReloadRows(std::vector<Row>&& rows);

  /// Deletes all rows whose cluster-column values equal `cluster_values`
  /// (prefix match). Returns the number of rows removed. Secondary indexes
  /// are maintained.
  Result<uint64_t> DeleteByClusterPrefix(const std::vector<Value>& cluster_values);

  // --- WAL-mode durable storage -------------------------------------------
  //
  // In WAL mode every table also owns a TableHeap: the heap is the durable,
  // log-protected store, while the clustered tree, secondary indexes and rid
  // map are volatile accelerators rebuilt from the heap on reopen. Heap
  // records pack the clustering key in front of the serialized row so the
  // tree can be reconstructed without re-deriving sequence numbers.

  /// Adopts `heap` as this table's durable store. `table_id` is the stable
  /// numeric id WAL records carry for this table.
  void AttachHeap(std::unique_ptr<TableHeap> heap, uint32_t table_id);
  TableHeap* heap() const { return heap_.get(); }
  uint32_t table_id() const { return table_id_; }

  /// Rebuilds the clustered tree, all secondary indexes, the rid map, the
  /// row count and the sequence counter from the heap contents (the reopen
  /// path after crash recovery). Requires an attached heap.
  Status RebuildFromHeap();

  /// Packs / unpacks a heap record: [u16 cklen][ckey][serialized row].
  static std::string PackHeapRecord(const std::string& ckey,
                                    const std::string& payload);
  static Status UnpackHeapRecord(std::string_view record, std::string* ckey,
                                 std::string* payload);

  /// Transactional insert: WAL-logs a heap append, then maintains the
  /// volatile structures and records an undo entry. Requires an attached
  /// heap (WAL mode only). `ckey` as for Insert.
  Status InsertTxn(const Row& row, const TxnWriteContext& ctx,
                   std::string* ckey = nullptr);

  /// Transactional delete of the row with encoded clustering key `ckey`
  /// (callers pass the deserialized row so secondary entries can be
  /// recomputed without a heap read).
  Status DeleteRowTxn(const std::string& ckey, const Row& row,
                      const TxnWriteContext& ctx);

  /// Transactional in-place update keeping the same clustering key (cluster
  /// columns unchanged — the engine decomposes key-changing updates into
  /// delete + insert). Tries a logged in-place heap rewrite; falls back to
  /// logged delete + append when the new image no longer fits the slot.
  Status UpdateRowTxn(const std::string& ckey, const Row& before,
                      const Row& after, const TxnWriteContext& ctx);

  /// Reverses one undo entry against the volatile structures (tree,
  /// secondaries, rid map, row count). The heap is NOT touched — the WAL
  /// chain walk handles the durable side.
  Status UndoVolatile(const UndoEntry& e);

  /// Heap address of the row with the given clustering key (kInvalidPageId
  /// page when unknown / non-WAL mode).
  Rid RidFor(const std::string& ckey) const;

  /// Creates a covering secondary index over the current contents
  /// (bulk-built). Maintained by subsequent Insert calls.
  Status CreateSecondaryIndex(const std::string& index_name,
                              std::vector<size_t> key_cols,
                              std::vector<size_t> include_cols);

  const std::vector<std::unique_ptr<SecondaryIndex>>& secondary_indexes() const {
    return secondary_;
  }
  /// Finds a secondary index by name (nullptr if absent).
  SecondaryIndex* FindIndex(const std::string& index_name);
  /// Finds a secondary index whose leading key column is `col` and which
  /// covers all of `needed_cols` (nullptr if none).
  SecondaryIndex* FindCoveringIndex(size_t leading_col,
                                    const std::vector<size_t>& needed_cols);

  /// Encoded clustering-key prefix for the given cluster-column values
  /// (fewer values than cluster columns = shorter prefix).
  std::string EncodeClusterPrefix(const std::vector<Value>& values) const;

  /// Computes per-column statistics (full scan) and caches them.
  Status Analyze();
  const std::vector<ColumnStats>& stats() const { return stats_; }
  bool analyzed() const { return !stats_.empty(); }

  /// Pages in the clustered tree (on-disk footprint).
  Result<uint64_t> ClusteredPages() const { return clustered_->CountPages(); }

  /// Row iterator over the clustered index (full table, cluster-key order).
  class RowIterator {
   public:
    bool Valid() const { return it_.Valid() && InRange(); }
    Status Next() { return it_.Next(); }
    /// Deserializes the current row.
    Status Current(Row* out) const;
    /// Reads one column of the current row without full deserialization.
    Value CurrentColumn(size_t col) const;
    /// The encoded clustering key at the current position (what the Txn
    /// write methods take to address a row).
    std::string_view EncodedKey() const { return it_.key(); }

   private:
    friend class Table;
    RowIterator(const Schema* schema, BPlusTree::Iterator it, std::string hi)
        : schema_(schema), it_(std::move(it)), hi_(std::move(hi)) {}
    bool InRange() const {
      return hi_.empty() || std::string_view(it_.key()) < std::string_view(hi_);
    }
    const Schema* schema_;
    BPlusTree::Iterator it_;
    std::string hi_;  ///< exclusive upper bound on encoded keys ("" = none)
  };

  /// Full-table scans walk every leaf in order, so they default to
  /// kSequentialScan: ring residency plus disk read-ahead.
  Result<RowIterator> ScanAll(
      AccessIntent intent = AccessIntent::kSequentialScan) const;
  /// Rows whose encoded clustering key is in [lo, hi) — "" bounds are open.
  /// Range width is the caller's knowledge, so `intent` defaults to point
  /// access; the planner passes kSequentialScan for unselective ranges.
  Result<RowIterator> ScanRange(
      const std::string& lo, const std::string& hi,
      AccessIntent intent = AccessIntent::kPointLookup) const;

 private:
  Table(BufferPool* pool, std::string name, Schema schema,
        std::vector<size_t> cluster_cols, bool unique_cluster)
      : pool_(pool),
        name_(std::move(name)),
        access_label_("table:" + name_),
        schema_(std::move(schema)),
        cluster_cols_(std::move(cluster_cols)),
        unique_cluster_(unique_cluster) {}

  std::string EncodeClusteredKey(const Row& row, uint64_t seq) const;
  /// Builds the entry for `idx` from a row and its full clustered key.
  Status MakeSecondaryEntry(const SecondaryIndex& idx, const Row& row,
                            const std::string& ckey, std::string* key,
                            std::string* value) const;
  /// (Re)builds `idx->tree` from a full clustered scan (bulk load).
  Status BuildSecondaryFromScan(SecondaryIndex* idx);
  /// Inserts/removes the row's entries in every secondary index.
  Status SecondaryInsert(const Row& row, const std::string& ckey);
  Status SecondaryDelete(const Row& row, const std::string& ckey);

  BufferPool* pool_;
  std::string name_;
  /// Heatmap attribution label ("table:<name>"); the clustered tree (and its
  /// iterators) hold a pointer to this string, so it lives with the table.
  std::string access_label_;
  Schema schema_;
  std::vector<size_t> cluster_cols_;
  bool unique_cluster_ = false;
  std::unique_ptr<BPlusTree> clustered_;
  std::vector<std::unique_ptr<SecondaryIndex>> secondary_;
  uint64_t row_count_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<ColumnStats> stats_;
  /// WAL mode only: the durable heap, this table's WAL id, and the
  /// clustering-key → heap-address map the Txn write methods maintain.
  std::unique_ptr<TableHeap> heap_;
  uint32_t table_id_ = 0;
  std::unordered_map<std::string, Rid> rid_map_;
};

/// Decodes the payload of a secondary-index entry.
struct SecondaryEntry {
  std::string clustered_key;   ///< full clustering key of the base row
  std::string include_bytes;   ///< serialized include-columns row
};
SecondaryEntry DecodeSecondaryValue(std::string_view value);

}  // namespace elephant
