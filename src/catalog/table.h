#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/batch.h"
#include "common/schema.h"
#include "common/status.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"

namespace elephant {

namespace wal {
class LogManager;
}

/// Where a row write is logged: the transaction's log and the head of its
/// WAL chain (`last_lsn`). A default-constructed context has no log, which
/// is how unlogged tables (derived tables, and every table of an engine
/// without a WAL) are written.
struct TxnWriteContext {
  wal::LogManager* log = nullptr;
  txn_id_t txn_id = kInvalidTxnId;
  lsn_t* last_lsn = nullptr;
};

/// What a logged tree change did, as undo reverses it.
enum class TreeChange { kInserted, kDeleted, kUpdated };

/// Per-column statistics, set by Table::BulkLoad and Table::Analyze and
/// consumed by the planner. `distinct` counts the distinct Value::Hash
/// values of the non-NULL cells; `min` and `max` are Values of the
/// column's type (untyped NULLs when every cell is NULL).
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
  /// Null while an index declared on an empty unlogged table has not yet
  /// been loaded or inserted into.
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

  /// Opens a table whose clustered tree already exists at `root` (the
  /// reopen path). Row count and sequence counter read zero until
  /// CountRows.
  static std::unique_ptr<Table> Open(BufferPool* pool, std::string name,
                                     Schema schema,
                                     std::vector<size_t> cluster_cols,
                                     bool unique_cluster, page_id_t root);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<size_t>& cluster_cols() const { return cluster_cols_; }
  bool unique_cluster() const { return unique_cluster_; }
  uint64_t row_count() const { return row_count_; }
  BufferPool* pool() const { return pool_; }
  const BPlusTree& clustered() const { return *clustered_; }

  /// Replaces the table's contents with `rows`: typed columns, one per
  /// schema column, whose live rows are in clustered-key order. Keys are
  /// encoded and tuples written from the lanes into a fresh clustered tree,
  /// leaf by leaf; every secondary index is then built, and the column
  /// statistics folded, from the same lanes. A key below its predecessor
  /// is InvalidArgument and keeps the old contents. A logged table with
  /// rows is FailedPrecondition: the log owns its contents.
  Status BulkLoad(const Batch& rows);

  /// The Row adapter of BulkLoad into an empty table, for tests and benches
  /// that hold Values: sorts `rows` by clustering key (ties keep their
  /// order). Consumes `rows`.
  Status BulkLoadRows(std::vector<Row>&& rows);

  // --- Row writes ----------------------------------------------------------
  //
  // In WAL mode a base table's trees are its one durable store: each write
  // logs every page change through its context's log, and the trees reopen
  // from their checkpointed roots. Each tree is named in the log by the
  // table id and an ordinal: 0 for the clustered tree, i for secondary
  // index i - 1. An unlogged table is written the same way with a context
  // that has no log; a write whose context disagrees with the table is
  // FailedPrecondition.

  /// Makes this a logged table; `table_id` is the stable numeric id its WAL
  /// records carry.
  void EnableLogging(uint32_t table_id) { table_id_ = table_id; }
  bool logged() const { return table_id_ != 0; }
  uint32_t table_id() const { return table_id_; }

  /// Recomputes the row count and the sequence counter with one walk of
  /// the clustered leaves (the reopen path, after recovery).
  Status CountRows();

  /// Inserts one row into the clustered tree and every secondary index.
  /// `ckey`, when given, receives the encoded clustering key the row is
  /// stored under.
  Status Insert(const Row& row, const TxnWriteContext& ctx,
                std::string* ckey = nullptr);

  /// Deletes the row stored under encoded clustering key `ckey` (callers
  /// pass the deserialized row so secondary entries can be recomputed
  /// without a read).
  Status Delete(const std::string& ckey, const Row& row,
                const TxnWriteContext& ctx);

  /// Replaces the row under `ckey`, keeping its clustering key (cluster
  /// columns unchanged — the engine decomposes key-changing updates into
  /// delete + insert). Secondary entries are rewritten only where they
  /// change.
  Status Update(const std::string& ckey, const Row& before, const Row& after,
                const TxnWriteContext& ctx);

  /// Logical undo of one logged change to tree `tree`, found again by its
  /// exact key (keys are unique): an insert is deleted, a delete
  /// re-inserted with `before`, an update restored to `before`. `w` makes
  /// the change a CLR. Shared by runtime ROLLBACK and recovery undo.
  /// `tree` must name an existing tree (0 clustered, i secondary i - 1).
  Status Undo(TreeChange change, uint8_t tree, std::string_view key,
              std::string_view before, const wal::TreeWriter& w);

  /// Creates a covering secondary index over the current contents,
  /// bulk-built from the index's columns read through an IndexCursor.
  /// Maintained by row writes and rebuilt by BulkLoad. On an empty unlogged
  /// table it takes no page until then: a load after it builds it once,
  /// from the load's lanes, and allocates pages as a load followed by
  /// CreateSecondaryIndex would.
  Status CreateSecondaryIndex(const std::string& index_name,
                              std::vector<size_t> key_cols,
                              std::vector<size_t> include_cols);

  /// Attaches an existing secondary index tree at `root` (the reopen path).
  void OpenSecondaryIndex(const std::string& index_name,
                          std::vector<size_t> key_cols,
                          std::vector<size_t> include_cols, page_id_t root);

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

  /// Recomputes the per-column statistics from the clustered tree, read
  /// through an IndexCursor into one batch, with BulkLoad's fold.
  Status Analyze();
  const std::vector<ColumnStats>& stats() const { return stats_; }
  bool analyzed() const { return !stats_.empty(); }

  /// Pages in the clustered tree (on-disk footprint).
  Result<uint64_t> ClusteredPages() const { return clustered_->CountPages(); }

 private:
  Table(BufferPool* pool, std::string name, Schema schema,
        std::vector<size_t> cluster_cols, bool unique_cluster)
      : pool_(pool),
        name_(std::move(name)),
        access_label_("table:" + name_),
        schema_(std::move(schema)),
        cluster_cols_(std::move(cluster_cols)),
        unique_cluster_(unique_cluster) {}

  /// FailedPrecondition unless `ctx` has a log exactly when this table is
  /// logged.
  Status CheckContext(const TxnWriteContext& ctx) const;
  /// The writer a change to tree `tree` under `ctx` goes through: filled
  /// into `slot` when `ctx` has a log, null (an unlogged change) otherwise.
  const wal::TreeWriter* Writer(const TxnWriteContext& ctx, size_t tree,
                                wal::TreeWriter* slot) const;
  /// A secondary index's definition, without its tree.
  std::unique_ptr<SecondaryIndex> DefineIndex(const std::string& index_name,
                                              std::vector<size_t> key_cols,
                                              std::vector<size_t> include_cols) const;

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
  uint32_t table_id_ = 0;  ///< WAL id of a logged table; 0 = unlogged
};

/// Decodes the payload of a secondary-index entry. The views point into
/// `value` and live as long as it does.
struct SecondaryEntry {
  std::string_view clustered_key;  ///< full clustering key of the base row
  std::string_view include_bytes;  ///< serialized include-columns row
};
SecondaryEntry DecodeSecondaryValue(std::string_view value);

/// A static key range over an index: an encoded lower bound (inclusive) and
/// upper bound (exclusive). Empty strings mean unbounded.
struct KeyRange {
  std::string lo;
  std::string hi;
};

/// The one reader of the cells a Table writes: a range cursor over a
/// table's clustered index (`index` null) or one of its covering secondary
/// indexes. Seek() descends the tree once; ReadInto() then streams entries
/// along the leaf chain until the range's exclusive upper bound. The source
/// row is the table schema (clustered) or the index's `out_schema` (key
/// columns, then include columns); the cursor decodes only the source
/// positions in `cols`, each through an O(1) fixed-slot read, straight into
/// batch columns. Without `cols` it decodes every source column, through
/// the same code. The scans and the index nested-loop join of src/exec,
/// DML's victim scan, the view maintenance reads, the column concatenator
/// and the table's own index builds and Analyze all read through it.
class IndexCursor {
 public:
  /// `intent` is the access-pattern hint for the leaf chain: full scans
  /// (and wide ranges) pass AccessIntent::kSequentialScan so the leaves they
  /// drag in recycle through the buffer pool's scan ring and prime the disk
  /// read-ahead window; selective ranges and probes keep point intent.
  /// `cols` lists source positions in output order.
  IndexCursor(const Table* table, const SecondaryIndex* index,
              AccessIntent intent,
              std::optional<std::vector<size_t>> cols = std::nullopt);

  /// The decoded columns: the source schema projected onto `cols`.
  const Schema& schema() const { return schema_; }

  /// Positions the cursor at the first entry of `range`. When the cursor's
  /// pinned leaf already holds that entry (the range's lower bound sorts
  /// after the leaf's first key and not after its last), it re-seeks inside
  /// the leaf; otherwise it releases the leaf and descends from the root.
  /// Sorted probes of an index nested-loop join thus mostly stay in one
  /// leaf. A re-seek skips only the descent's pool hits on the root and
  /// inner pages; it never reads a page ahead of need (no sibling), so the
  /// leaves are read in the same order as by descents.
  Status Seek(const KeyRange& range);
  bool Valid() const {
    return it_.Valid() &&
           (hi_.empty() || std::string_view(it_.key()) < std::string_view(hi_));
  }
  /// The current entry's encoded key: for the clustered index, the
  /// clustering key that Delete and Update address the row by.
  std::string_view key() const { return it_.key(); }
  /// Advances past the current entry without decoding it.
  Status Next() { return it_.Next(); }
  /// Appends the current entry's decoded columns to columns [first, first +
  /// schema().NumColumns()) of `*out`, straight from the tuple's fixed
  /// slots (and the key, for a secondary index's key columns) into the
  /// typed lanes, and advances. The caller sets the batch's row count.
  Status ReadInto(Batch* out, size_t first);

 private:
  const Table* table_;
  const SecondaryIndex* index_;
  AccessIntent intent_;
  std::vector<size_t> cols_;
  Schema schema_;
  /// Secondary index: how many leading key columns the listed positions
  /// need decoded (keys decode front to back), and their scratch cells.
  size_t key_prefix_ = 0;
  std::vector<keycodec::KeyCell> key_cells_;
  BPlusTree::Iterator it_;
  std::string hi_;
};

}  // namespace elephant
