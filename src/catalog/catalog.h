#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"

namespace elephant {

/// A virtual (system) table: a fixed schema whose rows are computed at scan
/// time from live engine state instead of stored pages. The engine registers
/// its `elephant_stat_*` introspection tables this way; the binder resolves
/// them like base tables and the planner serves them through a
/// VirtualTableScanExecutor. Providers must be thread-safe (concurrent
/// sessions may scan the same virtual table) and must not touch the buffer
/// pool, so virtual scans perform no page I/O by construction.
struct VirtualTable {
  std::string name;
  Schema schema;
  std::function<Result<std::vector<Row>>()> provider;
};

/// One row an INSERT added to a base table: the encoded clustering key it
/// is stored under, and its image.
struct InsertedRow {
  std::string ckey;
  Row row;
};

/// What changed in a derived table's bases since it was last fresh, as its
/// refresh hook receives it.
struct DerivedChange {
  /// Some change was not a tracked insert (DELETE, UPDATE, reopen, a
  /// rollback of rows a refresh had already applied): only a full rebuild
  /// is correct, and `inserted` is empty.
  bool unknown = false;
  /// inserted[b]: the rows INSERTs added to DerivedTable::bases[b] since the
  /// last refresh, oldest first. They stay valid for the hook's duration.
  std::vector<std::vector<const InsertedRow*>> inserted;
};

/// A derived table (materialized view or c-table projection): its contents
/// are a pure function of base tables, so the WAL never logs its pages.
/// Every base a derived table reads keeps one log of the rows INSERTs added
/// to it, shared by all its dependents; each derived table records how far
/// into each base's log its contents reach. Any other base write makes the
/// change unknown. A derived table with unapplied changes is stale, and the
/// engine refreshes it (via `refresh`, handed the change) before a read.
struct DerivedTable {
  std::string name;                 ///< normalized derived-table name
  std::vector<std::string> bases;   ///< normalized base tables it depends on
  std::vector<uint64_t> applied;    ///< per base: insert-log position reflected
  bool unknown = false;             ///< a non-insert change is pending
  /// Re-attached by the owner after reopen.
  std::function<Status(const DerivedChange&)> refresh;
};

/// The system catalog: owns every table (base tables, c-tables, materialized
/// views all live here as regular tables — the whole point of the paper is
/// that they are *just tables* to the engine).
class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  /// Name prefix reserved for virtual system tables; CreateTable rejects it.
  static constexpr const char* kVirtualPrefix = "elephant_stat_";
  static bool IsReservedName(const std::string& name);

  /// WAL mode: every base table created from here on is logged, under a
  /// stable numeric id its log records carry.
  void EnableWalStorage() { wal_storage_ = true; }

  /// Creates a table clustered on `cluster_cols` (empty = clustered on the
  /// internal sequence only, i.e. insertion order). `derived` suppresses
  /// logging: derived tables (MVs, c-tables) are rebuilt from their bases
  /// rather than logged — register them with RegisterDerivedTable.
  Result<Table*> CreateTable(const std::string& name, Schema schema,
                             std::vector<size_t> cluster_cols = {},
                             bool unique_cluster = false,
                             bool derived = false);

  /// The table whose WAL id is `id` (NotFound when unknown).
  Result<Table*> GetTableById(uint32_t id) const;

  // --- Derived-table change tracking ---------------------------------------

  /// Declares `derived` a function of `bases` (all must be catalog tables),
  /// fresh as of now. Re-registration (the post-reopen attach path) keeps
  /// whatever change is already pending.
  Status RegisterDerivedTable(const std::string& derived,
                              std::vector<std::string> bases);
  bool IsDerived(const std::string& name) const;
  /// The bases of `derived` (empty when it is not a derived table).
  std::vector<std::string> DerivedBases(const std::string& derived) const;
  /// Attaches (or replaces) the refresh hook of a derived table.
  void SetDerivedRefresh(const std::string& derived,
                         std::function<Status(const DerivedChange&)> refresh);
  /// Appends rows a successful INSERT statement of transaction `txn` added
  /// to `base` (pairs of encoded clustering key and row) to the base's
  /// insert log; a no-op when no derived table reads `base`. The log is
  /// capped at half the base's row count, so a view nobody reads cannot pin
  /// every insert in memory: past the cap, the lagging dependents get an
  /// unknown change (their next read rebuilds in full) and the rows are
  /// freed. The cap bounds memory; it is not a measured cost crossover.
  void RecordInserts(const std::string& base, txn_id_t txn,
                     std::vector<std::pair<std::string, Row>> rows);
  /// Rollback of `txn`: drops its rows from `base`'s insert log, and makes
  /// the change unknown for every dependent that had already applied them.
  void DiscardInserts(const std::string& base, txn_id_t txn);
  /// Gives every derived table depending on `base` an unknown change
  /// (DELETE and UPDATE, and their rollback).
  void MarkDependentsStale(const std::string& base);
  /// Gives every derived table an unknown change (the reopen path: derived
  /// contents are not recovered, only recomputed).
  void MarkAllDerivedStale();
  /// True when `name` is a derived table with unapplied changes.
  bool IsStale(const std::string& name) const;
  /// Refreshes `name` if it is a stale derived table with a refresh hook
  /// (no-op otherwise), handing the hook the pending change. The engine
  /// calls this before planning a read, holding shared locks on the bases
  /// so that no other transaction's uncommitted inserts are applied. A
  /// failed refresh leaves the change unknown.
  Status RebuildIfStale(const std::string& name);

  // --- Persistence (WAL mode) ---------------------------------------------

  /// Serializes every table definition — schema, clustering, WAL id, tree
  /// roots, secondary-index definitions — plus the derived-table registry.
  /// Written into the meta page at each checkpoint.
  void SerializeTo(std::string* out) const;

  /// Rebuilds the catalog from a SerializeTo blob without reading a page:
  /// each logged table opens its trees at the stored roots (recovery then
  /// brings them to the crash point, and Table::CountRows recounts them);
  /// each derived table is recreated empty, and marked stale.
  Status DeserializeFrom(std::string_view in);

  /// Looks a table up by (case-insensitive) name.
  Result<Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  /// Registers a virtual system table (name must carry kVirtualPrefix).
  Status RegisterVirtualTable(std::string name, Schema schema,
                              std::function<Result<std::vector<Row>>()> provider);

  /// The virtual table with the given (case-insensitive) name, or nullptr.
  const VirtualTable* GetVirtualTable(const std::string& name) const;

  BufferPool* pool() const { return pool_; }

 private:
  /// The rows INSERTs added to one base table that some dependent has not
  /// applied yet. Positions count rows ever logged; `begin` is the first
  /// kept row's. `tail_txn` is the transaction that wrote the newest rows
  /// and `tail_start` where they begin: it holds the base's exclusive lock
  /// until it ends, so a rollback removes exactly the rows from there on,
  /// even those a refresh already applied and trimmed.
  struct InsertLog {
    uint64_t begin = 0;
    std::deque<InsertedRow> rows;
    txn_id_t tail_txn = kInvalidTxnId;
    uint64_t tail_start = 0;
    uint64_t end() const { return begin + rows.size(); }
  };

  static std::string Normalize(const std::string& name);

  bool StaleLocked(const DerivedTable& d) const REQUIRES(derived_mu_);
  /// Calls `fn(d, b)` for every derived table `d` whose bases[b] is `base`.
  void ForEachDependent(const std::string& base,
                        const std::function<void(DerivedTable&, size_t)>& fn)
      REQUIRES(derived_mu_);
  /// Frees the rows of `base`'s log that every dependent has applied.
  void TrimLog(const std::string& base) REQUIRES(derived_mu_);

  BufferPool* pool_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, std::unique_ptr<VirtualTable>> virtual_tables_;
  /// Guards the change tracking: INSERTs of concurrent sessions append to
  /// the logs while reads refresh their views. Leaf: nothing is acquired
  /// under it, and refresh hooks run without it.
  mutable Mutex derived_mu_{LockRank::kCatalog, "Catalog::derived_mu_"};
  std::map<std::string, DerivedTable> derived_ GUARDED_BY(derived_mu_);
  std::map<std::string, InsertLog> insert_logs_ GUARDED_BY(derived_mu_);
  bool wal_storage_ = false;
  uint32_t next_table_id_ = 1;
};

}  // namespace elephant
