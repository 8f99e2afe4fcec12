#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "obs/heatmap.h"
#include "obs/histogram.h"
#include "obs/plan_stats.h"
#include "obs/stat_statements.h"
#include "obs/trace_log.h"
#include "obs/wait_events.h"
#include "parser/ast.h"
#include "planner/hints.h"
#include "planner/planner.h"
#include "sched/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace elephant {

/// Result of executing one statement.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;

  ExecCounters counters;     ///< operator-level counters
  IoStats io;                ///< physical I/O performed by this statement
  double cpu_seconds = 0;    ///< measured wall time of execution (single thread)
  double io_seconds = 0;     ///< modeled disk time for `io`
  /// Modeled end-to-end time: what this execution would have taken with the
  /// configured disk (I/O model) plus the measured CPU time.
  double TotalSeconds() const { return cpu_seconds + io_seconds; }

  /// Where this statement's blocked time went, by wait event (lock waits,
  /// I/O, WAL flushes, scheduler gathers — see obs/wait_events.h). Filled by
  /// Execute() and ExplainAnalyze() from the statement's WaitSink.
  obs::WaitProfile wait_profile;
  /// End-to-end wall time of the statement as Execute() saw it — parse, lock
  /// acquisition and waits included (cpu_seconds times the execute phase of
  /// a SELECT only, so wall_seconds - cpu_seconds is roughly "overhead +
  /// blocked time").
  double wall_seconds = 0;

  /// Phase timings (parse -> bind -> plan -> execute) of this statement.
  std::shared_ptr<const obs::QueryTrace> trace;
  /// Annotated plan tree; per-operator stats are filled in when the query
  /// ran instrumented (EXPLAIN ANALYZE / ExplainAnalyze()).
  std::shared_ptr<const obs::PlanNode> plan;

  /// Renders rows as an aligned text table (for examples and debugging),
  /// followed by a measured-vs-modeled time line.
  std::string ToString(size_t max_rows = 20) const;
};

/// Result of Database::ExplainAnalyze: the query's rows and stats plus the
/// rendered/serialized annotated plan.
struct ExplainAnalyzeResult {
  QueryResult result;  ///< rows + stats; result.plan is the annotated tree
  std::string text;    ///< plan tree with estimates and actuals per node
  std::string json;    ///< same tree as JSON, plus query-level totals
};

/// Configuration for a Database instance.
struct DatabaseOptions {
  uint32_t buffer_pool_pages = kDefaultBufferPoolPages;
  DiskModel disk_model;
  /// When true (the default for benchmarks), Execute() drops the buffer pool
  /// before running so every query starts cold, like the paper's experiments.
  /// Only valid for single-stream use: evicting while another session holds
  /// pins fails, so keep this false when sessions run concurrently.
  bool cold_cache = false;
  /// Intra-query worker threads backing PARALLEL plans. 0 = size the pool
  /// from the hardware on first use (sched::ThreadPool::DefaultThreads).
  int worker_threads = 0;
  /// When true, every SELECT verifies at query end that its executors
  /// released all buffer-pool pins (BufferPool::CheckNoPinsHeld) and fails
  /// the statement with an Internal error on a leak. The check reads the
  /// *global* pin count, so it is only valid for single-stream use — a
  /// concurrent session mid-scan legitimately holds pins. Tests enable it.
  bool check_pin_invariants = false;
  /// Attaches a write-ahead log: each base table's B+-trees (clustered and
  /// secondary) become its one durable store, every DML page change is
  /// logged, the buffer pool enforces the WAL rule, and BEGIN/COMMIT/
  /// ROLLBACK/CHECKPOINT plus DELETE/UPDATE are accepted. Without it the
  /// engine is the same — one INSERT path, the same table locks — with its
  /// tables unlogged. Off by default: the read-only experiments need no log.
  bool wal_enabled = false;
  /// Table-lock wait budget. A wait exceeding it fails the statement and
  /// aborts its transaction (suspected deadlock). Tests shrink it to fail
  /// fast.
  double lock_timeout_seconds = 1.0;
};

/// Engine-lifetime counters that no subsystem owns, published as the one
/// row of `elephant_stat_database`. Any session bumps them: each is an
/// atomic or a lock-free histogram.
struct DatabaseStats {
  static constexpr size_t kNumStatementKinds =
      static_cast<size_t>(StatementKind::kExplain) + 1;
  /// Parsed statements, indexed by StatementKind (EXPLAIN ANALYZE counts as
  /// kExplain, a derived-table load as kSelect).
  std::array<std::atomic<uint64_t>, kNumStatementKinds> statements{};
  std::atomic<uint64_t> rows_returned{0};  ///< rows SELECTs emitted
  std::atomic<uint64_t> view_delta_refreshes{0};
  std::atomic<uint64_t> view_delta_rows{0};  ///< base rows delta refreshes folded
  std::atomic<uint64_t> view_full_refreshes{0};
  /// Rollbacks that left undo incomplete (each also fails its statement).
  std::atomic<uint64_t> rollback_failures{0};
  /// Every SELECT execution (EXPLAIN ANALYZE and derived-table loads
  /// included): its measured execute seconds and its modeled total.
  obs::Histogram select_seconds{obs::DefaultLatencyBuckets()};
  obs::Histogram select_modeled_seconds{obs::DefaultLatencyBuckets()};
};

/// A session's open-transaction slot, passed to Database::Execute. A null
/// slot (the default) shares the Database's built-in state, which is what
/// single-session callers want; each Session owns its own so concurrent
/// sessions get independent transactions.
struct SessionTxnState {
  std::unique_ptr<txn::Transaction> txn;  ///< open explicit transaction
};

/// What survives a simulated crash: the platter image (every page write that
/// reached the disk) and the durable prefix of the WAL. Cloned from a dying
/// engine and fed to Database::Reopen, which recovers from it.
struct DurableImage {
  std::vector<std::string> pages;
  std::string log;
};

/// The "old elephant": an embedded row-store database. SQL in, rows out.
/// Everything the paper's strategies need — clustered and covering secondary
/// indexes, materialized views (mv/), c-tables (cstore/) — is layered on top
/// of this engine without modifying it.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Catalog& catalog() { return *catalog_; }
  BufferPool& pool() { return *pool_; }
  DiskManager& disk() { return *disk_; }
  const DiskModel& disk_model() const { return options_.disk_model; }
  DatabaseOptions& options() { return options_; }

  /// Executes one statement (SELECT / CREATE TABLE / CREATE INDEX / INSERT /
  /// DELETE / UPDATE / BEGIN / COMMIT / ROLLBACK / CHECKPOINT / EXPLAIN
  /// [ANALYZE] SELECT). `extra_hints` merge with any /*+ ... */ hints in the
  /// SQL text. EXPLAIN statements return the plan rendering as rows of a
  /// single QUERY PLAN column. `session` carries the caller's transaction
  /// slot (BEGIN opens into it, DML joins it); null uses the Database's
  /// built-in single-session slot. DELETE/UPDATE and transaction control
  /// require `wal_enabled`; a bare DML statement autocommits. Every
  /// statement takes table locks, with or without the log.
  Result<QueryResult> Execute(const std::string& sql, PlanHints extra_hints = {},
                              SessionTxnState* session = nullptr);

  /// Runs a SELECT through Execute()'s select path (bind, plan, locks,
  /// cold-cache eviction, I/O sink, stat-statements record) but gathers the
  /// root's batches into `*out`, typed as the result schema, instead of
  /// building Values: what derived tables load from. The result has no rows.
  Result<QueryResult> ExecuteInto(const std::string& sql, Batch* out);

  /// Returns the physical plan for a SELECT without running it, annotated
  /// with the planner's per-node cardinality and cost estimates.
  Result<std::string> Explain(const std::string& sql, PlanHints extra_hints = {});

  /// Runs a SELECT with every plan node instrumented and returns the
  /// annotated tree (estimated vs. actual rows, per-operator wall time and
  /// sequential/random page reads) alongside the normal result.
  Result<ExplainAnalyzeResult> ExplainAnalyze(const std::string& sql,
                                              PlanHints extra_hints = {});

  /// Engine-lifetime statement, row and view-refresh counters (the
  /// `elephant_stat_database` row).
  DatabaseStats& stats() { return stats_; }

  /// Cumulative per-statement statistics (the engine's pg_stat_statements),
  /// keyed by SQL fingerprint × plan hash. Also queryable through SQL as the
  /// `elephant_stat_statements` virtual table. Queries that read any
  /// `elephant_stat_*` table are not recorded (no self-instrumentation).
  obs::StatStatements& stat_statements() { return stat_statements_; }

  /// The statement registry as one validated JSON document (entries, per
  /// operator-class residuals, totals for reconciliation).
  std::string ExportStatStatements() const { return stat_statements_.ToJson(); }

  /// Engine-lifetime per-object page-access heatmap, fed by the disk manager
  /// and buffer pool; per-object totals sum exactly to disk().stats().
  obs::AccessHeatmap& heatmap() { return heatmap_; }

  /// Heatmap snapshot as JSON, with I/O modeled by the configured disk.
  std::string ExportHeatmapJson() const {
    return heatmap_.ToJson(options_.disk_model);
  }
  /// Heatmap as an aligned text table sorted by modeled I/O time.
  std::string ExportHeatmapText() const {
    return heatmap_.ToString(options_.disk_model);
  }

  /// The `elephant_stat_*` tables (all but the `elephant_stat_lock_waits`
  /// wait-graph snapshot) in the Prometheus text exposition format: each
  /// numeric cell is a sample of the gauge family `<table>_<column>`,
  /// labeled by its row's VARCHAR cells. Reads the tables' providers
  /// directly, so exporting runs no statement.
  std::string ExportMetrics();

  /// The shared intra-query worker pool (created on first use). Distinct
  /// from any session-level statement scheduler: workers never block on
  /// other tasks, which keeps PARALLEL queries deadlock-free even when
  /// every session issues one at once.
  sched::ThreadPool* workers();

  /// Flushes and empties the buffer pool (next query runs cold).
  Status EvictCaches();

  /// Refreshes optimizer statistics for one table.
  Status Analyze(const std::string& table);

  // --- Transactional write path (wal_enabled) ------------------------------

  /// Non-null in WAL mode.
  wal::LogManager* wal() { return log_.get(); }
  txn::TransactionManager* txn_manager() { return txn_mgr_.get(); }
  /// The table locks, in both modes.
  txn::LockManager* lock_manager() { return lock_mgr_.get(); }

  /// Fuzzy checkpoint: checkpoint record, flush all dirty pages (the WAL
  /// rule flushes the log first), flush + fsync the log, then persist the
  /// meta page (checkpoint LSN + serialized catalog). Recovery redo starts
  /// from the checkpoint this page names.
  Status Checkpoint();

  /// Arms fault injection on page writes, log flushes and fsyncs (nullptr
  /// disarms). The injector must outlive its use here.
  void SetFaultInjector(FaultInjector* injector);

  /// Deep-copies what stable storage holds right now — the image a crash
  /// test carries across a simulated reboot.
  DurableImage CloneDurableImage() const;

  /// Boots an engine from a crash image: restores the platter, seeds the
  /// log with the durable prefix, reads the meta page, runs ARIES recovery
  /// (analysis / redo / undo), reloads the catalog, marks every derived
  /// table stale, and checkpoints. `options.wal_enabled` is implied.
  static Result<std::unique_ptr<Database>> Reopen(DatabaseOptions options,
                                                  DurableImage image);

  /// What recovery did on the last Reopen (zeros for a fresh engine).
  const wal::RecoveryStats& recovery_stats() const { return recovery_stats_; }

 private:
  struct ReopenTag {};
  /// Builds the engine with no log attached: disk, pool, catalog, lock
  /// manager and system tables. The public constructor then attaches a
  /// fresh log; the Reopen factory installs the platter image first and
  /// attaches the durable log, in recovery order.
  Database(DatabaseOptions options, ReopenTag);

  /// Execute() minus the per-statement accounting wrapper: the public entry
  /// installs a WaitSink and the wall clock, then dispatches here.
  Result<QueryResult> ExecuteStatement(const std::string& sql,
                                       PlanHints extra_hints,
                                       SessionTxnState* session);

  Result<QueryResult> ExecuteSelect(const std::string& sql,
                                    std::unique_ptr<SelectStmt> stmt,
                                    PlanHints extra_hints, bool instrument,
                                    Batch* into = nullptr);

  /// Binds and plans a SELECT without running it: the plan Execute() would
  /// run, as EXPLAIN text and annotated tree. The executor is dropped.
  Result<PlannedQuery> PlanSelect(const SelectStmt& stmt,
                                  PlanHints extra_hints);

  /// The one instrumented run behind ExplainAnalyze() and SQL EXPLAIN
  /// ANALYZE: ExecuteSelectWithLocks with every plan node wrapped, carrying
  /// the statement's phase `trace` (moved out) and its waits so far.
  Result<QueryResult> RunInstrumented(const std::string& sql,
                                      std::unique_ptr<SelectStmt> stmt,
                                      PlanHints extra_hints,
                                      SessionTxnState* ts,
                                      obs::QueryTrace* trace);

  /// ExecuteSelect wrapped in the statement-scoped shared-lock protocol (acquire via PrepareSelectTables, release at statement end,
  /// abort the enclosing transaction on failure). Shared by plain SELECT,
  /// EXPLAIN ANALYZE and ExplainAnalyze() so an instrumented run blocks on —
  /// and attributes — exactly the locks a normal run would.
  Result<QueryResult> ExecuteSelectWithLocks(const std::string& sql,
                                             std::unique_ptr<SelectStmt> stmt,
                                             PlanHints extra_hints,
                                             bool instrument,
                                             SessionTxnState* ts,
                                             Batch* into = nullptr);

  /// Registers the `elephant_stat_*` virtual system tables in the catalog
  /// (providers capture `this`; the catalog dies before the engine state).
  Status RegisterSystemTables();

  /// Attaches the log: creates the log manager (seeded with `durable_log`,
  /// the recovered bytes of a previous incarnation) and the transaction
  /// manager, makes new base tables logged, and wires the WAL rule into the
  /// buffer pool.
  void AttachLog(std::string durable_log);

  /// Rejects statements issued while the slot's transaction is in kAborted
  /// limbo, quoting both the failed and the rejected statement.
  Status CheckNotInAbortedTxn(const SessionTxnState& state,
                              const std::string& sql) const;

  /// Rolls `t` back after a failed statement and, for an explicit
  /// transaction, parks it in kAborted limbo recording `sql` as the
  /// statement that killed it. Returns the rollback's own status (non-OK
  /// when undo was incomplete — callers fold it into the client error via
  /// CombineWithRollbackFailure so it is never silent).
  Status AbortTxn(txn::Transaction* t, const std::string& sql,
                  SessionTxnState* state);

  /// Rolls `t` back and withdraws its changes from the derived tables: a
  /// read inside the transaction may have refreshed a view with rows the
  /// rollback removes. Its inserts leave the base insert logs; a rolled-back
  /// DELETE or UPDATE is an unknown change. Every rollback path goes
  /// through here.
  Status RollbackTxn(txn::Transaction* t);

  /// Appends a rollback failure to a primary statement error (no-op when the
  /// rollback succeeded).
  static Status CombineWithRollbackFailure(const Status& primary,
                                           const Status& rollback);

  /// BEGIN / COMMIT / ROLLBACK / CHECKPOINT.
  Result<QueryResult> ExecuteTxnControl(StatementKind kind,
                                        const std::string& sql,
                                        SessionTxnState* state);

  /// INSERT / DELETE / UPDATE under an explicit or autocommit transaction
  /// (without a log, an INSERT under its own lock owner).
  Result<QueryResult> ExecuteDml(const Statement& stmt, const std::string& sql,
                                 SessionTxnState* state);
  Result<uint64_t> RunInsert(const InsertStmt& ins, Table* table,
                             txn::Transaction* t);
  Result<uint64_t> RunDelete(const DeleteStmt& del, Table* table,
                             txn::Transaction* t);
  Result<uint64_t> RunUpdate(const UpdateStmt& upd, Table* table,
                             txn::Transaction* t);

  /// The catalog tables a SELECT reads (sorted, deduplicated), after
  /// refreshing each stale derived table among them. Runs before every
  /// SELECT; `locker` is the statement's lock owner.
  Result<std::vector<std::string>> RefreshSelectTables(const SelectStmt& stmt,
                                                       txn_id_t locker);

  /// Refreshes one stale derived table, holding for `locker` shared locks
  /// on the bases and an exclusive lock on the derived table while the
  /// refresh runs.
  Status RefreshDerived(const std::string& name, txn_id_t locker);

  /// Statement-scoped shared locks on a SELECT's (refreshed) tables; fills
  /// `acquired` with the locks to drop at statement end.
  Status PrepareSelectTables(const SelectStmt& stmt, txn_id_t locker,
                             std::vector<std::string>* acquired);

  /// Shared locks for `locker` on each of `tables` (sorted) it does not
  /// already hold; appends the ones it took to `acquired`.
  Status AcquireShared(txn_id_t locker, const std::vector<std::string>& tables,
                       std::vector<std::string>* acquired);

  /// Serializes checkpoint LSN + catalog into the reserved meta page.
  Status WriteMetaPage(lsn_t checkpoint_lsn);

  DatabaseOptions options_;
  /// Declared before disk_/pool_ (which hold pointers into it) so it is
  /// destroyed after them.
  obs::AccessHeatmap heatmap_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  /// The log and transaction manager exist in WAL mode only (null
  /// otherwise); the lock manager always. The pool holds a flush callback
  /// into log_, so these outlive pool_ teardown order-wise by being
  /// declared after it (members destroy in reverse order; the callback
  /// fires only from FlushAll/eviction, which no destructor triggers).
  std::unique_ptr<wal::LogManager> log_;
  std::unique_ptr<txn::LockManager> lock_mgr_;
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  /// The built-in transaction slot used when Execute gets no session.
  SessionTxnState default_txn_state_;
  /// Lock owners outside any transaction: plain SELECTs, CREATE INDEX, and
  /// without a log each INSERT; disjoint from transaction ids.
  std::atomic<uint64_t> next_read_locker_{1ull << 62};
  wal::RecoveryStats recovery_stats_;
  DatabaseStats stats_;
  obs::StatStatements stat_statements_;
  const std::chrono::steady_clock::time_point created_at_ =
      std::chrono::steady_clock::now();
  Mutex workers_mu_{LockRank::kDatabaseWorkers, "Database::workers_mu_"};
  std::unique_ptr<sched::ThreadPool> workers_ GUARDED_BY(workers_mu_);
};

}  // namespace elephant
