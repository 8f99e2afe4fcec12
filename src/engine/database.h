#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/thread_annotations.h"
#include "exec/executor.h"
#include "obs/ash.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/plan_stats.h"
#include "obs/query_log.h"
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
  /// Disk read-ahead: sequential streams prefetch a forward window of pages,
  /// so reads landing inside the window are charged transfer time only
  /// (no per-request overhead). Off = every read pays full request cost.
  bool readahead_enabled = true;
  /// Pages per read-ahead window (0 disables read-ahead as well).
  uint32_t readahead_window_pages = DiskManager::kDefaultReadaheadPages;
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
  /// Transactional write path: WAL-log every DML, give each base table a
  /// durable heap, enforce the WAL rule in the buffer pool, and accept
  /// BEGIN/COMMIT/ROLLBACK/CHECKPOINT plus DELETE/UPDATE. Off by default —
  /// the read-only experiments keep the original unlogged engine.
  bool wal_enabled = false;
  /// Table-lock wait budget. A wait exceeding it aborts the transaction
  /// (suspected deadlock). Tests shrink it to fail fast.
  double lock_timeout_seconds = 1.0;
  /// Active session history: a background thread samples every live
  /// session's activity (running / waiting-on-<event> / idle-in-txn) into a
  /// bounded ring served by the elephant_stat_ash virtual table. Off by
  /// default — contention experiments and tests opt in.
  bool ash_sampler_enabled = false;
  /// Seconds between ASH samples (PostgreSQL folks run ~1s; the simulated
  /// engine's statements finish in microseconds, so the default is 5ms).
  double ash_interval_seconds = 0.005;
  /// ASH ring size in samples; the oldest samples fall off.
  uint32_t ash_ring_capacity = 4096;
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
  /// require `wal_enabled`; a bare DML statement autocommits.
  Result<QueryResult> Execute(const std::string& sql, PlanHints extra_hints = {},
                              SessionTxnState* session = nullptr);

  /// Returns the physical plan for a SELECT without running it, annotated
  /// with the planner's per-node cardinality and cost estimates.
  Result<std::string> Explain(const std::string& sql, PlanHints extra_hints = {});

  /// Runs a SELECT with every plan node instrumented and returns the
  /// annotated tree (estimated vs. actual rows, per-operator wall time and
  /// sequential/random page reads) alongside the normal result.
  Result<ExplainAnalyzeResult> ExplainAnalyze(const std::string& sql,
                                              PlanHints extra_hints = {});

  /// Engine-lifetime metrics (statement counts, row counts, latencies).
  obs::MetricsRegistry& metrics() { return metrics_; }

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

  /// Refreshes the point-in-time gauges (pool occupancy, pinned frames,
  /// worker queue depth/utilization) and serializes every metric in the
  /// Prometheus text exposition format.
  std::string ExportMetrics();

  /// Starts the slow-query/audit log: statements whose measured latency
  /// meets `threshold_seconds` are appended to `path` as JSONL (statement,
  /// plan hash, latency, I/O stats, session id). 0 audits everything.
  bool EnableSlowQueryLog(const std::string& path, double threshold_seconds) {
    return query_log_.Open(path, threshold_seconds);
  }
  void DisableSlowQueryLog() { query_log_.Close(); }
  obs::QueryLog& query_log() { return query_log_; }

  /// Live-session activity slots behind elephant_stat_activity and the ASH
  /// sampler. Sessions register themselves here for their lifetime
  /// (engine/session.h).
  obs::SessionStateRegistry* session_states() { return &session_states_; }

  /// The ASH sampler thread, or null when DatabaseOptions::ash_sampler_enabled
  /// is off (elephant_stat_ash then reads as empty).
  obs::AshSampler* ash_sampler() { return ash_sampler_.get(); }

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
  /// Builds disk/pool/catalog only — the Reopen factory installs the platter
  /// image and the WAL machinery itself, in recovery order.
  Database(DatabaseOptions options, ReopenTag);

  /// Execute() minus the per-statement accounting wrapper: the public entry
  /// installs a WaitSink and the wall clock, then dispatches here.
  Result<QueryResult> ExecuteStatement(const std::string& sql,
                                       PlanHints extra_hints,
                                       SessionTxnState* session);

  Result<QueryResult> ExecuteSelect(const std::string& sql,
                                    std::unique_ptr<SelectStmt> stmt,
                                    PlanHints extra_hints, bool instrument);

  /// ExecuteSelect wrapped in the WAL-mode statement-scoped shared-lock
  /// protocol (acquire via PrepareSelectTables, release at statement end,
  /// abort the enclosing transaction on failure). Shared by plain SELECT,
  /// EXPLAIN ANALYZE and ExplainAnalyze() so an instrumented run blocks on —
  /// and attributes — exactly the locks a normal run would.
  Result<QueryResult> ExecuteSelectWithLocks(const std::string& sql,
                                             std::unique_ptr<SelectStmt> stmt,
                                             PlanHints extra_hints,
                                             bool instrument,
                                             SessionTxnState* ts);

  /// Creates and starts the ASH sampler when options_.ash_sampler_enabled
  /// (both construction paths: fresh engine and Reopen).
  void MaybeStartAshSampler();

  /// Registers the `elephant_stat_*` virtual system tables in the catalog
  /// (providers capture `this`; the catalog dies before the engine state).
  Status RegisterSystemTables();

  /// Creates the WAL machinery (log, lock manager, transaction manager),
  /// reserves the meta page, and wires the WAL rule into the buffer pool.
  void InitWalMachinery();

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

  /// INSERT / DELETE / UPDATE under an explicit or autocommit transaction.
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
  /// SELECT in both modes; `locker` is the statement's lock owner (unused
  /// without the WAL).
  Result<std::vector<std::string>> RefreshSelectTables(const SelectStmt& stmt,
                                                       txn_id_t locker);

  /// Refreshes one stale derived table. In WAL mode it holds, for
  /// `locker`, shared locks on the bases and an exclusive lock on the
  /// derived table while the refresh runs.
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
  /// WAL mode only (null otherwise). The pool holds a flush callback into
  /// log_, so these outlive pool_ teardown order-wise by being declared
  /// after it (members destroy in reverse order; the callback fires only
  /// from FlushAll/eviction, which no destructor triggers).
  std::unique_ptr<wal::LogManager> log_;
  std::unique_ptr<txn::LockManager> lock_mgr_;
  std::unique_ptr<txn::TransactionManager> txn_mgr_;
  /// The built-in transaction slot used when Execute gets no session.
  SessionTxnState default_txn_state_;
  /// Lock ids for statement-scoped shared locks taken outside any
  /// transaction (plain SELECTs); disjoint from transaction ids.
  std::atomic<uint64_t> next_read_locker_{1ull << 62};
  wal::RecoveryStats recovery_stats_;
  obs::MetricsRegistry metrics_;
  obs::StatStatements stat_statements_;
  obs::QueryLog query_log_;
  /// Declared before ash_sampler_ (which holds a pointer into it) so the
  /// sampler thread is stopped and destroyed first.
  obs::SessionStateRegistry session_states_;
  std::unique_ptr<obs::AshSampler> ash_sampler_;
  const std::chrono::steady_clock::time_point created_at_ =
      std::chrono::steady_clock::now();
  Mutex workers_mu_{LockRank::kDatabaseWorkers, "Database::workers_mu_"};
  std::unique_ptr<sched::ThreadPool> workers_ GUARDED_BY(workers_mu_);
};

}  // namespace elephant
