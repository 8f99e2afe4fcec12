#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "exec/expression.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/trace_log.h"
#include "parser/parser.h"
#include "planner/binder.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace elephant {

namespace {

/// Page 0 of a WAL-mode disk: [magic][checkpoint LSN][catalog blob]. The
/// page is reserved at engine construction, before any table can allocate,
/// so its id is stable across the simulated reboot.
constexpr page_id_t kMetaPageId = 0;
constexpr uint32_t kMetaMagic = 0x454C4D31;  // "ELM1"

/// Column-name suffixes of the per-kind statement counters, indexed by
/// StatementKind.
constexpr const char* kStatementKindNames[] = {
    "select", "create_table", "create_index", "insert", "delete", "update",
    "begin",  "commit",       "rollback",     "checkpoint", "explain",
};
static_assert(std::size(kStatementKindNames) ==
              DatabaseStats::kNumStatementKinds);

/// The tables ExportMetrics() renders: every `elephant_stat_*` table except
/// `elephant_stat_lock_waits`, whose rows are wait-graph edges that exist
/// only while a session is parked.
constexpr const char* kExportedTables[] = {
    "elephant_stat_database",   "elephant_stat_statements",
    "elephant_stat_buffer_pool", "elephant_stat_io",
    "elephant_stat_heatmap",    "elephant_stat_scheduler",
    "elephant_stat_wal",        "elephant_stat_transactions",
    "elephant_stat_wait_events",
};

/// Packages a rendered plan as a result set: one VARCHAR "QUERY PLAN" column,
/// one row per text line (how EXPLAIN output reaches SQL clients).
QueryResult PlanTextResult(const std::string& text) {
  QueryResult qr;
  qr.schema = Schema({Column("QUERY PLAN", TypeId::kVarchar)});
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    qr.rows.push_back(Row{Value::Varchar(text.substr(start, end - start))});
    start = end + 1;
  }
  return qr;
}

/// Converts one INSERT ... VALUES row to the table's column types. Every
/// value must be a literal (a negative number is one: the parser folds unary
/// minus). A value that does not convert to its column's type, such as
/// -2147483649 into an INT column, is an InvalidArgument rather than a
/// wrapped or mistyped store.
Result<Row> LiteralRow(const std::vector<SqlExprPtr>& exprs,
                       const Schema& schema) {
  if (exprs.size() != schema.NumColumns()) {
    return Status::BindError("INSERT arity mismatch");
  }
  Row row;
  row.reserve(exprs.size());
  for (size_t c = 0; c < exprs.size(); c++) {
    if (exprs[c]->kind != SqlExprKind::kLiteral) {
      return Status::BindError("INSERT values must be literals");
    }
    ELE_ASSIGN_OR_RETURN(Value v,
                         exprs[c]->literal.CastTo(schema.ColumnAt(c).type));
    row.push_back(std::move(v));
  }
  return row;
}

/// The rows of `table` that `pred` accepts (every row when it is null),
/// each with the clustering key it is stored under: DELETE's and UPDATE's
/// victims. They are collected before the first write, because the cursor
/// holds a pinned leaf and a tree position that a write would invalidate.
/// Rows are read a batch at a time and filtered by ApplyFilterToBatch, the
/// test a SELECT's WHERE runs.
Result<std::vector<std::pair<std::string, Row>>> CollectVictims(
    const Table& table, const Expr* pred) {
  std::vector<std::pair<std::string, Row>> victims;
  IndexCursor cursor(&table, nullptr, AccessIntent::kSequentialScan);
  ELE_RETURN_NOT_OK(cursor.Seek(KeyRange{}));
  Batch batch;
  std::vector<std::string> keys;
  std::vector<Row> rows;
  while (cursor.Valid()) {
    batch.Reset(table.schema());
    keys.clear();
    uint32_t n = 0;
    for (; n < kBatchCapacity && cursor.Valid(); n++) {
      keys.emplace_back(cursor.key());
      ELE_RETURN_NOT_OK(cursor.ReadInto(&batch, 0));
    }
    batch.SetRowCount(n);
    if (pred != nullptr) ELE_RETURN_NOT_OK(ApplyFilterToBatch(*pred, &batch));
    rows.clear();
    batch.AppendActiveRowsTo(&rows);
    for (uint32_t i = 0; i < rows.size(); i++) {
      victims.emplace_back(std::move(keys[batch.ActiveIndex(i)]),
                           std::move(rows[i]));
    }
  }
  return victims;
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t c = 0; c < schema.NumColumns(); c++) {
    if (c > 0) out += " | ";
    out += schema.ColumnAt(c).name;
  }
  out += "\n";
  out.append(out.size() > 1 ? out.size() - 1 : 0, '-');
  out += "\n";
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size() - max_rows) + " more rows)\n";
      break;
    }
    for (size_t c = 0; c < row.size(); c++) {
      if (c > 0) out += " | ";
      out += row[c].ToString();
    }
    out += "\n";
  }
  out += "(" + std::to_string(rows.size()) + " rows)\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "time: measured cpu=%.3fms | modeled io=%.3fms | modeled "
                "total=%.3fms\n",
                cpu_seconds * 1e3, io_seconds * 1e3, TotalSeconds() * 1e3);
  out += buf;
  return out;
}

Database::Database(DatabaseOptions options) : Database(options, ReopenTag{}) {
  if (options_.wal_enabled) {
    // Reserve the meta page first: nothing else has allocated yet, so it
    // gets page 0 — a stable address a reopened engine can read before it
    // knows anything else about the database.
    disk_->AllocatePage();
    AttachLog("");
  }
}

Database::Database(DatabaseOptions options, ReopenTag) : options_(options) {
  disk_ = std::make_unique<DiskManager>(&heatmap_);
  pool_ = std::make_unique<BufferPool>(disk_.get(), options_.buffer_pool_pages,
                                       &heatmap_);
  catalog_ = std::make_unique<Catalog>(pool_.get());
  lock_mgr_ = std::make_unique<txn::LockManager>();
  Status reg = RegisterSystemTables();
  if (!reg.ok()) {
    // A fresh catalog cannot collide with the reserved elephant_stat_ names;
    // failure here means the engine itself is broken, and constructors
    // cannot report errors — fail loudly rather than run without the
    // introspection tables callers were promised.
    std::fprintf(stderr, "RegisterSystemTables failed: %s\n",
                 reg.ToString().c_str());
    std::abort();
  }
}

void Database::AttachLog(std::string durable_log) {
  log_ = std::make_unique<wal::LogManager>(disk_.get(), std::move(durable_log));
  txn_mgr_ = std::make_unique<txn::TransactionManager>(
      log_.get(), catalog_.get(), lock_mgr_.get());
  catalog_->EnableWalStorage();
  // The WAL rule: a dirty page may reach disk only after the log covering
  // its last mutation is durable.
  pool_->SetWalFlushCallback(
      [log = log_.get()](lsn_t lsn) { return log->FlushUntil(lsn); });
}

Result<std::unique_ptr<Database>> Database::Reopen(DatabaseOptions options,
                                                   DurableImage image) {
  options.wal_enabled = true;
  std::unique_ptr<Database> db(new Database(options, ReopenTag{}));
  ELE_RETURN_NOT_OK(db->disk_->RestorePages(image.pages));
  db->AttachLog(std::move(image.log));

  // The meta page names the checkpoint to redo from and carries the catalog
  // as of that checkpoint (DDL checkpoints eagerly, so the blob is always
  // schema-current). An unwritten meta page — crash before the first
  // checkpoint — reads as zeroes and fails the magic check: recover from
  // the log start with an empty catalog.
  lsn_t checkpoint_lsn = kInvalidLsn;
  std::string catalog_blob;
  if (db->disk_->NumPages() > 0) {
    auto page = std::make_unique<char[]>(kPageSize);
    ELE_RETURN_NOT_OK(db->disk_->ReadPage(kMetaPageId, page.get()));
    uint32_t magic = 0;
    std::memcpy(&magic, page.get(), sizeof(magic));
    if (magic == kMetaMagic) {
      uint64_t ckpt = 0;
      uint32_t blob_len = 0;
      std::memcpy(&ckpt, page.get() + 4, sizeof(ckpt));
      std::memcpy(&blob_len, page.get() + 12, sizeof(blob_len));
      if (16 + static_cast<uint64_t>(blob_len) > kPageSize) {
        return Status::Corruption("meta page catalog blob overruns the page");
      }
      checkpoint_lsn = ckpt;
      catalog_blob.assign(page.get() + 16, blob_len);
    }
  }
  // The catalog opens every logged tree at its checkpointed root, ready for
  // recovery: redo brings the pages to the crash point, and undo finds the
  // losers' changes by key through those trees. Every page id the log
  // names was allocated before the crash and survives in the image, so the
  // pages the catalog allocates for derived tables cannot collide.
  if (!catalog_blob.empty()) {
    ELE_RETURN_NOT_OK(db->catalog_->DeserializeFrom(catalog_blob));
  }
  ELE_RETURN_NOT_OK(
      db->txn_mgr_->Recover(checkpoint_lsn, &db->recovery_stats_));
  for (const std::string& name : db->catalog_->TableNames()) {
    ELE_ASSIGN_OR_RETURN(Table * table, db->catalog_->GetTable(name));
    if (table->logged()) ELE_RETURN_NOT_OK(table->CountRows());
  }
  // Derived tables (MVs, c-tables) are never logged; their owners re-attach
  // rebuild hooks and the next read recomputes them from the bases.
  db->catalog_->MarkAllDerivedStale();
  // Recovery's redo/undo dirtied pages and appended CLRs; checkpointing now
  // makes the recovered state durable so a crash during normal operation
  // does not have to repeat this recovery's work.
  ELE_RETURN_NOT_OK(db->Checkpoint());
  return db;
}

Status Database::Checkpoint() {
  if (log_ == nullptr) {
    return Status::FailedPrecondition(
        "CHECKPOINT requires the WAL engine (DatabaseOptions::wal_enabled)");
  }
  const lsn_t ckpt_lsn = log_->AppendCheckpoint();
  // Log first, so the page write-back finds every dirty frame's LSN already
  // durable (WAL rule) and needs no flush of its own; by the time the meta
  // page commits to this checkpoint, every page it implies is on disk.
  ELE_RETURN_NOT_OK(log_->Flush());
  ELE_RETURN_NOT_OK(pool_->FlushAll());
  return WriteMetaPage(ckpt_lsn);
}

Status Database::WriteMetaPage(lsn_t checkpoint_lsn) {
  std::string blob;
  catalog_->SerializeTo(&blob);
  if (16 + blob.size() > kPageSize) {
    return Status::ResourceExhausted(
        "catalog (" + std::to_string(blob.size()) +
        " bytes) no longer fits the meta page");
  }
  auto page = std::make_unique<char[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  std::memcpy(page.get(), &kMetaMagic, sizeof(kMetaMagic));
  const uint64_t ckpt = checkpoint_lsn;
  std::memcpy(page.get() + 4, &ckpt, sizeof(ckpt));
  const uint32_t blob_len = static_cast<uint32_t>(blob.size());
  std::memcpy(page.get() + 12, &blob_len, sizeof(blob_len));
  std::memcpy(page.get() + 16, blob.data(), blob.size());
  ELE_RETURN_NOT_OK(disk_->WritePage(kMetaPageId, page.get()));
  return disk_->Sync();
}

void Database::SetFaultInjector(FaultInjector* injector) {
  disk_->SetFaultInjector(injector);
  if (log_ != nullptr) log_->SetFaultInjector(injector);
}

DurableImage Database::CloneDurableImage() const {
  DurableImage image;
  image.pages = disk_->ClonePages();
  if (log_ != nullptr) image.log = log_->DurablePrefix();
  return image;
}

Status Database::RegisterSystemTables() {
  using obs::HexHash;
  const auto i64 = [](uint64_t v) {
    return Value::Int64(static_cast<int64_t>(v));
  };

  // elephant_stat_database: one row of the engine's own counters
  // (DatabaseStats) plus the trace log's and the statement registry's
  // losses. The SELECT latency histograms show as count and p50/p95.
  {
    std::vector<Column> cols;
    for (const char* kind : kStatementKindNames) {
      cols.emplace_back(std::string("statements_") + kind, TypeId::kInt64);
    }
    for (const char* name :
         {"rows_returned", "view_delta_refreshes", "view_delta_rows",
          "view_full_refreshes", "rollback_failures", "trace_dropped_spans",
          "stat_statements_evictions", "select_count"}) {
      cols.emplace_back(name, TypeId::kInt64);
    }
    for (const char* name :
         {"select_p50_seconds", "select_p95_seconds",
          "select_modeled_p50_seconds", "select_modeled_p95_seconds"}) {
      cols.emplace_back(name, TypeId::kDouble);
    }
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_database", Schema(std::move(cols)),
            [this, i64]() -> Result<std::vector<Row>> {
              Row row;
              for (const std::atomic<uint64_t>& n : stats_.statements) {
                row.push_back(i64(n.load()));
              }
              const obs::HistogramSnapshot measured =
                  stats_.select_seconds.Snapshot();
              const obs::HistogramSnapshot modeled =
                  stats_.select_modeled_seconds.Snapshot();
              for (uint64_t v :
                   {stats_.rows_returned.load(),
                    stats_.view_delta_refreshes.load(),
                    stats_.view_delta_rows.load(),
                    stats_.view_full_refreshes.load(),
                    stats_.rollback_failures.load(),
                    static_cast<uint64_t>(
                        obs::TraceLog::Global().DroppedCount()),
                    stat_statements_.evicted_entries(), measured.count}) {
                row.push_back(i64(v));
              }
              for (double v : {measured.Quantile(0.50), measured.Quantile(0.95),
                               modeled.Quantile(0.50), modeled.Quantile(0.95)}) {
                row.push_back(Value::Double(v));
              }
              return std::vector<Row>{std::move(row)};
            }));
  }

  // elephant_stat_statements: one row per fingerprint × plan-hash family.
  {
    Schema schema({
        Column("query", TypeId::kVarchar),
        Column("fingerprint", TypeId::kVarchar),
        Column("plan_hash", TypeId::kVarchar),
        Column("calls", TypeId::kInt64),
        Column("rows", TypeId::kInt64),
        Column("instrumented_calls", TypeId::kInt64),
        Column("total_seconds", TypeId::kDouble),
        Column("mean_seconds", TypeId::kDouble),
        Column("min_seconds", TypeId::kDouble),
        Column("max_seconds", TypeId::kDouble),
        Column("p95_seconds", TypeId::kDouble),
        Column("total_io_seconds", TypeId::kDouble),
        Column("residual_seconds", TypeId::kDouble),
        Column("wait_seconds", TypeId::kDouble),
        Column("io_sequential_reads", TypeId::kInt64),
        Column("io_random_reads", TypeId::kInt64),
        Column("io_page_writes", TypeId::kInt64),
        Column("io_readahead_windows", TypeId::kInt64),
        Column("io_pages_prefetched", TypeId::kInt64),
        Column("io_prefetch_hits", TypeId::kInt64),
        Column("io_prefetch_wasted", TypeId::kInt64),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_statements", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              std::vector<Row> rows;
              for (const obs::StatementStats& e : stat_statements_.Snapshot()) {
                rows.push_back(Row{
                    Value::Varchar(e.query),
                    Value::Varchar(HexHash(e.fingerprint)),
                    Value::Varchar(HexHash(e.plan_hash)),
                    i64(e.calls),
                    i64(e.rows),
                    i64(e.instrumented_calls),
                    Value::Double(e.total_seconds),
                    Value::Double(e.MeanSeconds()),
                    Value::Double(e.min_seconds),
                    Value::Double(e.max_seconds),
                    Value::Double(e.latency.Quantile(0.95)),
                    Value::Double(e.total_io_seconds),
                    Value::Double(e.ResidualSeconds()),
                    Value::Double(e.total_wait_seconds),
                    i64(e.io.sequential_reads),
                    i64(e.io.random_reads),
                    i64(e.io.page_writes),
                    i64(e.io.readahead.windows_issued),
                    i64(e.io.readahead.pages_prefetched),
                    i64(e.io.readahead.prefetch_hits),
                    i64(e.io.readahead.prefetch_wasted),
                });
              }
              return rows;
            }));
  }

  // elephant_stat_buffer_pool: one row of pool occupancy + counters.
  {
    Schema schema({
        Column("capacity_pages", TypeId::kInt64),
        Column("resident_pages", TypeId::kInt64),
        Column("pinned_frames", TypeId::kInt64),
        Column("hits", TypeId::kInt64),
        Column("misses", TypeId::kInt64),
        Column("evictions", TypeId::kInt64),
        Column("scan_ring_inserts", TypeId::kInt64),
        Column("scan_ring_promotions", TypeId::kInt64),
        Column("pin_protocol_errors", TypeId::kInt64),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_buffer_pool", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              const BufferPoolStats s = pool_->stats();
              return std::vector<Row>{Row{
                  i64(pool_->capacity()),
                  i64(pool_->ResidentPages()),
                  i64(pool_->PinnedFrames()),
                  i64(s.hits),
                  i64(s.misses),
                  i64(s.evictions),
                  i64(s.scan_ring_inserts),
                  i64(s.scan_ring_promotions),
                  i64(s.pin_protocol_errors),
              }};
            }));
  }

  // elephant_stat_io: one row of engine-global disk counters.
  {
    Schema schema({
        Column("sequential_reads", TypeId::kInt64),
        Column("random_reads", TypeId::kInt64),
        Column("page_writes", TypeId::kInt64),
        Column("readahead_windows", TypeId::kInt64),
        Column("pages_prefetched", TypeId::kInt64),
        Column("prefetch_hits", TypeId::kInt64),
        Column("prefetch_wasted", TypeId::kInt64),
        Column("modeled_seconds", TypeId::kDouble),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_io", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              const IoStats io = disk_->stats();
              return std::vector<Row>{Row{
                  i64(io.sequential_reads),
                  i64(io.random_reads),
                  i64(io.page_writes),
                  i64(io.readahead.windows_issued),
                  i64(io.readahead.pages_prefetched),
                  i64(io.readahead.prefetch_hits),
                  i64(io.readahead.prefetch_wasted),
                  Value::Double(options_.disk_model.Seconds(io)),
              }};
            }));
  }

  // elephant_stat_heatmap: one row per storage object.
  {
    Schema schema({
        Column("object", TypeId::kVarchar),
        Column("pool_hits", TypeId::kInt64),
        Column("pool_faults", TypeId::kInt64),
        Column("sequential_reads", TypeId::kInt64),
        Column("random_reads", TypeId::kInt64),
        Column("prefetch_hits", TypeId::kInt64),
        Column("page_writes", TypeId::kInt64),
        Column("modeled_read_seconds", TypeId::kDouble),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_heatmap", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              std::vector<Row> rows;
              for (const auto& [object, io] : heatmap_.Snapshot()) {
                rows.push_back(Row{
                    Value::Varchar(object),
                    i64(io.pool_hits),
                    i64(io.pool_faults),
                    i64(io.sequential_reads),
                    i64(io.random_reads),
                    i64(io.prefetch_hits),
                    i64(io.page_writes),
                    Value::Double(io.ModeledReadSeconds(options_.disk_model)),
                });
              }
              return rows;
            }));
  }

  // elephant_stat_scheduler: one row; zeros until the worker pool spins up.
  {
    Schema schema({
        Column("worker_threads", TypeId::kInt64),
        Column("queue_depth", TypeId::kInt64),
        Column("active_tasks", TypeId::kInt64),
        Column("busy_seconds", TypeId::kDouble),
        Column("utilization", TypeId::kDouble),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_scheduler", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              MutexLock lock(workers_mu_);
              if (workers_ == nullptr) {
                return std::vector<Row>{Row{i64(0), i64(0), i64(0),
                                            Value::Double(0),
                                            Value::Double(0)}};
              }
              const double uptime =
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - created_at_)
                      .count();
              const double capacity =
                  uptime * static_cast<double>(workers_->num_threads());
              return std::vector<Row>{Row{
                  i64(workers_->num_threads()),
                  i64(workers_->QueueDepth()),
                  i64(workers_->ActiveTasks()),
                  Value::Double(workers_->BusySeconds()),
                  Value::Double(capacity > 0 ? workers_->BusySeconds() / capacity
                                             : 0),
              }};
            }));
  }

  // elephant_stat_wal: one row of log + recovery counters. Registered in
  // both modes (zeros without WAL) so queries against it always bind.
  {
    Schema schema({
        Column("records_appended", TypeId::kInt64),
        Column("bytes_appended", TypeId::kInt64),
        Column("flushes", TypeId::kInt64),
        Column("bytes_flushed", TypeId::kInt64),
        Column("fsyncs", TypeId::kInt64),
        Column("current_lsn", TypeId::kInt64),
        Column("durable_lsn", TypeId::kInt64),
        Column("checkpoint_lsn", TypeId::kInt64),
        Column("recovery_redo_applied", TypeId::kInt64),
        Column("recovery_loser_txns", TypeId::kInt64),
        Column("recovery_clrs_written", TypeId::kInt64),
        Column("recovery_torn_tail", TypeId::kInt64),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_wal", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              const wal::WalStats ws =
                  log_ != nullptr ? log_->stats() : wal::WalStats{};
              const IoStats io = disk_->stats();
              return std::vector<Row>{Row{
                  i64(ws.records_appended),
                  i64(ws.bytes_appended),
                  i64(ws.flushes),
                  i64(ws.bytes_flushed),
                  i64(io.fsyncs),
                  i64(ws.current_lsn),
                  i64(ws.durable_lsn),
                  i64(ws.checkpoint_lsn),
                  i64(recovery_stats_.redo_applied),
                  i64(recovery_stats_.loser_txns),
                  i64(recovery_stats_.clrs_written),
                  i64(recovery_stats_.torn_tail ? 1 : 0),
              }};
            }));
  }

  // elephant_stat_transactions: one row of transaction-manager counters.
  {
    Schema schema({
        Column("begun", TypeId::kInt64),
        Column("committed", TypeId::kInt64),
        Column("aborted", TypeId::kInt64),
        Column("active", TypeId::kInt64),
        Column("lock_timeouts", TypeId::kInt64),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_transactions", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              const txn::TxnStats s =
                  txn_mgr_ != nullptr ? txn_mgr_->stats() : txn::TxnStats{};
              return std::vector<Row>{Row{
                  i64(s.begun),
                  i64(s.committed),
                  i64(s.aborted),
                  i64(s.active),
                  i64(lock_mgr_->timeouts()),
              }};
            }));
  }

  // elephant_stat_wait_events: the full wait taxonomy, one row per event
  // (zeros included so the event space is always visible). Quantiles come
  // from the registry's log-scale histograms.
  {
    Schema schema({
        Column("wait_class", TypeId::kVarchar),
        Column("wait_event", TypeId::kVarchar),
        Column("count", TypeId::kInt64),
        Column("wait_seconds", TypeId::kDouble),
        Column("p50_seconds", TypeId::kDouble),
        Column("p95_seconds", TypeId::kDouble),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_wait_events", std::move(schema),
            [i64]() -> Result<std::vector<Row>> {
              obs::WaitEventRegistry& reg = obs::WaitEventRegistry::Global();
              std::vector<Row> rows;
              for (int e = 0; e < obs::kNumWaitEvents; e++) {
                const auto event = static_cast<obs::WaitEventId>(e);
                const obs::WaitEventRegistry::EventSnapshot snap =
                    reg.Snapshot(event);
                rows.push_back(Row{
                    Value::Varchar(obs::kWaitEventInfos[e].class_name),
                    Value::Varchar(obs::kWaitEventInfos[e].event_name),
                    i64(snap.count),
                    Value::Double(static_cast<double>(snap.nanos) / 1e9),
                    Value::Double(snap.latency.Quantile(0.50)),
                    Value::Double(snap.latency.Quantile(0.95)),
                });
              }
              return rows;
            }));
  }

  // elephant_stat_lock_waits: who blocks whom *right now* — one row per
  // (parked waiter, current holder) edge of the lock manager's wait graph.
  // Empty whenever nobody is parked.
  {
    Schema schema({
        Column("waiter_txn", TypeId::kInt64),
        Column("table_name", TypeId::kVarchar),
        Column("requested_mode", TypeId::kVarchar),
        Column("holder_txn", TypeId::kInt64),
        Column("held_mode", TypeId::kVarchar),
    });
    ELE_RETURN_NOT_OK(catalog_->RegisterVirtualTable(
            "elephant_stat_lock_waits", std::move(schema),
            [this, i64]() -> Result<std::vector<Row>> {
              std::vector<Row> rows;
              const auto mode_name = [](txn::LockManager::Mode m) {
                return m == txn::LockManager::Mode::kShared ? "Shared"
                                                            : "Exclusive";
              };
              for (const txn::LockManager::LockWaitEdge& e :
                   lock_mgr_->SnapshotWaiters()) {
                rows.push_back(Row{
                    i64(e.waiter),
                    Value::Varchar(e.table),
                    Value::Varchar(mode_name(e.requested)),
                    i64(e.holder),
                    Value::Varchar(mode_name(e.held)),
                });
              }
              return rows;
            }));
  }
  return Status::OK();
}

std::string Database::ExportMetrics() {
  std::string out;
  for (const char* name : kExportedTables) {
    const VirtualTable* table = catalog_->GetVirtualTable(name);
    Result<std::vector<Row>> rows = table->provider();
    if (rows.ok()) {
      obs::AppendPrometheusTable(table->name, table->schema, rows.value(), &out);
    }
  }
  return out;
}

Status Database::EvictCaches() { return pool_->EvictAll(); }

sched::ThreadPool* Database::workers() {
  MutexLock lock(workers_mu_);
  if (workers_ == nullptr) {
    const size_t n = options_.worker_threads > 0
                         ? static_cast<size_t>(options_.worker_threads)
                         : sched::ThreadPool::DefaultThreads();
    workers_ = std::make_unique<sched::ThreadPool>(n);
  }
  return workers_.get();
}

Status Database::Analyze(const std::string& table) {
  ELE_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(table));
  return t->Analyze();
}

Result<std::string> Database::Explain(const std::string& sql,
                                      PlanHints extra_hints) {
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  ELE_ASSIGN_OR_RETURN(PlannedQuery plan, PlanSelect(*stmt, extra_hints));
  return plan.explain;
}

Result<PlannedQuery> Database::PlanSelect(const SelectStmt& stmt,
                                          PlanHints extra_hints) {
  Binder binder(catalog_.get());
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound, binder.Bind(stmt));
  bound->hints = bound->hints.Merge(extra_hints);
  ExecContext ctx(pool_.get());
  // EXPLAIN must show the same plan Execute() would run, so a PARALLEL hint
  // attaches the scheduler here too (the query is not executed).
  if (bound->hints.parallel_workers >= 2) ctx.set_scheduler(workers());
  Planner planner(&ctx);
  ELE_ASSIGN_OR_RETURN(PlannedQuery plan, planner.Plan(std::move(bound)));
  plan.executor.reset();  // built against `ctx`, which dies here
  return plan;
}

Result<QueryResult> Database::ExecuteSelectWithLocks(
    const std::string& sql, std::unique_ptr<SelectStmt> stmt,
    PlanHints extra_hints, bool instrument, SessionTxnState* ts, Batch* into) {
  // A SELECT first refreshes the stale derived tables it reads, then takes
  // statement-scoped shared locks on its tables. Inside a transaction the
  // locks are taken under the transaction's id, so they compose with its
  // exclusive locks; outside, a throwaway reader id keeps them disjoint
  // from every transaction.
  std::vector<std::string> acquired;
  const txn_id_t locker =
      ts->txn != nullptr ? ts->txn->id() : next_read_locker_.fetch_add(1);
  Status prep = PrepareSelectTables(*stmt, locker, &acquired);
  if (!prep.ok()) {
    if (ts->txn == nullptr) {
      lock_mgr_->ReleaseAll(locker);
    } else if (ts->txn->state == txn::TxnState::kActive) {
      return CombineWithRollbackFailure(prep, AbortTxn(ts->txn.get(), sql, ts));
    }
    return prep;
  }
  Result<QueryResult> r =
      ExecuteSelect(sql, std::move(stmt), extra_hints, instrument, into);
  if (ts->txn == nullptr) {
    lock_mgr_->ReleaseAll(locker);
  } else {
    // Shared locks are statement-scoped even inside a transaction (locks
    // the transaction held before this statement stay put).
    for (const std::string& name : acquired) {
      lock_mgr_->Release(locker, name, txn::LockManager::Mode::kShared);
    }
  }
  if (!r.ok()) {
    if (ts->txn != nullptr && ts->txn->state == txn::TxnState::kActive) {
      return CombineWithRollbackFailure(r.status(),
                                        AbortTxn(ts->txn.get(), sql, ts));
    }
    return r.status();
  }
  return r;
}

Result<QueryResult> Database::ExecuteSelect(const std::string& sql,
                                            std::unique_ptr<SelectStmt> stmt,
                                            PlanHints extra_hints,
                                            bool instrument, Batch* into) {
  std::unique_ptr<BoundQuery> bound;
  {
    auto span = obs::TraceSpan::Phase("bind");
    Binder binder(catalog_.get());
    ELE_ASSIGN_OR_RETURN(bound, binder.Bind(*stmt));
    bound->hints = bound->hints.Merge(extra_hints);
  }
  // Captured before Plan() consumes the bound query: statements that read
  // any elephant_stat_* virtual table must not land in the registry, or the
  // act of observing the statistics would perturb them (and stat queries of
  // stat queries would recurse forever in spirit).
  const bool reads_virtual = bound->uses_virtual;
  ExecContext ctx(pool_.get());
  // Attach the worker pool only when this query asked for parallelism, so
  // serial-only workloads never spin up threads.
  if (bound->hints.parallel_workers >= 2) ctx.set_scheduler(workers());
  PlannedQuery plan;
  {
    auto span = obs::TraceSpan::Phase("plan");
    Planner planner(&ctx, instrument);
    ELE_ASSIGN_OR_RETURN(plan, planner.Plan(std::move(bound)));
  }

  if (options_.cold_cache) {
    ELE_RETURN_NOT_OK(pool_->EvictAll());
  }
  const auto t0 = std::chrono::steady_clock::now();

  QueryResult result;
  result.schema = plan.output_schema;
  {
    // Per-query I/O sink: unlike a global-counter delta, it attributes
    // exactly this query's page traffic even when other sessions (or this
    // query's own workers, which fold into the sink) run concurrently.
    IoSink query_sink;
    IoScope io_scope(&query_sink);
    auto span = obs::TraceSpan::Phase("execute");
    ELE_ASSIGN_OR_RETURN(
        result.rows, DrainBatches(plan.executor.get(),
                                  &ctx.counters().values_materialized, into));
    plan.executor.reset();  // release pinned pages before measuring
    result.io = query_sink.ToStats();
  }
  if (options_.check_pin_invariants) {
    // Query-end invariant: with the executor tree destroyed, every pin it
    // took must have been released (single-stream only; see DatabaseOptions).
    ELE_RETURN_NOT_OK(pool_->CheckNoPinsHeld());
  }

  const auto t1 = std::chrono::steady_clock::now();
  result.cpu_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.io_seconds = options_.disk_model.Seconds(result.io);
  result.counters = ctx.counters();
  const uint64_t rows_out =
      into != nullptr ? into->num_rows() : result.rows.size();
  // rows_output is defined as "rows the root emitted" (see ExecCounters);
  // assigning it here keeps it exact for every engine/plan shape, including
  // LIMIT over Gather where per-operator increments over-counted.
  result.counters.rows_output = rows_out;
  result.plan = std::shared_ptr<const obs::PlanNode>(std::move(plan.plan));

  stats_.rows_returned += rows_out;
  stats_.select_seconds.Observe(result.cpu_seconds);
  stats_.select_modeled_seconds.Observe(result.TotalSeconds());
  if (reads_virtual) return result;  // no self-instrumentation
  obs::StatementRecord record;
  record.SetSql(sql);
  record.plan_hash = obs::PlanShapeHash(plan.explain);
  record.rows = rows_out;
  record.latency_seconds = result.cpu_seconds;
  record.io_seconds = result.io_seconds;
  record.io = result.io;
  if (obs::WaitSink* waits = obs::CurrentWaitSink()) {
    // The statement's waits so far (locks were acquired before this point,
    // so heavyweight Lock waits are already in the sink).
    record.wait_profile = waits->ToProfile();
  }
  if (instrument && result.plan != nullptr) {
    // Per-operator-class residuals exist only on instrumented runs: the
    // self-attributed wall seconds come from the InstrumentedBatchExecutor
    // wrappers, and the modeled side prices the operator's own disk traffic
    // (read-ahead hits included) through the statement's disk model, so
    // the operators' modeled seconds sum to the statement's io_seconds.
    for (const obs::OperatorBreakdown& b : obs::FlattenPlan(*result.plan)) {
      obs::OperatorResidual residual;
      residual.op_class = obs::OperatorClassOf(b.op);
      residual.modeled_io_seconds = options_.disk_model.Seconds(b.io);
      residual.measured_seconds = b.seconds;
      record.residuals.push_back(std::move(residual));
    }
  }
  stat_statements_.Record(record);
  return result;
}

Result<QueryResult> Database::RunInstrumented(const std::string& sql,
                                              std::unique_ptr<SelectStmt> stmt,
                                              PlanHints extra_hints,
                                              SessionTxnState* ts,
                                              obs::QueryTrace* trace) {
  ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*ts, sql));
  ELE_ASSIGN_OR_RETURN(
      QueryResult result,
      ExecuteSelectWithLocks(sql, std::move(stmt), extra_hints,
                             /*instrument=*/true, ts));
  result.trace = std::make_shared<obs::QueryTrace>(std::move(*trace));
  // The statement's waits so far: lock acquisition, I/O and WAL waits of
  // this very statement (its caller installed the sink before parsing).
  if (obs::WaitSink* waits = obs::CurrentWaitSink()) {
    result.wait_profile = waits->ToProfile();
  }
  return result;
}

Result<ExplainAnalyzeResult> Database::ExplainAnalyze(const std::string& sql,
                                                      PlanHints extra_hints) {
  std::optional<obs::TraceSpan> statement_span;
  if (obs::TraceLog::Global().enabled()) {
    statement_span.emplace("statement", "engine", obs::TraceArgs{{"sql", sql}});
  }
  // Same per-statement accounting Execute() installs: the instrumented run
  // attributes its lock/IO/WAL waits like any other statement.
  obs::WaitSink sink;
  obs::WaitSinkScope sink_scope(&sink);
  const auto wall_start = std::chrono::steady_clock::now();
  obs::QueryTrace trace;
  obs::QueryTraceScope trace_scope(&trace);
  std::unique_ptr<SelectStmt> stmt;
  {
    auto span = obs::TraceSpan::Phase("parse");
    ELE_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
    if (parsed.select == nullptr) {
      return Status::BindError("EXPLAIN ANALYZE requires a SELECT statement");
    }
    stmt = std::move(parsed.select);
  }
  ++stats_.statements[static_cast<size_t>(StatementKind::kExplain)];
  ELE_ASSIGN_OR_RETURN(QueryResult result,
                       RunInstrumented(sql, std::move(stmt), extra_hints,
                                       &default_txn_state_, &trace));
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  ExplainAnalyzeResult out;
  out.text = obs::RenderPlanTree(*result.plan, /*with_actuals=*/true);
  obs::JsonWriter w;
  w.BeginObject();
  // Statement-shape fingerprint plus plan hash, so EXPLAIN ANALYZE output
  // joins against elephant_stat_statements.
  w.Key("sql_fingerprint").String(obs::HexHash(obs::FingerprintSql(sql)));
  w.Key("plan_hash")
      .String(obs::HexHash(obs::PlanShapeHash(
          obs::RenderPlanTree(*result.plan, /*with_actuals=*/false))));
  w.Key("plan");
  obs::AppendPlanJson(*result.plan, /*with_actuals=*/true, &w);
  w.Key("rows").UInt(result.rows.size());
  w.Key("io");
  obs::AppendIoJson(result.io, &w);
  w.Key("cpu_seconds").Double(result.cpu_seconds);
  w.Key("io_seconds").Double(result.io_seconds);
  w.Key("total_seconds").Double(result.TotalSeconds());
  w.Key("waits");
  result.wait_profile.AppendJson(&w);
  w.Key("phases");
  result.trace->AppendJson(&w);
  w.EndObject();
  out.json = std::move(w).str();
  out.result = std::move(result);
  return out;
}

Result<QueryResult> Database::Execute(const std::string& sql,
                                      PlanHints extra_hints,
                                      SessionTxnState* session) {
  // Per-statement wait attribution: every WaitScope this thread (and, via
  // TaskGroup, this statement's workers) enters folds into this sink in
  // addition to the global registry. Installed here — above parse and lock
  // acquisition — so a statement that spends its life parked on a table lock
  // shows that time in its profile, not just in engine-wide counters.
  obs::WaitSink sink;
  obs::WaitSinkScope sink_scope(&sink);
  const auto wall_start = std::chrono::steady_clock::now();
  Result<QueryResult> r = ExecuteStatement(sql, extra_hints, session);
  if (!r.ok()) return r.status();
  QueryResult qr = std::move(r).value();
  qr.wait_profile = sink.ToProfile();
  qr.wall_seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
  return qr;
}

Result<QueryResult> Database::ExecuteInto(const std::string& sql, Batch* out) {
  // Its own wait sink and phase trace, as Execute() installs, so a load run
  // by another statement's refresh does not count in that statement's.
  obs::WaitSink sink;
  obs::WaitSinkScope sink_scope(&sink);
  obs::QueryTrace trace;
  obs::QueryTraceScope trace_scope(&trace);
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt, ParseSelect(sql));
  ++stats_.statements[static_cast<size_t>(StatementKind::kSelect)];
  ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(default_txn_state_, sql));
  return ExecuteSelectWithLocks(sql, std::move(stmt), {}, /*instrument=*/false,
                                &default_txn_state_, out);
}

Result<QueryResult> Database::ExecuteStatement(const std::string& sql,
                                               PlanHints extra_hints,
                                               SessionTxnState* session) {
  // Root span of the statement: everything this statement does — parse,
  // bind, plan, execute, worker tasks, page faults — nests under it.
  std::optional<obs::TraceSpan> statement_span;
  if (obs::TraceLog::Global().enabled()) {
    statement_span.emplace("statement", "engine", obs::TraceArgs{{"sql", sql}});
  }
  SessionTxnState* ts = session != nullptr ? session : &default_txn_state_;
  obs::QueryTrace trace;
  obs::QueryTraceScope trace_scope(&trace);
  Statement stmt;
  {
    auto span = obs::TraceSpan::Phase("parse");
    ELE_ASSIGN_OR_RETURN(stmt, ParseStatement(sql));
  }
  ++stats_.statements[static_cast<size_t>(stmt.kind)];
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*ts, sql));
      Result<QueryResult> r =
          ExecuteSelectWithLocks(sql, std::move(stmt.select), extra_hints,
                                 /*instrument=*/false, ts);
      if (!r.ok()) return r.status();
      QueryResult qr = std::move(r).value();
      qr.trace = std::make_shared<obs::QueryTrace>(std::move(trace));
      return qr;
    }
    case StatementKind::kBegin:
    case StatementKind::kCommit:
    case StatementKind::kRollback:
    case StatementKind::kCheckpoint:
      return ExecuteTxnControl(stmt.kind, sql, ts);
    case StatementKind::kInsert:
    case StatementKind::kDelete:
    case StatementKind::kUpdate:
      return ExecuteDml(stmt, sql, ts);
    case StatementKind::kExplain: {
      // Plain EXPLAIN takes no locks: it reads only the catalog and
      // statistics. EXPLAIN ANALYZE executes, so below it goes through the
      // same shared-lock protocol as a SELECT — which is exactly what lets
      // it *observe* a lock conflict instead of racing past it.
      if (!stmt.explain_analyze) {
        ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*ts, sql));
        ELE_ASSIGN_OR_RETURN(PlannedQuery plan,
                             PlanSelect(*stmt.select, extra_hints));
        QueryResult qr = PlanTextResult(plan.explain);
        qr.plan = std::shared_ptr<const obs::PlanNode>(std::move(plan.plan));
        qr.trace = std::make_shared<obs::QueryTrace>(std::move(trace));
        return qr;
      }
      ELE_ASSIGN_OR_RETURN(QueryResult inner,
                           RunInstrumented(sql, std::move(stmt.select),
                                           extra_hints, ts, &trace));
      std::string text = obs::RenderPlanTree(*inner.plan, /*with_actuals=*/true);
      char buf[384];
      std::snprintf(buf, sizeof(buf),
                    "Execution: rows=%zu io_seq=%llu io_rand=%llu "
                    "prefetch_hits=%llu cols_decoded=%llu hash_ins=%llu "
                    "hash_probes=%llu values=%llu | measured "
                    "cpu=%.3fms | modeled io=%.3fms | modeled total=%.3fms\n",
                    inner.rows.size(),
                    static_cast<unsigned long long>(inner.io.sequential_reads),
                    static_cast<unsigned long long>(inner.io.random_reads),
                    static_cast<unsigned long long>(
                        inner.io.readahead.prefetch_hits),
                    static_cast<unsigned long long>(
                        inner.counters.columns_decoded),
                    static_cast<unsigned long long>(
                        inner.counters.hash_inserts),
                    static_cast<unsigned long long>(inner.counters.hash_probes),
                    static_cast<unsigned long long>(
                        inner.counters.values_materialized),
                    inner.cpu_seconds * 1e3, inner.io_seconds * 1e3,
                    inner.TotalSeconds() * 1e3);
      text += buf;
      text += "Phases: " + inner.trace->ToString() + "\n";
      if (obs::CurrentWaitSink() != nullptr) {
        text += "Waits: " + inner.wait_profile.ToString() + "\n";
      }
      QueryResult qr = PlanTextResult(text);
      qr.counters = inner.counters;
      qr.io = inner.io;
      qr.cpu_seconds = inner.cpu_seconds;
      qr.io_seconds = inner.io_seconds;
      qr.plan = inner.plan;
      qr.trace = inner.trace;
      return qr;
    }
    case StatementKind::kCreateTable: {
      ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*ts, sql));
      if (ts->txn != nullptr) {
        return Status::FailedPrecondition(
            "DDL is not transactional: statement \"" + sql +
            "\" must run outside BEGIN/COMMIT (transaction state: " +
            txn::TxnStateName(ts->txn->state) + ")");
      }
      const CreateTableStmt& ct = *stmt.create_table;
      std::vector<Column> cols;
      for (const ColumnDef& cd : ct.columns) {
        cols.emplace_back(cd.name, cd.type, cd.length);
      }
      Schema schema(cols);
      std::vector<size_t> cluster;
      for (const std::string& name : ct.cluster_by) {
        const int idx = schema.FindColumn(name);
        if (idx < 0) {
          return Status::BindError("unknown CLUSTER BY column " + name);
        }
        cluster.push_back(static_cast<size_t>(idx));
      }
      ELE_RETURN_NOT_OK(catalog_->CreateTable(ct.name, schema, cluster).status());
      // DDL is checkpointed, not logged: the meta page's catalog blob is the
      // durable record of the schema.
      if (log_ != nullptr) ELE_RETURN_NOT_OK(Checkpoint());
      return QueryResult{};
    }
    case StatementKind::kCreateIndex: {
      ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*ts, sql));
      if (ts->txn != nullptr) {
        return Status::FailedPrecondition(
            "DDL is not transactional: statement \"" + sql +
            "\" must run outside BEGIN/COMMIT (transaction state: " +
            txn::TxnStateName(ts->txn->state) + ")");
      }
      const CreateIndexStmt& ci = *stmt.create_index;
      ELE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(ci.table_name));
      std::vector<size_t> keys, includes;
      for (const std::string& name : ci.key_columns) {
        const int idx = table->schema().FindColumn(name);
        if (idx < 0) return Status::BindError("unknown index column " + name);
        keys.push_back(static_cast<size_t>(idx));
      }
      for (const std::string& name : ci.include_columns) {
        const int idx = table->schema().FindColumn(name);
        if (idx < 0) return Status::BindError("unknown INCLUDE column " + name);
        includes.push_back(static_cast<size_t>(idx));
      }
      // The build holds the table's exclusive lock: readers, whose plans
      // walk the index list it extends, and writers wait. With a log, an
      // uncommitted change it copied into the new tree would be left there
      // by the rollback, whose log records name only the trees that
      // existed; and the lock is held until the checkpoint has put the
      // index in the durable catalog, so no change to the new tree is
      // logged before recovery can find it.
      const txn_id_t locker = next_read_locker_.fetch_add(1);
      Status built = lock_mgr_->Acquire(locker, table->name(),
                                        txn::LockManager::Mode::kExclusive,
                                        options_.lock_timeout_seconds);
      if (built.ok()) {
        built = table->CreateSecondaryIndex(ci.index_name, keys, includes);
      }
      if (built.ok() && log_ != nullptr) built = Checkpoint();
      lock_mgr_->ReleaseAll(locker);
      ELE_RETURN_NOT_OK(built);
      return QueryResult{};
    }
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::CheckNotInAbortedTxn(const SessionTxnState& state,
                                      const std::string& sql) const {
  if (state.txn == nullptr || state.txn->state != txn::TxnState::kAborted) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "current transaction is aborted (state: " +
      std::string(txn::TxnStateName(state.txn->state)) +
      "), commands ignored until ROLLBACK: statement \"" + sql +
      "\" rejected; transaction failed at \"" + state.txn->failed_statement +
      "\"");
}

Status Database::AbortTxn(txn::Transaction* t, const std::string& sql,
                          SessionTxnState* state) {
  // The failed statement already poisoned the transaction's effects, so roll
  // back now rather than waiting for the client's ROLLBACK. An explicit
  // transaction then parks in kAborted limbo (PostgreSQL-style): every later
  // statement is rejected until the client acknowledges with ROLLBACK or
  // COMMIT. An implicit (autocommit) transaction just dies.
  Status rb = RollbackTxn(t);
  if (!rb.ok()) {
    // An incomplete rollback means uncommitted changes may still be visible
    // until recovery replays the WAL. This must never be silent: count it
    // and hand the status to the caller to fold into the client's error.
    ++stats_.rollback_failures;
  }
  if (!t->implicit()) {
    t->state = txn::TxnState::kAborted;
    t->failed_statement = sql;
  }
  return rb;
}

Status Database::RollbackTxn(txn::Transaction* t) {
  // Before the rollback releases t's exclusive base locks: until then no
  // other writer can append after t's rows and no refresh can be reading
  // them. The insert log does not depend on the tree undo.
  for (const std::string& name : t->inserted_into) {
    catalog_->DiscardInserts(name, t->id());
  }
  for (const std::string& name : t->changed) catalog_->MarkDependentsStale(name);
  return txn_mgr_->Rollback(t);
}

Status Database::CombineWithRollbackFailure(const Status& primary,
                                            const Status& rollback) {
  if (rollback.ok()) return primary;
  return Status(primary.code(),
                primary.message() + " (rollback also failed: " +
                    rollback.ToString() +
                    "; uncommitted changes may persist until recovery)");
}

Result<QueryResult> Database::ExecuteTxnControl(StatementKind kind,
                                                const std::string& sql,
                                                SessionTxnState* state) {
  if (log_ == nullptr) {
    return Status::NotSupported(
        "transaction control requires the WAL engine "
        "(DatabaseOptions::wal_enabled): statement \"" + sql + "\"");
  }
  switch (kind) {
    case StatementKind::kBegin: {
      if (state->txn != nullptr) {
        ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*state, sql));
        return Status::FailedPrecondition(
            "a transaction is already in progress");
      }
      state->txn = txn_mgr_->Begin(/*implicit=*/false);
      return QueryResult{};
    }
    case StatementKind::kCommit: {
      if (state->txn == nullptr) {
        return Status::FailedPrecondition("COMMIT: no transaction in progress");
      }
      std::unique_ptr<txn::Transaction> t = std::move(state->txn);
      if (t->state == txn::TxnState::kAborted) {
        // The failed statement already rolled the work back; COMMIT of an
        // aborted transaction just closes it, exactly like ROLLBACK.
        return QueryResult{};
      }
      ELE_RETURN_NOT_OK(txn_mgr_->Commit(t.get()));
      return QueryResult{};
    }
    case StatementKind::kRollback: {
      if (state->txn == nullptr) {
        return Status::FailedPrecondition(
            "ROLLBACK: no transaction in progress");
      }
      std::unique_ptr<txn::Transaction> t = std::move(state->txn);
      if (t->state == txn::TxnState::kAborted) return QueryResult{};
      ELE_RETURN_NOT_OK(RollbackTxn(t.get()));
      return QueryResult{};
    }
    case StatementKind::kCheckpoint: {
      ELE_RETURN_NOT_OK(Checkpoint());
      return QueryResult{};
    }
    default:
      return Status::Internal("not a transaction-control statement");
  }
}

Result<QueryResult> Database::ExecuteDml(const Statement& stmt,
                                         const std::string& sql,
                                         SessionTxnState* state) {
  const std::string* table_name = nullptr;
  switch (stmt.kind) {
    case StatementKind::kInsert:
      table_name = &stmt.insert->table_name;
      break;
    case StatementKind::kDelete:
      table_name = &stmt.delete_stmt->table_name;
      break;
    case StatementKind::kUpdate:
      table_name = &stmt.update_stmt->table_name;
      break;
    default:
      return Status::Internal("not a DML statement");
  }
  if (catalog_->GetVirtualTable(*table_name) != nullptr ||
      Catalog::IsReservedName(*table_name)) {
    return Status::BindError(
        "cannot write to virtual system table \"" + *table_name +
        "\": statement \"" + sql + "\" rejected (transaction state: " +
        (state->txn != nullptr
             ? std::string(txn::TxnStateName(state->txn->state))
             : std::string("autocommit")) +
        ")");
  }
  ELE_RETURN_NOT_OK(CheckNotInAbortedTxn(*state, sql));
  ELE_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(*table_name));
  if (log_ == nullptr && stmt.kind != StatementKind::kInsert) {
    // Nothing could undo a DELETE or UPDATE that fails part-way.
    return Status::NotSupported(
        std::string(stmt.kind == StatementKind::kDelete ? "DELETE" : "UPDATE") +
        " requires the transactional write path "
        "(DatabaseOptions::wal_enabled)");
  }
  if (catalog_->IsDerived(table->name())) {
    return Status::BindError(
        "table \"" + table->name() +
        "\" is derived (materialized view or c-table) and is rebuilt from "
        "its base tables; write to the bases instead: statement \"" + sql +
        "\" rejected");
  }

  const bool autocommit = state->txn == nullptr;
  std::unique_ptr<txn::Transaction> implicit_txn;
  txn::Transaction* t = state->txn.get();
  if (autocommit) {
    // Without a log the statement runs under a bare lock owner: there is
    // nothing to commit or undo.
    implicit_txn = txn_mgr_ != nullptr
                       ? txn_mgr_->Begin(/*implicit=*/true)
                       : std::make_unique<txn::Transaction>(
                             next_read_locker_.fetch_add(1), /*implicit=*/true);
    t = implicit_txn.get();
  }

  auto run = [&]() -> Result<uint64_t> {
    ELE_RETURN_NOT_OK(lock_mgr_->Acquire(t->id(), table->name(),
                                         txn::LockManager::Mode::kExclusive,
                                         options_.lock_timeout_seconds));
    switch (stmt.kind) {
      case StatementKind::kInsert:
        return RunInsert(*stmt.insert, table, t);
      case StatementKind::kDelete:
        return RunDelete(*stmt.delete_stmt, table, t);
      default:
        return RunUpdate(*stmt.update_stmt, table, t);
    }
  };
  Result<uint64_t> changed = run();
  if (log_ == nullptr) {
    // The lock ends with the statement, and the rows a failed INSERT stored
    // before its error stay stored.
    lock_mgr_->ReleaseAll(t->id());
  } else if (!changed.ok()) {
    if (autocommit) {
      Status rb = RollbackTxn(t);
      if (!rb.ok()) ++stats_.rollback_failures;
      return CombineWithRollbackFailure(changed.status(), rb);
    }
    return CombineWithRollbackFailure(changed.status(),
                                      AbortTxn(t, sql, state));
  } else if (autocommit) {
    // Commit is the only durability point: if the group flush fails, the
    // transaction did NOT commit and the error surfaces here.
    ELE_RETURN_NOT_OK(txn_mgr_->Commit(t));
  }
  ELE_RETURN_NOT_OK(changed.status());
  QueryResult qr;
  qr.counters.rows_output = changed.value();
  return qr;
}

Result<uint64_t> Database::RunInsert(const InsertStmt& ins, Table* table,
                                     txn::Transaction* t) {
  const Schema& schema = table->schema();
  t->inserted_into.insert(table->name());
  const TxnWriteContext ctx{log_.get(), t->id(), &t->last_lsn};
  std::vector<std::pair<std::string, Row>> inserted;
  inserted.reserve(ins.rows.size());
  auto insert_rows = [&]() -> Status {
    for (const auto& row_exprs : ins.rows) {
      ELE_ASSIGN_OR_RETURN(Row row, LiteralRow(row_exprs, schema));
      std::string ckey;
      ELE_RETURN_NOT_OK(table->Insert(row, ctx, &ckey));
      inserted.emplace_back(std::move(ckey), std::move(row));
    }
    return Status::OK();
  };
  const Status s = insert_rows();
  // Recorded even when a later row failed: with a log the rollback's
  // DiscardInserts takes the transaction's rows out again; without one
  // nothing undoes the rows already stored.
  catalog_->RecordInserts(table->name(), t->id(), std::move(inserted));
  ELE_RETURN_NOT_OK(s);
  return static_cast<uint64_t>(ins.rows.size());
}

Result<uint64_t> Database::RunDelete(const DeleteStmt& del, Table* table,
                                     txn::Transaction* t) {
  ExprPtr pred;
  if (del.where != nullptr) {
    Binder binder(catalog_.get());
    ELE_ASSIGN_OR_RETURN(pred, binder.BindOverTable(*del.where, *table));
  }
  ELE_ASSIGN_OR_RETURN(auto victims, CollectVictims(*table, pred.get()));
  t->changed.insert(table->name());
  const TxnWriteContext ctx{log_.get(), t->id(), &t->last_lsn};
  for (auto& [ckey, row] : victims) {
    ELE_RETURN_NOT_OK(table->Delete(ckey, row, ctx));
  }
  catalog_->MarkDependentsStale(table->name());
  return static_cast<uint64_t>(victims.size());
}

Result<uint64_t> Database::RunUpdate(const UpdateStmt& upd, Table* table,
                                     txn::Transaction* t) {
  const Schema& schema = table->schema();
  Binder binder(catalog_.get());
  struct SetTarget {
    size_t col;
    ExprPtr expr;
  };
  std::vector<SetTarget> sets;
  bool changes_cluster = false;
  for (const auto& [name, expr] : upd.sets) {
    const int idx = schema.FindColumn(name);
    if (idx < 0) return Status::BindError("unknown SET column " + name);
    ELE_ASSIGN_OR_RETURN(ExprPtr bound, binder.BindOverTable(*expr, *table));
    const size_t col = static_cast<size_t>(idx);
    const auto& cluster = table->cluster_cols();
    if (std::find(cluster.begin(), cluster.end(), col) != cluster.end()) {
      changes_cluster = true;
    }
    sets.push_back(SetTarget{col, std::move(bound)});
  }
  ExprPtr pred;
  if (upd.where != nullptr) {
    ELE_ASSIGN_OR_RETURN(pred, binder.BindOverTable(*upd.where, *table));
  }
  ELE_ASSIGN_OR_RETURN(auto victims, CollectVictims(*table, pred.get()));
  t->changed.insert(table->name());
  const TxnWriteContext ctx{log_.get(), t->id(), &t->last_lsn};
  for (auto& [ckey, before] : victims) {
    Row after = before;
    for (const SetTarget& st : sets) {
      ELE_ASSIGN_OR_RETURN(Value v, st.expr->Eval(before));
      const Column& column = schema.ColumnAt(st.col);
      if (v.type() != column.type && !v.is_null()) {
        // As for INSERT (LiteralRow): a value the column cannot hold fails
        // the statement, which rolls it back, instead of being stored.
        auto cast = v.CastTo(column.type);
        if (!cast.ok()) {
          return Status::InvalidArgument("UPDATE SET " + column.name + ": " +
                                         cast.status().message());
        }
        v = std::move(cast).value();
      }
      after[st.col] = std::move(v);
    }
    if (changes_cluster) {
      // A clustering-key change moves the row, so it logs as delete+insert
      // (the same decomposition PostgreSQL uses for every UPDATE).
      ELE_RETURN_NOT_OK(table->Delete(ckey, before, ctx));
      ELE_RETURN_NOT_OK(table->Insert(after, ctx));
    } else {
      ELE_RETURN_NOT_OK(table->Update(ckey, before, after, ctx));
    }
  }
  catalog_->MarkDependentsStale(table->name());
  return static_cast<uint64_t>(victims.size());
}

Result<std::vector<std::string>> Database::RefreshSelectTables(
    const SelectStmt& stmt, txn_id_t locker) {
  std::vector<std::string> names;
  CollectTableNames(stmt, &names);
  std::vector<std::string> tables;
  for (const std::string& n : names) {
    if (catalog_->GetVirtualTable(n) != nullptr) continue;
    Result<Table*> t = catalog_->GetTable(n);
    if (!t.ok()) continue;  // unknown tables get the binder's real error
    tables.push_back(t.value()->name());
  }
  // Sorted, deduplicated acquisition order: every statement locks tables in
  // the same (lexicographic) order, so statements cannot deadlock each other.
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  // A full rebuild re-enters Execute() for the materialization query, which
  // takes its own reader locks on the base tables: refresh before this
  // statement locks anything.
  for (const std::string& name : tables) {
    if (catalog_->IsStale(name)) ELE_RETURN_NOT_OK(RefreshDerived(name, locker));
  }
  return tables;
}

Status Database::RefreshDerived(const std::string& name, txn_id_t locker) {
  // Shared locks on the bases, as a SELECT over them would take: the refresh
  // waits out (or times out on) every writer, so it never applies another
  // transaction's uncommitted inserts, and the bases hold still under it.
  // Then an exclusive lock on the derived table: concurrent readers of one
  // stale view refresh it one at a time (the later ones find nothing
  // pending, so no insert is merged twice), and none reads it mid-merge.
  std::vector<std::string> bases;
  for (const std::string& base : catalog_->DerivedBases(name)) {
    ELE_ASSIGN_OR_RETURN(Table * t, catalog_->GetTable(base));
    bases.push_back(t->name());  // lock names are the tables' own spelling
  }
  std::sort(bases.begin(), bases.end());
  ELE_ASSIGN_OR_RETURN(Table * derived, catalog_->GetTable(name));
  std::vector<std::string> acquired;
  Status s = AcquireShared(locker, bases, &acquired);
  if (s.ok()) {
    s = lock_mgr_->Acquire(locker, derived->name(),
                           txn::LockManager::Mode::kExclusive,
                           options_.lock_timeout_seconds);
  }
  if (s.ok()) {
    s = catalog_->RebuildIfStale(name);
    lock_mgr_->Release(locker, derived->name(),
                       txn::LockManager::Mode::kExclusive);
  }
  for (const std::string& base : acquired) {
    lock_mgr_->Release(locker, base, txn::LockManager::Mode::kShared);
  }
  return s;
}

Status Database::PrepareSelectTables(const SelectStmt& stmt, txn_id_t locker,
                                     std::vector<std::string>* acquired) {
  ELE_ASSIGN_OR_RETURN(std::vector<std::string> tables,
                       RefreshSelectTables(stmt, locker));
  return AcquireShared(locker, tables, acquired);
}

Status Database::AcquireShared(txn_id_t locker,
                               const std::vector<std::string>& tables,
                               std::vector<std::string>* acquired) {
  for (const std::string& name : tables) {
    if (lock_mgr_->Holds(locker, name, txn::LockManager::Mode::kShared)) {
      continue;
    }
    ELE_RETURN_NOT_OK(lock_mgr_->Acquire(locker, name,
                                         txn::LockManager::Mode::kShared,
                                         options_.lock_timeout_seconds));
    acquired->push_back(name);
  }
  return Status::OK();
}

}  // namespace elephant
