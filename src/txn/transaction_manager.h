#pragma once

#include <memory>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace elephant {

class Catalog;

namespace txn {

/// Lifetime counters surfaced via elephant_stat_transactions and Prometheus.
struct TxnStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;     ///< rolled back (explicit ROLLBACK or failure)
  uint64_t active = 0;
};

/// Begins, commits and rolls back transactions against the WAL.
///
/// COMMIT appends a commit record and group-flushes the log through it —
/// the only flush a transaction ever waits for. ROLLBACK walks the
/// transaction's backward WAL chain, undoing each change by key through its
/// tree and appending a CLR (Undo, exactly what recovery undo runs), then
/// appends an abort record that needs no flush.
class TransactionManager {
 public:
  TransactionManager(wal::LogManager* log, Catalog* catalog,
                     LockManager* locks)
      : log_(log), catalog_(catalog), locks_(locks) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Starts a transaction (logs BEGIN). `implicit` marks an autocommit
  /// wrapper around one bare DML statement.
  std::unique_ptr<Transaction> Begin(bool implicit);

  /// Durably commits: COMMIT record, group flush, release locks. On flush
  /// failure (injected crash / dropped fsync) the transaction is NOT
  /// committed — the caller reports the error, recovery rolls the data back
  /// on the next reopen, and t keeps its table locks until then.
  Status Commit(Transaction* t);

  /// Rolls back: undo via the WAL chain (CLR-logged), ABORT record,
  /// release locks. Safe to call on a transaction whose statement just
  /// failed mid-flight. When an undo step fails no ABORT is written, so
  /// recovery finishes the rollback after the next restart, and t keeps
  /// its table locks until then.
  Status Rollback(Transaction* t);

  /// Logical undo of one logged record: finds its table by id and reverses
  /// the change by key through the tree, appending a CLR chained at
  /// `*last_lsn`. Records that change nothing undoable are skipped, and so
  /// are records naming a table or index the catalog lacks. The one undo
  /// step of runtime ROLLBACK and of recovery (wal::UndoFn).
  Status Undo(const wal::LogRecord& rec, lsn_t* last_lsn);

  /// Restart recovery (wal::Recover) with Undo as its undo step. The
  /// catalog must already hold the logged tables.
  Status Recover(lsn_t checkpoint_lsn, wal::RecoveryStats* stats);

  LockManager* locks() const { return locks_; }

  TxnStats stats() const;

 private:
  wal::LogManager* const log_;
  Catalog* const catalog_;
  LockManager* const locks_;
  mutable Mutex mu_{LockRank::kTxnManager, "TransactionManager::mu_"};
  txn_id_t next_id_ GUARDED_BY(mu_) = 1;
  TxnStats stats_ GUARDED_BY(mu_);
};

}  // namespace txn
}  // namespace elephant
