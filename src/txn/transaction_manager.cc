#include "txn/transaction_manager.h"

#include "catalog/catalog.h"

namespace elephant::txn {

const char* TxnStateName(TxnState s) {
  switch (s) {
    case TxnState::kActive: return "active";
    case TxnState::kAborted: return "aborted";
    case TxnState::kCommitted: return "committed";
    case TxnState::kRolledBack: return "rolled back";
  }
  return "unknown";
}

std::unique_ptr<Transaction> TransactionManager::Begin(bool implicit) {
  txn_id_t id;
  {
    MutexLock lock(mu_);
    id = next_id_++;
    stats_.begun++;
    stats_.active++;
  }
  auto t = std::make_unique<Transaction>(id, implicit);
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kBegin;
  rec.txn_id = id;
  t->last_lsn = log_->Append(rec);
  return t;
}

Status TransactionManager::Commit(Transaction* t) {
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kCommit;
  rec.txn_id = t->id();
  rec.prev_lsn = t->last_lsn;
  const lsn_t lsn = log_->Append(rec);
  t->last_lsn = lsn;
  const Status flush = log_->FlushUntil(lsn);
  if (!flush.ok()) {
    // The commit record never reached stable storage: this transaction is
    // NOT committed, and recovery undoes it at the next restart. Until then
    // it keeps its table locks, as a failed rollback does, so no other
    // transaction reads its changes or commits one built on them.
    t->state = TxnState::kAborted;
    MutexLock lock(mu_);
    stats_.aborted++;
    stats_.active--;
    return flush;
  }
  t->state = TxnState::kCommitted;
  locks_->ReleaseAll(t->id());
  MutexLock lock(mu_);
  stats_.committed++;
  stats_.active--;
  return Status::OK();
}

Status TransactionManager::Rollback(Transaction* t) {
  // Walk the backward WAL chain, undoing each change with a CLR — the same
  // step recovery undo takes, so a crash during rollback is recovered
  // exactly like a crash during recovery undo.
  Status status = Status::OK();
  lsn_t cursor = t->last_lsn;
  while (cursor != kInvalidLsn && status.ok()) {
    auto rec = log_->ReadRecordEndingAt(cursor);
    if (!rec.ok()) {
      status = rec.status();
      break;
    }
    if (rec->type == wal::LogRecordType::kClr) {
      cursor = rec->undo_next_lsn;
      continue;
    }
    status = Undo(*rec, &t->last_lsn);
    cursor = rec->prev_lsn;
  }
  if (status.ok()) {
    wal::LogRecord abort;
    abort.type = wal::LogRecordType::kAbort;
    abort.txn_id = t->id();
    abort.prev_lsn = t->last_lsn;
    t->last_lsn = log_->Append(abort);
  }
  t->state = TxnState::kRolledBack;
  // A failed undo leaves some of t's changes in the trees, which recovery
  // undoes from the log at the next restart. Until then t keeps its table
  // locks, so no other transaction reads those changes or commits one
  // built on them that recovery's undo by key would then trip over.
  if (status.ok()) locks_->ReleaseAll(t->id());
  {
    MutexLock lock(mu_);
    stats_.aborted++;
    stats_.active--;
  }
  return status;
}

Status TransactionManager::Undo(const wal::LogRecord& rec, lsn_t* last_lsn) {
  TreeChange change;
  switch (rec.type) {
    case wal::LogRecordType::kInsert:
      change = TreeChange::kInserted;
      break;
    case wal::LogRecordType::kDelete:
      change = TreeChange::kDeleted;
      break;
    case wal::LogRecordType::kUpdate:
      change = TreeChange::kUpdated;
      break;
    default:
      return Status::OK();  // BEGIN and the like change nothing undoable
  }
  // A table or index the catalog does not name was created after the last
  // durable checkpoint, and its DDL's checkpoint failed: after a reopen
  // nothing reaches its tree, so there is nothing to undo.
  Result<Table*> found = catalog_->GetTableById(rec.table_id);
  if (found.status().IsNotFound()) return Status::OK();
  ELE_ASSIGN_OR_RETURN(Table * table, std::move(found));
  if (rec.tree > table->secondary_indexes().size()) return Status::OK();
  wal::TreeWriter w{log_, catalog_->pool(), rec.txn_id, last_lsn,
                    rec.table_id, rec.tree};
  w.compensation = true;
  w.undo_next_lsn = rec.prev_lsn;
  return table->Undo(change, rec.tree, rec.key, rec.before, w);
}

Status TransactionManager::Recover(lsn_t checkpoint_lsn,
                                   wal::RecoveryStats* stats) {
  return wal::Recover(
      log_, catalog_->pool(), checkpoint_lsn,
      [this](const wal::LogRecord& rec, lsn_t* last_lsn) {
        return Undo(rec, last_lsn);
      },
      stats);
}

TxnStats TransactionManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace elephant::txn
