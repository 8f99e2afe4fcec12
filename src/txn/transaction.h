#pragma once

#include <set>
#include <string>

#include "common/config.h"

namespace elephant::txn {

/// Lifecycle of a transaction. kAborted is PostgreSQL's "current transaction
/// is aborted" limbo: a statement failed inside an explicit transaction, so
/// every further statement is rejected until ROLLBACK (or COMMIT, which
/// rolls back) ends the transaction.
enum class TxnState {
  kActive,
  kAborted,     ///< rollback-only: a statement failed, awaiting ROLLBACK
  kCommitted,
  kRolledBack,
};

const char* TxnStateName(TxnState s);

/// One transaction. Its write set lives in the WAL as a backward prev_lsn
/// chain headed by `last_lsn`: every logged tree change, which ROLLBACK
/// reverses by key.
class Transaction {
 public:
  Transaction(txn_id_t id, bool implicit) : id_(id), implicit_(implicit) {}

  txn_id_t id() const { return id_; }
  /// True for an autocommit transaction wrapping one bare DML statement.
  bool implicit() const { return implicit_; }

  TxnState state = TxnState::kActive;
  /// Head of this transaction's WAL record chain (the undo cursor).
  lsn_t last_lsn = kInvalidLsn;
  /// Tables this transaction INSERTed into, and tables it DELETEd from or
  /// UPDATEd: what a rollback must tell their derived tables.
  std::set<std::string> inserted_into;
  std::set<std::string> changed;
  /// The statement that put the transaction into kAborted (quoted in the
  /// rejection message every later statement gets).
  std::string failed_statement;

 private:
  const txn_id_t id_;
  const bool implicit_;
};

}  // namespace elephant::txn
