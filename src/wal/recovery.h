#pragma once

#include <cstdint>
#include <functional>

#include "common/config.h"
#include "common/status.h"

namespace elephant {

class BufferPool;

namespace wal {

class LogManager;
struct LogRecord;

/// Logically undoes one record of a loser transaction, appending its CLR
/// to the chain `*last_lsn` heads; records that change nothing undoable
/// (BEGIN, structure) are skipped without logging. Runtime ROLLBACK
/// (TransactionManager::Undo) supplies the same function.
using UndoFn = std::function<Status(const LogRecord& rec, lsn_t* last_lsn)>;

/// What recovery did — surfaced in elephant_stat_wal after a reopen and
/// asserted by the crash-matrix harness.
struct RecoveryStats {
  uint64_t records_scanned = 0;  ///< valid records in the durable log
  uint64_t redo_applied = 0;     ///< page records replayed
  uint64_t committed_txns = 0;   ///< txns with a durable COMMIT
  uint64_t loser_txns = 0;       ///< txns undone (no COMMIT/ABORT on disk)
  uint64_t clrs_written = 0;     ///< compensation records appended by undo
  bool torn_tail = false;        ///< log ended in a damaged/partial record
  lsn_t log_end = kInvalidLsn;   ///< end of the valid log after truncation
};

/// ARIES-lite restart recovery:
///
///   1. **Analysis** — scan the durable log front to back, classifying every
///      transaction as winner (durable COMMIT), finished (durable ABORT) or
///      loser, and locating the torn tail (first record with a damaged CRC),
///      at which the log is truncated.
///   2. **Redo** — replay every page record after `checkpoint_lsn` in log
///      order ("repeating history"). Each page's first record after the
///      checkpoint is its image, so replay is exact whatever the page held
///      on disk. CLRs are redone like any other record, so rollback
///      progress from before the crash is preserved.
///   3. **Undo** — roll the losers back in descending LSN order through
///      `undo`, which reverses each change by key and appends a CLR, and
///      append an ABORT per finished loser; a CLR's undo_next_lsn makes
///      this pass itself crash-restartable.
///
/// The caller (Database::Reopen) opens the trees `undo` needs before, and
/// checkpoints afterwards.
Status Recover(LogManager* log, BufferPool* pool, lsn_t checkpoint_lsn,
               const UndoFn& undo, RecoveryStats* stats);

}  // namespace wal
}  // namespace elephant
