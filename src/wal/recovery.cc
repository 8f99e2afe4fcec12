#include "wal/recovery.h"

#include <map>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "wal/tree_ops.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace elephant::wal {

namespace {

struct TxnState {
  lsn_t last_lsn = kInvalidLsn;
  bool finished = false;  ///< durable COMMIT or ABORT seen
  bool committed = false;
};

}  // namespace

Status Recover(LogManager* log, BufferPool* pool, lsn_t checkpoint_lsn,
               const UndoFn& undo, RecoveryStats* stats) {
  *stats = RecoveryStats{};

  // ---- Analysis: one front-to-back scan of the durable log. ------------
  // Kept in memory so undo can look records up by LSN; the log of a single
  // engine incarnation is small relative to the data it protects.
  std::vector<std::pair<LogRecord, lsn_t>> records;
  std::unordered_map<txn_id_t, TxnState> txns;
  lsn_t valid_end = kInvalidLsn;
  ELE_RETURN_NOT_OK(log->Scan([&](const LogRecord& rec, lsn_t lsn) {
    records.emplace_back(rec, lsn);
    valid_end = lsn;
    if (rec.txn_id != kInvalidTxnId) {
      TxnState& t = txns[rec.txn_id];
      t.last_lsn = lsn;
      if (rec.type == LogRecordType::kCommit) {
        t.finished = true;
        t.committed = true;
      } else if (rec.type == LogRecordType::kAbort) {
        t.finished = true;
      }
    }
    return Status::OK();
  }));
  stats->records_scanned = records.size();
  {
    const WalStats ws = log->stats();
    stats->torn_tail = ws.durable_lsn > valid_end;
  }
  // Drop the torn tail so fresh records (our CLRs) append after the last
  // valid one and LSNs stay equal to byte offsets.
  log->TruncateTo(valid_end);
  stats->log_end = valid_end;

  std::unordered_map<lsn_t, size_t> by_lsn;
  by_lsn.reserve(records.size());
  for (size_t i = 0; i < records.size(); i++) by_lsn[records[i].second] = i;

  // ---- Redo: repeat history after the checkpoint. ----------------------
  for (const auto& [rec, lsn] : records) {
    if (lsn <= checkpoint_lsn) continue;
    if (rec.page_id == kInvalidPageId) continue;
    bool applied = false;
    ELE_RETURN_NOT_OK(RedoRecord(pool, rec, lsn, &applied));
    if (applied) stats->redo_applied++;
  }

  // ---- Undo: roll back the losers, newest change first. ----------------
  // next_undo[txn] is the classic ARIES per-transaction undo cursor; the
  // global max-first order means no page ever sees an older undo before a
  // newer one.
  std::map<lsn_t, txn_id_t> next_undo;  // ordered: rbegin() = max LSN
  std::unordered_map<txn_id_t, lsn_t> undo_chain_head;
  for (const auto& [id, t] : txns) {
    if (t.finished) {
      if (t.committed) stats->committed_txns++;
      continue;
    }
    stats->loser_txns++;
    next_undo[t.last_lsn] = id;
    undo_chain_head[id] = t.last_lsn;
  }
  while (!next_undo.empty()) {
    const auto it = std::prev(next_undo.end());
    const lsn_t lsn = it->first;
    const txn_id_t txn = it->second;
    next_undo.erase(it);
    const auto found = by_lsn.find(lsn);
    if (found == by_lsn.end()) {
      return Status::Corruption("undo chain points at unknown LSN " +
                                std::to_string(lsn));
    }
    const LogRecord& rec = records[found->second].first;
    lsn_t next = kInvalidLsn;
    if (rec.type == LogRecordType::kClr) {
      // Already compensated before the crash: skip to what it was undoing
      // past. This is what makes a crash *during* rollback recoverable
      // without double-undo.
      next = rec.undo_next_lsn;
    } else {
      lsn_t& chain = undo_chain_head[txn];
      const lsn_t before = chain;
      ELE_RETURN_NOT_OK(undo(rec, &chain));
      if (chain != before) stats->clrs_written++;
      next = rec.prev_lsn;
    }
    if (next == kInvalidLsn) {
      LogRecord abort;
      abort.type = LogRecordType::kAbort;
      abort.txn_id = txn;
      abort.prev_lsn = undo_chain_head[txn];
      log->Append(abort);
    } else {
      next_undo[next] = txn;
    }
  }
  return Status::OK();
}

}  // namespace elephant::wal
