#pragma once

#include <string_view>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "wal/log_record.h"

namespace elephant {

class BufferPool;
class PageGuard;

namespace wal {

class LogManager;

/// Where a logged B+-tree change goes: the transaction whose backward
/// record chain `last_lsn` heads, and the tree the change names. While a
/// change is being undone, `compensation` turns its leaf change into a CLR
/// that resumes the undo at `undo_next_lsn`.
struct TreeWriter {
  LogManager* log = nullptr;
  BufferPool* pool = nullptr;
  txn_id_t txn_id = kInvalidTxnId;
  lsn_t* last_lsn = nullptr;
  uint32_t table_id = 0;
  uint8_t tree = 0;  ///< 0 = clustered, i = secondary index i - 1
  bool compensation = false;
  lsn_t undo_next_lsn = kInvalidLsn;
};

// The ONLY functions that change a B+-tree page cell by cell (enforced by
// the elephant_lint `wal-protocol` rule, which keeps record construction
// and frame-LSN stamping in src/wal/ and src/txn/). Each follows the WAL
// discipline: append the record (after the page's image when it is the
// page's first change since the checkpoint), apply the change, mark the
// page dirty, record the frame LSN with the pool. `w == nullptr` applies
// the change unlogged: the non-WAL engine, derived tables and bulk loads.
//
// A leaf change joins the transaction's chain, so undo can reverse it by
// key. A split joins no chain: it is redo-only, and a rolled-back insert
// keeps it.

/// Inserts (key, value) at `pos`, compacting first when the free space is
/// fragmented. The caller guarantees the cell fits.
void InsertCell(const TreeWriter* w, PageGuard* page, int pos,
                std::string_view key, std::string_view value);

/// Removes the cell at `pos`.
void RemoveCell(const TreeWriter* w, PageGuard* page, int pos);

/// Overwrites the value at `pos` with one of the same size.
void SetValue(const TreeWriter* w, PageGuard* page, int pos,
              std::string_view value);

/// Finishes a split whose pages the caller has already rewritten (all
/// still pinned): inserts the separator (key, value) at `pos` of `parent`
/// when the split stopped below the root (`parent` null: it reached the
/// root), then logs the whole split — every page of `rewrote` as an image,
/// and the separator insert — as one record, before any of its pages gets
/// an LSN. No flush, eviction or torn log tail can make half of it durable.
void LogSplit(const TreeWriter* w, const std::vector<PageGuard*>& rewrote,
              PageGuard* parent, int pos, std::string_view key,
              std::string_view value);

/// Repeats `rec` (ending at `lsn`) on its page; control records are
/// skipped and leave `*applied` false. Redo needs no page LSN: it replays
/// every record after the checkpoint in order, and each page's first one is
/// an image.
Status RedoRecord(BufferPool* pool, const LogRecord& rec, lsn_t lsn,
                  bool* applied);

}  // namespace wal
}  // namespace elephant
