#include "wal/tree_ops.h"

#include <cstring>
#include <string>

#include "storage/btree_node.h"
#include "storage/buffer_pool.h"
#include "wal/log_manager.h"

namespace elephant::wal {

namespace {

/// The page's image without the free hole between the slot array and the
/// cell data; `slot` records where the hole starts.
LogRecord ImageRecord(const TreeWriter& w, PageGuard* page) {
  BTreeNode node(page->data());
  const uint32_t hole = BTreeNode::kHeaderBytes + node.Count() * BTreeNode::kSlotBytes;
  const uint32_t hole_end = hole + node.ContiguousFree();
  LogRecord rec;
  rec.type = LogRecordType::kPageImage;
  rec.page_id = page->page_id();
  rec.table_id = w.table_id;
  rec.tree = w.tree;
  rec.slot = static_cast<slot_id_t>(hole);
  rec.after.assign(page->data(), hole);
  rec.after.append(page->data() + hole_end, kPageSize - hole_end);
  return rec;
}

void ApplyInsert(BTreeNode* node, int pos, std::string_view key,
                 std::string_view value) {
  if (BTreeNode::CellBytes(key.size(), value.size()) > node->ContiguousFree()) {
    node->Compact();
  }
  node->InsertCell(pos, key, value);
}

/// Appends `rec` as a change to the leaf `page`, chained into the
/// transaction (as a CLR while compensating).
lsn_t AppendChange(const TreeWriter& w, PageGuard* page, LogRecord* rec) {
  rec->page_id = page->page_id();
  rec->table_id = w.table_id;
  rec->tree = w.tree;
  rec->txn_id = w.txn_id;
  rec->prev_lsn = *w.last_lsn;
  if (w.compensation) {
    rec->clr_action = rec->type == LogRecordType::kInsert   ? ClrAction::kInsert
                      : rec->type == LogRecordType::kDelete ? ClrAction::kDelete
                                                            : ClrAction::kUpdate;
    rec->type = LogRecordType::kClr;
    rec->undo_next_lsn = w.undo_next_lsn;
  }
  *w.last_lsn = w.log->AppendPageChange(
      *rec, [&w, page] { return ImageRecord(w, page); });
  return *w.last_lsn;
}

void Applied(const TreeWriter* w, PageGuard* page, lsn_t lsn) {
  page->MarkDirty();
  if (w != nullptr) w->pool->RecordPageLsn(page->page_id(), lsn);
}

}  // namespace

void InsertCell(const TreeWriter* w, PageGuard* page, int pos,
                std::string_view key, std::string_view value) {
  lsn_t lsn = kInvalidLsn;
  if (w != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kInsert;
    rec.slot = static_cast<slot_id_t>(pos);
    rec.key.assign(key.data(), key.size());
    rec.after.assign(value.data(), value.size());
    lsn = AppendChange(*w, page, &rec);
  }
  BTreeNode node(page->data());
  ApplyInsert(&node, pos, key, value);
  Applied(w, page, lsn);
}

void RemoveCell(const TreeWriter* w, PageGuard* page, int pos) {
  BTreeNode node(page->data());
  lsn_t lsn = kInvalidLsn;
  if (w != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kDelete;
    rec.slot = static_cast<slot_id_t>(pos);
    rec.key = std::string(node.KeyAt(pos));
    rec.before = std::string(node.ValueAt(pos));
    lsn = AppendChange(*w, page, &rec);
  }
  node.RemoveCell(pos);
  Applied(w, page, lsn);
}

void SetValue(const TreeWriter* w, PageGuard* page, int pos,
              std::string_view value) {
  BTreeNode node(page->data());
  lsn_t lsn = kInvalidLsn;
  if (w != nullptr) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.slot = static_cast<slot_id_t>(pos);
    rec.key = std::string(node.KeyAt(pos));
    rec.before = std::string(node.ValueAt(pos));
    rec.after.assign(value.data(), value.size());
    lsn = AppendChange(*w, page, &rec);
  }
  node.SetValueInPlace(pos, value);
  Applied(w, page, lsn);
}

void LogSplit(const TreeWriter* w, const std::vector<PageGuard*>& rewrote,
              PageGuard* parent, int pos, std::string_view key,
              std::string_view value) {
  if (parent != nullptr) {
    BTreeNode node(parent->data());
    ApplyInsert(&node, pos, key, value);
  }
  lsn_t lsn = kInvalidLsn;
  if (w != nullptr) {
    std::vector<LogRecord> changes;
    for (PageGuard* page : rewrote) changes.push_back(ImageRecord(*w, page));
    if (parent != nullptr) {
      LogRecord rec;
      rec.type = LogRecordType::kInsert;
      rec.page_id = parent->page_id();
      rec.table_id = w->table_id;
      rec.tree = w->tree;
      rec.slot = static_cast<slot_id_t>(pos);
      rec.key.assign(key.data(), key.size());
      rec.after.assign(value.data(), value.size());
      changes.push_back(std::move(rec));
    }
    // The separator insert is the split's one cell change, so its page is
    // the only one that may still need an image.
    lsn = w->log->AppendSplit(std::move(changes), [w, parent](page_id_t) {
      return ImageRecord(*w, parent);
    });
  }
  for (PageGuard* page : rewrote) Applied(w, page, lsn);
  if (parent != nullptr) Applied(w, parent, lsn);
}

Status RedoRecord(BufferPool* pool, const LogRecord& rec, lsn_t lsn,
                  bool* applied) {
  *applied = false;
  if (rec.type == LogRecordType::kSplit) {
    std::string_view rest = rec.after;
    while (!rest.empty()) {
      auto change = LogRecord::Decode(rest);
      if (!change.ok()) {
        return Status::Corruption("redo: malformed split record at LSN " +
                                  std::to_string(lsn));
      }
      ELE_RETURN_NOT_OK(RedoRecord(pool, change->first, lsn, applied));
      rest.remove_prefix(change->second);
    }
    *applied = true;
    return Status::OK();
  }
  LogRecordType change = rec.type;
  if (rec.type == LogRecordType::kClr) {
    change = rec.clr_action == ClrAction::kInsert   ? LogRecordType::kInsert
             : rec.clr_action == ClrAction::kDelete ? LogRecordType::kDelete
                                                    : LogRecordType::kUpdate;
  }
  switch (change) {
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
    case LogRecordType::kUpdate:
    case LogRecordType::kPageImage:
      break;
    default:
      return Status::OK();  // control records carry no page change
  }
  ELE_ASSIGN_OR_RETURN(PageGuard guard, pool->FetchPageGuarded(rec.page_id));
  BTreeNode node(guard.data());
  const int pos = rec.slot;
  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("redo: ") + what + " at page " +
                              std::to_string(rec.page_id) + " slot " +
                              std::to_string(pos));
  };
  switch (change) {
    case LogRecordType::kPageImage: {
      if (rec.after.size() > kPageSize || rec.slot > rec.after.size()) {
        return corrupt("malformed page image");
      }
      const size_t hole = kPageSize - rec.after.size();
      std::memcpy(guard.data(), rec.after.data(), rec.slot);
      std::memset(guard.data() + rec.slot, 0, hole);
      std::memcpy(guard.data() + rec.slot + hole, rec.after.data() + rec.slot,
                  rec.after.size() - rec.slot);
      break;
    }
    case LogRecordType::kInsert:
      if (pos > node.Count() ||
          BTreeNode::CellBytes(rec.key.size(), rec.after.size()) >
              node.TotalFree()) {
        return corrupt("insert does not fit");
      }
      ApplyInsert(&node, pos, rec.key, rec.after);
      break;
    case LogRecordType::kDelete:
      if (pos >= node.Count() || node.KeyAt(pos) != rec.key) {
        return corrupt("delete finds another cell");
      }
      node.RemoveCell(pos);
      break;
    default:  // kUpdate
      if (pos >= node.Count() || node.KeyAt(pos) != rec.key ||
          node.ValueAt(pos).size() != rec.after.size()) {
        return corrupt("update finds another cell");
      }
      node.SetValueInPlace(pos, rec.after);
      break;
  }
  guard.MarkDirty();
  pool->RecordPageLsn(rec.page_id, lsn);
  *applied = true;
  return Status::OK();
}

}  // namespace elephant::wal
