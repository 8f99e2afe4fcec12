#include "catalog/table.h"

#include <algorithm>
#include <set>

#include "wal/heap_ops.h"

namespace elephant {

namespace {

void AppendSeq(std::string* key, uint64_t seq) {
  for (int i = 7; i >= 0; i--) {
    key->push_back(static_cast<char>((seq >> (8 * i)) & 0xff));
  }
}

/// The trailing 8-byte big-endian sequence uniquifier of a clustering key.
uint64_t TrailingSeq(std::string_view ckey) {
  if (ckey.size() < 8) return 0;
  uint64_t v = 0;
  const char* p = ckey.data() + ckey.size() - 8;
  for (int i = 0; i < 8; i++) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

SecondaryEntry DecodeSecondaryValue(std::string_view value) {
  SecondaryEntry e;
  const uint16_t cklen = static_cast<uint16_t>(
      static_cast<unsigned char>(value[0]) |
      (static_cast<unsigned char>(value[1]) << 8));
  e.clustered_key.assign(value.data() + 2, cklen);
  e.include_bytes.assign(value.data() + 2 + cklen, value.size() - 2 - cklen);
  return e;
}

Result<std::unique_ptr<Table>> Table::Create(BufferPool* pool, std::string name,
                                             Schema schema,
                                             std::vector<size_t> cluster_cols,
                                             bool unique_cluster) {
  for (size_t c : cluster_cols) {
    if (c >= schema.NumColumns()) {
      return Status::InvalidArgument("cluster column index out of range");
    }
  }
  if (cluster_cols.empty()) unique_cluster = false;  // seq is the whole key
  auto table = std::unique_ptr<Table>(
      new Table(pool, std::move(name), std::move(schema), std::move(cluster_cols),
                unique_cluster));
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool));
  table->clustered_ = std::make_unique<BPlusTree>(tree);
  table->clustered_->SetAccessLabel(&table->access_label_);
  return table;
}

std::string Table::EncodeClusteredKey(const Row& row, uint64_t seq) const {
  std::string key = keycodec::EncodeKey(row, cluster_cols_);
  if (!unique_cluster_) AppendSeq(&key, seq);
  return key;
}

std::string Table::EncodeClusterPrefix(const std::vector<Value>& values) const {
  std::string key;
  for (const Value& v : values) keycodec::Encode(v, &key);
  return key;
}

Status Table::MakeSecondaryEntry(const SecondaryIndex& idx, const Row& row,
                                 const std::string& ckey, std::string* key,
                                 std::string* value) const {
  *key = keycodec::EncodeKey(row, idx.key_cols);
  key->append(ckey);
  value->clear();
  value->push_back(static_cast<char>(ckey.size() & 0xff));
  value->push_back(static_cast<char>((ckey.size() >> 8) & 0xff));
  value->append(ckey);
  Row include_row;
  include_row.reserve(idx.include_cols.size());
  for (size_t c : idx.include_cols) include_row.push_back(row[c]);
  return tuple::Serialize(idx.include_schema, include_row, value);
}

Status Table::Insert(const Row& row, std::string* ckey_out) {
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("insert arity mismatch on table " + name_);
  }
  const std::string ckey = EncodeClusteredKey(row, next_seq_++);
  std::string payload;
  ELE_RETURN_NOT_OK(tuple::Serialize(schema_, row, &payload));
  ELE_RETURN_NOT_OK(clustered_->Insert(ckey, payload));
  for (const auto& idx : secondary_) {
    std::string key, value;
    ELE_RETURN_NOT_OK(MakeSecondaryEntry(*idx, row, ckey, &key, &value));
    ELE_RETURN_NOT_OK(idx->tree->Insert(key, value));
  }
  row_count_++;
  if (ckey_out != nullptr) *ckey_out = ckey;
  return Status::OK();
}

Status Table::BulkLoadRows(std::vector<Row>&& rows) {
  obs::AccessScope access(&access_label_);
  if (row_count_ != 0) {
    return Status::InvalidArgument("bulk load into non-empty table " + name_);
  }
  // Pre-encode (key, payload) pairs, then sort by key. Sorting encoded keys
  // is equivalent to sorting by the cluster columns.
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(rows.size());
  for (Row& row : rows) {
    std::string key = EncodeClusteredKey(row, next_seq_++);
    std::string payload;
    ELE_RETURN_NOT_OK(tuple::Serialize(schema_, row, &payload));
    entries.emplace_back(std::move(key), std::move(payload));
    Row().swap(row);  // free as we go
  }
  rows.clear();
  rows.shrink_to_fit();
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (heap_ != nullptr) {
    // WAL mode: the heap is the durable store. Bulk loads write it directly
    // (unlogged, like COPY into a fresh table); the engine checkpoints after
    // the loading statement so the pages are flushed before any logged DML
    // can depend on them.
    for (const auto& [key, payload] : entries) {
      ELE_ASSIGN_OR_RETURN(Rid rid, heap_->Insert(PackHeapRecord(key, payload)));
      rid_map_[key] = rid;
    }
  }
  size_t i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= entries.size()) return false;
    *k = std::move(entries[i].first);
    *v = std::move(entries[i].second);
    i++;
    return true;
  };
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::BulkLoad(pool_, stream));
  *clustered_ = tree;
  clustered_->SetAccessLabel(&access_label_);
  row_count_ = entries.size();
  return Status::OK();
}

Status Table::ReloadRows(std::vector<Row>&& rows) {
  if (heap_ != nullptr) {
    return Status::FailedPrecondition(
        "table " + name_ + " has a WAL heap; its contents are owned by the "
        "log and cannot be reloaded");
  }
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_));
  clustered_ = std::make_unique<BPlusTree>(tree);
  clustered_->SetAccessLabel(&access_label_);
  row_count_ = 0;
  next_seq_ = 0;
  rid_map_.clear();
  stats_.clear();
  ELE_RETURN_NOT_OK(BulkLoadRows(std::move(rows)));
  for (const auto& idx : secondary_) {
    ELE_RETURN_NOT_OK(BuildSecondaryFromScan(idx.get()));
  }
  return Status::OK();
}

Result<uint64_t> Table::DeleteByClusterPrefix(
    const std::vector<Value>& cluster_values) {
  const std::string lo = EncodeClusterPrefix(cluster_values);
  const std::string hi = keycodec::PrefixUpperBound(lo);
  // Collect targets first (the iterator pins pages; mutate afterwards).
  std::vector<std::pair<std::string, Row>> victims;
  {
    ELE_ASSIGN_OR_RETURN(RowIterator it, ScanRange(lo, hi));
    while (it.Valid()) {
      Row row;
      ELE_RETURN_NOT_OK(it.Current(&row));
      victims.emplace_back(std::string(it.it_.key()), std::move(row));
      ELE_RETURN_NOT_OK(it.Next());
    }
  }
  for (auto& [ckey, row] : victims) {
    ELE_RETURN_NOT_OK(clustered_->Delete(ckey));
    for (const auto& idx : secondary_) {
      std::string key, value;
      ELE_RETURN_NOT_OK(MakeSecondaryEntry(*idx, row, ckey, &key, &value));
      ELE_RETURN_NOT_OK(idx->tree->Delete(key));
    }
    row_count_--;
  }
  return static_cast<uint64_t>(victims.size());
}

Status Table::CreateSecondaryIndex(const std::string& index_name,
                                   std::vector<size_t> key_cols,
                                   std::vector<size_t> include_cols) {
  if (FindIndex(index_name) != nullptr) {
    return Status::AlreadyExists("index " + index_name);
  }
  auto idx = std::make_unique<SecondaryIndex>();
  idx->name = index_name;
  idx->access_label = "index:" + name_ + "." + index_name;
  idx->key_cols = std::move(key_cols);
  idx->include_cols = std::move(include_cols);
  std::vector<Column> out_cols, inc_cols;
  for (size_t c : idx->key_cols) out_cols.push_back(schema_.ColumnAt(c));
  for (size_t c : idx->include_cols) {
    out_cols.push_back(schema_.ColumnAt(c));
    inc_cols.push_back(schema_.ColumnAt(c));
  }
  idx->out_schema = Schema(out_cols);
  idx->include_schema = Schema(inc_cols);
  ELE_RETURN_NOT_OK(BuildSecondaryFromScan(idx.get()));
  secondary_.push_back(std::move(idx));
  return Status::OK();
}

Status Table::BuildSecondaryFromScan(SecondaryIndex* idx) {
  // Build entries from a full scan, sort, bulk-load.
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(row_count_);
  {
    ELE_ASSIGN_OR_RETURN(RowIterator it, ScanAll());
    while (it.Valid()) {
      Row row;
      ELE_RETURN_NOT_OK(it.Current(&row));
      std::string key, value;
      ELE_RETURN_NOT_OK(
          MakeSecondaryEntry(*idx, row, std::string(it.it_.key()), &key, &value));
      entries.emplace_back(std::move(key), std::move(value));
      ELE_RETURN_NOT_OK(it.Next());
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= entries.size()) return false;
    *k = std::move(entries[i].first);
    *v = std::move(entries[i].second);
    i++;
    return true;
  };
  obs::AccessScope access(&idx->access_label);
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::BulkLoad(pool_, stream));
  idx->tree = std::make_unique<BPlusTree>(tree);
  idx->tree->SetAccessLabel(&idx->access_label);
  return Status::OK();
}

Status Table::SecondaryInsert(const Row& row, const std::string& ckey) {
  for (const auto& idx : secondary_) {
    std::string key, value;
    ELE_RETURN_NOT_OK(MakeSecondaryEntry(*idx, row, ckey, &key, &value));
    ELE_RETURN_NOT_OK(idx->tree->Insert(key, value));
  }
  return Status::OK();
}

Status Table::SecondaryDelete(const Row& row, const std::string& ckey) {
  for (const auto& idx : secondary_) {
    std::string key, value;
    ELE_RETURN_NOT_OK(MakeSecondaryEntry(*idx, row, ckey, &key, &value));
    ELE_RETURN_NOT_OK(idx->tree->Delete(key));
  }
  return Status::OK();
}

SecondaryIndex* Table::FindIndex(const std::string& index_name) {
  for (const auto& idx : secondary_) {
    if (idx->name == index_name) return idx.get();
  }
  return nullptr;
}

SecondaryIndex* Table::FindCoveringIndex(size_t leading_col,
                                         const std::vector<size_t>& needed_cols) {
  for (const auto& idx : secondary_) {
    if (idx->key_cols.empty() || idx->key_cols[0] != leading_col) continue;
    std::set<size_t> provided(idx->key_cols.begin(), idx->key_cols.end());
    provided.insert(idx->include_cols.begin(), idx->include_cols.end());
    bool covers = true;
    for (size_t c : needed_cols) {
      if (provided.count(c) == 0) {
        covers = false;
        break;
      }
    }
    if (covers) return idx.get();
  }
  return nullptr;
}

Status Table::RowIterator::Current(Row* out) const {
  std::string_view v = it_.value();
  return tuple::Deserialize(*schema_, v.data(), v.size(), out);
}

Value Table::RowIterator::CurrentColumn(size_t col) const {
  std::string_view v = it_.value();
  return tuple::GetValue(*schema_, v.data(), v.size(), col);
}

Result<Table::RowIterator> Table::ScanAll(AccessIntent intent) const {
  ELE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, clustered_->SeekToFirst(intent));
  return RowIterator(&schema_, std::move(it), "");
}

Result<Table::RowIterator> Table::ScanRange(const std::string& lo,
                                            const std::string& hi,
                                            AccessIntent intent) const {
  BPlusTree::Iterator it;
  if (lo.empty()) {
    ELE_ASSIGN_OR_RETURN(it, clustered_->SeekToFirst(intent));
  } else {
    ELE_ASSIGN_OR_RETURN(it, clustered_->Seek(lo, intent));
  }
  return RowIterator(&schema_, std::move(it), hi);
}

void Table::AttachHeap(std::unique_ptr<TableHeap> heap, uint32_t table_id) {
  heap_ = std::move(heap);
  table_id_ = table_id;
}

std::string Table::PackHeapRecord(const std::string& ckey,
                                  const std::string& payload) {
  std::string rec;
  rec.reserve(2 + ckey.size() + payload.size());
  rec.push_back(static_cast<char>(ckey.size() & 0xff));
  rec.push_back(static_cast<char>((ckey.size() >> 8) & 0xff));
  rec.append(ckey);
  rec.append(payload);
  return rec;
}

Status Table::UnpackHeapRecord(std::string_view record, std::string* ckey,
                               std::string* payload) {
  if (record.size() < 2) return Status::Corruption("heap record too short");
  const size_t cklen = static_cast<unsigned char>(record[0]) |
                       (static_cast<unsigned char>(record[1]) << 8);
  if (2 + cklen > record.size()) {
    return Status::Corruption("heap record clustering key overruns record");
  }
  ckey->assign(record.data() + 2, cklen);
  payload->assign(record.data() + 2 + cklen, record.size() - 2 - cklen);
  return Status::OK();
}

Rid Table::RidFor(const std::string& ckey) const {
  auto it = rid_map_.find(ckey);
  return it != rid_map_.end() ? it->second : Rid{};
}

Status Table::InsertTxn(const Row& row, const TxnWriteContext& ctx,
                        std::string* ckey_out) {
  if (heap_ == nullptr) {
    return Status::FailedPrecondition("table " + name_ + " has no WAL heap");
  }
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("insert arity mismatch on table " + name_);
  }
  obs::AccessScope access(&access_label_);
  const std::string ckey = EncodeClusteredKey(row, next_seq_++);
  std::string payload;
  ELE_RETURN_NOT_OK(tuple::Serialize(schema_, row, &payload));
  const wal::WalWriter w{ctx.log, ctx.txn_id, ctx.last_lsn};
  ELE_ASSIGN_OR_RETURN(
      Rid rid, wal::LoggedInsert(w, heap_.get(), table_id_,
                                 PackHeapRecord(ckey, payload)));
  ELE_RETURN_NOT_OK(clustered_->Insert(ckey, payload));
  ELE_RETURN_NOT_OK(SecondaryInsert(row, ckey));
  rid_map_[ckey] = rid;
  row_count_++;
  if (ctx.undo != nullptr) {
    ctx.undo->push_back(
        UndoEntry{UndoEntry::Kind::kInsert, this, ckey, rid, Row{}, row});
  }
  if (ckey_out != nullptr) *ckey_out = ckey;
  return Status::OK();
}

Status Table::DeleteRowTxn(const std::string& ckey, const Row& row,
                           const TxnWriteContext& ctx) {
  if (heap_ == nullptr) {
    return Status::FailedPrecondition("table " + name_ + " has no WAL heap");
  }
  obs::AccessScope access(&access_label_);
  auto rid_it = rid_map_.find(ckey);
  if (rid_it == rid_map_.end()) {
    return Status::NotFound("no heap address for row in table " + name_);
  }
  const Rid rid = rid_it->second;
  const wal::WalWriter w{ctx.log, ctx.txn_id, ctx.last_lsn};
  ELE_RETURN_NOT_OK(wal::LoggedDelete(w, pool_, table_id_, rid));
  ELE_RETURN_NOT_OK(clustered_->Delete(ckey));
  ELE_RETURN_NOT_OK(SecondaryDelete(row, ckey));
  rid_map_.erase(rid_it);
  row_count_--;
  if (ctx.undo != nullptr) {
    ctx.undo->push_back(
        UndoEntry{UndoEntry::Kind::kDelete, this, ckey, rid, row, Row{}});
  }
  return Status::OK();
}

Status Table::UpdateRowTxn(const std::string& ckey, const Row& before,
                           const Row& after, const TxnWriteContext& ctx) {
  if (heap_ == nullptr) {
    return Status::FailedPrecondition("table " + name_ + " has no WAL heap");
  }
  if (after.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("update arity mismatch on table " + name_);
  }
  obs::AccessScope access(&access_label_);
  auto rid_it = rid_map_.find(ckey);
  if (rid_it == rid_map_.end()) {
    return Status::NotFound("no heap address for row in table " + name_);
  }
  const Rid old_rid = rid_it->second;
  std::string payload;
  ELE_RETURN_NOT_OK(tuple::Serialize(schema_, after, &payload));
  const std::string rec = PackHeapRecord(ckey, payload);
  const wal::WalWriter w{ctx.log, ctx.txn_id, ctx.last_lsn};
  ELE_ASSIGN_OR_RETURN(bool in_place,
                       wal::LoggedUpdate(w, pool_, table_id_, old_rid, rec));
  Rid new_rid = old_rid;
  if (!in_place) {
    // The new image outgrew the slot: logged delete + logged re-append.
    ELE_RETURN_NOT_OK(wal::LoggedDelete(w, pool_, table_id_, old_rid));
    ELE_ASSIGN_OR_RETURN(new_rid,
                         wal::LoggedInsert(w, heap_.get(), table_id_, rec));
  }
  ELE_RETURN_NOT_OK(clustered_->Update(ckey, payload));
  ELE_RETURN_NOT_OK(SecondaryDelete(before, ckey));
  ELE_RETURN_NOT_OK(SecondaryInsert(after, ckey));
  rid_map_[ckey] = new_rid;
  if (ctx.undo != nullptr) {
    ctx.undo->push_back(
        UndoEntry{UndoEntry::Kind::kUpdate, this, ckey, old_rid, before, after});
  }
  return Status::OK();
}

Status Table::UndoVolatile(const UndoEntry& e) {
  obs::AccessScope access(&access_label_);
  std::string payload;
  switch (e.kind) {
    case UndoEntry::Kind::kInsert:
      ELE_RETURN_NOT_OK(clustered_->Delete(e.ckey));
      ELE_RETURN_NOT_OK(SecondaryDelete(e.after, e.ckey));
      rid_map_.erase(e.ckey);
      row_count_--;
      return Status::OK();
    case UndoEntry::Kind::kDelete:
      ELE_RETURN_NOT_OK(tuple::Serialize(schema_, e.before, &payload));
      ELE_RETURN_NOT_OK(clustered_->Insert(e.ckey, payload));
      ELE_RETURN_NOT_OK(SecondaryInsert(e.before, e.ckey));
      rid_map_[e.ckey] = e.rid;
      row_count_++;
      return Status::OK();
    case UndoEntry::Kind::kUpdate:
      ELE_RETURN_NOT_OK(tuple::Serialize(schema_, e.before, &payload));
      ELE_RETURN_NOT_OK(clustered_->Update(e.ckey, payload));
      ELE_RETURN_NOT_OK(SecondaryDelete(e.after, e.ckey));
      ELE_RETURN_NOT_OK(SecondaryInsert(e.before, e.ckey));
      rid_map_[e.ckey] = e.rid;
      return Status::OK();
  }
  return Status::InvalidArgument("unknown undo entry kind");
}

Status Table::RebuildFromHeap() {
  if (heap_ == nullptr) {
    return Status::FailedPrecondition("table " + name_ + " has no WAL heap");
  }
  obs::AccessScope access(&access_label_);
  struct Ent {
    std::string ckey, payload;
    Rid rid;
  };
  std::vector<Ent> ents;
  ELE_ASSIGN_OR_RETURN(TableHeap::Iterator it, heap_->Begin());
  while (it.Valid()) {
    Ent e;
    ELE_RETURN_NOT_OK(UnpackHeapRecord(it.record(), &e.ckey, &e.payload));
    e.rid = it.rid();
    ents.push_back(std::move(e));
    ELE_RETURN_NOT_OK(it.Next());
  }
  std::sort(ents.begin(), ents.end(),
            [](const Ent& a, const Ent& b) { return a.ckey < b.ckey; });
  rid_map_.clear();
  uint64_t max_seq = 0;
  for (const Ent& e : ents) {
    rid_map_[e.ckey] = e.rid;
    if (!unique_cluster_) max_seq = std::max(max_seq, TrailingSeq(e.ckey) + 1);
  }
  size_t i = 0;
  auto stream = [&](std::string* k, std::string* v) {
    if (i >= ents.size()) return false;
    *k = ents[i].ckey;
    *v = std::move(ents[i].payload);
    i++;
    return true;
  };
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::BulkLoad(pool_, stream));
  *clustered_ = tree;
  clustered_->SetAccessLabel(&access_label_);
  row_count_ = ents.size();
  next_seq_ = unique_cluster_ ? ents.size() : max_seq;
  for (const auto& idx : secondary_) {
    ELE_RETURN_NOT_OK(BuildSecondaryFromScan(idx.get()));
  }
  stats_.clear();
  return Status::OK();
}

Status Table::Analyze() {
  std::vector<std::set<uint64_t>> distinct(schema_.NumColumns());
  std::vector<bool> seen(schema_.NumColumns(), false);
  stats_.assign(schema_.NumColumns(), ColumnStats{});
  ELE_ASSIGN_OR_RETURN(RowIterator it, ScanAll());
  while (it.Valid()) {
    Row row;
    ELE_RETURN_NOT_OK(it.Current(&row));
    for (size_t c = 0; c < row.size(); c++) {
      if (row[c].is_null()) {
        stats_[c].null_count++;
        continue;
      }
      distinct[c].insert(row[c].Hash());
      if (!seen[c] || row[c].Compare(stats_[c].min) < 0) stats_[c].min = row[c];
      if (!seen[c] || row[c].Compare(stats_[c].max) > 0) stats_[c].max = row[c];
      seen[c] = true;
    }
    ELE_RETURN_NOT_OK(it.Next());
  }
  for (size_t c = 0; c < schema_.NumColumns(); c++) {
    stats_[c].distinct = distinct[c].size();
  }
  return Status::OK();
}

}  // namespace elephant
