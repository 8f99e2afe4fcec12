#include "catalog/table.h"

#include <algorithm>
#include <set>

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
  e.clustered_key = value.substr(2, cklen);
  e.include_bytes = value.substr(2 + cklen);
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

std::unique_ptr<Table> Table::Open(BufferPool* pool, std::string name,
                                   Schema schema,
                                   std::vector<size_t> cluster_cols,
                                   bool unique_cluster, page_id_t root) {
  auto table = std::unique_ptr<Table>(
      new Table(pool, std::move(name), std::move(schema), std::move(cluster_cols),
                unique_cluster));
  table->clustered_ = std::make_unique<BPlusTree>(pool, root);
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
  // A logged table's bulk load is unlogged too, like COPY into a fresh
  // table: the loader checkpoints afterwards, which flushes the pages and
  // names the new root in the catalog before any logged DML depends on it.
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
  if (logged()) {
    return Status::FailedPrecondition(
        "table " + name_ + " is logged; its contents are owned by the log "
        "and cannot be reloaded");
  }
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_));
  clustered_ = std::make_unique<BPlusTree>(tree);
  clustered_->SetAccessLabel(&access_label_);
  row_count_ = 0;
  next_seq_ = 0;
  stats_.clear();
  ELE_RETURN_NOT_OK(BulkLoadRows(std::move(rows)));
  for (const auto& idx : secondary_) {
    ELE_RETURN_NOT_OK(BuildSecondaryFromScan(idx.get()));
  }
  return Status::OK();
}

Status Table::CreateSecondaryIndex(const std::string& index_name,
                                   std::vector<size_t> key_cols,
                                   std::vector<size_t> include_cols) {
  if (FindIndex(index_name) != nullptr) {
    return Status::AlreadyExists("index " + index_name);
  }
  if (logged() && secondary_.size() >= 255) {
    return Status::ResourceExhausted("table " + name_ + " has 255 secondary "
                                     "indexes, all a log record can name");
  }
  std::unique_ptr<SecondaryIndex> idx =
      DefineIndex(index_name, std::move(key_cols), std::move(include_cols));
  ELE_RETURN_NOT_OK(BuildSecondaryFromScan(idx.get()));
  secondary_.push_back(std::move(idx));
  return Status::OK();
}

void Table::OpenSecondaryIndex(const std::string& index_name,
                               std::vector<size_t> key_cols,
                               std::vector<size_t> include_cols,
                               page_id_t root) {
  std::unique_ptr<SecondaryIndex> idx =
      DefineIndex(index_name, std::move(key_cols), std::move(include_cols));
  idx->tree = std::make_unique<BPlusTree>(pool_, root);
  idx->tree->SetAccessLabel(&idx->access_label);
  secondary_.push_back(std::move(idx));
}

std::unique_ptr<SecondaryIndex> Table::DefineIndex(
    const std::string& index_name, std::vector<size_t> key_cols,
    std::vector<size_t> include_cols) const {
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
  return idx;
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

Status Table::CheckContext(const TxnWriteContext& ctx) const {
  if (logged() && ctx.log == nullptr) {
    return Status::FailedPrecondition("table " + name_ +
                                      " is logged; a write needs the log");
  }
  if (!logged() && ctx.log != nullptr) {
    return Status::FailedPrecondition("table " + name_ +
                                      " is not logged; a write cannot be logged");
  }
  return Status::OK();
}

const wal::TreeWriter* Table::Writer(const TxnWriteContext& ctx, size_t tree,
                                     wal::TreeWriter* slot) const {
  if (ctx.log == nullptr) return nullptr;
  *slot = wal::TreeWriter{ctx.log,     pool_,     ctx.txn_id,
                          ctx.last_lsn, table_id_, static_cast<uint8_t>(tree)};
  return slot;
}

Status Table::Insert(const Row& row, const TxnWriteContext& ctx,
                     std::string* ckey_out) {
  ELE_RETURN_NOT_OK(CheckContext(ctx));
  if (row.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("insert arity mismatch on table " + name_);
  }
  obs::AccessScope access(&access_label_);
  const std::string ckey = EncodeClusteredKey(row, next_seq_++);
  std::string payload;
  ELE_RETURN_NOT_OK(tuple::Serialize(schema_, row, &payload));
  wal::TreeWriter slot;
  ELE_RETURN_NOT_OK(clustered_->Insert(ckey, payload, Writer(ctx, 0, &slot)));
  row_count_++;
  for (size_t i = 0; i < secondary_.size(); i++) {
    std::string key, value;
    ELE_RETURN_NOT_OK(MakeSecondaryEntry(*secondary_[i], row, ckey, &key, &value));
    ELE_RETURN_NOT_OK(
        secondary_[i]->tree->Insert(key, value, Writer(ctx, i + 1, &slot)));
  }
  if (ckey_out != nullptr) *ckey_out = ckey;
  return Status::OK();
}

Status Table::Delete(const std::string& ckey, const Row& row,
                     const TxnWriteContext& ctx) {
  ELE_RETURN_NOT_OK(CheckContext(ctx));
  obs::AccessScope access(&access_label_);
  wal::TreeWriter slot;
  ELE_RETURN_NOT_OK(clustered_->Delete(ckey, Writer(ctx, 0, &slot)));
  row_count_--;
  for (size_t i = 0; i < secondary_.size(); i++) {
    std::string key, value;
    ELE_RETURN_NOT_OK(MakeSecondaryEntry(*secondary_[i], row, ckey, &key, &value));
    ELE_RETURN_NOT_OK(secondary_[i]->tree->Delete(key, Writer(ctx, i + 1, &slot)));
  }
  return Status::OK();
}

Status Table::Update(const std::string& ckey, const Row& before,
                     const Row& after, const TxnWriteContext& ctx) {
  ELE_RETURN_NOT_OK(CheckContext(ctx));
  if (after.size() != schema_.NumColumns()) {
    return Status::InvalidArgument("update arity mismatch on table " + name_);
  }
  obs::AccessScope access(&access_label_);
  std::string payload;
  ELE_RETURN_NOT_OK(tuple::Serialize(schema_, after, &payload));
  wal::TreeWriter slot;
  ELE_RETURN_NOT_OK(clustered_->Update(ckey, payload, Writer(ctx, 0, &slot)));
  for (size_t i = 0; i < secondary_.size(); i++) {
    std::string old_key, old_value, key, value;
    ELE_RETURN_NOT_OK(
        MakeSecondaryEntry(*secondary_[i], before, ckey, &old_key, &old_value));
    ELE_RETURN_NOT_OK(MakeSecondaryEntry(*secondary_[i], after, ckey, &key, &value));
    if (key == old_key && value == old_value) continue;
    const wal::TreeWriter* w = Writer(ctx, i + 1, &slot);
    ELE_RETURN_NOT_OK(secondary_[i]->tree->Delete(old_key, w));
    ELE_RETURN_NOT_OK(secondary_[i]->tree->Insert(key, value, w));
  }
  return Status::OK();
}

Status Table::Undo(TreeChange change, uint8_t tree, std::string_view key,
                   std::string_view before, const wal::TreeWriter& w) {
  obs::AccessScope access(&access_label_);
  BPlusTree* target = tree == 0 ? clustered_.get() : secondary_[tree - 1]->tree.get();
  switch (change) {
    case TreeChange::kInserted:
      ELE_RETURN_NOT_OK(target->Delete(key, &w));
      if (tree == 0) row_count_--;
      return Status::OK();
    case TreeChange::kDeleted:
      ELE_RETURN_NOT_OK(target->Insert(key, before, &w));
      if (tree == 0) row_count_++;
      return Status::OK();
    case TreeChange::kUpdated:
      return target->Update(key, before, &w);
  }
  return Status::InvalidArgument("unknown tree change");
}

Status Table::CountRows() {
  obs::AccessScope access(&access_label_);
  row_count_ = 0;
  next_seq_ = 0;
  ELE_ASSIGN_OR_RETURN(BPlusTree::Iterator it,
                       clustered_->SeekToFirst(AccessIntent::kSequentialScan));
  for (; it.Valid(); row_count_++) {
    if (!unique_cluster_) next_seq_ = std::max(next_seq_, TrailingSeq(it.key()) + 1);
    ELE_RETURN_NOT_OK(it.Next());
  }
  if (unique_cluster_) next_seq_ = row_count_;
  return Status::OK();
}

Status Table::Analyze() {
  // Distinct counts come from each column's value hashes, collected in a
  // vector and sorted and deduplicated (cheaper than a tree insert per row).
  // A column's vector is compacted whenever it doubles past its size after
  // the last compaction, so it stays within about twice the column's
  // distinct count (plus one initial chunk), not one hash per row.
  constexpr size_t kMinCompact = 4096;
  std::vector<std::vector<uint64_t>> distinct(schema_.NumColumns());
  std::vector<size_t> compact_at(schema_.NumColumns(), kMinCompact);
  auto compact = [](std::vector<uint64_t>* hashes) {
    std::sort(hashes->begin(), hashes->end());
    hashes->erase(std::unique(hashes->begin(), hashes->end()), hashes->end());
  };
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
      distinct[c].push_back(row[c].Hash());
      if (distinct[c].size() >= compact_at[c]) {
        compact(&distinct[c]);
        compact_at[c] = std::max(kMinCompact, 2 * distinct[c].size());
      }
      if (!seen[c] || row[c].Compare(stats_[c].min) < 0) stats_[c].min = row[c];
      if (!seen[c] || row[c].Compare(stats_[c].max) > 0) stats_[c].max = row[c];
      seen[c] = true;
    }
    ELE_RETURN_NOT_OK(it.Next());
  }
  for (size_t c = 0; c < schema_.NumColumns(); c++) {
    compact(&distinct[c]);
    stats_[c].distinct = distinct[c].size();
  }
  return Status::OK();
}

}  // namespace elephant
