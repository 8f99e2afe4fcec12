#include "catalog/table.h"

#include <algorithm>
#include <numeric>
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

// A secondary entry's key is the encoded key columns ++ the base row's
// clustered key; its value is the clustered key's u16 length, the clustered
// key, and the include columns as a tuple. Row writes (a Row's cells) and
// index builds (a batch row's cells) encode entries through the same two
// templates.

/// A Row's cells, by schema position.
struct RowCells {
  const Row& row;
  void EncodeKey(size_t c, std::string* out) const {
    keycodec::Encode(row[c], out);
  }
  Status Serialize(const Schema& schema, const std::vector<size_t>& cols,
                   std::string* out) const {
    return tuple::Serialize(schema, row, out, &cols);
  }
};

/// Row `r` of a batch's typed columns, by column.
struct LaneCells {
  const Batch& batch;
  uint32_t r;
  void EncodeKey(size_t c, std::string* out) const {
    EncodeCell(batch.col(c), r, out);
  }
  Status Serialize(const Schema& schema, const std::vector<size_t>& cols,
                   std::string* out) const {
    return tuple::Serialize(schema, batch, r, out, &cols);
  }
};

/// Where an index's key and include columns sit in the cells an entry is
/// made from (schema positions for a Row, batch columns for a build).
struct EntryLayout {
  const std::vector<size_t>& key_cols;
  const std::vector<size_t>& include_cols;
  const Schema& include_schema;
};

EntryLayout LayoutOf(const SecondaryIndex& idx) {
  return EntryLayout{idx.key_cols, idx.include_cols, idx.include_schema};
}

template <typename Cells>
void EntryKey(const EntryLayout& layout, const Cells& cells,
              std::string_view ckey, std::string* key) {
  key->clear();
  for (size_t c : layout.key_cols) cells.EncodeKey(c, key);
  key->append(ckey);
}

template <typename Cells>
Status EntryValue(const EntryLayout& layout, const Cells& cells,
                  std::string_view ckey, std::string* value) {
  value->clear();
  value->push_back(static_cast<char>(ckey.size() & 0xff));
  value->push_back(static_cast<char>((ckey.size() >> 8) & 0xff));
  value->append(ckey);
  return cells.Serialize(layout.include_schema, layout.include_cols, value);
}

/// Bulk-builds `idx`'s tree from rows `rows` of `batch` (the index's
/// columns at `layout`), row i stored under clustered key ckeys[i]: the
/// keys are encoded and sorted, and each value encoded as the tree takes
/// its entry.
Status BuildIndexTree(BufferPool* pool, SecondaryIndex* idx,
                      const EntryLayout& layout, const Batch& batch,
                      const std::vector<uint32_t>& rows,
                      const std::vector<std::string>& ckeys) {
  std::vector<std::pair<std::string, uint32_t>> keys(rows.size());  // key, i
  for (uint32_t i = 0; i < rows.size(); i++) {
    EntryKey(layout, LaneCells{batch, rows[i]}, ckeys[i], &keys[i].first);
    keys[i].second = i;
  }
  std::sort(keys.begin(), keys.end());
  size_t e = 0;
  Status status;
  auto stream = [&](std::string* k, std::string* v) {
    if (e == keys.size()) return false;
    const uint32_t i = keys[e].second;
    k->swap(keys[e++].first);
    status = EntryValue(layout, LaneCells{batch, rows[i]}, ckeys[i], v);
    return status.ok();
  };
  obs::AccessScope access(&idx->access_label);
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::BulkLoad(pool, stream));
  ELE_RETURN_NOT_OK(status);
  idx->tree = std::make_unique<BPlusTree>(tree);
  idx->tree->SetAccessLabel(&idx->access_label);
  return Status::OK();
}

/// The statistics of rows `rows` of `batch`, columns typed as `schema`'s:
/// per column the NULL count, the number of distinct Value::Hash values of
/// the other cells (through its typed halves), and their min and max as
/// Value::Compare orders them (CompareCells), the first of equals kept. A
/// CHAR min or max is padded to the column's width, as it is stored.
std::vector<ColumnStats> FoldStats(const Schema& schema, const Batch& batch,
                                   const std::vector<uint32_t>& rows) {
  std::vector<ColumnStats> stats(schema.NumColumns());
  std::vector<uint64_t> hashes;
  for (size_t c = 0; c < stats.size(); c++) {
    const ColumnVector& col = batch.col(c);
    hashes.clear();
    bool seen = false;
    uint32_t lo = 0, hi = 0;  // the rows of the min and the max
    for (uint32_t r : rows) {
      if (col.IsNull(r)) {
        stats[c].null_count++;
        continue;
      }
      switch (col.lane()) {
        case Lane::kInt: hashes.push_back(HashInt(col.Int(r))); break;
        case Lane::kDouble: hashes.push_back(HashDouble(col.Double(r))); break;
        case Lane::kString: hashes.push_back(HashString(col.String(r))); break;
      }
      if (!seen || CompareCells(col, r, col, lo) < 0) lo = r;
      if (!seen || CompareCells(col, r, col, hi) > 0) hi = r;
      seen = true;
    }
    std::sort(hashes.begin(), hashes.end());
    stats[c].distinct = static_cast<uint64_t>(
        std::unique(hashes.begin(), hashes.end()) - hashes.begin());
    if (!seen) continue;
    const Column& column = schema.ColumnAt(c);
    auto stored = [&](uint32_t r) {
      if (column.type != TypeId::kChar) {
        return col.GetValue(r);  // lint:allow(value-in-batch-kernel): stats
      }
      std::string s(col.String(r));
      s.resize(column.length, ' ');
      return Value::Char(std::move(s));
    };
    stats[c].min = stored(lo);
    stats[c].max = stored(hi);
  }
  return stats;
}

/// Reads every row of `table`'s clustered tree through an IndexCursor into
/// `*out`, narrowed to `cols` (every column without it), and each row's
/// clustered key into `*keys` when it is given.
Status ReadClustered(const Table& table, std::optional<std::vector<size_t>> cols,
                     Batch* out, std::vector<std::string>* keys) {
  IndexCursor cursor(&table, nullptr, AccessIntent::kSequentialScan,
                     std::move(cols));
  ELE_RETURN_NOT_OK(cursor.Seek(KeyRange{}));
  out->Reset(cursor.schema());
  uint32_t n = 0;
  for (; cursor.Valid(); n++) {
    if (keys != nullptr) keys->emplace_back(cursor.key());
    ELE_RETURN_NOT_OK(cursor.ReadInto(out, 0));
  }
  out->SetRowCount(n);
  return Status::OK();
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

// lint:allow(value-in-batch-kernel): probe keys built from planner/view Values.
std::string Table::EncodeClusterPrefix(const std::vector<Value>& values) const {
  std::string key;
  for (const Value& v : values) keycodec::Encode(v, &key);
  return key;
}

Status Table::BulkLoad(const Batch& rows) {
  if (logged() && row_count_ != 0) {
    return Status::FailedPrecondition(
        "table " + name_ + " is logged; its contents are owned by the log "
        "and cannot be reloaded");
  }
  bool typed = rows.num_cols() == schema_.NumColumns();
  for (size_t c = 0; typed && c < rows.num_cols(); c++) {
    typed = rows.col(c).type() == schema_.ColumnAt(c).type;
  }
  if (!typed) {
    return Status::InvalidArgument("bulk load columns are not typed as table " +
                                   name_ + "'s: " + schema_.ToString());
  }
  // Entries are made as the leaves are packed. A logged table's bulk load
  // is unlogged too, like COPY into a fresh table: the loader checkpoints
  // afterwards, which flushes the pages and names the new root in the
  // catalog before any logged DML depends on it.
  obs::AccessScope access(&access_label_);
  const std::vector<uint32_t> live = rows.ActiveIndices();
  const uint32_t n = static_cast<uint32_t>(live.size());
  std::vector<std::string> ckeys;  // the secondary entries' bookmarks
  uint32_t i = 0;
  std::string prev;
  Status status;
  auto stream = [&](std::string* k, std::string* v) {
    if (i == n) return false;
    const uint32_t r = live[i];
    k->clear();
    for (size_t c : cluster_cols_) EncodeCell(rows.col(c), r, k);
    if (i > 0 && *k < prev) {
      status = Status::InvalidArgument("bulk load of table " + name_ +
                                       ": row " + std::to_string(i) +
                                       " is out of clustered-key order");
      return false;
    }
    prev = *k;
    if (!unique_cluster_) AppendSeq(k, i);
    if (!secondary_.empty()) ckeys.push_back(*k);
    v->clear();
    status = tuple::Serialize(schema_, rows, r, v);
    i++;
    return status.ok();
  };
  ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::BulkLoad(pool_, stream));
  ELE_RETURN_NOT_OK(status);
  *clustered_ = tree;
  clustered_->SetAccessLabel(&access_label_);
  next_seq_ = n;
  row_count_ = n;
  for (const auto& idx : secondary_) {
    ELE_RETURN_NOT_OK(
        BuildIndexTree(pool_, idx.get(), LayoutOf(*idx), rows, live, ckeys));
  }
  stats_ = FoldStats(schema_, rows, live);
  return Status::OK();
}

// lint:allow(value-in-batch-kernel): the Row adapter of BulkLoad.
Status Table::BulkLoadRows(std::vector<Row>&& rows) {
  if (row_count_ != 0) {
    return Status::InvalidArgument("bulk load into non-empty table " + name_);
  }
  std::vector<std::pair<std::string, uint32_t>> keyed;
  keyed.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    if (rows[i].size() != schema_.NumColumns()) {
      return Status::InvalidArgument("bulk load arity mismatch on table " +
                                     name_);
    }
    keyed.emplace_back(keycodec::EncodeKey(rows[i], cluster_cols_),
                       static_cast<uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  Batch batch;
  batch.Reset(schema_);
  for (const auto& entry : keyed) {
    // lint:allow(value-in-batch-kernel): the Row adapter's one conversion.
    batch.AppendRow(rows[entry.second]);
    Row().swap(rows[entry.second]);  // free as we go
  }
  rows.clear();
  rows.shrink_to_fit();
  return BulkLoad(batch);
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
  if (row_count_ == 0 && !logged()) {
    // Nothing to index or read: the tree, and its first page, come from the
    // next load or insert. A table declared with its indexes and then
    // loaded thus allocates its pages in the order the load writes them:
    // the clustered tree, then each index. (A logged tree's root must
    // exist for the checkpoint to name it.)
    secondary_.push_back(std::move(idx));
    return Status::OK();
  }
  // Decode the index's columns only, in its row's order: key columns, then
  // include columns.
  std::vector<size_t> cols = idx->key_cols;
  cols.insert(cols.end(), idx->include_cols.begin(), idx->include_cols.end());
  std::vector<size_t> key_pos(idx->key_cols.size());
  std::vector<size_t> include_pos(idx->include_cols.size());
  std::iota(key_pos.begin(), key_pos.end(), 0);
  std::iota(include_pos.begin(), include_pos.end(), key_pos.size());
  Batch rows;
  std::vector<std::string> ckeys;
  ELE_RETURN_NOT_OK(ReadClustered(*this, std::move(cols), &rows, &ckeys));
  ELE_RETURN_NOT_OK(BuildIndexTree(
      pool_, idx.get(), EntryLayout{key_pos, include_pos, idx->include_schema},
      rows, rows.ActiveIndices(), ckeys));
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

IndexCursor::IndexCursor(const Table* table, const SecondaryIndex* index,
                         AccessIntent intent,
                         std::optional<std::vector<size_t>> cols)
    : table_(table), index_(index), intent_(intent) {
  const Schema& source = index_ != nullptr ? index_->out_schema : table_->schema();
  if (cols.has_value()) {
    cols_ = std::move(*cols);
  } else {
    for (size_t c = 0; c < source.NumColumns(); c++) cols_.push_back(c);
  }
  schema_ = source.Project(cols_);
  for (size_t c : cols_) {
    if (index_ != nullptr && c < index_->key_cols.size()) {
      key_prefix_ = std::max(key_prefix_, c + 1);
    }
  }
  key_cells_.resize(key_prefix_);
}

Status IndexCursor::Seek(const KeyRange& range) {
  hi_ = range.hi;
  if (!range.lo.empty() && it_.SeekInLeaf(range.lo)) return Status::OK();
  it_ = BPlusTree::Iterator();  // unpin the old leaf before descending
  if (index_ != nullptr && index_->tree == nullptr) return Status::OK();
  const BPlusTree& tree =
      index_ != nullptr ? *index_->tree : table_->clustered();
  if (range.lo.empty()) {
    ELE_ASSIGN_OR_RETURN(it_, tree.SeekToFirst(intent_));
  } else {
    ELE_ASSIGN_OR_RETURN(it_, tree.Seek(range.lo, intent_));
  }
  return Status::OK();
}

namespace {

/// Appends tuple column `col` (of `schema`) to `out`, a column of its type.
void AppendTupleCell(const Schema& schema, const char* data, size_t col,
                     ColumnVector* out) {
  if (tuple::IsNull(data, col)) return out->AppendNull();
  switch (out->lane()) {
    case Lane::kInt: return out->AppendInt(tuple::GetInt(schema, data, col));
    case Lane::kDouble:
      return out->AppendDouble(tuple::GetDouble(schema, data, col));
    case Lane::kString:
      return out->AppendString(tuple::GetString(schema, data, col));
  }
}

void AppendKeyCell(const keycodec::KeyCell& cell, ColumnVector* out) {
  if (cell.is_null) return out->AppendNull();
  switch (out->lane()) {
    case Lane::kInt: return out->AppendInt(cell.i);
    case Lane::kDouble: return out->AppendDouble(cell.d);
    case Lane::kString: return out->AppendString(cell.s);
  }
}

}  // namespace

Status IndexCursor::ReadInto(Batch* out, size_t first) {
  std::string_view tuple = it_.value();
  const Schema* tuple_schema = &table_->schema();
  size_t num_keys = 0;  // source positions below this come from the key
  if (index_ != nullptr) {
    // Key columns from the encoded key, then include columns from the
    // serialized payload.
    num_keys = index_->key_cols.size();
    size_t pos = 0;
    for (size_t k = 0; k < key_prefix_; k++) {
      ELE_RETURN_NOT_OK(keycodec::DecodeCell(
          index_->out_schema.ColumnAt(k).type, it_.key(), &pos, &key_cells_[k]));
    }
    tuple = DecodeSecondaryValue(tuple).include_bytes;
    tuple_schema = &index_->include_schema;
  }
  ELE_RETURN_NOT_OK(tuple::CheckTuple(tuple.data(), tuple.size()));
  for (size_t i = 0; i < cols_.size(); i++) {
    const size_t c = cols_[i];
    ColumnVector* dst = &out->col(first + i);
    if (c < num_keys) {
      AppendKeyCell(key_cells_[c], dst);
    } else {
      AppendTupleCell(*tuple_schema, tuple.data(), c - num_keys, dst);
    }
  }
  return it_.Next();
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
  std::string ckey = keycodec::EncodeKey(row, cluster_cols_);
  if (!unique_cluster_) AppendSeq(&ckey, next_seq_++);
  std::string payload;
  ELE_RETURN_NOT_OK(tuple::Serialize(schema_, row, &payload));
  wal::TreeWriter slot;
  ELE_RETURN_NOT_OK(clustered_->Insert(ckey, payload, Writer(ctx, 0, &slot)));
  row_count_++;
  std::string key, value;
  for (size_t i = 0; i < secondary_.size(); i++) {
    SecondaryIndex& idx = *secondary_[i];
    if (idx.tree == nullptr) {  // declared on an empty unlogged table
      ELE_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_));
      idx.tree = std::make_unique<BPlusTree>(tree);
      idx.tree->SetAccessLabel(&idx.access_label);
    }
    const EntryLayout layout = LayoutOf(idx);
    EntryKey(layout, RowCells{row}, ckey, &key);
    ELE_RETURN_NOT_OK(EntryValue(layout, RowCells{row}, ckey, &value));
    ELE_RETURN_NOT_OK(idx.tree->Insert(key, value, Writer(ctx, i + 1, &slot)));
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
  std::string key;
  for (size_t i = 0; i < secondary_.size(); i++) {
    EntryKey(LayoutOf(*secondary_[i]), RowCells{row}, ckey, &key);
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
  std::string old_key, old_value, key, value;
  for (size_t i = 0; i < secondary_.size(); i++) {
    const EntryLayout layout = LayoutOf(*secondary_[i]);
    EntryKey(layout, RowCells{before}, ckey, &old_key);
    ELE_RETURN_NOT_OK(EntryValue(layout, RowCells{before}, ckey, &old_value));
    EntryKey(layout, RowCells{after}, ckey, &key);
    ELE_RETURN_NOT_OK(EntryValue(layout, RowCells{after}, ckey, &value));
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
  Batch rows;
  ELE_RETURN_NOT_OK(ReadClustered(*this, std::nullopt, &rows, nullptr));
  stats_ = FoldStats(schema_, rows, rows.ActiveIndices());
  return Status::OK();
}

}  // namespace elephant
