#include "catalog/catalog.h"

#include <algorithm>
#include <cctype>

namespace elephant {

namespace {

// Little-endian primitives for the catalog blob.
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; i++) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class BlobReader {
 public:
  explicit BlobReader(std::string_view data) : data_(data) {}

  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Status::Corruption("catalog blob truncated");
    uint32_t v = 0;
    for (int i = 0; i < 4; i++) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<std::string> Str() {
    ELE_ASSIGN_OR_RETURN(uint32_t len, U32());
    if (pos_ + len > data_.size()) return Status::Corruption("catalog blob truncated");
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  Result<uint8_t> U8() {
    if (pos_ >= data_.size()) return Status::Corruption("catalog blob truncated");
    return static_cast<uint8_t>(data_[pos_++]);
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

constexpr uint32_t kCatalogMagic = 0x45434154;  // "ECAT"

}  // namespace

std::string Catalog::Normalize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

bool Catalog::IsReservedName(const std::string& name) {
  const std::string key = Normalize(name);
  const std::string prefix = kVirtualPrefix;
  return key.compare(0, prefix.size(), prefix) == 0;
}

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema,
                                    std::vector<size_t> cluster_cols,
                                    bool unique_cluster, bool derived) {
  const std::string key = Normalize(name);
  if (IsReservedName(name)) {
    return Status::BindError("table name \"" + name +
                             "\" is reserved for virtual system tables");
  }
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table " + name);
  }
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                       Table::Create(pool_, name, std::move(schema),
                                     std::move(cluster_cols), unique_cluster));
  if (wal_storage_ && !derived) {
    ELE_ASSIGN_OR_RETURN(TableHeap heap, TableHeap::Create(pool_));
    table->AttachHeap(std::make_unique<TableHeap>(heap), next_table_id_++);
  }
  Table* raw = table.get();
  tables_[key] = std::move(table);
  return raw;
}

Result<Table*> Catalog::GetTableById(uint32_t id) const {
  for (const auto& [key, table] : tables_) {
    if (table->heap() != nullptr && table->table_id() == id) return table.get();
  }
  return Status::NotFound("no table with WAL id " + std::to_string(id));
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(Normalize(name));
  if (it == tables_.end()) return Status::NotFound("table " + name);
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.count(Normalize(name)) != 0;
}

Status Catalog::DropTable(const std::string& name) {
  const std::string key = Normalize(name);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("table " + name);
  }
  MutexLock lock(derived_mu_);
  derived_.erase(key);
  insert_logs_.erase(key);
  for (auto& [dname, d] : derived_) {
    for (size_t b = d.bases.size(); b-- > 0;) {
      if (d.bases[b] != key) continue;
      d.bases.erase(d.bases.begin() + static_cast<std::ptrdiff_t>(b));
      d.applied.erase(d.applied.begin() + static_cast<std::ptrdiff_t>(b));
      d.unknown = true;
    }
  }
  return Status::OK();
}

Status Catalog::RegisterDerivedTable(const std::string& derived,
                                     std::vector<std::string> bases) {
  const std::string key = Normalize(derived);
  if (tables_.count(key) == 0) {
    return Status::NotFound("derived table " + derived);
  }
  DerivedTable d;
  d.name = key;
  for (const std::string& b : bases) {
    if (tables_.count(Normalize(b)) == 0) {
      return Status::NotFound("base table " + b + " of derived table " + derived);
    }
    d.bases.push_back(Normalize(b));
  }
  MutexLock lock(derived_mu_);
  for (const std::string& b : d.bases) d.applied.push_back(insert_logs_[b].end());
  auto it = derived_.find(key);
  if (it != derived_.end()) {
    // Re-registration must not drop a pending change: the contents may
    // still be stale.
    d.unknown = it->second.unknown || it->second.bases != d.bases;
    if (!d.unknown) d.applied = it->second.applied;
  }
  derived_[key] = std::move(d);
  return Status::OK();
}

bool Catalog::IsDerived(const std::string& name) const {
  MutexLock lock(derived_mu_);
  return derived_.count(Normalize(name)) != 0;
}

std::vector<std::string> Catalog::DerivedBases(const std::string& derived) const {
  MutexLock lock(derived_mu_);
  auto it = derived_.find(Normalize(derived));
  return it == derived_.end() ? std::vector<std::string>{} : it->second.bases;
}

void Catalog::SetDerivedRefresh(
    const std::string& derived,
    std::function<Status(const DerivedChange&)> refresh) {
  MutexLock lock(derived_mu_);
  auto it = derived_.find(Normalize(derived));
  if (it != derived_.end()) it->second.refresh = std::move(refresh);
}

void Catalog::RecordInserts(const std::string& base, txn_id_t txn,
                            std::vector<std::pair<std::string, Row>> rows) {
  const std::string key = Normalize(base);
  MutexLock lock(derived_mu_);
  auto it = insert_logs_.find(key);
  if (it == insert_logs_.end() || rows.empty()) return;
  InsertLog& log = it->second;
  if (log.tail_txn != txn) {
    log.tail_txn = txn;
    log.tail_start = log.end();
  }
  for (auto& [ckey, row] : rows) {
    log.rows.push_back(InsertedRow{std::move(ckey), std::move(row)});
  }
  // Memory cap: a backlog past half the base is dropped, not merged.
  const auto table = tables_.find(key);
  if (table == tables_.end() || log.rows.size() * 2 <= table->second->row_count()) {
    return;
  }
  ForEachDependent(key, [&log](DerivedTable& d, size_t b) {
    d.unknown |= d.applied[b] < log.end();
  });
  TrimLog(key);
}

void Catalog::DiscardInserts(const std::string& base, txn_id_t txn) {
  const std::string key = Normalize(base);
  MutexLock lock(derived_mu_);
  auto it = insert_logs_.find(key);
  if (it == insert_logs_.end() || it->second.tail_txn != txn) return;
  InsertLog& log = it->second;
  while (!log.rows.empty() && log.end() > log.tail_start) log.rows.pop_back();
  log.begin = std::min(log.begin, log.tail_start);
  log.tail_txn = kInvalidTxnId;
  ForEachDependent(key, [&log](DerivedTable& d, size_t b) {
    d.unknown |= d.applied[b] > log.end();
  });
}

void Catalog::MarkDependentsStale(const std::string& base) {
  const std::string key = Normalize(base);
  MutexLock lock(derived_mu_);
  ForEachDependent(key, [](DerivedTable& d, size_t) { d.unknown = true; });
}

void Catalog::MarkAllDerivedStale() {
  MutexLock lock(derived_mu_);
  for (auto& [dname, d] : derived_) d.unknown = true;
}

bool Catalog::StaleLocked(const DerivedTable& d) const {
  if (d.unknown) return true;
  for (size_t b = 0; b < d.bases.size(); b++) {
    auto log = insert_logs_.find(d.bases[b]);
    if (log != insert_logs_.end() && d.applied[b] < log->second.end()) return true;
  }
  return false;
}

void Catalog::ForEachDependent(
    const std::string& base,
    const std::function<void(DerivedTable&, size_t)>& fn) {
  for (auto& [dname, d] : derived_) {
    for (size_t b = 0; b < d.bases.size(); b++) {
      if (d.bases[b] == base) fn(d, b);
    }
  }
}

void Catalog::TrimLog(const std::string& base) {
  InsertLog& log = insert_logs_[base];
  uint64_t keep = log.end();
  // An unknown change is rebuilt from the base itself, not from the log.
  ForEachDependent(base, [&keep](DerivedTable& d, size_t b) {
    if (!d.unknown) keep = std::min(keep, d.applied[b]);
  });
  while (log.begin < keep) {
    log.rows.pop_front();
    log.begin++;
  }
}

bool Catalog::IsStale(const std::string& name) const {
  MutexLock lock(derived_mu_);
  auto it = derived_.find(Normalize(name));
  return it != derived_.end() && StaleLocked(it->second);
}

Status Catalog::RebuildIfStale(const std::string& name) {
  const std::string key = Normalize(name);
  DerivedChange change;
  std::vector<uint64_t> ends;
  std::function<Status(const DerivedChange&)> refresh;
  {
    MutexLock lock(derived_mu_);
    auto it = derived_.find(key);
    if (it == derived_.end() || !StaleLocked(it->second)) return Status::OK();
    const DerivedTable& d = it->second;
    change.unknown = d.unknown;
    for (size_t b = 0; b < d.bases.size(); b++) {
      const InsertLog& log = insert_logs_[d.bases[b]];
      ends.push_back(log.end());
      change.inserted.emplace_back();
      for (uint64_t pos = d.applied[b]; !d.unknown && pos < log.end(); pos++) {
        change.inserted.back().push_back(&log.rows[pos - log.begin]);
      }
    }
    refresh = d.refresh;
  }
  if (!refresh) {
    return Status::FailedPrecondition("derived table " + name +
                                      " is stale but has no refresh hook");
  }
  // The hook runs unlocked: a full rebuild executes SQL. The caller's shared
  // locks on the bases keep writers, and so the logged rows, where they are.
  Status s = refresh(change);
  MutexLock lock(derived_mu_);
  auto it = derived_.find(key);
  if (it == derived_.end()) return s;
  DerivedTable& d = it->second;
  d.unknown = !s.ok();
  if (s.ok()) d.applied = std::move(ends);
  for (const std::string& b : d.bases) TrimLog(b);
  return s;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

Status Catalog::RegisterVirtualTable(
    std::string name, Schema schema,
    std::function<Result<std::vector<Row>>()> provider) {
  if (!IsReservedName(name)) {
    return Status::InvalidArgument("virtual table " + name +
                                   " must use the " +
                                   std::string(kVirtualPrefix) + " prefix");
  }
  const std::string key = Normalize(name);
  if (virtual_tables_.count(key) != 0) {
    return Status::AlreadyExists("virtual table " + name);
  }
  auto vt = std::make_unique<VirtualTable>();
  vt->name = std::move(name);
  vt->schema = std::move(schema);
  vt->provider = std::move(provider);
  virtual_tables_[key] = std::move(vt);
  return Status::OK();
}

void Catalog::SerializeTo(std::string* out) const {
  PutU32(out, kCatalogMagic);
  PutU32(out, static_cast<uint32_t>(tables_.size()));
  for (const auto& [key, table] : tables_) {
    PutStr(out, table->name());
    out->push_back(table->heap() != nullptr ? 1 : 0);
    PutU32(out, table->table_id());
    PutU32(out, table->heap() != nullptr
                    ? static_cast<uint32_t>(table->heap()->first_page())
                    : 0);
    PutU32(out, table->heap() != nullptr
                    ? static_cast<uint32_t>(table->heap()->last_page())
                    : 0);
    const Schema& schema = table->schema();
    PutU32(out, static_cast<uint32_t>(schema.NumColumns()));
    for (const Column& c : schema.columns()) {
      PutStr(out, c.name);
      out->push_back(static_cast<char>(c.type));
      PutU32(out, c.length);
      out->push_back(c.nullable ? 1 : 0);
    }
    PutU32(out, static_cast<uint32_t>(table->cluster_cols().size()));
    for (size_t c : table->cluster_cols()) PutU32(out, static_cast<uint32_t>(c));
    out->push_back(table->unique_cluster() ? 1 : 0);
    PutU32(out, static_cast<uint32_t>(table->secondary_indexes().size()));
    for (const auto& idx : table->secondary_indexes()) {
      PutStr(out, idx->name);
      PutU32(out, static_cast<uint32_t>(idx->key_cols.size()));
      for (size_t c : idx->key_cols) PutU32(out, static_cast<uint32_t>(c));
      PutU32(out, static_cast<uint32_t>(idx->include_cols.size()));
      for (size_t c : idx->include_cols) PutU32(out, static_cast<uint32_t>(c));
    }
  }
  MutexLock lock(derived_mu_);
  PutU32(out, static_cast<uint32_t>(derived_.size()));
  for (const auto& [dname, d] : derived_) {
    PutStr(out, d.name);
    PutU32(out, static_cast<uint32_t>(d.bases.size()));
    for (const std::string& b : d.bases) PutStr(out, b);
  }
}

Status Catalog::DeserializeFrom(std::string_view in) {
  BlobReader r(in);
  ELE_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kCatalogMagic) return Status::Corruption("bad catalog magic");
  ELE_ASSIGN_OR_RETURN(uint32_t n_tables, r.U32());
  tables_.clear();
  {
    MutexLock lock(derived_mu_);
    derived_.clear();
    insert_logs_.clear();
  }
  next_table_id_ = 1;
  for (uint32_t t = 0; t < n_tables; t++) {
    ELE_ASSIGN_OR_RETURN(std::string name, r.Str());
    ELE_ASSIGN_OR_RETURN(uint8_t has_heap, r.U8());
    ELE_ASSIGN_OR_RETURN(uint32_t table_id, r.U32());
    ELE_ASSIGN_OR_RETURN(uint32_t heap_first, r.U32());
    ELE_ASSIGN_OR_RETURN(uint32_t heap_last, r.U32());
    ELE_ASSIGN_OR_RETURN(uint32_t n_cols, r.U32());
    std::vector<Column> cols;
    cols.reserve(n_cols);
    for (uint32_t c = 0; c < n_cols; c++) {
      Column col;
      ELE_ASSIGN_OR_RETURN(col.name, r.Str());
      ELE_ASSIGN_OR_RETURN(uint8_t type, r.U8());
      col.type = static_cast<TypeId>(type);
      ELE_ASSIGN_OR_RETURN(col.length, r.U32());
      ELE_ASSIGN_OR_RETURN(uint8_t nullable, r.U8());
      col.nullable = nullable != 0;
      cols.push_back(std::move(col));
    }
    ELE_ASSIGN_OR_RETURN(uint32_t n_cluster, r.U32());
    std::vector<size_t> cluster_cols;
    for (uint32_t c = 0; c < n_cluster; c++) {
      ELE_ASSIGN_OR_RETURN(uint32_t col, r.U32());
      cluster_cols.push_back(col);
    }
    ELE_ASSIGN_OR_RETURN(uint8_t unique_cluster, r.U8());
    ELE_ASSIGN_OR_RETURN(
        std::unique_ptr<Table> table,
        Table::Create(pool_, name, Schema(std::move(cols)),
                      std::move(cluster_cols), unique_cluster != 0));
    if (has_heap != 0) {
      auto heap = std::make_unique<TableHeap>(
          pool_, static_cast<page_id_t>(heap_first),
          static_cast<page_id_t>(heap_last));
      // Redo may have chained pages past the checkpointed tail.
      ELE_RETURN_NOT_OK(heap->RefreshLastPage());
      table->AttachHeap(std::move(heap), table_id);
      next_table_id_ = std::max(next_table_id_, table_id + 1);
      ELE_RETURN_NOT_OK(table->RebuildFromHeap());
    }
    ELE_ASSIGN_OR_RETURN(uint32_t n_secondary, r.U32());
    for (uint32_t s = 0; s < n_secondary; s++) {
      ELE_ASSIGN_OR_RETURN(std::string idx_name, r.Str());
      ELE_ASSIGN_OR_RETURN(uint32_t n_key, r.U32());
      std::vector<size_t> key_cols;
      for (uint32_t k = 0; k < n_key; k++) {
        ELE_ASSIGN_OR_RETURN(uint32_t col, r.U32());
        key_cols.push_back(col);
      }
      ELE_ASSIGN_OR_RETURN(uint32_t n_include, r.U32());
      std::vector<size_t> include_cols;
      for (uint32_t k = 0; k < n_include; k++) {
        ELE_ASSIGN_OR_RETURN(uint32_t col, r.U32());
        include_cols.push_back(col);
      }
      ELE_RETURN_NOT_OK(table->CreateSecondaryIndex(idx_name, std::move(key_cols),
                                                    std::move(include_cols)));
    }
    tables_[Normalize(name)] = std::move(table);
  }
  ELE_ASSIGN_OR_RETURN(uint32_t n_derived, r.U32());
  MutexLock lock(derived_mu_);
  for (uint32_t d = 0; d < n_derived; d++) {
    DerivedTable dt;
    ELE_ASSIGN_OR_RETURN(dt.name, r.Str());
    ELE_ASSIGN_OR_RETURN(uint32_t n_bases, r.U32());
    for (uint32_t b = 0; b < n_bases; b++) {
      ELE_ASSIGN_OR_RETURN(std::string base, r.Str());
      insert_logs_[base];
      dt.bases.push_back(std::move(base));
      dt.applied.push_back(0);
    }
    // Derived contents are never recovered, only recomputed: the owner
    // re-attaches the refresh hook, and the first read repopulates.
    dt.unknown = true;
    derived_[dt.name] = std::move(dt);
  }
  return Status::OK();
}

const VirtualTable* Catalog::GetVirtualTable(const std::string& name) const {
  auto it = virtual_tables_.find(Normalize(name));
  return it == virtual_tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::VirtualTableNames() const {
  std::vector<std::string> names;
  names.reserve(virtual_tables_.size());
  for (const auto& [key, vt] : virtual_tables_) names.push_back(vt->name);
  return names;
}

}  // namespace elephant
