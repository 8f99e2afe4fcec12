#include "cstore/ctable_builder.h"

#include <algorithm>
#include <cctype>

#include "cstore/compression.h"
#include "parser/parser.h"

namespace elephant {
namespace cstore {

namespace {

/// Runs the projection query and sorts its rows by the named sort columns;
/// fills `sort_idx` with their positions in the output schema. Shared by the
/// initial build and the stale-rebuild callback so both produce the same
/// virtual-id assignment.
Result<QueryResult> MaterializeSorted(Database* db, const std::string& query,
                                      const std::string& projection,
                                      const std::vector<std::string>& sort_cols,
                                      std::vector<size_t>* sort_idx) {
  ELE_ASSIGN_OR_RETURN(QueryResult result, db->Execute(query));
  const Schema& schema = result.schema;
  sort_idx->clear();
  for (const std::string& name : sort_cols) {
    const int idx = schema.FindColumn(name);
    if (idx < 0) {
      return Status::InvalidArgument("sort column " + name +
                                     " not produced by projection query");
    }
    sort_idx->push_back(static_cast<size_t>(idx));
  }
  if (sort_idx->size() != schema.NumColumns()) {
    return Status::InvalidArgument(
        "projection " + projection +
        " must list every projected column in its sort order (footnote 4)");
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [sort_idx](const Row& a, const Row& b) {
              for (size_t c : *sort_idx) {
                const int cmp = a[c].Compare(b[c]);
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
  return result;
}

/// Recomputes one c-table's (f, v[, c]) rows from the sorted projection.
/// The representation (with or without the count column) is fixed by the
/// c-table's schema at build time, so rebuilds keep it.
std::vector<Row> CTableRows(const std::vector<Row>& rows, size_t col,
                            const std::vector<size_t>& prefix,
                            bool has_count) {
  std::vector<Row> out;
  if (has_count) {
    std::vector<compression::Run> runs =
        compression::RleRuns(rows, col, prefix);
    out.reserve(runs.size());
    int32_t f = 0;
    for (const compression::Run& run : runs) {
      out.push_back({Value::Int32(f), run.value,
                     Value::Int32(static_cast<int32_t>(run.count))});
      f += static_cast<int32_t>(run.count);
    }
  } else {
    out.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
      out.push_back({Value::Int32(static_cast<int32_t>(i)), rows[i][col]});
    }
  }
  return out;
}

/// The refresh hook for one c-table: whatever changed, it re-materializes
/// the projection (c-tables have no incremental path). Self-contained on
/// purpose: the builder is often a temporary, so the hook captures the
/// database and the projection definition, not the builder.
std::function<Status(const DerivedChange&)> MakeRebuildHook(
    Database* db, std::string query, std::string projection,
    std::vector<std::string> sort_cols, size_t pos, bool has_count,
    std::string table_name) {
  return [db, query = std::move(query), projection = std::move(projection),
          sort_cols = std::move(sort_cols), pos, has_count,
          name = std::move(table_name)](const DerivedChange&) -> Status {
    std::vector<size_t> idx;
    ELE_ASSIGN_OR_RETURN(
        QueryResult fresh,
        MaterializeSorted(db, query, projection, sort_cols, &idx));
    const size_t col = idx[pos];
    std::vector<size_t> prefix(idx.begin(), idx.begin() + pos);
    ELE_ASSIGN_OR_RETURN(Table * t, db->catalog().GetTable(name));
    ELE_RETURN_NOT_OK(
        t->ReloadRows(CTableRows(fresh.rows, col, prefix, has_count)));
    return t->Analyze();
  };
}

}  // namespace

std::string CTableBuilder::CTableName(const std::string& projection,
                                      const std::string& column) {
  std::string out = projection + "_" + column;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<ProjectionMeta> CTableBuilder::Build(const ProjectionDef& def) {
  // 1./2. Materialize the projection's rows, resolve sort columns (footnote
  // 4: they must cover every projected column), sort, and assign virtual ids
  // implicitly (row position after sorting).
  std::vector<size_t> sort_idx;
  ELE_ASSIGN_OR_RETURN(
      QueryResult result,
      MaterializeSorted(db_, def.query, def.name, def.sort_cols, &sort_idx));
  const Schema& schema = result.schema;
  std::vector<Row>& rows = result.rows;

  // The projection's base tables, for staleness tracking: a write to any of
  // them invalidates every c-table built here.
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(def.query));
  std::vector<std::string> bases;
  CollectTableNames(*sel, &bases);

  ProjectionMeta meta;
  meta.name = def.name;
  meta.rows = rows.size();

  // 3./4./5. One c-table per column, in sort order.
  std::vector<size_t> prefix;
  for (size_t pos = 0; pos < sort_idx.size(); pos++) {
    const size_t col = sort_idx[pos];
    const Column& src = schema.ColumnAt(col);
    std::vector<compression::Run> runs = compression::RleRuns(rows, col, prefix);

    // Representation choice: (f, v, c) only when it is smaller than the
    // plain (f, v) projection of all rows.
    const uint64_t value_bytes = compression::NativeValueBytes(src.type, src.length);
    const uint64_t with_count =
        compression::CTableRowStoreBytes(runs.size(), value_bytes, true);
    const uint64_t without_count =
        compression::CTableRowStoreBytes(rows.size(), value_bytes, false);
    const bool has_count = with_count < without_count;

    CTableMeta ct;
    ct.table_name = CTableName(def.name, src.name);
    ct.column = src.name;
    ct.type = src.type;
    ct.char_length = src.length;
    ct.has_count = has_count;
    ct.sort_position = static_cast<int>(pos);
    ct.runs = has_count ? runs.size() : rows.size();
    ct.rle_runs = runs.size();
    ct.source_rows = rows.size();

    // f and c are 32-bit: virtual ids fit (the paper's SF-10 lineitem has
    // 60M rows), and slimmer tuples keep the row-store overhead close to the
    // paper's 9-bytes-per-tuple figure. f is unique, so clustered keys carry
    // no uniquifier.
    std::vector<Column> cols;
    cols.emplace_back("f", TypeId::kInt32, 0, /*null_ok=*/false);
    cols.emplace_back("v", src.type, src.length);
    if (has_count) cols.emplace_back("c", TypeId::kInt32, 0, /*null_ok=*/false);
    ELE_ASSIGN_OR_RETURN(Table * table,
                         db_->catalog().CreateTable(ct.table_name, Schema(cols),
                                                    {0}, /*unique_cluster=*/true,
                                                    /*derived=*/true));

    ELE_RETURN_NOT_OK(
        table->BulkLoadRows(CTableRows(rows, col, prefix, has_count)));

    // Secondary covering index with leading column v (includes f and c), as
    // in §2.2.1: "a secondary covering index with leading column v".
    std::vector<size_t> includes{0};
    if (has_count) includes.push_back(2);
    ELE_RETURN_NOT_OK(
        table->CreateSecondaryIndex(ct.table_name + "_v", {1}, includes));
    ELE_RETURN_NOT_OK(table->Analyze());
    ELE_ASSIGN_OR_RETURN(ct.on_disk_pages, table->ClusteredPages());

    // A base-table write marks this c-table stale; the next query touching
    // it re-materializes the projection and reloads through this callback.
    // Self-contained on purpose: the builder is often a temporary, so the
    // callback captures the database, not `this`.
    ELE_RETURN_NOT_OK(
        db_->catalog().RegisterDerivedTable(ct.table_name, bases));
    db_->catalog().SetDerivedRefresh(
        ct.table_name, MakeRebuildHook(db_, def.query, def.name, def.sort_cols,
                                       pos, has_count, ct.table_name));

    meta.ctables.push_back(std::move(ct));
    prefix.push_back(col);
  }
  return meta;
}

Status CTableBuilder::AttachRebuild(const ProjectionDef& def) {
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(def.query));
  std::vector<std::string> bases;
  CollectTableNames(*sel, &bases);
  for (size_t pos = 0; pos < def.sort_cols.size(); pos++) {
    const std::string name = CTableName(def.name, def.sort_cols[pos]);
    ELE_ASSIGN_OR_RETURN(Table * table, db_->catalog().GetTable(name));
    const bool has_count = table->schema().NumColumns() == 3;
    ELE_RETURN_NOT_OK(db_->catalog().RegisterDerivedTable(name, bases));
    db_->catalog().SetDerivedRefresh(
        name, MakeRebuildHook(db_, def.query, def.name, def.sort_cols, pos,
                              has_count, name));
  }
  return Status::OK();
}

}  // namespace cstore
}  // namespace elephant
