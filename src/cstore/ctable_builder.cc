#include "cstore/ctable_builder.h"

#include <cctype>

#include "cstore/compression.h"
#include "parser/parser.h"

namespace elephant {
namespace cstore {

namespace {

/// A projection's rows sorted by its sort columns, as typed columns.
struct SortedProjection {
  Schema schema;
  Batch rows;
  std::vector<size_t> sort_idx;  ///< sort columns' positions in `schema`
  std::vector<uint32_t> first_diff;  ///< compression::FirstDifferences
};

/// Runs the projection query ordered by its sort columns and resolves
/// their positions. The engine's Sort orders by the key encoding, which
/// agrees with Value::Compare (NULLs first, trailing spaces ignored). Shared
/// by the initial build and the rebuild hook so both produce the same
/// virtual-id assignment (a row's id is its position).
Result<SortedProjection> RunSorted(Database* db, const ProjectionDef& def) {
  std::string sql = def.query + " ORDER BY ";
  for (size_t i = 0; i < def.sort_cols.size(); i++) {
    sql += (i == 0 ? "" : ", ") + def.sort_cols[i];
  }
  SortedProjection out;
  ELE_ASSIGN_OR_RETURN(QueryResult result, db->ExecuteInto(sql, &out.rows));
  out.schema = std::move(result.schema);
  for (const std::string& name : def.sort_cols) {
    const int idx = out.schema.FindColumn(name);
    if (idx < 0) {
      return Status::InvalidArgument("sort column " + name +
                                     " not produced by projection query");
    }
    out.sort_idx.push_back(static_cast<size_t>(idx));
  }
  if (out.sort_idx.size() != out.schema.NumColumns()) {
    return Status::InvalidArgument(
        "projection " + def.name +
        " must list every projected column in its sort order (footnote 4)");
  }
  out.first_diff = compression::FirstDifferences(out.rows, out.sort_idx);
  return out;
}

/// The rows of the c-table at sort position `pos`, typed as its `schema`:
/// one (f, v, c) per run when the schema has the count column, else one
/// (f, v) per row. f is the first virtual id, v the run's (first) value.
Batch CTableBatch(const SortedProjection& proj, size_t pos,
                  const Schema& schema) {
  const ColumnVector& src = proj.rows.col(proj.sort_idx[pos]);
  const uint32_t n = proj.rows.num_rows();
  const bool has_count = schema.NumColumns() == 3;
  Batch out;
  out.Reset(schema);
  ColumnVector& f = out.col(0);
  ColumnVector& v = out.col(1);
  for (uint32_t r = 0; r < n; r++) {
    if (has_count && proj.first_diff[r] > pos) continue;
    if (has_count && r > 0) out.col(2).AppendInt(r - f.Int(f.size() - 1));
    f.AppendInt(r);
    v.Append(src, r);
  }
  if (has_count && n > 0) out.col(2).AppendInt(n - f.Int(f.size() - 1));
  out.SetRowCount(f.size());
  return out;
}

/// The refresh hook for one c-table: whatever changed, it re-materializes
/// the projection (c-tables have no incremental path). Self-contained on
/// purpose: the builder is often a temporary, so the hook captures the
/// database and the projection definition, not the builder. The
/// representation (with or without the count column) is the one the
/// c-table's schema fixed at build time.
std::function<Status(const DerivedChange&)> MakeRebuildHook(
    Database* db, ProjectionDef def, size_t pos, std::string table_name) {
  return [db, def = std::move(def), pos,
          name = std::move(table_name)](const DerivedChange&) -> Status {
    ELE_ASSIGN_OR_RETURN(SortedProjection proj, RunSorted(db, def));
    ELE_ASSIGN_OR_RETURN(Table * t, db->catalog().GetTable(name));
    return t->BulkLoad(CTableBatch(proj, pos, t->schema()));
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
  // 1./2. Materialize the projection's rows sorted (footnote 4: the sort
  // columns cover every projected column); a row's virtual id is its
  // position.
  ELE_ASSIGN_OR_RETURN(SortedProjection proj, RunSorted(db_, def));
  const uint32_t rows = proj.rows.num_rows();
  const std::vector<uint64_t> runs =
      compression::RunCounts(proj.first_diff, proj.sort_idx.size());

  // The projection's base tables, for staleness tracking: a write to any of
  // them invalidates every c-table built here.
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(def.query));
  std::vector<std::string> bases;
  CollectTableNames(*sel, &bases);

  ProjectionMeta meta;
  meta.name = def.name;
  meta.rows = rows;

  // 3./4./5. One c-table per column, in sort order.
  for (size_t pos = 0; pos < proj.sort_idx.size(); pos++) {
    const Column& src = proj.schema.ColumnAt(proj.sort_idx[pos]);

    // Representation choice: (f, v, c) only when it is smaller than the
    // plain (f, v) projection of all rows.
    const uint64_t value_bytes = compression::NativeValueBytes(src.type, src.length);
    const uint64_t with_count =
        compression::CTableRowStoreBytes(runs[pos], value_bytes, true);
    const uint64_t without_count =
        compression::CTableRowStoreBytes(rows, value_bytes, false);
    const bool has_count = with_count < without_count;

    CTableMeta ct;
    ct.table_name = CTableName(def.name, src.name);
    ct.column = src.name;
    ct.type = src.type;
    ct.char_length = src.length;
    ct.has_count = has_count;
    ct.sort_position = static_cast<int>(pos);
    ct.runs = has_count ? runs[pos] : rows;
    ct.rle_runs = runs[pos];
    ct.source_rows = rows;

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
    // Secondary covering index with leading column v (includes f and c), as
    // in §2.2.1: "a secondary covering index with leading column v". It is
    // declared on the empty table, so the load builds it, and the column
    // statistics, from the same lanes as the clustered tree.
    std::vector<size_t> includes{0};
    if (has_count) includes.push_back(2);
    ELE_RETURN_NOT_OK(
        table->CreateSecondaryIndex(ct.table_name + "_v", {1}, includes));
    ELE_RETURN_NOT_OK(table->BulkLoad(CTableBatch(proj, pos, table->schema())));
    ELE_ASSIGN_OR_RETURN(ct.on_disk_pages, table->ClusteredPages());

    // A base-table write marks this c-table stale; the next query touching
    // it re-materializes the projection and reloads through this callback.
    ELE_RETURN_NOT_OK(
        db_->catalog().RegisterDerivedTable(ct.table_name, bases));
    db_->catalog().SetDerivedRefresh(
        ct.table_name, MakeRebuildHook(db_, def, pos, ct.table_name));

    meta.ctables.push_back(std::move(ct));
  }
  return meta;
}

Status CTableBuilder::AttachRebuild(const ProjectionDef& def) {
  ELE_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(def.query));
  std::vector<std::string> bases;
  CollectTableNames(*sel, &bases);
  for (size_t pos = 0; pos < def.sort_cols.size(); pos++) {
    const std::string name = CTableName(def.name, def.sort_cols[pos]);
    ELE_RETURN_NOT_OK(db_->catalog().RegisterDerivedTable(name, bases));
    db_->catalog().SetDerivedRefresh(name,
                                     MakeRebuildHook(db_, def, pos, name));
  }
  return Status::OK();
}

}  // namespace cstore
}  // namespace elephant
