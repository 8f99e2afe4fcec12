#include "mv/view.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>

#include "exec/expression.h"

namespace elephant {
namespace mv {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Canonical form of a join-condition set for comparison.
std::set<std::pair<std::string, std::string>> CanonicalJoins(
    const std::vector<std::pair<std::string, std::string>>& conds) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& [l, r] : conds) {
    std::string a = Lower(l), b = Lower(r);
    if (b < a) std::swap(a, b);
    out.emplace(a, b);
  }
  return out;
}

std::set<std::string> CanonicalTables(const std::vector<std::string>& tables) {
  std::set<std::string> out;
  for (const std::string& t : tables) out.insert(Lower(t));
  return out;
}

std::string AggSql(AggFunc fn, const std::string& column) {
  if (fn == AggFunc::kCountStar) return "COUNT(*)";
  return std::string(AggFuncName(fn)) + "(" + column + ")";
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : sep) + p;
  return out;
}

/// A column of a view's join: the base (index into ViewDef::tables) and the
/// column's position in that base's schema.
struct ColRef {
  size_t table = 0;
  size_t col = 0;
};

/// The counting rule over a view's join. Term i joins the rows inserted
/// into base i with the bases before i as they are now and the bases after
/// i as they were (their inserted rows skipped), so each join row that
/// involves an inserted row comes out once: ΔR⋈S ∪ R⋈ΔS ∪ ΔR⋈ΔS over the
/// old states. Every other base is reached by a seek on its leading
/// clustering column, as an index nested-loop join reaches its inner side.
struct DeltaJoin {
  explicit DeltaJoin(const ViewInfo& view) : info(view) {}

  const ViewInfo& info;
  std::vector<const Table*> tables;
  std::vector<std::pair<ColRef, ColRef>> conds;
  std::vector<ColRef> groups;
  std::vector<std::optional<ColRef>> args;  ///< per agg column; none: COUNT(*)
  /// Per base: the clustering keys of its inserted rows.
  std::vector<std::unordered_set<std::string_view>> inserted;
  size_t term = 0;
  std::vector<bool> reached;
  std::vector<Row> tuple;  ///< the current row of each base
  std::map<std::string, std::pair<Row, std::vector<AggState>>> out;

  Result<ColRef> Resolve(const std::string& column) const {
    for (size_t t = 0; t < tables.size(); t++) {
      const int c = tables[t]->schema().FindColumn(column);
      if (c >= 0) return ColRef{t, static_cast<size_t>(c)};
    }
    return Status::NotSupported("unknown view column " + column);
  }

  Status Walk(size_t n_reached) {
    if (n_reached == tables.size()) return Emit();
    for (const auto& [a, b] : conds) {
      for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        const std::vector<size_t>& cluster = tables[to.table]->cluster_cols();
        if (reached[from.table] && !reached[to.table] && !cluster.empty() &&
            cluster[0] == to.col) {
          return Seek(from, to, n_reached);
        }
      }
    }
    return Status::NotSupported(
        "a base of the view is not reachable by clustered-key seeks");
  }

  Status Seek(ColRef from, ColRef to, size_t n_reached) {
    const Value& probe = tuple[from.table][from.col];
    if (probe.is_null()) return Status::OK();  // NULL joins nothing
    const Table& t = *tables[to.table];
    ELE_ASSIGN_OR_RETURN(Value key,
                         probe.CastTo(t.schema().ColumnAt(to.col).type));
    const std::string lo = t.EncodeClusterPrefix({key});
    ELE_ASSIGN_OR_RETURN(Table::RowIterator it,
                         t.ScanRange(lo, keycodec::PrefixUpperBound(lo)));
    reached[to.table] = true;
    while (it.Valid()) {
      // A base after the term's is read as it was: its inserted rows skipped.
      if (to.table < term || inserted[to.table].count(it.EncodedKey()) == 0) {
        ELE_RETURN_NOT_OK(it.Current(&tuple[to.table]));
        ELE_RETURN_NOT_OK(Walk(n_reached + 1));
      }
      ELE_RETURN_NOT_OK(it.Next());
    }
    reached[to.table] = false;
    return Status::OK();
  }

  Status Emit() {
    for (const auto& [a, b] : conds) {
      const Value& x = tuple[a.table][a.col];
      const Value& y = tuple[b.table][b.col];
      if (x.is_null() || y.is_null() || x.Compare(y) != 0) return Status::OK();
    }
    Row key;
    std::string encoded;
    for (const ColRef& g : groups) {
      key.push_back(tuple[g.table][g.col]);
      keycodec::Encode(key.back(), &encoded);
    }
    auto [it, added] = out.try_emplace(std::move(encoded));
    if (added) {
      it->second.first = std::move(key);
      for (const ViewInfo::AggColumn& a : info.agg_cols) {
        it->second.second.emplace_back(a.fn);
      }
    }
    for (size_t a = 0; a < args.size(); a++) {
      ELE_RETURN_NOT_OK(it->second.second[a].Accumulate(
          args[a] ? tuple[args[a]->table][args[a]->col] : Value()));
    }
    return Status::OK();
  }
};

/// The view's groups over just the inserted rows, aggregates in AggState's
/// partial form. NotSupported when the walk cannot reach every base by
/// clustered-key seeks (the caller then re-materializes).
Result<std::vector<Row>> DeltaGroups(const Catalog& catalog,
                                     const ViewInfo& info,
                                     const DerivedChange& change) {
  DeltaJoin j(info);
  for (const std::string& name : info.def.tables) {
    ELE_ASSIGN_OR_RETURN(Table * t, catalog.GetTable(name));
    j.tables.push_back(t);
  }
  if (change.inserted.size() != j.tables.size()) {
    return Status::NotSupported("the view's bases changed");
  }
  for (const auto& [l, r] : info.def.join_conds) {
    ELE_ASSIGN_OR_RETURN(ColRef a, j.Resolve(l));
    ELE_ASSIGN_OR_RETURN(ColRef b, j.Resolve(r));
    j.conds.emplace_back(a, b);
  }
  for (const std::string& g : info.def.group_cols) {
    ELE_ASSIGN_OR_RETURN(ColRef c, j.Resolve(g));
    j.groups.push_back(c);
  }
  for (const ViewInfo::AggColumn& a : info.agg_cols) {
    j.args.emplace_back();
    if (a.fn != AggFunc::kCountStar) {
      ELE_ASSIGN_OR_RETURN(j.args.back(), j.Resolve(a.column));
    }
  }
  for (const std::vector<const InsertedRow*>& rows : change.inserted) {
    j.inserted.emplace_back();
    for (const InsertedRow* r : rows) j.inserted.back().insert(r->ckey);
  }
  j.tuple.resize(j.tables.size());
  for (j.term = 0; j.term < j.tables.size(); j.term++) {
    j.reached.assign(j.tables.size(), false);
    j.reached[j.term] = true;
    for (const InsertedRow* r : change.inserted[j.term]) {
      j.tuple[j.term] = r->row;
      ELE_RETURN_NOT_OK(j.Walk(1));
    }
  }
  std::vector<Row> delta;
  for (auto& [encoded, group] : j.out) {
    delta.push_back(std::move(group.first));
    for (const AggState& s : group.second) s.AppendPartial(&delta.back());
  }
  return delta;
}

/// Merges delta groups into the view's backing table. NULL is "no value" on
/// both sides, as in AggState::MergePartial: an all-NULL delta leaves a
/// stored SUM, MIN or MAX alone, and a stored NULL takes the delta's value.
Status MergeDelta(const ViewInfo& info, Table* table,
                  const std::vector<Row>& delta) {
  const size_t ngroups = info.def.group_cols.size();
  for (const Row& drow : delta) {
    const std::vector<Value> key(drow.begin(), drow.begin() + ngroups);
    const std::string lo = table->EncodeClusterPrefix(key);
    Row merged = drow;
    bool stored_group = false;
    {
      ELE_ASSIGN_OR_RETURN(Table::RowIterator it,
                           table->ScanRange(lo, keycodec::PrefixUpperBound(lo)));
      stored_group = it.Valid();
      if (stored_group) {
        Row stored;
        ELE_RETURN_NOT_OK(it.Current(&stored));
        merged.resize(ngroups);
        for (size_t a = 0; a < info.agg_cols.size(); a++) {
          AggState s(info.agg_cols[a].fn);
          ELE_RETURN_NOT_OK(s.MergePartial(stored, ngroups + a));
          ELE_RETURN_NOT_OK(s.MergePartial(drow, ngroups + a));
          s.AppendPartial(&merged);
        }
      }
    }
    if (stored_group) {
      ELE_RETURN_NOT_OK(table->DeleteByClusterPrefix(key).status());
    }
    ELE_RETURN_NOT_OK(table->Insert(merged));
  }
  return Status::OK();
}

}  // namespace

std::string ViewManager::MaterializationSql(const ViewInfo& info) {
  const ViewDef& def = info.def;
  std::vector<std::string> cols = def.group_cols, conds;
  for (const ViewInfo::AggColumn& a : info.agg_cols) {
    cols.push_back(AggSql(a.fn, a.column) + " AS " + a.mv_col);
  }
  for (const auto& [l, r] : def.join_conds) conds.push_back(l + " = " + r);
  return "SELECT " + Join(cols, ", ") + " FROM " + Join(def.tables, ", ") +
         (conds.empty() ? "" : " WHERE " + Join(conds, " AND ")) +
         " GROUP BY " + Join(def.group_cols, ", ");
}

Result<ViewInfo> ViewManager::MakeInfo(const ViewDef& def) {
  for (const AnalyticQuery::Agg& a : def.aggs) {
    if (a.fn == AggFunc::kAvg) {
      return Status::InvalidArgument(
          "materialize SUM and COUNT(*) instead of AVG; the matcher derives "
          "AVG from them");
    }
  }
  ViewInfo info;
  info.def = def;
  info.table_name = Lower(def.name);

  // Named aggregate columns; always include COUNT(*) (maintenance needs it).
  bool has_count_star = false;
  int i = 0;
  for (const AnalyticQuery::Agg& a : def.aggs) {
    ViewInfo::AggColumn col;
    col.fn = a.fn;
    col.column = Lower(a.column);
    col.mv_col = !a.alias.empty() ? Lower(a.alias) : "agg" + std::to_string(i);
    has_count_star |= a.fn == AggFunc::kCountStar;
    info.agg_cols.push_back(std::move(col));
    i++;
  }
  if (!has_count_star) {
    info.agg_cols.push_back(
        ViewInfo::AggColumn{AggFunc::kCountStar, "", "cnt_star"});
  }
  return info;
}

Status ViewManager::RegisterRefresh(const ViewInfo& info) {
  ELE_RETURN_NOT_OK(
      db_->catalog().RegisterDerivedTable(info.table_name, info.def.tables));
  // Called before `info` joins views_, so it lands at this index (views_
  // only grows).
  db_->catalog().SetDerivedRefresh(
      info.table_name, [this, i = views_.size()](const DerivedChange& change) {
        return Refresh(views_[i], change);
      });
  return Status::OK();
}

Status ViewManager::Refresh(const ViewInfo& info, const DerivedChange& change) {
  ELE_ASSIGN_OR_RETURN(Table * table, db_->catalog().GetTable(info.table_name));
  obs::MetricsRegistry& metrics = db_->metrics();
  if (!change.unknown) {
    Result<std::vector<Row>> delta = DeltaGroups(db_->catalog(), info, change);
    if (delta.ok()) {
      ELE_RETURN_NOT_OK(MergeDelta(info, table, delta.value()));
      uint64_t rows = 0;
      for (const auto& inserted : change.inserted) rows += inserted.size();
      metrics.GetCounter("mv.refresh.delta_total")->Increment();
      metrics.GetCounter("mv.refresh.delta_rows_total")->Increment(rows);
      return Status::OK();
    }
    if (!delta.status().IsNotSupported()) return delta.status();
  }
  ELE_ASSIGN_OR_RETURN(QueryResult fresh, db_->Execute(MaterializationSql(info)));
  ELE_RETURN_NOT_OK(table->ReloadRows(std::move(fresh.rows)));
  metrics.GetCounter("mv.refresh.full_total")->Increment();
  return table->Analyze();
}

Status ViewManager::AttachView(const ViewDef& def) {
  ELE_ASSIGN_OR_RETURN(ViewInfo info, MakeInfo(def));
  ELE_ASSIGN_OR_RETURN(Table * table,
                       db_->catalog().GetTable(info.table_name));
  info.rows = table->row_count();
  ELE_RETURN_NOT_OK(RegisterRefresh(info));
  views_.push_back(std::move(info));
  return Status::OK();
}

Status ViewManager::CreateView(const ViewDef& def) {
  ELE_ASSIGN_OR_RETURN(ViewInfo info, MakeInfo(def));

  // Materialize.
  ELE_ASSIGN_OR_RETURN(QueryResult result,
                       db_->Execute(MaterializationSql(info)));
  // Backing table: group columns (their original names/types) followed by
  // aggregate columns, clustered on the group columns.
  std::vector<Column> cols;
  std::vector<size_t> cluster;
  for (size_t g = 0; g < info.def.group_cols.size(); g++) {
    Column c = result.schema.ColumnAt(g);
    c.name = Lower(info.def.group_cols[g]);
    cols.push_back(c);
    cluster.push_back(g);
  }
  for (size_t a = 0; a < info.agg_cols.size(); a++) {
    Column c = result.schema.ColumnAt(info.def.group_cols.size() + a);
    c.name = info.agg_cols[a].mv_col;
    cols.push_back(c);
  }
  ELE_ASSIGN_OR_RETURN(Table * table,
                       db_->catalog().CreateTable(info.table_name, Schema(cols),
                                                  cluster, /*unique_cluster=*/true,
                                                  /*derived=*/true));
  info.rows = result.rows.size();
  ELE_RETURN_NOT_OK(table->BulkLoadRows(std::move(result.rows)));
  ELE_RETURN_NOT_OK(table->Analyze());
  ELE_RETURN_NOT_OK(RegisterRefresh(info));
  views_.push_back(std::move(info));
  return Status::OK();
}

bool ViewManager::Matches(const ViewInfo& info, const AnalyticQuery& query,
                          std::vector<std::string>* derived_aggs) const {
  if (CanonicalTables(info.def.tables) != CanonicalTables(query.tables)) {
    return false;
  }
  if (CanonicalJoins(info.def.join_conds) != CanonicalJoins(query.join_conds)) {
    return false;
  }
  std::set<std::string> view_groups;
  for (const std::string& g : info.def.group_cols) view_groups.insert(Lower(g));
  for (const AnalyticQuery::Filter& f : query.filters) {
    if (view_groups.count(Lower(f.column)) == 0) return false;
  }
  for (const std::string& g : query.group_cols) {
    if (view_groups.count(Lower(g)) == 0) return false;
  }
  // Aggregate derivability.
  auto find_col = [&info](AggFunc fn, const std::string& column) -> const char* {
    for (const ViewInfo::AggColumn& a : info.agg_cols) {
      if (a.fn == fn && a.column == Lower(column)) return a.mv_col.c_str();
    }
    return nullptr;
  };
  derived_aggs->clear();
  for (const AnalyticQuery::Agg& a : query.aggs) {
    std::string expr;
    switch (a.fn) {
      case AggFunc::kCountStar:
      case AggFunc::kCount: {  // TPC-H columns are non-null: COUNT == COUNT(*)
        const char* c = find_col(AggFunc::kCountStar, "");
        if (c == nullptr) return false;
        expr = std::string("SUM(") + c + ")";
        break;
      }
      case AggFunc::kSum: {
        const char* c = find_col(AggFunc::kSum, a.column);
        if (c == nullptr) return false;
        expr = std::string("SUM(") + c + ")";
        break;
      }
      case AggFunc::kMin: {
        const char* c = find_col(AggFunc::kMin, a.column);
        if (c == nullptr) return false;
        expr = std::string("MIN(") + c + ")";
        break;
      }
      case AggFunc::kMax: {
        const char* c = find_col(AggFunc::kMax, a.column);
        if (c == nullptr) return false;
        expr = std::string("MAX(") + c + ")";
        break;
      }
      case AggFunc::kAvg: {
        const char* s = find_col(AggFunc::kSum, a.column);
        const char* n = find_col(AggFunc::kCountStar, "");
        if (s == nullptr || n == nullptr) return false;
        expr = std::string("SUM(") + s + ") / SUM(" + n + ")";
        break;
      }
    }
    if (!a.alias.empty()) expr += " AS " + a.alias;
    derived_aggs->push_back(std::move(expr));
  }
  return true;
}

Result<std::string> ViewManager::TryRewrite(const AnalyticQuery& query) const {
  const ViewInfo* best = nullptr;
  std::vector<std::string> best_aggs;
  for (const ViewInfo& info : views_) {
    std::vector<std::string> derived;
    if (Matches(info, query, &derived) &&
        (best == nullptr || info.rows < best->rows)) {
      best = &info;
      best_aggs = std::move(derived);
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no materialized view matches " + query.name);
  }
  // Compensation: filter the view by the (group-column) predicates, then
  // re-aggregate to the query's grouping.
  std::string sql = "SELECT ";
  bool first = true;
  for (const std::string& g : query.group_cols) {
    if (!first) sql += ", ";
    sql += g;
    first = false;
  }
  for (const std::string& a : best_aggs) {
    if (!first) sql += ", ";
    sql += a;
    first = false;
  }
  sql += " FROM " + best->table_name;
  for (size_t i = 0; i < query.filters.size(); i++) {
    sql += i == 0 ? " WHERE " : " AND ";
    const AnalyticQuery::Filter& f = query.filters[i];
    sql += AnalyticQuery::FilterToSql(f.column, f.op, f.value);
  }
  if (!query.group_cols.empty()) {
    sql += " GROUP BY ";
    for (size_t i = 0; i < query.group_cols.size(); i++) {
      if (i > 0) sql += ", ";
      sql += query.group_cols[i];
    }
  }
  return sql;
}

}  // namespace mv
}  // namespace elephant
