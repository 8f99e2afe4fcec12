#pragma once

#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cstore/analytic_query.h"
#include "engine/database.h"

namespace elephant {
namespace mv {

/// A materialized view definition: a group-by aggregate over a join of base
/// tables, like the paper's generalized views (§2.1):
///
///   MV2,3 = SELECT l_shipdate, l_suppkey, COUNT(*)
///           FROM lineitem GROUP BY l_shipdate, l_suppkey
///
/// The view's group-by columns are deliberately *wider* than any single
/// query's so that one view answers a whole family of parameterized queries.
struct ViewDef {
  std::string name;
  std::vector<std::string> tables;
  std::vector<std::pair<std::string, std::string>> join_conds;
  std::vector<std::string> group_cols;
  /// Aggregates to materialize. AVG is rejected: store SUM and COUNT(*)
  /// instead and let the matcher derive AVG.
  std::vector<AnalyticQuery::Agg> aggs;
};

/// Metadata for a materialized view (its backing table is an ordinary
/// relational table clustered on the group-by columns, so parameterized
/// filters on a group-column prefix become clustered-index seeks).
struct ViewInfo {
  ViewDef def;
  std::string table_name;

  struct AggColumn {
    AggFunc fn;
    std::string column;  ///< base column ("" for COUNT(*))
    std::string mv_col;  ///< column name in the view's backing table
  };
  std::vector<AggColumn> agg_cols;  ///< includes the implicit COUNT(*) column
  uint64_t rows = 0;
};

/// Creates, matches and maintains materialized views — the paper's
/// `Row(MV)` strategy, implemented entirely with plain tables and rewritten
/// SQL (view matching would be native in SQL Server; here the manager plays
/// that role outside an unmodified engine).
class ViewManager {
 public:
  explicit ViewManager(Database* db) : db_(db) {}

  /// Materializes the view (executes its defining query, stores the result
  /// clustered on the group columns) and registers it for matching. A
  /// COUNT(*) column is always materialized (needed for maintenance and for
  /// COUNT/AVG derivation).
  Status CreateView(const ViewDef& def);

  /// Re-adopts a view whose backing table already exists — after crash
  /// recovery, the recovered catalog still knows the derived table and its
  /// bases but the refresh hook (a callback into this manager) is gone.
  /// Registers the view for matching and re-attaches the hook; if recovery
  /// left the view stale, the next read re-materializes it.
  Status AttachView(const ViewDef& def);

  const std::vector<ViewInfo>& views() const { return views_; }

  /// View matching: if some view can answer `query`, returns the
  /// compensating SQL over the view's backing table (filters on group
  /// columns + re-aggregation). Picks the smallest matching view. Returns
  /// NotFound when no view matches — the caller falls back to another
  /// strategy, mirroring §2.1's discussion of the approach's narrow scope.
  Result<std::string> TryRewrite(const AnalyticQuery& query) const;

  /// The view's defining query, ordered by the group columns (the backing
  /// table's key order): creation and a full refresh load its rows as they
  /// come, and tests and benches check views against it.
  static std::string MaterializationSql(const ViewInfo& info);

 private:
  /// Builds the ViewInfo for `def` (named aggregate columns, the implicit
  /// COUNT(*)); shared by CreateView and AttachView so both derive the same
  /// backing-table layout.
  static Result<ViewInfo> MakeInfo(const ViewDef& def);

  /// Registers `info`'s backing table as derived from its bases and attaches
  /// Refresh as its refresh hook.
  Status RegisterRefresh(const ViewInfo& info);

  /// The view's one refresh entry point, run by the next read after its
  /// bases changed. Inserted rows are merged as a delta (counting rule over
  /// the join, then COUNT/SUM add and MIN/MAX take the extreme); an unknown
  /// change, or a join the delta cannot walk by clustered-key seeks,
  /// re-materializes the view from MaterializationSql.
  Status Refresh(const ViewInfo& info, const DerivedChange& change);

  /// True when the view can answer the query; fills the derived agg exprs.
  bool Matches(const ViewInfo& info, const AnalyticQuery& query,
               std::vector<std::string>* derived_aggs) const;

  Database* db_;
  std::vector<ViewInfo> views_;
};

}  // namespace mv
}  // namespace elephant
