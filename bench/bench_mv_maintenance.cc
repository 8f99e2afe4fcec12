// Measures the maintenance cost of the Row(MV) strategy: materialized views
// are "automatically updated" (§2.1), and the data-warehouse setting is
// read-mostly with batch appends. This bench appends order batches to the
// TPC-H fact tables with SQL INSERT, then reads each of the five paper views,
// which refreshes it by merging the inserted rows as a delta. It reports the
// refresh cost against the cost of recomputing every view from scratch, and
// exits non-zero unless every view equals its defining GROUP BY afterwards.
//
// Environment: ELEPHANT_SF (default 0.02).

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "benchlib/harness.h"
#include "benchlib/report.h"
#include "benchlib/telemetry.h"
#include "common/rng.h"

namespace elephant {
namespace paper {
namespace {

double Since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The view's stored rows, in MaterializationSql's column order.
std::string StoredSql(const mv::ViewInfo& info) {
  std::string cols;
  for (const std::string& g : info.def.group_cols) cols += g + ", ";
  for (const mv::ViewInfo::AggColumn& a : info.agg_cols) cols += a.mv_col + ", ";
  return "SELECT " + cols.substr(0, cols.size() - 2) + " FROM " + info.table_name;
}

int Run() {
  PaperBench::Options options;
  const char* sf = std::getenv("ELEPHANT_SF");
  options.scale_factor = sf != nullptr ? std::atof(sf) : 0.02;
  options.build_ctables = false;
  std::printf("=== MV incremental maintenance, TPC-H SF %.3f ===\n",
              options.scale_factor);
  PaperBench bench(options);
  Status s = bench.Setup();
  if (!s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Database& db = bench.db();

  auto orders = db.catalog().GetTable("orders");
  auto customer = db.catalog().GetTable("customer");
  if (!orders.ok() || !customer.ok()) return 1;
  int32_t next_orderkey =
      static_cast<int32_t>(orders.value()->row_count()) + 1;
  const int64_t num_customers =
      static_cast<int64_t>(customer.value()->row_count());
  const DatabaseStats& stats = db.stats();

  Rng rng(777);
  ReportTable t({"batch_orders", "batch_lineitems", "append", "refresh_on_read",
                 "delta_refreshes", "full_recompute"});
  for (int batch_orders : {10, 100, 1000}) {
    // Append a batch of orders with fresh keys, one INSERT per table.
    std::vector<std::string> order_rows, line_rows;
    for (int i = 0; i < batch_orders; i++) {
      const int32_t ok = next_orderkey++;
      const int32_t od = date::FromYMD(1998, 8, 2) - static_cast<int32_t>(rng.Uniform(0, 100));
      order_rows.push_back(
          "(" + std::to_string(ok) + ", " +
          std::to_string(rng.Uniform(1, num_customers)) + ", 'O', 1000.00, " +
          SqlLiteral(Value::Date(od)) + ", '1-URGENT', 0)");
      const int lines = static_cast<int>(rng.Uniform(1, 7));
      for (int ln = 1; ln <= lines; ln++) {
        line_rows.push_back(
            "(" + std::to_string(ok) + ", " + std::to_string(ln) + ", " +
            std::to_string(rng.Uniform(1, 100)) + ", " +
            std::to_string(rng.Uniform(1, 50)) + ", " +
            SqlLiteral(Value::Decimal(rng.Uniform(10000, 500000))) +
            ", 0.05, 0.02, 'N', 'O', " +
            SqlLiteral(Value::Date(od + static_cast<int32_t>(rng.Uniform(1, 121)))) +
            ", " + SqlLiteral(Value::Date(od + 45)) + ", " +
            SqlLiteral(Value::Date(od + 130)) + ", 'NONE', 'AIR')");
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [table, rows] : {std::pair{"orders", &order_rows},
                                      std::pair{"lineitem", &line_rows}}) {
      std::string values;
      for (const std::string& row : *rows) {
        values += (values.empty() ? "" : ", ") + row;
      }
      auto r = db.Execute("INSERT INTO " + std::string(table) + " VALUES " + values);
      if (!r.ok()) {
        std::fprintf(stderr, "append failed: %s\n", r.status().ToString().c_str());
        return 1;
      }
    }
    const double append_s = Since(t0);

    // Reading each view refreshes it first.
    const uint64_t deltas_before = stats.view_delta_refreshes.load();
    const auto t1 = std::chrono::steady_clock::now();
    for (const mv::ViewInfo& info : bench.views().views()) {
      if (!db.Execute("SELECT COUNT(*) FROM " + info.table_name).ok()) return 1;
    }
    const double refresh_s = Since(t1);
    const uint64_t deltas = stats.view_delta_refreshes.load() - deltas_before;

    // Recompute every view from scratch and check the maintained contents
    // against it.
    double recompute_s = 0;
    for (const mv::ViewInfo& info : bench.views().views()) {
      auto expected = db.Execute(mv::ViewManager::MaterializationSql(info));
      auto stored = db.Execute(StoredSql(info));
      if (!expected.ok() || !stored.ok()) return 1;
      recompute_s += expected.value().cpu_seconds;
      if (ResultChecksum(stored.value()) != ResultChecksum(expected.value())) {
        std::fprintf(stderr, "view %s differs from its GROUP BY after %d orders\n",
                     info.def.name.c_str(), batch_orders);
        return 1;
      }
    }
    t.AddRow({std::to_string(batch_orders), std::to_string(line_rows.size()),
              FormatSeconds(append_s), FormatSeconds(refresh_s),
              std::to_string(deltas), FormatSeconds(recompute_s)});
    BenchTelemetry::Instance().RecordMetrics(
        {{"batch_orders", std::to_string(batch_orders)}},
        {{"batch_lineitems", static_cast<double>(line_rows.size())},
         {"append_seconds", append_s},
         {"incremental_refresh_seconds", refresh_s},
         {"delta_refreshes", static_cast<double>(deltas)},
         {"full_recompute_seconds", recompute_s}});
  }
  std::printf("\n%s\n", t.ToString().c_str());
  std::printf(
      "expected shape: refresh-on-read scales with the batch, staying well\n"
      "below full recomputation — the row-store machinery the paper leans on\n"
      "('materialized views ... are automatically updated').\n");
  std::printf("post-maintenance consistency: every view equals its GROUP BY\n");
  return 0;
}

}  // namespace
}  // namespace paper
}  // namespace elephant

int main(int argc, char** argv) {
  elephant::paper::BenchTelemetry::Instance().Configure("mv_maintenance", &argc,
                                                        argv);
  const int rc = elephant::paper::Run();
  if (!elephant::paper::BenchTelemetry::Instance().Flush()) return 1;
  return rc;
}
