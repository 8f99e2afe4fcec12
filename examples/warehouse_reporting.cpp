// The §2.1 scenario: a data warehouse serving *reporting* queries — the same
// parameterized query families day after day. Materialized views generalized
// over the parameters answer every instance, and incremental maintenance
// absorbs the nightly batch append.
//
// Build & run:  cmake --build build && ./build/examples/warehouse_reporting

#include <cstdio>

#include "benchlib/harness.h"
#include "benchlib/report.h"

using namespace elephant;
using paper::PaperBench;

int main() {
  PaperBench::Options options;
  options.scale_factor = 0.01;
  options.build_ctables = false;  // this shop runs on views alone
  PaperBench bench(options);
  std::printf("loading TPC-H SF %.2f and materializing the report views...\n",
              options.scale_factor);
  if (Status s = bench.Setup(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Database& db = bench.db();

  std::printf("\nviews on file:\n");
  for (const mv::ViewInfo& v : bench.views().views()) {
    std::printf("  %-6s %llu groups\n", v.table_name.c_str(),
                static_cast<unsigned long long>(v.rows));
  }

  // The same report, different parameters, every day: "count of items
  // shipped per supplier on day D" (the paper's Q2 family).
  std::printf("\n== daily report: Q2 for three different dates ==\n");
  for (double frac : {0.2, 0.5, 0.8}) {
    auto d = bench.ShipdateForSelectivity(frac);
    if (!d.ok()) return 1;
    AnalyticQuery q = paper::Q2(d.value());
    auto direct = bench.RunRow(q);
    auto via_mv = bench.RunMv(q);
    if (!direct.ok() || !via_mv.ok()) return 1;
    std::printf("  D = %s: Row %s -> Row(MV) %s (%s faster), %llu suppliers\n",
                d.value().ToString().c_str(),
                paper::FormatSeconds(direct.value().seconds).c_str(),
                paper::FormatSeconds(via_mv.value().seconds).c_str(),
                paper::FormatRatio(direct.value().seconds /
                                   via_mv.value().seconds)
                    .c_str(),
                static_cast<unsigned long long>(via_mv.value().rows));
    if (direct.value().checksum != via_mv.value().checksum) {
      std::fprintf(stderr, "  MISMATCH!\n");
      return 1;
    }
  }

  // The revenue report (Q7 family): answered straight off mv7.
  std::printf("\n== lost-revenue report (Q7) ==\n");
  {
    AnalyticQuery q = paper::Q7();
    auto mv_sql = bench.views().TryRewrite(q);
    if (!mv_sql.ok()) return 1;
    std::printf("rewritten to: %s\n", mv_sql.value().c_str());
    auto r = db.Execute(mv_sql.value());
    if (!r.ok()) return 1;
    std::printf("%s\n", r.value().ToString(5).c_str());
  }

  // Nightly batch: 50 new orders arrive; each view merges them the next
  // time a query reads it.
  std::printf("== nightly append + incremental view refresh ==\n");
  auto orders = db.catalog().GetTable("orders");
  if (!orders.ok()) return 1;
  const int32_t first_new = static_cast<int32_t>(orders.value()->row_count()) + 1;
  std::string order_rows, line_rows;
  for (int i = 0; i < 50; i++) {
    const std::string key = std::to_string(first_new + i);
    const int32_t od = date::FromYMD(1998, 7, 1) + i % 30;
    const std::string sep = i > 0 ? ", " : "";
    order_rows += sep + "(" + key + ", " + std::to_string(1 + i) +
                  ", 'O', 500.00, " + SqlLiteral(Value::Date(od)) +
                  ", '2-HIGH', 0)";
    line_rows += sep + "(" + key + ", 1, " + std::to_string(1 + i % 100) +
                 ", 5, 1234.56, 0.03, 0.02, 'N', 'O', " +
                 SqlLiteral(Value::Date(od + 20)) + ", " +
                 SqlLiteral(Value::Date(od + 45)) + ", " +
                 SqlLiteral(Value::Date(od + 30)) + ", 'NONE', 'MAIL')";
  }
  for (const std::string& sql : {"INSERT INTO orders VALUES " + order_rows,
                                 "INSERT INTO lineitem VALUES " + line_rows}) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "append failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("appended 50 orders; views refresh incrementally on read.\n");

  // Tomorrow's report reflects tonight's data, still via the view.
  {
    auto d = date::Parse("1998-07-10");
    AnalyticQuery q = paper::Q2(Value::Date(d.value()));
    auto via_mv = bench.RunMv(q);
    auto direct = bench.RunRow(q);
    if (!via_mv.ok() || !direct.ok()) return 1;
    std::printf("post-append Q2 agreement: %s\n",
                via_mv.value().checksum == direct.value().checksum ? "OK"
                                                                   : "MISMATCH");
  }
  std::printf(
      "\nmoral (S2.1): for reporting workloads, generalized materialized\n"
      "views 'should be, in fact, the right approach'.\n");
  return 0;
}
