// Telemetry tour: every engine-lifetime observability surface in one run.
//
//   - Chrome-trace/Perfetto export: spans from session statements, worker
//     tasks, page faults and disk seeks (open the file at ui.perfetto.dev)
//   - Prometheus text exposition: Database::ExportMetrics(), the
//     elephant_stat_* tables rendered as gauges
//   - per-object page-access heatmap: which tables/indexes paid the I/O
//   - elephant_stat_statements: per-statement-family time, modeled I/O and
//     wait time, queried through SQL
//
// Build & run:  cmake --build build && ./build/examples/telemetry_demo

#include <cstdio>

#include "engine/database.h"
#include "engine/session.h"
#include "obs/trace_log.h"

using elephant::Database;
using elephant::DatabaseOptions;
using elephant::Session;
using elephant::SessionManager;

namespace {

void MustExec(Database& db, const std::string& sql) {
  auto r = db.Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "FAILED: %s\n  %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  DatabaseOptions options;
  options.worker_threads = 4;
  Database db(options);

  // Everything below lands in the trace.
  elephant::obs::TraceLog::Global().Enable();

  MustExec(db,
           "CREATE TABLE events (id INT, device INT, reading DECIMAL) "
           "CLUSTER BY (id)");
  for (int batch = 0; batch < 20; batch++) {
    std::string sql = "INSERT INTO events VALUES ";
    for (int i = 0; i < 100; i++) {
      const int id = batch * 100 + i;
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(id) + ", " + std::to_string(id % 7) + ", " +
             std::to_string((id * 37) % 1000) + ".5)";
    }
    MustExec(db, sql);
  }
  MustExec(db, "CREATE INDEX events_by_device ON events (device)");

  // Two concurrent sessions, each running a PARALLEL aggregate: worker-task
  // and morsel spans nest under each session's statement span.
  {
    SessionManager sessions(&db, /*session_threads=*/2);
    Session* s1 = sessions.OpenSession();
    Session* s2 = sessions.OpenSession();
    auto f1 = sessions.Submit(
        s1, "/*+ PARALLEL 4 */ SELECT COUNT(*), SUM(reading) FROM events");
    auto f2 = sessions.Submit(
        s2,
        "/*+ PARALLEL 4 */ SELECT device, COUNT(*) FROM events "
        "GROUP BY device ORDER BY device");
    if (!f1.get().ok() || !f2.get().ok()) return 1;
  }
  MustExec(db, "SELECT reading FROM events WHERE device = 3");

  elephant::obs::TraceLog::Global().Disable();

  std::printf("--- top statement families (elephant_stat_statements) ----\n");
  auto top = db.Execute(
      "SELECT calls, total_seconds, total_io_seconds, wait_seconds, query "
      "FROM elephant_stat_statements ORDER BY total_seconds DESC LIMIT 5");
  if (!top.ok()) return 1;
  std::printf("%6s %10s %10s %10s  %s\n", "calls", "total_ms", "io_ms",
              "wait_ms", "query");
  for (const elephant::Row& row : top.value().rows) {
    std::printf("%6lld %10.3f %10.3f %10.3f  %.60s\n",
                static_cast<long long>(row[0].AsInt64()),
                row[1].AsDouble() * 1e3, row[2].AsDouble() * 1e3,
                row[3].AsDouble() * 1e3, row[4].AsString().c_str());
  }
  std::printf("\n");

  std::printf("--- per-object page-access heatmap -----------------------\n");
  std::printf("%s\n", db.ExportHeatmapText().c_str());

  std::printf("--- Prometheus text exposition (first lines) -------------\n");
  const std::string metrics = db.ExportMetrics();
  std::printf("%.*s...\n", 600, metrics.c_str());

  if (elephant::obs::TraceLog::Global().WriteFile("telemetry_demo_trace.json")) {
    std::printf(
        "\nwrote telemetry_demo_trace.json (%zu events) — open it at "
        "ui.perfetto.dev\n",
        elephant::obs::TraceLog::Global().EventCount());
  }
  return 0;
}
