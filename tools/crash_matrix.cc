// Crash-recovery matrix. Runs a fixed DML workload over a base table with
// a secondary index, a materialized view and a c-store projection riding on
// it, crashes the simulated machine at every durable op (page write or WAL
// flush) in turn, reboots from the durable image, and checks three
// invariants at every crash point:
//
//   1. the recovered base table is EXACTLY the acknowledged-commit prefix
//      of the workload (row count and content checksum against a shadow
//      oracle maintained outside the engine), and its secondary index holds
//      one entry per row and answers each category's lookup exactly;
//   2. a scan of the materialized view after recovery (which re-materializes
//      it, since recovery marks all derived tables stale) matches the
//      equivalent aggregate over the base table, value for value;
//   3. each c-table, expanded back into a column, equals the base table's
//      sorted projection, value for value.
//
// The workload's last steps insert padded rows that split clustered and
// secondary leaves and the clustered root after the last checkpoint: once
// committed, and once inside an explicit transaction whose CHECKPOINT
// pushes its uncommitted splits to disk, so the sweep crashes inside it.
// The tool fails when the clustered tree's height did not grow, so this
// coverage cannot silently vanish.
//
// Besides the crash-at-Nth-op sweep, two more failure modes run at the
// workload's end: a torn final WAL flush (recovery must truncate at the bad
// record) and silently dropped fsyncs (no invented commits; the machine
// restarts at the first failed statement and runs the rest of the workload,
// which a final crash must preserve).
// A third sweep tears each step's first log flush at every 1 KiB offset,
// so the durable tail ends between and inside the records of its page
// splits. After each reboot, rows inserted across the key range must keep
// the clustered leaf chain in key order and be found by point seeks — what
// a split made durable without its separator would break.
//
// Exit code 0 = every point green. Any failure prints the point and aborts
// with a nonzero exit. Wired into ctest as `recovery_crash_matrix` and into
// scripts/check.sh's `recovery` step.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cstore/ctable_builder.h"
#include "engine/database.h"
#include "mv/view.h"
#include "storage/fault_injection.h"

namespace elephant {
namespace {

// ---------------------------------------------------------------------------
// Shadow oracle: an out-of-engine mirror of the base table, updated only
// when the engine ACKNOWLEDGES a statement. Recovery must reproduce it
// exactly — an unacknowledged commit surviving or an acknowledged one lost
// are both failures.

struct OracleRow {
  std::string cat;
  int32_t amt = 0;
};
using Oracle = std::map<int32_t, OracleRow>;  // keyed by id

struct Step {
  std::string sql;
  std::function<void(Oracle&)> apply;  // mirror of the statement's effect
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string OracleKeyString(const Oracle& oracle) {
  std::vector<std::string> lines;
  lines.reserve(oracle.size());
  for (const auto& [id, row] : oracle) {
    lines.push_back(std::to_string(id) + "|" + row.cat + "|" +
                    std::to_string(row.amt));
  }
  std::sort(lines.begin(), lines.end());  // match SortedRowsString's order
  std::string all;
  for (const std::string& l : lines) all += l + "\n";
  return all;
}

// Canonical sorted rendering of a query result, for multiset comparison.
std::string SortedRowsString(const QueryResult& r) {
  std::vector<std::string> lines;
  lines.reserve(r.rows.size());
  for (const Row& row : r.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); i++) {
      if (i > 0) line += "|";
      line += row[i].ToString();
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string all;
  for (const std::string& l : lines) all += l + "\n";
  return all;
}

// ---------------------------------------------------------------------------
// The workload. Seed rows go in before fault injection is armed; the steps
// below run under it. CHECKPOINTs are sprinkled in so the op sweep crosses
// page-flush interleavings, not just commit-flush boundaries.

const std::vector<std::pair<int32_t, OracleRow>> kSeed = {
    {1, {"a", 10}}, {2, {"b", 20}}, {3, {"a", 30}}, {4, {"c", 40}},
    {5, {"b", 50}}, {6, {"a", 60}}, {7, {"c", 70}}, {8, {"b", 80}},
};

// A category long enough that a few dozen rows fill a leaf.
std::string Padded(int id) { return "pad" + std::to_string(id % 3) + std::string(300, 'x'); }

// One multi-row INSERT of padded rows [first, last] and its oracle mirror.
// Rows alternate between the two ends of the range, so splits land keys in
// both halves and leave some split pages untouched afterwards.
Step PaddedInsert(int first, int last) {
  std::string sql = "INSERT INTO orders VALUES ";
  for (int i = 0; i <= last - first; i++) {
    const int id = i % 2 == 0 ? first + i / 2 : last - i / 2;
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(id) + ", '" + Padded(id) + "', " +
           std::to_string(id) + ")";
  }
  return {sql, [first, last](Oracle& o) {
            for (int id = first; id <= last; id++) o[id] = {Padded(id), id};
          }};
}

std::vector<Step> Workload() {
  std::vector<Step> steps;
  steps.push_back({"INSERT INTO orders VALUES (9, 'a', 90), (10, 'b', 100)",
                   [](Oracle& o) {
                     o[9] = {"a", 90};
                     o[10] = {"b", 100};
                   }});
  steps.push_back({"UPDATE orders SET amt = 5 WHERE id = 3",
                   [](Oracle& o) { o[3].amt = 5; }});
  steps.push_back({"DELETE FROM orders WHERE id = 1",
                   [](Oracle& o) { o.erase(1); }});
  steps.push_back({"CHECKPOINT", [](Oracle&) {}});
  steps.push_back({"INSERT INTO orders VALUES (11, 'c', 110)",
                   [](Oracle& o) { o[11] = {"c", 110}; }});
  steps.push_back({"UPDATE orders SET cat = 'z' WHERE id = 2",
                   [](Oracle& o) { o[2].cat = "z"; }});
  // Cluster-key move: exercises the delete+insert path inside one txn.
  steps.push_back({"UPDATE orders SET id = 12 WHERE id = 4", [](Oracle& o) {
                     OracleRow moved = o[4];
                     o.erase(4);
                     o[12] = moved;
                   }});
  steps.push_back({"DELETE FROM orders WHERE id = 5",
                   [](Oracle& o) { o.erase(5); }});
  steps.push_back({"CHECKPOINT", [](Oracle&) {}});
  steps.push_back({"INSERT INTO orders VALUES (13, 'a', 130)",
                   [](Oracle& o) { o[13] = {"a", 130}; }});
  steps.push_back({"UPDATE orders SET amt = 77 WHERE cat = 'z'",
                   [](Oracle& o) {
                     for (auto& [id, row] : o) {
                       if (row.cat == "z") row.amt = 77;
                     }
                   }});
  steps.push_back({"BEGIN", [](Oracle&) {}});
  steps.push_back({"INSERT INTO orders VALUES (14, 'b', 140)", [](Oracle&) {}});
  steps.push_back({"DELETE FROM orders WHERE id = 6", [](Oracle&) {}});
  // The explicit transaction's effect lands in the oracle only at COMMIT —
  // a crash between BEGIN and COMMIT must undo both statements above.
  steps.push_back({"COMMIT", [](Oracle& o) {
                     o[14] = {"b", 140};
                     o.erase(6);
                   }});
  steps.push_back({"INSERT INTO orders VALUES (15, 'c', 150)",
                   [](Oracle& o) { o[15] = {"c", 150}; }});
  steps.push_back({"CHECKPOINT", [](Oracle&) {}});
  steps.push_back({"UPDATE orders SET amt = 151 WHERE id = 15",
                   [](Oracle& o) { o[15].amt = 151; }});
  steps.push_back({"DELETE FROM orders WHERE id = 7",
                   [](Oracle& o) { o.erase(7); }});
  // Tree structure changes after the last checkpoint: a committed insert
  // that splits leaves and the root ...
  steps.push_back(PaddedInsert(100, 139));
  // ... and an explicit transaction that splits more, with a CHECKPOINT
  // inside it flushing its uncommitted pages: a crash anywhere here must
  // undo the transaction through the split trees.
  steps.push_back({"BEGIN", [](Oracle&) {}});
  Step more = PaddedInsert(200, 239);
  steps.push_back({more.sql, [](Oracle&) {}});
  steps.push_back({"DELETE FROM orders WHERE id = 105", [](Oracle&) {}});
  steps.push_back({"CHECKPOINT", [](Oracle&) {}});
  steps.push_back({"UPDATE orders SET amt = 1 WHERE id = 110", [](Oracle&) {}});
  steps.push_back({"COMMIT", [apply = more.apply](Oracle& o) {
                     apply(o);
                     o.erase(105);
                     o[110].amt = 1;
                   }});
  return steps;
}

mv::ViewDef MvDef() {
  mv::ViewDef def;
  def.name = "orders_by_cat";
  def.tables = {"orders"};
  def.group_cols = {"cat"};
  def.aggs = {{AggFunc::kCountStar, "", "n"}, {AggFunc::kSum, "amt", "total"}};
  return def;
}

ProjectionDef ProjDef() {
  ProjectionDef def;
  def.name = "p1";
  def.query = "SELECT cat, amt FROM orders";
  def.sort_cols = {"cat", "amt"};
  return def;
}

#define CHECK_OK(expr)                                                    \
  do {                                                                    \
    Status _s = (expr);                                                   \
    if (!_s.ok()) {                                                       \
      std::fprintf(stderr, "FATAL %s:%d: %s\n", __FILE__, __LINE__,       \
                   _s.ToString().c_str());                                \
      return false;                                                       \
    }                                                                     \
  } while (0)

DatabaseOptions Options() {
  DatabaseOptions options;
  options.wal_enabled = true;
  // One session runs the workload, so the only lock it can wait for is held
  // by a transaction whose commit flush failed (it keeps its locks until
  // the restart): fail such a statement fast.
  options.lock_timeout_seconds = 0.05;
  return options;
}

// Builds the database the workload runs against: base table + seed rows +
// materialized view + c-store projection, checkpointed so the sweep starts
// from a clean durable state.
std::unique_ptr<Database> Setup(Oracle* oracle) {
  auto db = std::make_unique<Database>(Options());
  auto run = [&db](const std::string& sql) {
    auto r = db->Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "FATAL setup \"%s\": %s\n", sql.c_str(),
                   r.status().ToString().c_str());
      return false;
    }
    return true;
  };
  if (!run("CREATE TABLE orders (id INT, cat VARCHAR, amt INT) "
           "CLUSTER BY (id)")) {
    return nullptr;
  }
  std::string values;
  oracle->clear();
  for (const auto& [id, row] : kSeed) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(id) + ", '" + row.cat + "', " +
              std::to_string(row.amt) + ")";
    (*oracle)[id] = row;
  }
  if (!run("INSERT INTO orders VALUES " + values)) return nullptr;
  if (!run("CREATE INDEX orders_cat ON orders (cat) INCLUDE (amt)")) {
    return nullptr;
  }

  mv::ViewManager views(db.get());
  if (!views.CreateView(MvDef()).ok()) return nullptr;
  cstore::CTableBuilder builder(db.get());
  if (!builder.Build(ProjDef()).ok()) return nullptr;
  if (!run("CHECKPOINT")) return nullptr;
  return db;
}

// ---------------------------------------------------------------------------
// Post-recovery verification.

// The secondary index holds exactly one entry per row, and a lookup of each
// category (answered from the covering index) returns that category's rows.
bool VerifyIndex(Database& db, const Oracle& oracle, uint64_t point) {
  Table* table = db.catalog().GetTable("orders").value();
  Result<uint64_t> entries =
      table->secondary_indexes().at(0)->tree->CountEntries();
  if (!entries.ok() || entries.value() != oracle.size()) {
    std::fprintf(stderr, "point %llu: index holds %llu entries for %zu rows\n",
                 static_cast<unsigned long long>(point),
                 static_cast<unsigned long long>(entries.ok() ? entries.value() : 0),
                 oracle.size());
    return false;
  }
  std::map<std::string, std::vector<std::string>> by_cat;
  for (const auto& [id, row] : oracle) {
    by_cat[row.cat].push_back(row.cat + "|" + std::to_string(row.amt));
  }
  for (auto& [cat, want] : by_cat) {
    std::sort(want.begin(), want.end());
    auto r = db.Execute("SELECT cat, amt FROM orders WHERE cat = '" + cat + "'");
    std::string want_all;
    for (const std::string& l : want) want_all += l + "\n";
    if (!r.ok() || SortedRowsString(r.value()) != want_all) {
      std::fprintf(stderr, "point %llu: index lookup of category %.8s... is "
                   "wrong\n", static_cast<unsigned long long>(point), cat.c_str());
      return false;
    }
  }
  return true;
}

bool VerifyBase(Database& db, const Oracle& oracle, uint64_t point) {
  auto r = db.Execute("SELECT id, cat, amt FROM orders");
  if (!r.ok()) {
    std::fprintf(stderr, "point %llu: base scan failed: %s\n",
                 static_cast<unsigned long long>(point),
                 r.status().ToString().c_str());
    return false;
  }
  const std::string got = SortedRowsString(r.value());
  const std::string want = OracleKeyString(oracle);
  if (got != want) {
    std::fprintf(stderr,
                 "point %llu: base table diverged from committed prefix\n"
                 "  oracle (%zu rows, fnv %016llx):\n%s"
                 "  recovered (%zu rows, fnv %016llx):\n%s",
                 static_cast<unsigned long long>(point), oracle.size(),
                 static_cast<unsigned long long>(Fnv1a(want)), want.c_str(),
                 r.value().rows.size(),
                 static_cast<unsigned long long>(Fnv1a(got)), got.c_str());
    return false;
  }
  return VerifyIndex(db, oracle, point);
}

// A split whose separator was lost leaves both halves on the leaf chain,
// so scans and lookups that walk the chain still work; the next insert
// routed past the lost separator breaks key order. So insert rows across
// the key range after recovery, then check that the clustered leaf chain is
// in key order and that a point seek finds every row.
bool VerifyInsertAfterRecovery(Database& db, Oracle oracle, uint64_t point) {
  std::string sql;
  for (int id = 3; id < 260; id += 4) {
    if (oracle.count(id) != 0) continue;
    sql += (sql.empty() ? "" : ", ") + ("(" + std::to_string(id) + ", 'post', " +
                                         std::to_string(id) + ")");
    oracle[id] = {"post", id};
  }
  auto ins = db.Execute("INSERT INTO orders VALUES " + sql);
  if (!ins.ok()) {
    std::fprintf(stderr, "point %llu: insert after recovery failed: %s\n",
                 static_cast<unsigned long long>(point),
                 ins.status().ToString().c_str());
    return false;
  }
  const BPlusTree& tree = db.catalog().GetTable("orders").value()->clustered();
  auto it = tree.SeekToFirst();
  std::string prev;
  for (bool first = true; it.ok() && it.value().Valid(); first = false) {
    if (!first && std::string(it.value().key()) <= prev) {
      std::fprintf(stderr, "point %llu: clustered leaf chain out of key order\n",
                   static_cast<unsigned long long>(point));
      return false;
    }
    prev = std::string(it.value().key());
    if (!it.value().Next().ok()) break;
  }
  for (const auto& [id, row] : oracle) {
    auto r = db.Execute("SELECT amt FROM orders WHERE id = " + std::to_string(id));
    if (!r.ok() || r.value().rows.size() != 1 ||
        r.value().rows[0][0].AsInt32() != row.amt) {
      std::fprintf(stderr, "point %llu: point seek of id %d after recovery "
                   "failed\n", static_cast<unsigned long long>(point), id);
      return false;
    }
  }
  return true;
}

bool VerifyMv(Database& db, uint64_t point) {
  // The MV scan re-materializes the (stale-after-recovery) view, then must
  // agree with the equivalent aggregation planned over the base table.
  auto view = db.Execute("SELECT cat, n, total FROM orders_by_cat");
  auto base = db.Execute(
      "SELECT cat, COUNT(*) AS n, SUM(amt) AS total FROM orders GROUP BY cat");
  if (!view.ok() || !base.ok()) {
    std::fprintf(stderr, "point %llu: MV check failed: %s / %s\n",
                 static_cast<unsigned long long>(point),
                 view.status().ToString().c_str(),
                 base.status().ToString().c_str());
    return false;
  }
  const std::string got = SortedRowsString(view.value());
  const std::string want = SortedRowsString(base.value());
  if (got != want) {
    std::fprintf(stderr,
                 "point %llu: MV scan != base-table plan\n"
                 "  base plan:\n%s  view scan:\n%s",
                 static_cast<unsigned long long>(point), want.c_str(),
                 got.c_str());
    return false;
  }
  return true;
}

// Expands a c-table scan (f, v[, c]) back into the flat column it encodes.
std::vector<std::string> ExpandCTable(const QueryResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) {
    const int64_t count = row.size() == 3 ? row[2].AsInt32() : 1;
    for (int64_t i = 0; i < count; i++) out.push_back(row[1].ToString());
  }
  return out;
}

bool VerifyCTables(Database& db, uint64_t point) {
  // Expected: the projection's rows sorted by (cat, amt); column k of the
  // sorted result is what c-table k must encode.
  auto base = db.Execute("SELECT cat, amt FROM orders");
  if (!base.ok()) return false;
  std::vector<std::pair<std::string, int32_t>> rows;
  for (const Row& row : base.value().rows) {
    rows.emplace_back(row[0].AsString(), row[1].AsInt32());
  }
  std::sort(rows.begin(), rows.end());

  const char* tables[2] = {"p1_cat", "p1_amt"};
  for (int col = 0; col < 2; col++) {
    auto scan = db.Execute(std::string("SELECT * FROM ") + tables[col]);
    if (!scan.ok()) {
      std::fprintf(stderr, "point %llu: %s scan failed: %s\n",
                   static_cast<unsigned long long>(point), tables[col],
                   scan.status().ToString().c_str());
      return false;
    }
    const std::vector<std::string> got = ExpandCTable(scan.value());
    std::vector<std::string> want;
    want.reserve(rows.size());
    for (const auto& [cat, amt] : rows) {
      want.push_back(col == 0 ? cat : Value::Int32(amt).ToString());
    }
    if (got != want) {
      std::fprintf(stderr,
                   "point %llu: c-table %s != base projection "
                   "(%zu vs %zu values)\n",
                   static_cast<unsigned long long>(point), tables[col],
                   got.size(), want.size());
      return false;
    }
  }
  return true;
}

// An engine booted from another's durable image, with the view's and the
// c-table's rebuild hooks re-attached: recovery restores derived tables'
// contents-as-of-crash and marks them stale, and their hooks are callbacks
// the image cannot carry. The managers own the hooks' state, so they live
// as long as the engine.
struct Rebooted {
  std::unique_ptr<Database> db;
  std::unique_ptr<mv::ViewManager> views;
  std::unique_ptr<cstore::CTableBuilder> builder;
};

// Crashes `db` "now" — whatever its stable storage holds is what survives —
// and boots a fresh engine from that image into `out`.
bool Reboot(Database& db, uint64_t point, Rebooted* out) {
  auto reopened = Database::Reopen(Options(), db.CloneDurableImage());
  if (!reopened.ok()) {
    std::fprintf(stderr, "point %llu: reopen failed: %s\n",
                 static_cast<unsigned long long>(point),
                 reopened.status().ToString().c_str());
    return false;
  }
  out->db = std::move(reopened).value();
  out->views = std::make_unique<mv::ViewManager>(out->db.get());
  CHECK_OK(out->views->AttachView(MvDef()));
  out->builder = std::make_unique<cstore::CTableBuilder>(out->db.get());
  CHECK_OK(out->builder->AttachRebuild(ProjDef()));
  return true;
}

// ---------------------------------------------------------------------------
// One sweep point: run the workload with the given fault plan, reboot from
// the durable image, re-attach derived-table hooks, verify all invariants.
// `probe` (out, optional) records what a full run did.

struct Probe {
  uint64_t total_ops = 0;  ///< durable ops of the whole workload
  /// Per step: the durable ops before it and the log bytes it flushed.
  std::vector<std::pair<uint64_t, uint64_t>> steps;
};

bool RunPoint(const FaultPlan& plan, uint64_t point, Probe* probe) {
  Oracle oracle;
  std::unique_ptr<Database> db = Setup(&oracle);
  if (db == nullptr) return false;

  FaultInjector injector(plan);
  db->SetFaultInjector(&injector);
  const BPlusTree& clustered = db->catalog().GetTable("orders").value()->clustered();
  const uint32_t height_before = clustered.Height().value();

  for (const Step& step : Workload()) {
    Oracle next = oracle;
    step.apply(next);
    const uint64_t ops_before = injector.ops();
    const lsn_t durable_before = db->wal()->stats().durable_lsn;
    auto r = db->Execute(step.sql);
    if (probe != nullptr) {
      probe->steps.emplace_back(ops_before,
                                db->wal()->stats().durable_lsn - durable_before);
    }
    if (r.ok()) {
      oracle = std::move(next);
      continue;
    }
    if (injector.crashed()) break;  // the machine died; stop the workload
    // kDropFsync never kills the machine, so statements keep succeeding —
    // any visible failure there (or in a fault-free run) is a real bug.
    std::fprintf(stderr, "point %llu: \"%s\" failed without a crash: %s\n",
                 static_cast<unsigned long long>(point), step.sql.c_str(),
                 r.status().ToString().c_str());
    return false;
  }
  if (probe != nullptr) {
    probe->total_ops = injector.ops();
    // The fault-free run must have split the clustered root.
    const uint32_t height_after = clustered.Height().value();
    if (height_after <= height_before) {
      std::fprintf(stderr, "clustered tree height stayed at %u: the workload "
                   "no longer splits the root\n", height_after);
      return false;
    }
  }

  Rebooted rec;
  return Reboot(*db, point, &rec) && VerifyBase(*rec.db, oracle, point) &&
         VerifyMv(*rec.db, point) && VerifyCTables(*rec.db, point) &&
         VerifyInsertAfterRecovery(*rec.db, oracle, point);
}

// A lying drive: fsyncs dropped after the first. The engine detects the
// failed sync and refuses to acknowledge the commit, whose transaction keeps
// its locks until a restart, so the machine restarts at the first failed
// statement. The oracle cannot tell which unsynced writes persisted: that
// reboot is checked for internal consistency only (the MV and c-tables must
// agree with whatever base state recovery produced), and the oracle is
// re-seeded from the recovered rows. The rest of the workload then runs
// fault-free on the rebooted engine, and a final crash must reproduce the
// oracle exactly, as at every crash-at-write point.
bool RunDropFsync() {
  const uint64_t point = 9999;  // names this run in failure messages
  FaultPlan plan;
  plan.mode = FaultPlan::Mode::kDropFsync;
  plan.drop_fsync_after = 1;
  FaultInjector injector(plan);
  Oracle oracle;
  std::unique_ptr<Database> db = Setup(&oracle);
  if (db == nullptr) return false;
  db->SetFaultInjector(&injector);

  const std::vector<Step> steps = Workload();
  size_t failed = 0;
  bool in_txn = false;  // the failed statement belongs to BEGIN..COMMIT
  for (; failed < steps.size(); failed++) {
    if (steps[failed].sql == "BEGIN") in_txn = true;
    if (!db->Execute(steps[failed].sql).ok()) break;
    if (steps[failed].sql == "COMMIT") in_txn = false;
  }
  if (failed == steps.size()) {
    std::fprintf(stderr, "drop-fsync: every statement was acknowledged "
                 "although fsyncs were dropped\n");
    return false;
  }

  Rebooted rec;
  if (!Reboot(*db, point, &rec) || !VerifyMv(*rec.db, point) ||
      !VerifyCTables(*rec.db, point)) {
    return false;
  }
  db.reset();
  auto rows = rec.db->Execute("SELECT id, cat, amt FROM orders");
  if (!rows.ok()) {
    std::fprintf(stderr, "drop-fsync: base scan after reboot failed: %s\n",
                 rows.status().ToString().c_str());
    return false;
  }
  oracle.clear();
  for (const Row& row : rows.value().rows) {
    oracle[row[0].AsInt32()] = {row[1].AsString(), row[2].AsInt32()};
  }

  // A transaction cut by the reboot is gone: resume after its COMMIT.
  size_t resume = failed + 1;
  if (in_txn) {
    while (resume < steps.size() && steps[resume - 1].sql != "COMMIT") resume++;
  }
  for (size_t i = resume; i < steps.size(); i++) {
    Oracle next = oracle;
    steps[i].apply(next);
    auto r = rec.db->Execute(steps[i].sql);
    if (!r.ok()) {
      std::fprintf(stderr, "drop-fsync: \"%s\" failed after the reboot: %s\n",
                   steps[i].sql.c_str(), r.status().ToString().c_str());
      return false;
    }
    oracle = std::move(next);
  }
  std::printf("drop-fsync: %zu/%zu statements acknowledged (%zu before the "
              "first failed commit, %zu after the reboot)\n",
              failed + steps.size() - resume, steps.size(), failed,
              steps.size() - resume);

  Rebooted final_boot;
  return Reboot(*rec.db, point, &final_boot) &&
         VerifyBase(*final_boot.db, oracle, point) &&
         VerifyMv(*final_boot.db, point) &&
         VerifyCTables(*final_boot.db, point) &&
         VerifyInsertAfterRecovery(*final_boot.db, oracle, point);
}

}  // namespace
}  // namespace elephant

int main() {
  using namespace elephant;

  // Measure the workload's durable-op count with a counting-but-never-firing
  // plan (crash_after_ops = 0), which also validates the fault-free run.
  FaultPlan counting;
  counting.mode = FaultPlan::Mode::kCrashAtWrite;
  counting.crash_after_ops = 0;
  Probe probe;
  if (!RunPoint(counting, 0, &probe)) {
    std::fprintf(stderr, "fault-free run failed\n");
    return 1;
  }
  const uint64_t total_ops = probe.total_ops;
  std::printf("fault-free workload: %llu durable ops\n",
              static_cast<unsigned long long>(total_ops));
  if (total_ops < 20) {
    std::fprintf(stderr,
                 "workload too small: %llu durable ops (< 20 crash points)\n",
                 static_cast<unsigned long long>(total_ops));
    return 1;
  }

  // The matrix proper: crash at every durable op.
  int failures = 0;
  for (uint64_t k = 1; k <= total_ops; k++) {
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrashAtWrite;
    plan.crash_after_ops = k;
    if (!RunPoint(plan, k, nullptr)) failures++;
  }
  std::printf("crash-at-write sweep: %llu points, %d failures\n",
              static_cast<unsigned long long>(total_ops), failures);

  // Torn final WAL flush at several late crash points: only a prefix of the
  // final flush persists; recovery must truncate at the torn record.
  for (uint64_t k = total_ops / 2; k <= total_ops; k += 3) {
    for (uint32_t keep : {0u, 3u, 11u}) {
      FaultPlan plan;
      plan.mode = FaultPlan::Mode::kTornLogFlush;
      plan.crash_after_ops = k;
      plan.torn_keep_bytes = keep;
      if (!RunPoint(plan, k, nullptr)) failures++;
    }
  }
  std::printf("torn-flush points done\n");

  // Each step's first log flush torn at every 1 KiB offset: the durable
  // tail ends between and inside the records of the step's splits.
  size_t torn_points = 0;
  for (const auto& [ops_before, bytes] : probe.steps) {
    for (uint64_t keep = 0; keep < bytes; keep += 1024) {
      FaultPlan plan;
      plan.mode = FaultPlan::Mode::kTornLogFlush;
      plan.crash_after_ops = ops_before + 1;
      plan.torn_keep_bytes = static_cast<uint32_t>(keep);
      if (!RunPoint(plan, ops_before + 1, nullptr)) failures++;
      torn_points++;
    }
  }
  std::printf("torn-inside-step sweep: %zu points, %d failures\n", torn_points,
              failures);

  if (!RunDropFsync()) failures++;
  std::printf("drop-fsync point done\n");

  if (failures > 0) {
    std::fprintf(stderr, "crash matrix: %d FAILURES\n", failures);
    return 1;
  }
  std::printf("crash matrix: all points green\n");
  return 0;
}
