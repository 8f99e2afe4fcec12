#include "passes.h"

#include "benchlib/harness.h"
#include "obs/plan_stats.h"
#include "obs/stat_statements.h"

namespace perfbench {

namespace {

const char* const kCounterNames[] = {
    "rows",           "seq_reads",        "rand_reads",
    "page_writes",    "readahead_hits",   "readahead_wasted",
    "pages_prefetched", "index_seeks",    "rows_scanned",
    "sort_rows",
};

std::vector<uint64_t> CountersOf(const QueryResult& r) {
  return {r.rows.size(),
          r.io.sequential_reads,
          r.io.random_reads,
          r.io.page_writes,
          r.io.readahead.prefetch_hits,
          r.io.readahead.prefetch_wasted,
          r.io.readahead.pages_prefetched,
          r.counters.index_seeks,
          r.counters.rows_scanned,
          r.counters.sort_rows};
}

}  // namespace

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

void RunPass(Database* db, std::vector<Statement>* stmts, PassKind kind,
             bool cold, SpanRecorder* spans, Outcome* out) {
  // The simulated disk keeps its head position and read-ahead streams
  // across pool drops, and streams a pass never touches would otherwise
  // carry state from passes before it. Parking the disk at every pass start
  // makes each cold pass replay the same page traffic exactly.
  if (cold) db->disk().ResetStats();
  for (Statement& st : *stmts) {
    out->attempted++;
    if (cold) {
      Status evicted = db->EvictCaches();
      if (!evicted.ok()) {
        out->Fail(st.label + ": pool drop failed: " + evicted.ToString());
        continue;
      }
    }
    const uint64_t trace_id = spans->NewTrace();
    const double span_start = spans->Now();
    const double t0 = NowSeconds();
    Result<QueryResult> r = [&]() -> Result<QueryResult> {
      if (kind != PassKind::kTraced) return db->Execute(st.sql);
      auto ea = db->ExplainAnalyze(st.sql);
      if (!ea.ok()) return ea.status();
      return std::move(ea.value().result);
    }();
    const double wall = NowSeconds() - t0;
    const uint64_t stmt_span =
        spans->Add("stmt:" + st.label, 0, trace_id, span_start,
                   span_start + wall);
    if (!r.ok()) {
      out->Fail(st.label + ": " + r.status().ToString());
      continue;
    }
    const QueryResult& res = r.value();
    RecordStatementChildren(spans, stmt_span, trace_id, span_start, res,
                            kind == PassKind::kTraced);

    const uint64_t checksum = elephant::paper::ResultChecksum(res);
    if (!st.have_checksum) {
      st.have_checksum = true;
      st.checksum = checksum;
    } else if (checksum != st.checksum) {
      out->Fail(st.label + ": result differs from its first execution");
      continue;
    }

    if (kind == PassKind::kMeasured) {
      std::vector<uint64_t> counters = CountersOf(res);
      if (!st.have_counters) {
        st.have_counters = true;
        st.counters = std::move(counters);
      } else if (counters != st.counters) {
        std::string which;
        for (size_t i = 0; i < counters.size(); i++) {
          if (counters[i] != st.counters[i]) {
            which += std::string(" ") + kCounterNames[i] + " " +
                     std::to_string(st.counters[i]) + "->" +
                     std::to_string(counters[i]);
          }
        }
        out->Fail(st.label + ": deterministic counters differ between "
                  "passes:" + which);
        continue;
      }
      st.io = res.io;
      st.exec = res.counters;
      st.io_seconds = res.io_seconds;
      st.wall_s.push_back(wall);
      const elephant::obs::QueryTrace* trace = res.trace.get();
      st.parse_s.push_back(trace ? trace->SecondsFor("parse") : 0);
      st.bind_s.push_back(trace ? trace->SecondsFor("bind") : 0);
      st.plan_s.push_back(trace ? trace->SecondsFor("plan") : 0);
      st.execute_s.push_back(trace ? trace->SecondsFor("execute") : 0);
    } else if (kind == PassKind::kTraced) {
      st.traced_wall_s.push_back(wall);
      if (res.trace != nullptr) {
        st.traced_execute_s += res.trace->SecondsFor("execute");
      }
      if (res.plan != nullptr) {
        for (const elephant::obs::OperatorBreakdown& b :
             elephant::obs::FlattenPlan(*res.plan)) {
          st.op_self_s[elephant::obs::OperatorClassOf(b.op)] += b.seconds;
        }
      }
    }
  }
}

int RunMeasuredPasses(Database* db, std::vector<Statement>* stmts, bool cold,
                      double seconds, int min_passes, int samples_per_pass,
                      SpanRecorder* spans, Outcome* out) {
  const double start = NowSeconds();
  int passes = 0;
  while (passes < min_passes || NowSeconds() - start < seconds) {
    RunPass(db, stmts, PassKind::kMeasured, cold, spans, out);
    for (int i = 0; i < samples_per_pass; i++) out->host.Sample();
    passes++;
  }
  return passes;
}

void SetStatementMetrics(const std::vector<Statement>& stmts, Outcome* out) {
  const double scale = out->host.Scale();
  std::vector<double> latency;
  std::vector<double> parse, bind, plan, execute, other;
  double total_latency = 0;
  double pass_s = 0;
  for (const Statement& st : stmts) {
    const std::vector<double> lat = st.Latencies(scale);
    for (size_t i = 0; i < lat.size(); i++) {
      latency.push_back(lat[i]);
      total_latency += lat[i];
      parse.push_back(st.parse_s[i]);
      bind.push_back(st.bind_s[i]);
      plan.push_back(st.plan_s[i]);
      execute.push_back(st.execute_s[i]);
      other.push_back(st.wall_s[i] - st.parse_s[i] - st.bind_s[i] -
                      st.plan_s[i] - st.execute_s[i]);
    }
    pass_s += Median(lat);
  }
  out->Set("stmt_p50_ms", Quantile(latency, 0.5) * 1e3, "ms");
  out->Set("stmt_p90_ms", Quantile(latency, 0.9) * 1e3, "ms");
  out->Set("stmt_qps",
           total_latency > 0
               ? static_cast<double>(latency.size()) / total_latency
               : 0,
           "1/s");
  out->Set("pass_s", pass_s, "s");
  out->samples["stmt_p50_ms"] = latency.size();
  out->samples["stmt_p90_ms"] = latency.size();
  SetPhaseMetrics(parse, bind, plan, execute, other, out);
}

void SetPhaseMetrics(const std::vector<double>& parse,
                     const std::vector<double>& bind,
                     const std::vector<double>& plan,
                     const std::vector<double>& execute,
                     const std::vector<double>& other, Outcome* out) {
  const double us = 1e6 * out->host.Scale();
  out->Set("parser.parse_us", Quantile(parse, 0.5) * us, "us");
  out->Set("planner.bind_us", Quantile(bind, 0.5) * us, "us");
  out->Set("planner.plan_us", Quantile(plan, 0.5) * us, "us");
  out->Set("exec.execute_us", Quantile(execute, 0.5) * us, "us");
  out->Set("engine.other_us", Quantile(other, 0.5) * us, "us");
}

void RecordDeterministic(const std::vector<Statement>& stmts, Outcome* out) {
  for (const Statement& st : stmts) {
    for (size_t i = 0; i < st.counters.size(); i++) {
      out->deterministic[st.label + "." + kCounterNames[i]] = st.counters[i];
    }
  }
}

}  // namespace perfbench
