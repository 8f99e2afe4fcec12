#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One statement of a fixed statement list, with everything measured about
/// it across passes.
struct Statement {
  Statement(std::string label_in, std::string family_in, std::string sql_in)
      : label(std::move(label_in)),
        family(std::move(family_in)),
        sql(std::move(sql_in)) {}

  std::string label;   ///< unique within the list, e.g. "Q3@10%/col"
  std::string family;  ///< strategy or statement family it belongs to
  std::string sql;

  bool have_checksum = false;
  uint64_t checksum = 0;  ///< ResultChecksum of the first execution
  bool have_counters = false;
  std::vector<uint64_t> counters;  ///< deterministic counters, first measured

  // Untraced measured passes, one entry per pass (raw wall seconds).
  std::vector<double> wall_s;  ///< Execute wall as the caller saw it
  std::vector<double> parse_s, bind_s, plan_s, execute_s;
  double io_seconds = 0;       ///< modeled disk time (deterministic)
  elephant::IoStats io;       ///< page traffic (deterministic)
  elephant::ExecCounters exec;

  // Traced passes (ExplainAnalyze), summed over passes.
  std::vector<double> traced_wall_s;
  std::map<std::string, double> op_self_s;  ///< per operator class
  double traced_execute_s = 0;              ///< execute phase

  /// Statement latencies of the measured passes: modeled disk time plus
  /// the Execute wall scaled by `scale` (HostSpeed::Scale).
  std::vector<double> Latencies(double scale) const {
    std::vector<double> out;
    out.reserve(wall_s.size());
    for (double w : wall_s) out.push_back(io_seconds + w * scale);
    return out;
  }
};

enum class PassKind { kWarmup, kMeasured, kTraced };

/// Runs every statement once, in list order, through the engine's public
/// API: Database::Execute for warm-up and measured passes,
/// Database::ExplainAnalyze for traced ones. With `cold` the simulated disk
/// is parked at the pass start and the buffer pool is dropped (outside the
/// timed call) before each statement. Checks each
/// result against the statement's first checksum and, on measured passes,
/// every deterministic counter against the first measured pass; a mismatch
/// counts the statement as failed.
void RunPass(Database* db, std::vector<Statement>* stmts, PassKind kind,
             bool cold, SpanRecorder* spans, Outcome* out);

/// Runs measured passes until `seconds` have elapsed and at least
/// `min_passes` ran, sampling the host speed `samples_per_pass` times after
/// each pass; returns the number of passes.
int RunMeasuredPasses(Database* db, std::vector<Statement>* stmts, bool cold,
                      double seconds, int min_passes, int samples_per_pass,
                      SpanRecorder* spans, Outcome* out);

/// Median of a statement's per-pass values.
double Median(const std::vector<double>& v);

/// Sets the universal statement metrics (stmt_p50_ms, stmt_p90_ms,
/// stmt_qps, pass_s) from the measured passes of `stmts`, plus the
/// per-phase p50s (parser.parse_us, planner.bind_us, planner.plan_us,
/// exec.execute_us, engine.other_us); wall times are scaled to the
/// reference host speed.
void SetStatementMetrics(const std::vector<Statement>& stmts, Outcome* out);

/// Sets the per-statement phase p50s (raw seconds in, scaled microseconds
/// out): parser.parse_us, planner.bind_us, planner.plan_us, exec.execute_us
/// and engine.other_us (Execute wall minus the four phases).
void SetPhaseMetrics(const std::vector<double>& parse,
                     const std::vector<double>& bind,
                     const std::vector<double>& plan,
                     const std::vector<double>& execute,
                     const std::vector<double>& other, Outcome* out);

/// Records each statement's deterministic counters in `out->deterministic`.
void RecordDeterministic(const std::vector<Statement>& stmts, Outcome* out);

}  // namespace perfbench
