#!/usr/bin/env bash
# Pre-PR gate: configure + build + lint + test across the presets that prove
# different things:
#
#   default   correctness (full suite, incl. the lint/lint_selftest tests)
#   analysis  the regex lint: self-test over tests/lint_fixtures, then src/
#   sanitize  ASan + UBSan
#   tsan      ThreadSanitizer over the concurrency-labeled tests (the
#             tsan-concurrency test preset): concurrent sessions, table
#             locks, transactions, parallel workers and telemetry
#   telemetry run a traced multi-session PARALLEL workload on the default
#             build and validate the export formats (Chrome trace JSON,
#             Prometheus text, stat-statements JSON) with
#             scripts/telemetry_check.py, plus the bench-regression
#             self-tests
#   recovery  the crash-recovery matrix (tools/crash_matrix): crash the
#             simulated machine at every durable op of a DML workload, plus
#             torn-WAL-flush and dropped-fsync modes, and verify recovery
#             restores exactly the committed prefix (base table, MV, and
#             c-tables checked against a shadow oracle)
#
# Usage: scripts/check.sh [preset ...]
#        (default: default analysis sanitize tsan telemetry recovery)
set -euo pipefail

cd "$(dirname "$0")/.."

PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
  PRESETS=(default analysis sanitize tsan telemetry recovery)
fi

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = analysis ]; then
    echo "=== [$preset] lint self-test =========================================="
    python3 scripts/elephant_lint.py --self-test
    echo "=== [$preset] lint ===================================================="
    python3 scripts/elephant_lint.py
    continue
  fi
  if [ "$preset" = recovery ]; then
    echo "=== [$preset] build ==================================================="
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target crash_matrix
    echo "=== [$preset] crash matrix ============================================"
    ./build/tools/crash_matrix
    continue
  fi
  if [ "$preset" = tsan ]; then
    echo "=== [$preset] configure ==============================================="
    cmake --preset tsan
    echo "=== [$preset] build ==================================================="
    cmake --build --preset tsan -j "$(nproc)"
    echo "=== [$preset] concurrency label under TSan ============================"
    ctest --preset tsan-concurrency -j "$(nproc)"
    continue
  fi
  if [ "$preset" = telemetry ]; then
    echo "=== [$preset] build ==================================================="
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target bench_parallel
    echo "=== [$preset] traced workload ========================================="
    trace_dir="build/telemetry_check"
    mkdir -p "$trace_dir"
    ELEPHANT_SF=0.005 ./build/bench/bench_parallel \
      --trace "$trace_dir/trace.json" \
      --metrics "$trace_dir/metrics.prom" \
      --stat-statements "$trace_dir/stat_statements.json" >/dev/null
    echo "=== [$preset] validate exports ========================================"
    python3 scripts/telemetry_check.py \
      --trace "$trace_dir/trace.json" --min-worker-threads 2 \
      --metrics "$trace_dir/metrics.prom" \
      --stat-statements "$trace_dir/stat_statements.json" \
      --wait-events
    echo "=== [$preset] bench-regression self-tests ============================="
    python3 scripts/bench_regress.py figure2 --self-test
    python3 scripts/bench_regress.py parallel --self-test
    continue
  fi
  echo "=== [$preset] configure ==============================================="
  cmake --preset "$preset"
  echo "=== [$preset] build ==================================================="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] lint ===================================================="
  python3 scripts/elephant_lint.py
  echo "=== [$preset] test ===================================================="
  ctest --preset "$preset" -j "$(nproc)"
  if [ "$preset" = default ] || [ "$preset" = sanitize ]; then
    echo "=== [$preset] storage label (read-ahead / eviction) ==================="
    ctest --preset "$preset" -L storage --output-on-failure
    echo "=== [$preset] obs label (telemetry / stat tables) ====================="
    ctest --preset "$preset" -L obs --output-on-failure
    echo "=== [$preset] txn label (transactions / recovery) ====================="
    ctest --preset "$preset" -L txn --output-on-failure
    echo "=== [$preset] oracle label (SQLite differential reference) ==========="
    # The differential harness: every query shape runs serial and PARALLEL 4
    # and must agree with an in-memory SQLite (tests/sqlite_oracle.h), as
    # must every paper query's Row SQL over the TPC-H tables. Skips loudly
    # when SQLite3 was not found at configure time.
    ctest --preset "$preset" -L oracle --output-on-failure
  fi
done

echo "=== check.sh: all requested presets passed ============================"
