#!/usr/bin/env python3
"""Validate the engine's telemetry export formats.

Checks a Chrome-trace (``trace_event``) JSON file produced by
``obs::TraceLog`` and/or a Prometheus text-exposition dump produced by
``Database::ExportMetrics()``. Used by ``scripts/check.sh telemetry`` after
running a traced workload, and handy standalone:

    python3 scripts/telemetry_check.py --trace trace.json --min-worker-threads 2
    python3 scripts/telemetry_check.py --metrics metrics.prom
    python3 scripts/telemetry_check.py --stat-statements stat_statements.json
    python3 scripts/telemetry_check.py --metrics metrics.prom --wait-events

``--wait-events`` cross-checks the Prometheus dump against the wait-event
taxonomy parsed out of ``src/obs/wait_events.h``: both labeled counter
families must cover exactly the taxonomy (zeros included), so an event added
in C++ without reaching the export — or a stale exported label — fails here.

``--stat-statements`` also recomputes every entry's ``p95_seconds`` from its
``latency_buckets`` and the document's ``latency_bounds`` with an independent
copy of the engine's histogram quantile rule (see ``histogram_quantile``).

Exits non-zero with one line per violation.
"""

import argparse
import json
import math
import os
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? "
    r"(?P<value>[^ ]+)$"
)


def check_trace(path, min_worker_threads):
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ["trace: %s" % e]

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["trace: no traceEvents array"]

    # Chrome-trace B/E events are stack-scoped per thread track.
    stacks = {}  # (pid, tid) -> [name, ...]
    worker_tids = set()
    span_begins = 0
    span_ends = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        where = "trace: event %d (%s)" % (i, ev.get("name"))
        if ph not in ("B", "E", "i", "M"):
            errors.append("%s: unknown phase %r" % (where, ph))
            continue
        if "pid" not in ev or "tid" not in ev:
            errors.append("%s: missing pid/tid" % where)
            continue
        key = (ev["pid"], ev["tid"])
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name"):
                errors.append("%s: unexpected metadata" % where)
            continue
        if "ts" not in ev:
            errors.append("%s: missing ts" % where)
        if ph == "B":
            span_begins += 1
            stacks.setdefault(key, []).append(ev.get("name"))
            if ev.get("name") in ("task", "morsel"):
                worker_tids.add(ev["tid"])
        elif ph == "E":
            span_ends += 1
            stack = stacks.setdefault(key, [])
            if not stack:
                errors.append("%s: 'E' with no open span on track %s" %
                              (where, key))
            else:
                stack.pop()
        elif ph == "i":
            if ev.get("s") != "t":
                errors.append("%s: instant without thread scope" % where)

    for key, stack in stacks.items():
        if stack:
            errors.append("trace: track %s left %d span(s) open: %s" %
                          (key, len(stack), stack))
    if span_begins != span_ends:
        errors.append("trace: %d begins vs %d ends" % (span_begins, span_ends))
    if span_begins == 0:
        errors.append("trace: no spans recorded")
    if len(worker_tids) < min_worker_threads:
        errors.append(
            "trace: worker spans (task/morsel) cover %d thread(s), need >= %d"
            % (len(worker_tids), min_worker_threads))
    return errors


def check_metrics(path):
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return ["metrics: %s" % e]
    if not text.endswith("\n"):
        errors.append("metrics: missing trailing newline")

    typed = {}  # family -> type
    series = set()
    histograms = {}  # family -> [(le, count)]
    hist_counts = {}  # family -> value of _count
    samples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        where = "metrics: line %d" % lineno
        if line.startswith("#"):
            m = re.match(r"^# TYPE ([^ ]+) (counter|gauge|histogram)$", line)
            if m:
                if m.group(1) in typed:
                    errors.append("%s: duplicate TYPE for %s" %
                                  (where, m.group(1)))
                typed[m.group(1)] = m.group(2)
            elif not line.startswith("# HELP "):
                errors.append("%s: unrecognized comment %r" % (where, line))
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append("%s: malformed sample %r" % (where, line))
            continue
        samples += 1
        name = m.group("name")
        if not name.startswith("elephant_"):
            errors.append("%s: %s missing elephant_ prefix" % (where, name))
        family = name
        if family not in typed:
            for suffix in ("_bucket", "_sum", "_count"):
                base = name[: -len(suffix)] if name.endswith(suffix) else None
                if base and typed.get(base) == "histogram":
                    family = base
                    break
        if family not in typed:
            errors.append("%s: sample %s has no TYPE line" % (where, name))
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append("%s: bad value %r" % (where, m.group("value")))
            continue
        sid = name + (m.group("labels") or "")
        if sid in series:
            errors.append("%s: duplicate series %s" % (where, sid))
        series.add(sid)
        if typed.get(family) == "histogram" and name.endswith("_bucket"):
            le = re.search(r'le="([^"]+)"', m.group("labels") or "")
            if le is None:
                errors.append("%s: bucket without le label" % where)
            else:
                bound = float("inf") if le.group(1) == "+Inf" \
                    else float(le.group(1))
                histograms.setdefault(family, []).append((bound, value))
        if typed.get(family) == "histogram" and name.endswith("_count"):
            hist_counts[family] = value

    for family, buckets in histograms.items():
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        if bounds != sorted(bounds):
            errors.append("metrics: %s buckets out of order" % family)
        if counts != sorted(counts):
            errors.append("metrics: %s buckets not cumulative" % family)
        if not bounds or bounds[-1] != float("inf"):
            errors.append("metrics: %s missing +Inf bucket" % family)
        elif family in hist_counts and counts[-1] != hist_counts[family]:
            errors.append("metrics: %s +Inf bucket %g != count %g" %
                          (family, counts[-1], hist_counts[family]))
    if samples == 0:
        errors.append("metrics: no samples")
    return errors


WAIT_CLASSES = {"LWLock", "Lock", "IO", "WAL", "CondVar", "Scheduler"}
# One taxonomy entry per line in src/obs/wait_events.h, by contract there
# (anchored at line start so the header's doc-comment example is skipped):
#   {WaitClass::kX, "Class", "Event"},
WAIT_INFO_RE = re.compile(
    r'^\s*\{WaitClass::k\w+,\s*"(\w+)",\s*"(\w+)"\},$', re.MULTILINE)
WAIT_FAMILIES = ("elephant_wait_events_total", "elephant_wait_seconds_total")


def parse_wait_taxonomy(root):
    """(class, event) pairs parsed from the kWaitEventInfos table."""
    path = os.path.join(root, "src", "obs", "wait_events.h")
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return path, [(m.group(1), m.group(2))
                  for m in WAIT_INFO_RE.finditer(text)]


def check_wait_events(metrics_path, root):
    """The Prometheus wait families mirror the C++ taxonomy exactly."""
    errors = []
    try:
        header_path, taxonomy = parse_wait_taxonomy(root)
    except OSError as e:
        return ["wait_events: %s" % e]
    if not taxonomy:
        return ["wait_events: no kWaitEventInfos entries parsed from %s "
                "(one-line-per-entry contract broken?)" % header_path]
    bad = [c for c, _ in taxonomy if c not in WAIT_CLASSES]
    if bad:
        errors.append("wait_events: unknown wait class(es) %s in %s" %
                      (sorted(set(bad)), header_path))
    if len(set(taxonomy)) != len(taxonomy):
        errors.append("wait_events: duplicate (class, event) pair in %s" %
                      header_path)

    try:
        with open(metrics_path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return errors + ["wait_events: %s" % e]

    label_re = re.compile(
        r'^(?P<family>elephant_wait_(?:events|seconds)_total)'
        r'\{class="(?P<cls>\w+)",event="(?P<event>\w+)"\} (?P<value>\S+)$')
    seen = {family: {} for family in WAIT_FAMILIES}
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            continue
        m = label_re.match(line)
        if m is None:
            continue
        where = "wait_events: line %d" % lineno
        key = (m.group("cls"), m.group("event"))
        family = m.group("family")
        if key in seen[family]:
            errors.append("%s: duplicate series %s%s" % (where, family, key))
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append("%s: bad value %r" % (where, m.group("value")))
            continue
        seen[family][key] = value
        if value < 0:
            errors.append("%s: %s%s is negative" % (where, family, key))
        if family == "elephant_wait_events_total" \
                and value != int(value):
            errors.append("%s: %s%s count is not integral" %
                          (where, family, key))

    expected = set(taxonomy)
    for family in WAIT_FAMILIES:
        if "# TYPE %s counter" % family not in text:
            errors.append("wait_events: missing TYPE counter line for %s" %
                          family)
        missing = expected - set(seen[family])
        extra = set(seen[family]) - expected
        if missing:
            errors.append("wait_events: %s missing taxonomy entries %s "
                          "(zeros must still be exported)" %
                          (family, sorted(missing)))
        if extra:
            errors.append("wait_events: %s exports %s not in the taxonomy" %
                          (family, sorted(extra)))
    # A wait that was counted must have accumulated time's worth of a
    # nonnegative seconds sample (and vice versa the series must exist).
    for key, count in seen["elephant_wait_events_total"].items():
        if key in seen["elephant_wait_seconds_total"]:
            secs = seen["elephant_wait_seconds_total"][key]
            if count == 0 and secs != 0:
                errors.append("wait_events: %s has seconds %g with zero "
                              "count" % (key, secs))
    return errors


IO_KEYS = ("sequential_reads", "random_reads", "page_writes")
READAHEAD_KEYS = ("windows_issued", "pages_prefetched", "prefetch_hits",
                  "prefetch_wasted")
STATEMENT_KEYS = (
    "fingerprint", "plan_hash", "query", "calls", "rows",
    "instrumented_calls", "total_seconds", "mean_seconds", "min_seconds",
    "max_seconds", "p95_seconds", "total_io_seconds", "residual_seconds",
    "io", "latency_buckets", "operator_classes",
)
HEX_HASH_RE = re.compile(r"^[0-9a-f]{16}$")


def g9_quantum(v):
    """Max rounding error of the JSON writer's %.9g for a value of v's
    magnitude (half a unit in the 9th significant digit, rounded up)."""
    if not v:
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(v))) - 8)


def histogram_quantile(bounds, buckets, q):
    """The engine's histogram quantile rule (obs::HistogramSnapshot::
    Quantile), reimplemented independently: the q*count-th observation,
    interpolated uniformly between its bucket's edges (the first bucket
    spans [0, bounds[0]]); the overflow bucket reports the last finite
    bound; 0 when empty."""
    count = sum(buckets)
    last = bounds[-1] if bounds else 0.0
    if count == 0:
        return 0.0
    target = min(max(q, 0.0), 1.0) * count
    seen = 0
    for i, n in enumerate(buckets):
        if n == 0:
            continue
        if seen + n >= target:
            if i >= len(bounds):
                return last
            lo = bounds[i - 1] if i > 0 else 0.0
            return lo + (target - seen) / n * (bounds[i] - lo)
        seen += n
    return last


def _check_io_object(io, where, errors):
    for key in IO_KEYS:
        if not isinstance(io.get(key), int) or io.get(key, -1) < 0:
            errors.append("%s: io.%s not a non-negative integer" % (where, key))
    ra = io.get("readahead")
    if not isinstance(ra, dict):
        errors.append("%s: io.readahead missing" % where)
        return
    for key in READAHEAD_KEYS:
        if not isinstance(ra.get(key), int) or ra.get(key, -1) < 0:
            errors.append("%s: io.readahead.%s not a non-negative integer" %
                          (where, key))


def check_stat_statements(path):
    """Schema + reconciliation checks on Database::ExportStatStatements()."""
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return ["stat_statements: %s" % e]

    if not isinstance(doc.get("capacity"), int) or doc["capacity"] <= 0:
        errors.append("stat_statements: capacity must be a positive integer")
    if not isinstance(doc.get("evicted_entries"), int) \
            or doc["evicted_entries"] < 0:
        errors.append("stat_statements: evicted_entries must be >= 0")
    bounds = doc.get("latency_bounds")
    if not isinstance(bounds, list) or bounds != sorted(bounds):
        errors.append("stat_statements: latency_bounds missing or unsorted")
    statements = doc.get("statements")
    if not isinstance(statements, list):
        return errors + ["stat_statements: no statements array"]
    if doc.get("entries") != len(statements):
        errors.append("stat_statements: entries %r != %d statements" %
                      (doc.get("entries"), len(statements)))
    if len(statements) > doc.get("capacity", 0):
        errors.append("stat_statements: more statements than capacity")

    sums = {"calls": 0, "rows": 0, "total_seconds": 0.0,
            "total_io_seconds": 0.0}
    io_sums = {key: 0 for key in IO_KEYS}
    ra_sums = {key: 0 for key in READAHEAD_KEYS}
    seen_keys = set()
    for i, entry in enumerate(statements):
        where = "stat_statements: statement %d" % i
        missing = [k for k in STATEMENT_KEYS if k not in entry]
        if missing:
            errors.append("%s: missing keys %s" % (where, missing))
            continue
        for key in ("fingerprint", "plan_hash"):
            if not HEX_HASH_RE.match(str(entry[key])):
                errors.append("%s: %s is not a 16-digit hex hash" %
                              (where, key))
        ident = (entry["fingerprint"], entry["plan_hash"])
        if ident in seen_keys:
            errors.append("%s: duplicate fingerprint x plan_hash %s" %
                          (where, ident))
        seen_keys.add(ident)
        if entry["calls"] < 1:
            errors.append("%s: calls must be >= 1" % where)
        if entry["instrumented_calls"] > entry["calls"]:
            errors.append("%s: instrumented_calls > calls" % where)
        if sum(entry["latency_buckets"]) != entry["calls"]:
            errors.append("%s: latency_buckets sum %d != calls %d" %
                          (where, sum(entry["latency_buckets"]),
                           entry["calls"]))
        if isinstance(bounds, list) \
                and len(entry["latency_buckets"]) != len(bounds) + 1:
            errors.append("%s: %d latency_buckets for %d bounds" %
                          (where, len(entry["latency_buckets"]), len(bounds)))
        if isinstance(bounds, list) \
                and len(entry["latency_buckets"]) == len(bounds) + 1:
            # p95 recomputed from the serialized histogram must match the
            # engine's to the %.9g quantum of p95 itself plus that of the
            # bucket edge it was interpolated from.
            p95 = histogram_quantile(bounds, entry["latency_buckets"], 0.95)
            edge = next((b for b in bounds if b >= p95),
                        bounds[-1] if bounds else 0.0)
            tol = g9_quantum(p95) + g9_quantum(entry["p95_seconds"]) + \
                g9_quantum(edge)
            if abs(entry["p95_seconds"] - p95) > tol:
                errors.append("%s: p95_seconds %r != %r recomputed from "
                              "latency_buckets" %
                              (where, entry["p95_seconds"], p95))
        if not entry["min_seconds"] <= entry["mean_seconds"] \
                <= entry["max_seconds"]:
            errors.append("%s: min/mean/max out of order" % where)
        _check_io_object(entry["io"], where, errors)
        for name, cls in entry["operator_classes"].items():
            if entry["instrumented_calls"] == 0:
                errors.append("%s: operator class %s without instrumented "
                              "calls" % (where, name))
            if cls.get("operators", 0) < 1:
                errors.append("%s: operator class %s with no operators" %
                              (where, name))
        for key in sums:
            sums[key] += entry[key]
        for key in IO_KEYS:
            io_sums[key] += entry["io"].get(key, 0)
        for key in READAHEAD_KEYS:
            ra_sums[key] += entry["io"].get("readahead", {}).get(key, 0)

    # The totals block must reconcile exactly with the per-statement rows
    # (counters exactly; seconds to float round-off plus the JSON writer's
    # %.9g quantum — every serialized value carries up to half a unit in the
    # 9th significant digit, so the bound must scale with the magnitude of
    # the total AND with the number of rounded addends).
    totals = doc.get("totals")
    if not isinstance(totals, dict):
        return errors + ["stat_statements: no totals object"]
    for key in ("calls", "rows"):
        if totals.get(key) != sums[key]:
            errors.append("stat_statements: totals.%s %r != statement sum %d" %
                          (key, totals.get(key), sums[key]))

    for key in ("total_seconds", "total_io_seconds"):
        tol = (1e-9 + g9_quantum(totals.get(key, 0)) +
               sum(g9_quantum(e.get(key, 0)) for e in statements))
        if abs(totals.get(key, 0) - sums[key]) > tol:
            errors.append("stat_statements: totals.%s %r != statement sum %r" %
                          (key, totals.get(key), sums[key]))
    total_io = totals.get("io", {})
    for key in IO_KEYS:
        if total_io.get(key) != io_sums[key]:
            errors.append("stat_statements: totals.io.%s %r != statement "
                          "sum %d" % (key, total_io.get(key), io_sums[key]))
    for key in READAHEAD_KEYS:
        if total_io.get("readahead", {}).get(key) != ra_sums[key]:
            errors.append(
                "stat_statements: totals.io.readahead.%s %r != statement "
                "sum %d" % (key, total_io.get("readahead", {}).get(key),
                            ra_sums[key]))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome-trace JSON file to validate")
    parser.add_argument("--metrics",
                        help="Prometheus text-exposition file to validate")
    parser.add_argument("--stat-statements",
                        help="ExportStatStatements() JSON file to validate")
    parser.add_argument("--min-worker-threads", type=int, default=0,
                        help="require worker spans on at least N threads")
    parser.add_argument("--wait-events", action="store_true",
                        help="cross-check --metrics against the wait-event "
                             "taxonomy in src/obs/wait_events.h")
    parser.add_argument("--root",
                        default=os.path.join(os.path.dirname(
                            os.path.abspath(__file__)), ".."),
                        help="repository root (for --wait-events)")
    args = parser.parse_args()
    if not args.trace and not args.metrics and not args.stat_statements:
        parser.error(
            "nothing to check: pass --trace, --metrics, and/or "
            "--stat-statements")
    if args.wait_events and not args.metrics:
        parser.error("--wait-events needs --metrics to cross-check")

    errors = []
    if args.trace:
        errors += check_trace(args.trace, args.min_worker_threads)
    if args.metrics:
        errors += check_metrics(args.metrics)
    if args.wait_events:
        errors += check_wait_events(args.metrics, args.root)
    if args.stat_statements:
        errors += check_stat_statements(args.stat_statements)
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        checked = [p for p in (args.trace, args.metrics,
                               args.stat_statements) if p]
        if args.wait_events:
            checked.append("wait-events taxonomy")
        print("telemetry_check: OK (%s)" % ", ".join(checked))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
