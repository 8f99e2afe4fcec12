#!/usr/bin/env python3
"""Engine-invariant linter for the elephant source tree.

Static rules the compiler cannot enforce but the engine's correctness
arguments depend on:

  raw-page-api      FetchPage / NewPage / UnpinPage outside the buffer pool
                    and PageGuard implementation. Engine code must hold pages
                    through PageGuard (RAII unpin) so pin leaks are impossible
                    by construction.
  raw-mutex         std::mutex / std::condition_variable / std::lock_guard /
                    std::unique_lock / std::scoped_lock / std::shared_mutex in
                    src/. Engine code must use the Mutex / MutexLock / CondVar
                    wrappers from common/thread_annotations.h: only those run
                    the lock-rank and blocking-under-latch checks and open the
                    wait-event scopes, so a raw primitive escapes all three.
  discarded-status  a `(void)` cast with no lint:allow(discarded-status)
                    comment. Status and Result are [[nodiscard]] and the build
                    passes -Werror=unused-result, so `(void)` is the only way
                    to drop one; each such launder must say why.
  unguarded-mutex   A Mutex member declared in a header whose file contains no
                    GUARDED_BY(that_mutex) annotation — a capability nothing
                    is guarded by is almost always a forgotten annotation.
  naked-new         `new` outside an immediate smart-pointer construction.
  naked-delete      any `delete` expression (ownership is RAII-only).
  nonconst-global   mutable namespace-scope variables (hidden shared state
                    that concurrent sessions would race on).
  unchecked-narrowing
                    raw `static_cast<int32_t>` in common/value.cc. Value
                    arithmetic once wrapped silently at the INT32/DATE
                    boundary; every narrowing there must flow through the
                    range-checked NarrowToInt32 helper (which carries the
                    one lint:allow).
  stat-statements-mutation
                    StatStatements / stat_statements references outside
                    src/obs/ (the registry) and src/engine/ (the one
                    recording site). The registry's counters reconcile
                    exactly with the global I/O counters only because
                    nothing else feeds or resets it; executors and
                    strategies must read it through SQL
                    (elephant_stat_statements) instead.
  wal-protocol      LogRecord construction / page-LSN stamping outside
                    src/wal/ and src/txn/ (plus storage/buffer_pool, which
                    defines the frame-LSN hook). ARIES correctness rests on
                    every page change being logged before its frame LSN is
                    recorded; code that forges records or stamps LSNs
                    elsewhere silently breaks redo and the WAL rule.
                    Everything else changes logged B+-tree pages through the
                    wal:: tree helpers (InsertCell / RemoveCell / SetValue /
                    LogSplit), which Table's Insert / Delete / Update
                    reach through BPlusTree.
  value-in-batch-kernel
                    std::vector<Value>, Value::Compare or a `.Compare(` call,
                    a conversion between a Value and a batch cell
                    (ColumnVector::GetValue / AppendValue, Batch::AppendRow)
                    or a Table::BulkLoadRows call, in src/exec/, in the
                    batch container (common/batch.{h,cc}) and in the
                    derived-table build (cstore/ctable_builder.cc, the run
                    kernel in cstore/compression.cc, Table's typed load in
                    catalog/table.cc). Batch columns are typed lanes and
                    every batch kernel (filter, projection, join keys,
                    aggregates, sort, c-table runs, bulk loads) runs on them;
                    a per-row Value path must not come back beside them. The boundary adapters
                    where rows enter or leave the engine as Values (root
                    conversion, literals, VALUES and virtual scans, scalar
                    Expr::Eval, the planner's static key ranges) carry a
                    lint:allow, so ExecCounters::values_materialized, counted
                    at the root conversion, counts every Value built from a
                    lane.
  cell-decoder      a read of the stored cell formats — tuple::IsNull /
                    GetInt / GetDouble / GetString, DecodeSecondaryValue or
                    keycodec::DecodeCell — outside src/catalog/ and
                    src/common/. Table writes the tuple and index-entry
                    formats and IndexCursor (catalog/table.h) is their one
                    reader; every other module reads table cells through
                    it, so a change to a cell format lands in one module.
  prometheus-renderer
                    a string literal holding a Prometheus `# TYPE ` line
                    outside obs/prometheus.cc. ExportMetrics() renders the
                    elephant_stat_* tables through that file's one renderer;
                    a second hand-written exposition would let the export and
                    the tables disagree again.

Suppress a finding with a trailing or preceding-line comment:

    // lint:allow(<rule>): reason

Usage:
  elephant_lint.py [--root DIR]              lint src/ (exit 1 on findings)
  elephant_lint.py --self-test [--root DIR]  run against tests/lint_fixtures/
"""

import argparse
import os
import re
import sys

# Files allowed to use the raw pin API: the pool itself and the guard that
# wraps it.
RAW_PAGE_API_ALLOWED = {
    os.path.join("storage", "buffer_pool.h"),
    os.path.join("storage", "buffer_pool.cc"),
    os.path.join("storage", "page_guard.h"),
    os.path.join("storage", "page_guard.cc"),
}

# The annotation header implements the wrappers, so it references std::mutex.
RAW_MUTEX_ALLOWED = {
    os.path.join("common", "thread_annotations.h"),
}

# Directories (top-level under src/) allowed to touch the statement registry:
# obs/ implements it, engine/ records into it and serves the virtual tables.
STAT_STATEMENTS_ALLOWED_DIRS = {"obs", "engine"}

STAT_STATEMENTS_RE = re.compile(r"\b(?:StatStatements|stat_statements_?)\b")

# The WAL protocol surface: record construction and page-LSN stamping live
# in the wal/ and txn/ layers; the buffer pool defines the frame-LSN hook.
WAL_PROTOCOL_ALLOWED_DIRS = {"wal", "txn"}
WAL_PROTOCOL_ALLOWED = {
    os.path.join("storage", "buffer_pool.h"),
    os.path.join("storage", "buffer_pool.cc"),
}

WAL_PROTOCOL_RE = re.compile(r"\bLogRecord\b|\b(?:Set|Record)PageLsn\s*\(")

# The one file the unchecked-narrowing rule polices: the Value arithmetic
# that silently wrapped at the INT32/DATE boundary before NarrowToInt32.
NARROWING_SCOPED = {
    os.path.join("common", "value.cc"),
}

NARROWING_RE = re.compile(r"\bstatic_cast\s*<\s*(?:std\s*::\s*)?int32_t\s*>")

# The batch engine's directory, the TPC-H loader, and the files that hold
# typed columns or build derived tables from them: their kernels run on
# typed lanes, not Values.
VALUE_KERNEL_DIRS = {"exec", "tpch"}
VALUE_KERNEL_FILES = {
    os.path.join("common", "batch.h"),
    os.path.join("common", "batch.cc"),
    os.path.join("cstore", "ctable_builder.cc"),
    os.path.join("cstore", "compression.cc"),
    os.path.join("catalog", "table.cc"),
}

VALUE_KERNEL_RE = re.compile(
    r"\bstd\s*::\s*vector\s*<\s*Value\s*>"
    r"|\bValue\s*::\s*Compare\b"
    r"|\.\s*Compare\s*\("
    r"|\b(?:GetValue|AppendValue|AppendRow|BulkLoadRows)\s*\(")

# The modules that write and read the stored cell formats: Table and its
# IndexCursor (catalog/), the tuple and key codecs (common/).
CELL_DECODER_ALLOWED_DIRS = {"catalog", "common"}

CELL_DECODER_RE = re.compile(
    r"\btuple\s*::\s*(?:IsNull|GetInt|GetDouble|GetString)\b"
    r"|\bDecodeSecondaryValue\b"
    r"|\bkeycodec\s*::\s*DecodeCell\b")

# The one Prometheus text renderer.
PROMETHEUS_RENDERER_ALLOWED = {os.path.join("obs", "prometheus.cc")}

# Matched against the raw line: the family name sits inside a string
# literal, which the comment/string stripper blanks.
PROMETHEUS_TYPE_RE = re.compile(r'"[^"\n]*#\s*TYPE\s')

RAW_PAGE_API_RE = re.compile(
    r"\b(?:FetchPage|NewPage)\s*\((?!\s*\))"  # call with args (decl-ish ok too)
    r"|\b(?:FetchPage|NewPage)\s*\(\s*\)"
    r"|\bUnpinPage\s*\("
)
# FetchPageGuarded / NewPageGuarded are the sanctioned spellings.
RAW_PAGE_API_OK_RE = re.compile(r"\b(?:FetchPage|NewPage)Guarded\b")

# A `(void)` cast: the previous token is not a name (so `f(void)`
# declarations and `function<void(void)>` are exempt) and an expression
# follows.
VOID_CAST_RE = re.compile(r"(?:^|[^\w\s])\s*\(\s*void\s*\)\s*[\w(*&:!~]")

RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)

# Matches both unranked (`Mutex mu_;`) and ranked
# (`Mutex mu_{LockRank::kBufferPool, "..."};`) member declarations.
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?Mutex\s+(\w+)\s*(?:\{[^}]*\})?\s*;")

NAKED_NEW_ANY_RE = re.compile(r"\bnew\s+[A-Za-z_:<(]")
# A `new` is fine when immediately owned: the argument of a smart-pointer
# construction (std::unique_ptr<T>(new T), std::unique_ptr<T> p(new T)) or a
# .reset(new T) call — checked against preceding stripped text (multi-line).
SMART_PTR_TAIL_RE = re.compile(
    r"(?:_ptr\s*<[^;{}]*>\s*(?:[A-Za-z_]\w*\s*)?\(|\breset\s*\()\s*$")

DELETE_EXPR_RE = re.compile(r"\bdelete\b\s*(\[\s*\]\s*)?[A-Za-z_*(]")

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

GLOBAL_EXEMPT_RE = re.compile(
    r"^\s*(?:#|//|/\*|\*|$)"
    r"|^\s*(?:using|typedef|namespace|class|struct|enum|template|extern|"
    r"friend|public|private|protected|return|if|else|for|while|switch|case)\b"
)


def strip_comments_and_strings(text):
    """Replaces comment/string contents with spaces, preserving offsets and
    newlines, and returns (stripped_text, allow_map) where allow_map maps a
    1-based line number to the set of rules allowed on that line."""
    out = []
    allow = {}
    i = 0
    n = len(text)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char | raw_string
    comment_start = 0
    raw_delim = ""
    while i < n:
        c = text[i]
        if state == "code":
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "line_comment"
                comment_start = i
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "block_comment"
                comment_start = i
                out.append("  ")
                i += 2
                continue
            if c == '"':
                if out and re.search(r'R$', "".join(out[-8:]).strip() or " "):
                    m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 20])
                    if m:
                        raw_delim = m.group(1)
                        state = "raw_string"
                        out.append('"')
                        i += 1
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
        elif state == "line_comment":
            if c == "\n":
                _record_allows(text[comment_start:i], line, allow)
                state = "code"
                out.append("\n")
                line += 1
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                _record_allows(text[comment_start:i], line, allow)
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                if c == "\n":
                    line += 1
                i += 1
        elif state == "string":
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                if c == "\n":
                    line += 1
                i += 1
        elif state == "char":
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        elif state == "raw_string":
            end = ')' + raw_delim + '"'
            if text.startswith(end, i):
                state = "code"
                out.append(" " * len(end))
                i += len(end)
            else:
                out.append("\n" if c == "\n" else " ")
                if c == "\n":
                    line += 1
                i += 1
    return "".join(out), allow


def _record_allows(comment, line, allow):
    for m in ALLOW_RE.finditer(comment):
        rules = {r.strip() for r in m.group(1).split(",")}
        # An allow comment covers its own line and the next line (so it can
        # sit above the flagged statement).
        allow.setdefault(line, set()).update(rules)
        allow.setdefault(line + 1, set()).update(rules)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def lint_file(path, rel, text):
    stripped, allow = strip_comments_and_strings(text)
    lines = stripped.split("\n")
    findings = []

    def report(lineno, rule, message):
        if rule in allow.get(lineno, set()):
            return
        findings.append(Finding(rel, lineno, rule, message))

    # --- raw-page-api ---
    if rel not in RAW_PAGE_API_ALLOWED:
        for lineno, ln in enumerate(lines, 1):
            ln_wo_ok = RAW_PAGE_API_OK_RE.sub("", ln)
            if RAW_PAGE_API_RE.search(ln_wo_ok):
                report(lineno, "raw-page-api",
                       "raw FetchPage/NewPage/UnpinPage outside the buffer "
                       "pool; use FetchPageGuarded/NewPageGuarded (PageGuard)")

    # --- raw-mutex ---
    if rel not in RAW_MUTEX_ALLOWED:
        for lineno, ln in enumerate(lines, 1):
            if RAW_MUTEX_RE.search(ln):
                report(lineno, "raw-mutex",
                       "raw std:: synchronization primitive; use the "
                       "annotated Mutex/MutexLock/CondVar from "
                       "common/thread_annotations.h")

    # --- discarded-status ---
    for lineno, ln in enumerate(lines, 1):
        if VOID_CAST_RE.search(ln):
            report(lineno, "discarded-status",
                   "(void) cast without a justification; consume the "
                   "Status/Result, or add // lint:allow(discarded-status): "
                   "reason")

    # --- unchecked-narrowing (value.cc only; fixtures lint as bare names) ---
    if rel in NARROWING_SCOPED or os.sep not in rel:
        for lineno, ln in enumerate(lines, 1):
            if NARROWING_RE.search(ln):
                report(lineno, "unchecked-narrowing",
                       "raw static_cast<int32_t> in value arithmetic; narrow "
                       "through the range-checked NarrowToInt32 helper")

    # --- stat-statements-mutation (fixtures lint as bare names) ---
    top_dir = rel.split(os.sep, 1)[0] if os.sep in rel else None
    if top_dir not in STAT_STATEMENTS_ALLOWED_DIRS:
        for lineno, ln in enumerate(lines, 1):
            if STAT_STATEMENTS_RE.search(ln):
                report(lineno, "stat-statements-mutation",
                       "StatStatements registry referenced outside src/obs/ "
                       "and src/engine/; only the engine records into it — "
                       "read it through the elephant_stat_statements virtual "
                       "table instead")

    # --- wal-protocol (fixtures lint as bare names) ---
    if (top_dir not in WAL_PROTOCOL_ALLOWED_DIRS
            and rel not in WAL_PROTOCOL_ALLOWED):
        for lineno, ln in enumerate(lines, 1):
            if WAL_PROTOCOL_RE.search(ln):
                report(lineno, "wal-protocol",
                       "LogRecord construction / page-LSN stamping outside "
                       "src/wal/ and src/txn/; change logged B+-tree pages "
                       "through the wal:: tree helpers (InsertCell/RemoveCell/"
                       "SetValue/LogSplit) so every page change is logged "
                       "before its frame LSN is recorded")

    # --- value-in-batch-kernel (fixtures lint as bare names) ---
    if (top_dir in VALUE_KERNEL_DIRS or rel in VALUE_KERNEL_FILES
            or top_dir is None):
        for lineno, ln in enumerate(lines, 1):
            if VALUE_KERNEL_RE.search(ln):
                report(lineno, "value-in-batch-kernel",
                       "per-row Value (std::vector<Value> / Value::Compare "
                       "/ a Value<->cell conversion / a Row bulk load) in "
                       "the batch engine; "
                       "run the kernel on the typed lanes (ColumnVector, "
                       "CompareCells, EncodeCell), or "
                       "lint:allow a boundary adapter with its reason")

    # --- cell-decoder (fixtures lint as bare names) ---
    if top_dir not in CELL_DECODER_ALLOWED_DIRS:
        for lineno, ln in enumerate(lines, 1):
            if CELL_DECODER_RE.search(ln):
                report(lineno, "cell-decoder",
                       "stored cells decoded outside src/catalog/ and "
                       "src/common/; read table cells through IndexCursor "
                       "(catalog/table.h), the one reader of the formats "
                       "Table writes")

    # --- prometheus-renderer (fixtures lint as bare names) ---
    if rel not in PROMETHEUS_RENDERER_ALLOWED:
        for lineno, ln in enumerate(text.split("\n"), 1):
            if PROMETHEUS_TYPE_RE.search(ln):
                report(lineno, "prometheus-renderer",
                       "Prometheus `# TYPE` line written outside "
                       "obs/prometheus.cc; export through an elephant_stat_* "
                       "table, which ExportMetrics() renders with "
                       "AppendPrometheusTable")

    # --- unguarded-mutex ---
    mutex_names = []
    for lineno, ln in enumerate(lines, 1):
        m = MUTEX_MEMBER_RE.match(ln)
        if m:
            mutex_names.append((lineno, m.group(1)))
    for lineno, name in mutex_names:
        if f"GUARDED_BY({name})" in stripped or f"REQUIRES({name})" in stripped:
            continue
        report(lineno, "unguarded-mutex",
               f"Mutex member '{name}' has no GUARDED_BY({name}) / "
               f"REQUIRES({name}) anywhere in this file; annotate what it "
               "protects (or lint:allow with the protection contract)")

    # --- naked-new / naked-delete ---
    for m in NAKED_NEW_ANY_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        # Preceding stripped text (up to 160 chars) ending in a smart-pointer
        # constructor call means this `new` is immediately owned.
        prefix = stripped[max(0, m.start() - 160):m.start()]
        if SMART_PTR_TAIL_RE.search(prefix):
            continue
        report(lineno, "naked-new",
               "naked new; wrap in std::make_unique/std::unique_ptr at the "
               "allocation site")
    for m in DELETE_EXPR_RE.finditer(stripped):
        lineno = stripped.count("\n", 0, m.start()) + 1
        # `= delete` declarations and `operator delete` are not expressions.
        prefix = stripped[max(0, m.start() - 40):m.start()]
        if re.search(r"=\s*$", prefix) or re.search(r"operator\s*$", prefix):
            continue
        report(lineno, "naked-delete",
               "manual delete; ownership must be RAII (unique_ptr)")

    # --- nonconst-global (headers and sources, namespace scope only) ---
    depth = 0  # brace depth excluding namespace braces
    ns_stack = []
    pending_ns = False
    for lineno, ln in enumerate(lines, 1):
        code = ln
        if re.match(r"^\s*namespace\b[^{;]*$", code) or re.match(
                r"^\s*namespace\b.*\{", code):
            pending_ns = True
        for ch in code:
            if ch == "{":
                if pending_ns:
                    ns_stack.append(depth)
                    pending_ns = False
                else:
                    depth += 1
            elif ch == "}":
                if ns_stack and depth == ns_stack[-1]:
                    ns_stack.pop()
                elif depth > 0:
                    depth -= 1
        if depth != 0:
            continue
        m = re.match(
            r"^(?:static\s+)?(?:inline\s+)?([A-Za-z_][\w:<>,\s*&]*?)\s+"
            r"([A-Za-z_]\w*)\s*(?:=[^=].*)?;\s*$", code)
        if not m:
            continue
        decl_type, _name = m.group(1), m.group(2)
        if GLOBAL_EXEMPT_RE.match(code):
            continue
        if re.search(r"\b(?:const|constexpr|consteval|constinit|thread_local)\b",
                     code):
            continue
        if "(" in code or ")" in code:  # function declarations
            continue
        if re.match(r"^(?:return|delete|new|using|typedef|case|goto|break|"
                    r"continue|public|private|protected|else)$",
                    decl_type.strip()):
            continue
        report(lineno, "nonconst-global",
               "mutable namespace-scope variable; make it const/constexpr, "
               "thread_local, or move it behind an owning object")

    return findings


def collect_sources(root, subdir):
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(base):
        for fn in sorted(filenames):
            if fn.endswith((".cc", ".h", ".cpp", ".hpp")):
                full = os.path.join(dirpath, fn)
                yield full, os.path.relpath(full, base)


def run_lint(root):
    findings = []
    for full, rel in collect_sources(root, "src"):
        with open(full, encoding="utf-8") as f:
            findings.extend(lint_file(full, rel, f.read()))
    return findings


def run_self_test(root):
    """Each tests/lint_fixtures/bad_<rule>.cc must trigger exactly its rule;
    clean.cc must produce no findings."""
    fixture_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixture_dir):
        print(f"self-test: fixture dir missing: {fixture_dir}", file=sys.stderr)
        return 1
    failures = 0
    for fn in sorted(os.listdir(fixture_dir)):
        if not fn.endswith(".cc"):
            continue
        full = os.path.join(fixture_dir, fn)
        with open(full, encoding="utf-8") as f:
            findings = lint_file(full, fn, f.read())
        rules_hit = {f.rule for f in findings}
        if fn.startswith("bad_"):
            want = fn[len("bad_"):-len(".cc")].replace("_", "-")
            if want not in rules_hit:
                print(f"self-test FAIL: {fn}: expected [{want}], got "
                      f"{sorted(rules_hit) or 'nothing'}")
                failures += 1
            else:
                print(f"self-test ok:   {fn} -> [{want}]")
        elif fn == "clean.cc":
            if findings:
                print(f"self-test FAIL: clean.cc flagged:")
                for f2 in findings:
                    print(f"  {f2}")
                failures += 1
            else:
                print("self-test ok:   clean.cc -> no findings")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the seeded fixtures instead of src/")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    if args.self_test:
        return run_self_test(root)

    findings = run_lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\nelephant_lint: {len(findings)} finding(s) in src/")
        return 1
    print("elephant_lint: src/ clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
