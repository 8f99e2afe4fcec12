#include "obs/plan_stats.h"

#include <cstdio>

namespace elephant {
namespace obs {

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

/// Inclusive-minus-children: what this operator did itself.
OperatorBreakdown SelfOf(const PlanNode& n, int depth) {
  OperatorBreakdown b;
  const size_t eol = n.label.find('\n');
  b.op = eol == std::string::npos ? n.label : n.label.substr(0, eol);
  b.depth = depth;
  b.est_rows = n.est_rows;
  if (n.stats == nullptr) return b;
  const OperatorStats& s = *n.stats;
  b.rows = s.rows;
  b.next_calls = s.next_calls;
  OperatorStats kids;
  for (const auto& kid : n.children) {
    if (kid->stats != nullptr) kids += *kid->stats;
  }
  b.seconds = s.seconds > kids.seconds ? s.seconds - kids.seconds : 0;
  // Exact: every child's I/O happened inside a call of this operator (or,
  // under Gather, was folded into its sink inside one), so its inclusive
  // traffic covers the children's.
  b.io = s.io - kids.io;
  b.pool_hits = SatSub(s.pool_hits, kids.pool_hits);
  b.pool_misses = SatSub(s.pool_misses, kids.pool_misses);
  return b;
}

std::string FormatMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", seconds * 1e3);
  return buf;
}

std::string Annotations(const PlanNode& n, bool with_actuals, int depth) {
  std::string out;
  char buf[128];
  if (n.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), "  [est_rows=%.0f cost=%.0f]", n.est_rows,
                  n.est_cost < 0 ? 0.0 : n.est_cost);
    out += buf;
  }
  if (with_actuals && n.stats != nullptr) {
    const OperatorBreakdown self = SelfOf(n, depth);
    std::snprintf(buf, sizeof(buf),
                  "  (actual rows=%llu nexts=%llu time=%s io_seq=%llu "
                  "io_rand=%llu pool_miss=%llu)",
                  static_cast<unsigned long long>(n.stats->rows),
                  static_cast<unsigned long long>(n.stats->next_calls),
                  FormatMs(n.stats->seconds).c_str(),
                  static_cast<unsigned long long>(self.io.sequential_reads),
                  static_cast<unsigned long long>(self.io.random_reads),
                  static_cast<unsigned long long>(self.pool_misses));
    out += buf;
  }
  return out;
}

void Render(const PlanNode& n, int depth, bool with_actuals, std::string* out) {
  // Multi-line labels keep their own content; annotations attach to the
  // first line. Every line indents to this node's depth.
  const std::string annot = Annotations(n, with_actuals, depth);
  size_t start = 0;
  bool first = true;
  while (start <= n.label.size()) {
    size_t end = n.label.find('\n', start);
    if (end == std::string::npos) end = n.label.size();
    out->append(static_cast<size_t>(depth) * 2, ' ');
    if (first) out->append("-> ");
    out->append(n.label, start, end - start);
    if (first) out->append(annot);
    out->push_back('\n');
    first = false;
    if (end == n.label.size()) break;
    start = end + 1;
  }
  for (const auto& kid : n.children) Render(*kid, depth + 1, with_actuals, out);
}

void Flatten(const PlanNode& n, int depth, std::vector<OperatorBreakdown>* out) {
  out->push_back(SelfOf(n, depth));
  for (const auto& kid : n.children) Flatten(*kid, depth + 1, out);
}

}  // namespace

std::string RenderPlanTree(const PlanNode& root, bool with_actuals) {
  std::string out;
  Render(root, 0, with_actuals, &out);
  return out;
}

std::vector<OperatorBreakdown> FlattenPlan(const PlanNode& root) {
  std::vector<OperatorBreakdown> out;
  Flatten(root, 0, &out);
  return out;
}

void AppendPlanJson(const PlanNode& root, bool with_actuals, JsonWriter* w) {
  w->BeginObject();
  w->Key("op").String(root.label);
  if (root.est_rows >= 0) {
    w->Key("est_rows").Double(root.est_rows);
    w->Key("est_cost").Double(root.est_cost < 0 ? 0 : root.est_cost);
  }
  if (with_actuals && root.stats != nullptr) {
    const OperatorBreakdown self = SelfOf(root, 0);
    w->Key("actual").BeginObject();
    w->Key("rows").UInt(root.stats->rows);
    w->Key("next_calls").UInt(root.stats->next_calls);
    w->Key("seconds").Double(root.stats->seconds);
    w->Key("self_seconds").Double(self.seconds);
    w->Key("self_seq_reads").UInt(self.io.sequential_reads);
    w->Key("self_rand_reads").UInt(self.io.random_reads);
    w->Key("self_page_writes").UInt(self.io.page_writes);
    w->Key("self_pool_hits").UInt(self.pool_hits);
    w->Key("self_pool_misses").UInt(self.pool_misses);
    w->EndObject();
  }
  if (!root.children.empty()) {
    w->Key("children").BeginArray();
    for (const auto& kid : root.children) AppendPlanJson(*kid, with_actuals, w);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace obs
}  // namespace elephant
