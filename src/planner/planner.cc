#include "planner/planner.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "exec/batch_executors.h"
#include "exec/join_executor.h"
#include "exec/parallel_executor.h"
#include "exec/scan_executor.h"
#include "exec/simple_executors.h"
#include "exec/virtual_scan_executor.h"
#include "obs/instrumented_executor.h"
#include "obs/plan_stats.h"

namespace elephant {

namespace {

// ---------- plan tree ----------
//
// The plan tree is the public obs::PlanNode: the planner attaches labels and
// cardinality/cost estimates as it builds the operator tree, and (when
// instrumenting) an OperatorStats slot per node that an
// obs::InstrumentedBatchExecutor wrapper fills in at run time.

using ExplainNode = obs::PlanNode;
using ExplainPtr = std::unique_ptr<obs::PlanNode>;

ExplainPtr Note(std::string label) {
  auto n = std::make_unique<ExplainNode>();
  n->label = std::move(label);
  return n;
}

ExplainPtr Note(std::string label, ExplainPtr kid) {
  ExplainPtr n = Note(std::move(label));
  n->children.push_back(std::move(kid));
  return n;
}

ExplainPtr Note(std::string label, ExplainPtr kid1, ExplainPtr kid2) {
  ExplainPtr n = Note(std::move(label));
  n->children.push_back(std::move(kid1));
  n->children.push_back(std::move(kid2));
  return n;
}

/// Post-pass over the finished tree: nodes that did not receive an explicit
/// cardinality estimate inherit their input's, and cumulative cost is
/// bottom-up "rows touched in this subtree".
void FillEstimates(ExplainNode* n) {
  double child_cost = 0;
  for (auto& kid : n->children) {
    FillEstimates(kid.get());
    child_cost += kid->est_cost;
  }
  if (n->est_rows < 0 && !n->children.empty()) {
    n->est_rows = n->children[0]->est_rows;
  }
  if (n->est_rows < 0) n->est_rows = 1;
  n->est_cost = child_cost + std::max(n->est_rows, 1.0);
}

// ---------- working structures ----------

struct SubPlan {
  BatchExecutorPtr exec;
  ExplainPtr note;
  size_t width = 0;  ///< number of output columns
  /// Plan positions whose values are provably ascending across the output
  /// stream (interesting-order tracking). Lets a band merge join skip its
  /// sort when the outer is already ordered — the c-table chains of §2.2.2
  /// always are, since every band join preserves f-order.
  std::set<size_t> ordered;
};

/// A sargable atom: relation-local column `col` compared against `other`,
/// an expression that does not reference the relation itself.
struct Sarg {
  size_t col;
  CompareOp op;
  const Expr* other;
  size_t conjunct_id;
};

/// The result of matching sargs against an index's key columns.
struct BoundsMatch {
  std::vector<const Expr*> eq;        ///< per leading key column
  const Expr* lo = nullptr;
  bool lo_inclusive = true;
  const Expr* hi = nullptr;
  bool hi_inclusive = true;
  std::set<size_t> used_conjuncts;
  int matched_cols = 0;
};

/// The static key range a literal BoundsMatch selects, with its EXPLAIN
/// description and the access intent the storage layer scans it under.
struct StaticRange {
  KeyRange range;
  std::string desc;
  AccessIntent intent = AccessIntent::kPointLookup;
};

/// Matches sargs against key columns (in key order): equalities on the
/// prefix, then one range on the following column.
BoundsMatch MatchBounds(const std::vector<size_t>& key_cols,
                        const std::vector<Sarg>& sargs) {
  BoundsMatch m;
  for (size_t kc : key_cols) {
    const Sarg* eq = nullptr;
    for (const Sarg& s : sargs) {
      if (s.col == kc && s.op == CompareOp::kEq) {
        eq = &s;
        break;
      }
    }
    if (eq != nullptr) {
      m.eq.push_back(eq->other);
      m.used_conjuncts.insert(eq->conjunct_id);
      m.matched_cols++;
      continue;
    }
    bool any_range = false;
    for (const Sarg& s : sargs) {
      if (s.col != kc) continue;
      if ((s.op == CompareOp::kGe || s.op == CompareOp::kGt) && m.lo == nullptr) {
        m.lo = s.other;
        m.lo_inclusive = s.op == CompareOp::kGe;
        m.used_conjuncts.insert(s.conjunct_id);
        any_range = true;
      } else if ((s.op == CompareOp::kLe || s.op == CompareOp::kLt) &&
                 m.hi == nullptr) {
        m.hi = s.other;
        m.hi_inclusive = s.op == CompareOp::kLe;
        m.used_conjuncts.insert(s.conjunct_id);
        any_range = true;
      }
    }
    if (any_range) m.matched_cols++;
    break;  // after the first non-equality column, the prefix ends
  }
  return m;
}

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
    default: return op;
  }
}

/// The set of relations referenced by an expression (via a column->relation
/// map over the query's input schema).
std::set<size_t> RelsOf(const Expr& e, const std::vector<size_t>& col_rel) {
  std::vector<size_t> cols;
  e.CollectColumns(&cols);
  std::set<size_t> rels;
  for (size_t c : cols) rels.insert(col_rel[c]);
  return rels;
}

/// Relation-local column -> its position in a covering index's row (key
/// columns, then include columns); -1 when the index does not carry it. A
/// column both keyed and included maps to its key position.
std::vector<int> IndexPositions(const SecondaryIndex& idx, size_t ncols) {
  std::vector<int> pos(ncols, -1);
  size_t out_pos = 0;
  for (size_t kc : idx.key_cols) pos[kc] = static_cast<int>(out_pos++);
  for (size_t ic : idx.include_cols) {
    if (pos[ic] < 0) pos[ic] = static_cast<int>(out_pos);
    out_pos++;
  }
  return pos;
}

/// Relation-local column -> its position in the table row (the identity).
std::vector<int> RowPositions(size_t ncols) {
  std::vector<int> pos(ncols);
  for (size_t c = 0; c < ncols; c++) pos[c] = static_cast<int>(c);
  return pos;
}

/// The table columns a clustered scan emits in ascending order: the leading
/// cluster column and, when equalities pin the first `eq_prefix` cluster
/// columns, the next one.
std::set<size_t> ClusteredOrder(const Table& table, size_t eq_prefix) {
  std::set<size_t> out;
  const std::vector<size_t>& cluster = table.cluster_cols();
  if (cluster.empty()) return out;
  out.insert(cluster[0]);
  if (eq_prefix > 0 && eq_prefix < cluster.size()) {
    out.insert(cluster[eq_prefix]);
  }
  return out;
}

/// The plan positions, among the decoded source positions `cols`, of the
/// provably ascending source positions `src`; pruned ones are dropped.
std::set<size_t> KeptOrder(const std::set<size_t>& src,
                           const std::vector<size_t>& cols) {
  std::set<size_t> out;
  for (size_t i = 0; i < cols.size(); i++) {
    if (src.count(cols[i]) != 0) out.insert(i);
  }
  return out;
}

/// Immutable shared description of the per-morsel pipeline of a parallel
/// plan. The MorselPlanFactory (called on worker threads) clones the stored
/// prototype expressions per morsel, so workers never share mutable
/// expression state. The stats slots are the shared plan-tree slots worker
/// results merge into (null when not instrumenting).
struct ParallelSpec {
  const Table* table = nullptr;
  std::vector<size_t> cols;  ///< table columns each morsel scan decodes
  /// Storage hint every morsel scan runs under (PlanBuilder::ScanIntent of
  /// the scanned table: the morsels jointly cover one table-wide scan).
  AccessIntent scan_intent = AccessIntent::kPointLookup;
  ExprPtr residual;              ///< relation-local filter; may be null
  bool aggregate = false;
  std::vector<ExprPtr> groups;   ///< relation-local group expressions
  std::vector<AggSpec> aggs;
  std::shared_ptr<obs::OperatorStats> scan_slot;
  std::shared_ptr<obs::OperatorStats> filter_slot;
  std::shared_ptr<obs::OperatorStats> agg_slot;
};

/// Builds the factory that constructs one morsel's pipeline:
///   [Instrumented] PartialAggregate? <- [Instrumented] Filter? <-
///   [Instrumented] ClusteredScan(morsel range)
MorselPlanFactory MakeMorselFactory(std::shared_ptr<const ParallelSpec> spec) {
  return [spec](const KeyRange& morsel, ExecContext* wctx) -> Result<MorselPlan> {
    MorselPlan mp;
    auto attach = [&](const std::shared_ptr<obs::OperatorStats>& target) {
      if (target == nullptr) return;
      auto slot = std::make_shared<obs::OperatorStats>();
      mp.exec = std::make_unique<obs::InstrumentedBatchExecutor>(
          wctx, std::move(mp.exec), slot);
      mp.stats.emplace_back(std::move(slot), target);
    };
    mp.exec = std::make_unique<IndexScanExecutor>(
        wctx, spec->table, nullptr, morsel, spec->scan_intent, spec->cols);
    attach(spec->scan_slot);
    if (spec->residual != nullptr) {
      mp.exec = std::make_unique<BatchFilterExecutor>(std::move(mp.exec),
                                                      spec->residual->Clone());
      attach(spec->filter_slot);
    }
    if (spec->aggregate) {
      std::vector<ExprPtr> groups;
      groups.reserve(spec->groups.size());
      for (const ExprPtr& g : spec->groups) groups.push_back(g->Clone());
      std::vector<AggSpec> aggs;
      aggs.reserve(spec->aggs.size());
      for (const AggSpec& a : spec->aggs) aggs.push_back(a.Clone());
      mp.exec = std::make_unique<BatchHashAggregateExecutor>(
          wctx, std::move(mp.exec), std::move(groups), std::move(aggs),
          /*partial=*/true);
      attach(spec->agg_slot);
    }
    return mp;
  };
}

// ---------- the per-query builder ----------

class PlanBuilder {
 public:
  PlanBuilder(ExecContext* ctx, std::unique_ptr<BoundQuery> q, bool instrument)
      : ctx_(ctx), q_(std::move(q)), instrument_(instrument) {}

  Result<PlannedQuery> Build();

 private:
  /// Finishes the plan's newly created root node: records the planner's
  /// cardinality estimate (< 0 = inherit from input) and, when
  /// instrumenting, wraps the operator so the node's OperatorStats fill in
  /// at run time. Call exactly once per (operator, note) creation site.
  void Decorate(SubPlan* plan, double est_rows = -1) {
    ExplainNode* node = plan->note.get();
    if (est_rows >= 0) node->est_rows = est_rows;
    if (!instrument_) return;
    node->stats = std::make_shared<obs::OperatorStats>();
    plan->exec = std::make_unique<obs::InstrumentedBatchExecutor>(
        ctx_, std::move(plan->exec), node->stats);
  }

  /// Puts a Filter over `plan`.
  void AddFilter(SubPlan* plan, ExprPtr pred, std::string label,
                 double est_rows = -1) {
    plan->exec = std::make_unique<BatchFilterExecutor>(std::move(plan->exec),
                                                       std::move(pred));
    plan->note = Note(std::move(label), std::move(plan->note));
    Decorate(plan, est_rows);
  }

  /// Puts a Sort on `keys` over `plan`.
  void AddSort(SubPlan* plan, std::vector<SortKey> keys, std::string label,
               double est_rows = -1) {
    plan->exec = std::make_unique<SortExecutor>(ctx_, std::move(plan->exec),
                                                std::move(keys));
    plan->note = Note(std::move(label), std::move(plan->note));
    Decorate(plan, est_rows);
  }

  Status AnalyzePrereqs();
  std::vector<size_t> ChooseJoinOrder() const;
  double EstimateRows(size_t r) const;
  double EstimateConjunctSelectivity(size_t r, const Expr& pred) const;
  /// Storage access hint for a full scan of `table`: kSequentialScan when
  /// the scan is large relative to the buffer pool (>= 1/4 of capacity,
  /// PostgreSQL's bulk-read threshold), so it recycles through the scan ring
  /// instead of flushing the young region. Smaller tables keep point intent:
  /// they fit comfortably, and evicting their own pages ring-style would
  /// make warm repeated scans needlessly cold.
  AccessIntent ScanIntent(const Table* table) const;

  /// Narrows a base-table access to the columns relation r references
  /// (`needed_[r]`). `source_pos` maps each local column to its position in
  /// the source row (RowPositions or IndexPositions). Returns the source
  /// positions to decode, ascending, and sets `*local_to_plan` to each
  /// local column's position among them (-1 when pruned).
  std::vector<size_t> PruneColumns(size_t r, const std::vector<int>& source_pos,
                                   std::vector<int>* local_to_plan) const;

  /// Plans the access path for relation r (consumes its single-relation
  /// conjuncts). `local_to_plan` maps relation-local columns to positions in
  /// the produced plan's output (-1 = unavailable).
  Result<SubPlan> AccessPath(size_t r, std::vector<int>* local_to_plan);

  /// Attempts a morsel-driven parallel plan (PARALLEL hint + a worker pool +
  /// a single base-table relation). On success fills `*plan` with a
  /// Gather-rooted tree — including the FinalAggregate when the query groups
  /// (`*agg_done` = true) — consumes every conjunct, and sets `mapping_`.
  Result<bool> TryBuildParallel(SubPlan* plan, bool* agg_done);

  /// Joins relation r into `plan`.
  Status JoinNext(size_t r, SubPlan* plan);

  /// Applies every not-yet-consumed conjunct that only references joined
  /// relations as a filter.
  Status ApplyAvailableFilters(SubPlan* plan);

  /// Localizes a conjunct to relation-local positions (clone + remap).
  ExprPtr Localize(const Expr& e, size_t r) const;

  /// Extracts sargable atoms (col vs literal) from relation-local conjuncts.
  static void ExtractLiteralSargs(const std::vector<ExprPtr>& preds,
                                  std::vector<Sarg>* out);

  /// The key range `match` selects on `table` (its bound sides are
  /// literals). Keyed ranges are assumed selective and keep point intent,
  /// preserving classic LRU behaviour for index workloads; an unbounded
  /// scan takes ScanIntent(table).
  Result<StaticRange> BuildStaticRange(const BoundsMatch& match,
                                       const Table* table) const;

  ExecContext* ctx_;
  std::unique_ptr<BoundQuery> q_;
  bool instrument_ = false;

  size_t ncols_ = 0;
  std::vector<size_t> col_rel_;              ///< input column -> relation
  /// Per relation: the local columns the query references (conjuncts, GROUP
  /// BY, aggregate arguments, and the select list when it reads the input;
  /// HAVING and ORDER BY read the aggregate or select output). Base-table
  /// scans decode only these.
  std::vector<std::set<size_t>> needed_;
  std::vector<bool> consumed_;               ///< per conjunct
  std::set<size_t> joined_;
  std::vector<int> mapping_;                 ///< input column -> plan position
  double outer_est_ = 1.0;                   ///< running cardinality estimate
};

Status PlanBuilder::AnalyzePrereqs() {
  ncols_ = q_->input_schema.NumColumns();
  col_rel_.assign(ncols_, 0);
  needed_.assign(q_->relations.size(), {});
  for (size_t r = 0; r < q_->relations.size(); r++) {
    const BoundRelation& rel = q_->relations[r];
    for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
      col_rel_[rel.offset + c] = r;
    }
  }
  auto add_needed = [&](const Expr& e) {
    std::vector<size_t> cols;
    e.CollectColumns(&cols);
    for (size_t c : cols) {
      const size_t r = col_rel_[c];
      needed_[r].insert(c - q_->relations[r].offset);
    }
  };
  for (const ExprPtr& c : q_->conjuncts) add_needed(*c);
  for (const ExprPtr& g : q_->group_by) add_needed(*g);
  for (const AggSpec& a : q_->aggs) {
    if (a.arg) add_needed(*a.arg);
  }
  if (!q_->has_grouping) {
    for (const ExprPtr& s : q_->select_exprs) add_needed(*s);
  }
  consumed_.assign(q_->conjuncts.size(), false);
  return Status::OK();
}

double PlanBuilder::EstimateConjunctSelectivity(size_t r, const Expr& pred) const {
  const auto* cmp = dynamic_cast<const CompareExpr*>(&pred);
  if (cmp == nullptr) return 0.5;
  const auto* lcol = dynamic_cast<const ColumnExpr*>(cmp->lhs());
  const auto* rcol = dynamic_cast<const ColumnExpr*>(cmp->rhs());
  const auto* llit = dynamic_cast<const LiteralExpr*>(cmp->lhs());
  const auto* rlit = dynamic_cast<const LiteralExpr*>(cmp->rhs());
  const ColumnExpr* col = lcol != nullptr ? lcol : rcol;
  const LiteralExpr* lit = rlit != nullptr ? rlit : llit;
  if (col == nullptr || lit == nullptr) return 0.5;
  CompareOp op = lcol != nullptr ? cmp->op() : FlipOp(cmp->op());
  const Table* table = q_->relations[r].table;
  const size_t local = col->index() - q_->relations[r].offset;
  const bool analyzed = table != nullptr && table->analyzed();
  switch (op) {
    case CompareOp::kEq: {
      if (analyzed && table->stats()[local].distinct > 0) {
        return 1.0 / static_cast<double>(table->stats()[local].distinct);
      }
      return 0.05;
    }
    case CompareOp::kNe:
      return 0.9;
    default: {
      if (analyzed && IsNumeric(table->stats()[local].min.type())) {
        const double lo = table->stats()[local].min.AsDouble();
        const double hi = table->stats()[local].max.AsDouble();
        const double v = lit->value().AsDouble();
        if (hi > lo) {
          double frac = (op == CompareOp::kLt || op == CompareOp::kLe)
                            ? (v - lo) / (hi - lo)
                            : (hi - v) / (hi - lo);
          return std::clamp(frac, 0.0001, 1.0);
        }
      }
      return 0.3;
    }
  }
}

double PlanBuilder::EstimateRows(size_t r) const {
  const BoundRelation& rel = q_->relations[r];
  double rows = rel.table != nullptr
                    ? static_cast<double>(rel.table->row_count())
                    : 1000.0;
  for (size_t i = 0; i < q_->conjuncts.size(); i++) {
    std::set<size_t> rels = RelsOf(*q_->conjuncts[i], col_rel_);
    if (rels.size() == 1 && *rels.begin() == r) {
      rows *= EstimateConjunctSelectivity(r, *q_->conjuncts[i]);
    }
  }
  return std::max(rows, 1.0);
}

AccessIntent PlanBuilder::ScanIntent(const Table* table) const {
  const double bytes_per_row = table->schema().FixedSectionSize() + 24.0;
  const double est_pages = std::max(
      1.0, static_cast<double>(table->row_count()) * bytes_per_row / kPageSize);
  return est_pages * 4.0 >= static_cast<double>(ctx_->pool()->capacity())
             ? AccessIntent::kSequentialScan
             : AccessIntent::kPointLookup;
}

std::vector<size_t> PlanBuilder::ChooseJoinOrder() const {
  const size_t n = q_->relations.size();
  std::vector<size_t> order;
  if (n == 1 || q_->hints.force_order) {
    for (size_t i = 0; i < n; i++) order.push_back(i);
    return order;
  }
  std::vector<double> est(n);
  for (size_t r = 0; r < n; r++) est[r] = EstimateRows(r);
  size_t start = 0;
  for (size_t r = 1; r < n; r++) {
    if (est[r] < est[start]) start = r;
  }
  order.push_back(start);
  std::set<size_t> in{start};
  while (order.size() < n) {
    int best = -1;
    for (size_t r = 0; r < n; r++) {
      if (in.count(r) != 0) continue;
      bool connected = false;
      for (const ExprPtr& c : q_->conjuncts) {
        std::set<size_t> rels = RelsOf(*c, col_rel_);
        if (rels.count(r) == 0 || rels.size() < 2) continue;
        bool rest_in = true;
        for (size_t x : rels) {
          if (x != r && in.count(x) == 0) rest_in = false;
        }
        if (rest_in) {
          connected = true;
          break;
        }
      }
      if (connected && (best < 0 || est[r] < est[best])) {
        best = static_cast<int>(r);
      }
    }
    if (best < 0) {  // disconnected: pick the smallest remaining
      for (size_t r = 0; r < n; r++) {
        if (in.count(r) == 0 && (best < 0 || est[r] < est[best])) {
          best = static_cast<int>(r);
        }
      }
    }
    order.push_back(static_cast<size_t>(best));
    in.insert(static_cast<size_t>(best));
  }
  return order;
}

ExprPtr PlanBuilder::Localize(const Expr& e, size_t r) const {
  std::vector<int> local_map(ncols_, -1);
  const BoundRelation& rel = q_->relations[r];
  for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
    local_map[rel.offset + c] = static_cast<int>(c);
  }
  ExprPtr out = e.Clone();
  out->RemapColumns(local_map);
  return out;
}

void PlanBuilder::ExtractLiteralSargs(const std::vector<ExprPtr>& preds,
                                      std::vector<Sarg>* out) {
  for (size_t i = 0; i < preds.size(); i++) {
    const auto* cmp = dynamic_cast<const CompareExpr*>(preds[i].get());
    if (cmp == nullptr) continue;
    const auto* lcol = dynamic_cast<const ColumnExpr*>(cmp->lhs());
    const auto* rcol = dynamic_cast<const ColumnExpr*>(cmp->rhs());
    const auto* llit = dynamic_cast<const LiteralExpr*>(cmp->lhs());
    const auto* rlit = dynamic_cast<const LiteralExpr*>(cmp->rhs());
    if (lcol != nullptr && rlit != nullptr) {
      out->push_back(Sarg{lcol->index(), cmp->op(), rlit, i});
    } else if (rcol != nullptr && llit != nullptr) {
      out->push_back(Sarg{rcol->index(), FlipOp(cmp->op()), llit, i});
    }
  }
}

Result<StaticRange> PlanBuilder::BuildStaticRange(const BoundsMatch& match,
                                                  const Table* table) const {
  StaticRange out;
  if (match.matched_cols == 0) {
    out.desc = " (full scan)";
    out.intent = ScanIntent(table);
    return out;
  }
  std::vector<Value> eq_values;
  for (const Expr* e : match.eq) {
    ELE_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}));
    eq_values.push_back(std::move(v));
  }
  std::optional<Value> lo, hi;
  if (match.lo != nullptr) {
    ELE_ASSIGN_OR_RETURN(Value v, match.lo->Eval(Row{}));
    lo = std::move(v);
  }
  if (match.hi != nullptr) {
    ELE_ASSIGN_OR_RETURN(Value v, match.hi->Eval(Row{}));
    hi = std::move(v);
  }
  out.range =
      MakeKeyRange(eq_values, lo, match.lo_inclusive, hi, match.hi_inclusive);
  out.desc = " range on " + std::to_string(match.matched_cols) + " key col(s)";
  return out;
}

std::vector<size_t> PlanBuilder::PruneColumns(
    size_t r, const std::vector<int>& source_pos,
    std::vector<int>* local_to_plan) const {
  std::vector<size_t> cols;
  for (size_t c : needed_[r]) {
    if (source_pos[c] >= 0) cols.push_back(static_cast<size_t>(source_pos[c]));
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  local_to_plan->assign(source_pos.size(), -1);
  for (size_t c : needed_[r]) {
    if (source_pos[c] < 0) continue;
    (*local_to_plan)[c] = static_cast<int>(
        std::lower_bound(cols.begin(), cols.end(),
                         static_cast<size_t>(source_pos[c])) -
        cols.begin());
  }
  return cols;
}

Result<SubPlan> PlanBuilder::AccessPath(size_t r, std::vector<int>* local_to_plan) {
  BoundRelation& rel = q_->relations[r];

  // Collect and localize this relation's single-relation conjuncts.
  std::vector<ExprPtr> local_preds;
  for (size_t i = 0; i < q_->conjuncts.size(); i++) {
    if (consumed_[i]) continue;
    std::set<size_t> rels = RelsOf(*q_->conjuncts[i], col_rel_);
    if (rels.empty() || (rels.size() == 1 && *rels.begin() == r)) {
      local_preds.push_back(Localize(*q_->conjuncts[i], r));
      consumed_[i] = true;
    }
  }

  SubPlan plan;
  if (rel.vtable != nullptr) {
    // Virtual system table: a provider-backed snapshot scan. No indexes, no
    // key ranges — predicates stay as a Filter on top, and TryBuildParallel
    // already declines relations without a base table, so these always run
    // serially on the calling thread.
    plan.exec = std::make_unique<VirtualTableScanExecutor>(ctx_, rel.vtable);
    plan.width = rel.schema.NumColumns();
    plan.note = Note("VirtualTableScan " + rel.vtable->name + " as " + rel.alias);
    Decorate(&plan, EstimateRows(r));
    local_to_plan->assign(rel.schema.NumColumns(), 0);
    for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
      (*local_to_plan)[c] = static_cast<int>(c);
    }
    if (!local_preds.empty()) {
      ExprPtr pred = ConjoinAll(std::move(local_preds));
      std::string label = "Filter " + pred->ToString();
      AddFilter(&plan, std::move(pred), std::move(label), EstimateRows(r));
    }
    return plan;
  }
  if (rel.derived != nullptr) {
    const bool derived_grouped = rel.derived->has_grouping;
    const bool derived_scalar = derived_grouped && rel.derived->group_by.empty();
    Planner sub_planner(ctx_, instrument_);
    ELE_ASSIGN_OR_RETURN(PlannedQuery sub, sub_planner.Plan(std::move(rel.derived)));
    plan.exec = std::move(sub.executor);
    plan.width = rel.schema.NumColumns();
    plan.note = Note("DerivedTable " + rel.alias);
    plan.note->children.push_back(std::move(sub.plan));
    Decorate(&plan);
    local_to_plan->assign(rel.schema.NumColumns(), 0);
    for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
      (*local_to_plan)[c] = static_cast<int>(c);
    }
    if (derived_scalar) {
      // Single-row relations are trivially ordered in every column.
      for (size_t c = 0; c < rel.schema.NumColumns(); c++) plan.ordered.insert(c);
    } else if (derived_grouped) {
      plan.ordered.insert(0);  // aggregates emit in group-key order
    }
    if (!local_preds.empty()) {
      ExprPtr pred = ConjoinAll(std::move(local_preds));
      std::string label = "Filter " + pred->ToString();
      AddFilter(&plan, std::move(pred), std::move(label), EstimateRows(r));
    }
    return plan;
  }

  // Base table: try clustered prefix, then covering secondary indexes.
  std::vector<Sarg> sargs;
  ExtractLiteralSargs(local_preds, &sargs);

  BoundsMatch clustered_match = MatchBounds(rel.table->cluster_cols(), sargs);
  SecondaryIndex* best_idx = nullptr;
  BoundsMatch idx_match;
  for (const auto& idx : rel.table->secondary_indexes()) {
    // Covering check.
    std::set<size_t> provided(idx->key_cols.begin(), idx->key_cols.end());
    provided.insert(idx->include_cols.begin(), idx->include_cols.end());
    bool covers = true;
    for (size_t c : needed_[r]) {
      if (provided.count(c) == 0) covers = false;
    }
    if (!covers) continue;
    BoundsMatch m = MatchBounds(idx->key_cols, sargs);
    if (m.matched_cols > idx_match.matched_cols) {
      idx_match = std::move(m);
      best_idx = idx.get();
    }
  }

  const bool use_clustered = clustered_match.matched_cols >= idx_match.matched_cols;
  const BoundsMatch& match = use_clustered ? clustered_match : idx_match;

  ELE_ASSIGN_OR_RETURN(StaticRange bounds, BuildStaticRange(match, rel.table));

  // Interesting orders, in source positions (table or index row).
  std::set<size_t> source_order;
  std::vector<size_t> cols;
  if (use_clustered) {
    cols = PruneColumns(r, RowPositions(rel.schema.NumColumns()), local_to_plan);
    plan.exec = std::make_unique<IndexScanExecutor>(
        ctx_, rel.table, nullptr, bounds.range, bounds.intent, cols);
    plan.note = Note("ClusteredIndexScan " + rel.table->name() + " as " +
                     rel.alias + bounds.desc);
    source_order = ClusteredOrder(*rel.table, match.eq.size());
  } else {
    cols = PruneColumns(
        r, IndexPositions(*best_idx, rel.schema.NumColumns()), local_to_plan);
    plan.exec = std::make_unique<IndexScanExecutor>(
        ctx_, rel.table, best_idx, bounds.range, bounds.intent, cols);
    plan.note = Note("CoveringIndexSeek " + best_idx->name + " on " +
                     rel.table->name() + " as " + rel.alias + bounds.desc);
    source_order.insert(0);  // index emits in leading-key order
    // With an equality prefix pinned, the next key column ascends. When the
    // whole key is pinned, entries order by the appended clustering key, so
    // the first include column ascends if it IS the leading cluster column
    // (true for c-tables: key v, include f, clustered on f).
    if (!match.eq.empty()) {
      if (match.eq.size() < best_idx->key_cols.size()) {
        source_order.insert(match.eq.size());
      } else if (!best_idx->include_cols.empty() &&
                 !rel.table->cluster_cols().empty() &&
                 best_idx->include_cols[0] == rel.table->cluster_cols()[0]) {
        source_order.insert(match.eq.size());
      }
    }
  }
  plan.width = cols.size();
  plan.ordered = KeptOrder(source_order, cols);
  Decorate(&plan, EstimateRows(r));

  // Residual local predicates (those not consumed by the key range).
  std::vector<ExprPtr> residual;
  for (size_t i = 0; i < local_preds.size(); i++) {
    bool used = false;
    for (size_t cid : match.used_conjuncts) {
      // used_conjuncts holds indices into local_preds via Sarg::conjunct_id.
      if (cid == i) used = true;
    }
    if (!used) residual.push_back(std::move(local_preds[i]));
  }
  if (!residual.empty()) {
    // Remap from relation-local positions to plan output positions.
    for (ExprPtr& p : residual) p->RemapColumns(*local_to_plan);
    ExprPtr pred = ConjoinAll(std::move(residual));
    std::string label = "Filter " + pred->ToString();
    AddFilter(&plan, std::move(pred), std::move(label), EstimateRows(r));
  }
  return plan;
}

Status PlanBuilder::ApplyAvailableFilters(SubPlan* plan) {
  std::vector<ExprPtr> preds;
  for (size_t i = 0; i < q_->conjuncts.size(); i++) {
    if (consumed_[i]) continue;
    std::set<size_t> rels = RelsOf(*q_->conjuncts[i], col_rel_);
    bool all_in = true;
    for (size_t r : rels) {
      if (joined_.count(r) == 0) all_in = false;
    }
    if (all_in) {
      ExprPtr p = q_->conjuncts[i]->Clone();
      p->RemapColumns(mapping_);
      preds.push_back(std::move(p));
      consumed_[i] = true;
    }
  }
  if (!preds.empty()) {
    ExprPtr pred = ConjoinAll(std::move(preds));
    std::string label = "Filter " + pred->ToString();
    AddFilter(plan, std::move(pred), std::move(label));
  }
  return Status::OK();
}

Status PlanBuilder::JoinNext(size_t r, SubPlan* plan) {
  BoundRelation& rel = q_->relations[r];

  // Candidate join atoms: conjuncts of the form (R.col op outer-expr) where
  // the other side only references already-joined relations.
  struct JoinCand {
    size_t local_col;
    CompareOp op;
    const Expr* outer;  ///< expression over already-joined relations
    size_t conjunct_id;
  };
  std::vector<JoinCand> cands;
  std::vector<size_t> cross_ids;
  for (size_t i = 0; i < q_->conjuncts.size(); i++) {
    if (consumed_[i]) continue;
    std::set<size_t> rels = RelsOf(*q_->conjuncts[i], col_rel_);
    if (rels.count(r) == 0) continue;
    bool rest_joined = true;
    for (size_t x : rels) {
      if (x != r && joined_.count(x) == 0) rest_joined = false;
    }
    if (!rest_joined) continue;
    cross_ids.push_back(i);
    const auto* cmp = dynamic_cast<const CompareExpr*>(q_->conjuncts[i].get());
    if (cmp == nullptr) continue;
    auto side_cand = [&](const Expr* a, const Expr* b, CompareOp op) {
      const auto* col = dynamic_cast<const ColumnExpr*>(a);
      if (col == nullptr || col_rel_[col->index()] != r) return;
      std::set<size_t> other_rels = RelsOf(*b, col_rel_);
      if (other_rels.count(r) != 0) return;
      cands.push_back(JoinCand{col->index() - rel.offset, op, b, i});
    };
    side_cand(cmp->lhs(), cmp->rhs(), cmp->op());
    side_cand(cmp->rhs(), cmp->lhs(), FlipOp(cmp->op()));
  }

  // Also treat R's literal predicates as candidates so they can extend INLJ
  // bounds (they are consumed in AccessPath for the hash-join path instead).
  std::vector<ExprPtr> local_pred_storage;
  std::vector<size_t> local_ids;
  for (size_t i = 0; i < q_->conjuncts.size(); i++) {
    if (consumed_[i]) continue;
    std::set<size_t> rels = RelsOf(*q_->conjuncts[i], col_rel_);
    if (rels.size() == 1 && *rels.begin() == r) local_ids.push_back(i);
  }
  std::vector<Sarg> local_sargs;
  {
    std::vector<ExprPtr> localized;
    for (size_t i : local_ids) localized.push_back(Localize(*q_->conjuncts[i], r));
    ExtractLiteralSargs(localized, &local_sargs);
    for (size_t k = 0; k < local_sargs.size(); k++) {
      // conjunct_id in local_sargs indexes `localized`; translate to global.
      local_sargs[k].conjunct_id = local_ids[local_sargs[k].conjunct_id];
    }
    for (auto& p : localized) local_pred_storage.push_back(std::move(p));
  }
  // Merge: express everything as Sargs over R-local columns. The `other`
  // expr of a JoinCand is over the input schema (joined rels only). A bound
  // is compared to inner keys by encoding: an equality needs KeyComparable
  // types (the INLJ casts it per probe), a range the same encoding; any
  // other pair stays a residual predicate.
  std::vector<Sarg> all_sargs = local_sargs;
  for (const JoinCand& c : cands) {
    const TypeId col_type = rel.schema.ColumnAt(c.local_col).type;
    const TypeId outer_type = c.outer->output_type();
    if (c.op == CompareOp::kEq ? KeyComparable(col_type, outer_type)
                               : SameKeyEncoding(col_type, outer_type)) {
      all_sargs.push_back(Sarg{c.local_col, c.op, c.outer, c.conjunct_id});
    }
  }

  // Pick the best inner index for an INLJ (base tables only).
  BoundsMatch best_match;
  const SecondaryIndex* best_idx = nullptr;
  bool use_clustered = false;
  if (rel.table != nullptr) {
    BoundsMatch cm = MatchBounds(rel.table->cluster_cols(), all_sargs);
    if (cm.matched_cols > 0) {
      best_match = std::move(cm);
      use_clustered = true;
    }
    for (const auto& idx : rel.table->secondary_indexes()) {
      std::set<size_t> provided(idx->key_cols.begin(), idx->key_cols.end());
      provided.insert(idx->include_cols.begin(), idx->include_cols.end());
      bool covers = true;
      for (size_t c : needed_[r]) {
        if (provided.count(c) == 0) covers = false;
      }
      if (!covers) continue;
      BoundsMatch m = MatchBounds(idx->key_cols, all_sargs);
      if (m.matched_cols > best_match.matched_cols) {
        best_match = std::move(m);
        best_idx = idx.get();
        use_clustered = false;
      }
    }
  }

  const size_t outer_width = plan->width;

  // Detect a band pattern for the MERGE_JOIN hint: lo and hi candidates on
  // the leading cluster column of R, both from cross conjuncts.
  const JoinCand* band_lo = nullptr;
  const JoinCand* band_hi = nullptr;
  if (rel.table != nullptr && !rel.table->cluster_cols().empty()) {
    const size_t lead = rel.table->cluster_cols()[0];
    for (const JoinCand& c : cands) {
      if (c.local_col != lead) continue;
      if ((c.op == CompareOp::kGe || c.op == CompareOp::kGt) && band_lo == nullptr) {
        band_lo = &c;
      }
      if ((c.op == CompareOp::kLe || c.op == CompareOp::kLt) && band_hi == nullptr) {
        band_hi = &c;
      }
    }
  }

  // Merge is taken when hinted, or when the cost model rejects INLJ for a
  // band join (no equality keys exist, so hash is not an option). The
  // latter is the §3 complaint: a pessimistic optimizer "picks merge joins
  // over index nested loop joins" for c-table bands unless hinted.
  const bool band_possible = band_lo != nullptr && band_hi != nullptr;

  // Cost-based INLJ-vs-hash choice, using the *pessimistic* textbook
  // assumption that every inner probe pays a random seek. This is precisely
  // the §3 "Query hints" behaviour: for c-table band joins the probes are
  // strictly sorted and nearly free, but the optimizer does not know that —
  // rewritten queries pass LOOP_JOIN to override it.
  bool cost_prefers_inlj = true;
  double inner_rows_est = EstimateRows(r);
  if (rel.table != nullptr && best_match.matched_cols > 0 &&
      !q_->hints.loop_join) {
    const double bytes_per_row = rel.table->schema().FixedSectionSize() + 24.0;
    const double inner_pages =
        std::max(1.0, static_cast<double>(rel.table->row_count()) *
                          bytes_per_row / kPageSize);
    constexpr double kSeekSeconds = 0.0085;
    constexpr double kPageSeconds = 8.2e-5;
    constexpr double kTupleCpuSeconds = 2e-7;
    const double inlj_cost = outer_est_ * (kSeekSeconds + kPageSeconds);
    const double hash_cost = kSeekSeconds + inner_pages * kPageSeconds +
                             inner_rows_est * kTupleCpuSeconds;
    cost_prefers_inlj = inlj_cost < hash_cost;
  }
  const bool want_merge =
      band_possible && (q_->hints.merge_join ||
                        (!q_->hints.loop_join && !cost_prefers_inlj));
  const bool want_inlj = !want_merge && best_match.matched_cols > 0 &&
                         !q_->hints.hash_join &&
                         (q_->hints.loop_join || cost_prefers_inlj);

  // Estimated output cardinality of this join (FK-style fanout from the
  // inner's join-column distinct count when statistics exist).
  {
    double fanout = 1.0;
    if (rel.table != nullptr && rel.table->analyzed()) {
      for (const JoinCand& c : cands) {
        if (c.op != CompareOp::kEq) continue;
        const uint64_t distinct = rel.table->stats()[c.local_col].distinct;
        fanout = std::max(1.0, inner_rows_est /
                                   std::max<double>(1.0, static_cast<double>(distinct)));
        break;
      }
    }
    outer_est_ = std::max(1.0, outer_est_ * fanout);
  }

  std::vector<int> local_to_plan;
  std::string join_label;

  if (want_inlj) {
    // ----- Index nested-loop join -----
    InljBounds bounds;
    for (const Expr* e : best_match.eq) {
      ExprPtr b = e->Clone();
      b->RemapColumns(mapping_);  // literals remap trivially
      bounds.eq_exprs.push_back(std::move(b));
    }
    if (best_match.lo != nullptr) {
      bounds.lo = best_match.lo->Clone();
      bounds.lo->RemapColumns(mapping_);
      bounds.lo_inclusive = best_match.lo_inclusive;
    }
    if (best_match.hi != nullptr) {
      bounds.hi = best_match.hi->Clone();
      bounds.hi->RemapColumns(mapping_);
      bounds.hi_inclusive = best_match.hi_inclusive;
    }
    for (size_t cid : best_match.used_conjuncts) consumed_[cid] = true;

    const std::vector<size_t> inner_cols = PruneColumns(
        r,
        use_clustered ? RowPositions(rel.schema.NumColumns())
                      : IndexPositions(*best_idx, rel.schema.NumColumns()),
        &local_to_plan);
    if (use_clustered) {
      join_label = "IndexNestedLoopJoin inner=" + rel.table->name() + " as " +
                   rel.alias + " (clustered seek, " +
                   std::to_string(best_match.matched_cols) + " key col(s))";
    } else {
      join_label = "IndexNestedLoopJoin inner=" + rel.table->name() + " as " +
                   rel.alias + " (covering seek " + best_idx->name + ")";
    }

    // Commit the combined mapping before building residuals.
    for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
      mapping_[rel.offset + c] =
          local_to_plan[c] < 0
              ? -1
              : static_cast<int>(outer_width) + local_to_plan[c];
    }
    joined_.insert(r);

    // Residual: every remaining conjunct over the joined set (includes R's
    // leftover local predicates).
    std::vector<ExprPtr> residual;
    for (size_t i : cross_ids) {
      if (consumed_[i]) continue;
      ExprPtr p = q_->conjuncts[i]->Clone();
      p->RemapColumns(mapping_);
      residual.push_back(std::move(p));
      consumed_[i] = true;
    }
    for (size_t i : local_ids) {
      if (consumed_[i]) continue;
      ExprPtr p = q_->conjuncts[i]->Clone();
      p->RemapColumns(mapping_);
      residual.push_back(std::move(p));
      consumed_[i] = true;
    }
    ExprPtr resid = ConjoinAll(std::move(residual));
    // Order propagation: outer-major order is preserved. If the probe's
    // first bound expression is a provably-ordered outer column, the inner
    // leading key column ascends too (nested/equal ranges).
    {
      const Expr* first_bound = !bounds.eq_exprs.empty()
                                    ? bounds.eq_exprs[0].get()
                                    : bounds.lo.get();
      const auto* bc = dynamic_cast<const ColumnExpr*>(first_bound);
      if (bc != nullptr && plan->ordered.count(bc->index()) != 0) {
        const std::vector<size_t>& keys = use_clustered
                                              ? rel.table->cluster_cols()
                                              : best_idx->key_cols;
        if (!keys.empty() && local_to_plan[keys[0]] >= 0) {
          plan->ordered.insert(outer_width +
                               static_cast<size_t>(local_to_plan[keys[0]]));
        }
      }
    }
    ExplainPtr outer_note = std::move(plan->note);
    plan->exec = std::make_unique<IndexNestedLoopJoinExecutor>(
        ctx_, std::move(plan->exec), rel.table,
        use_clustered ? nullptr : best_idx, std::move(bounds), std::move(resid),
        inner_cols);
    plan->note = Note(std::move(join_label), std::move(outer_note));
    Decorate(plan, outer_est_);
    plan->width = outer_width + inner_cols.size();
    return Status::OK();
  }

  if (want_merge) {
    // ----- Band merge join (full scan of the inner side) -----
    // The inner is a full clustered scan of R; R's local predicates become a
    // filter on that scan via AccessPath.
    std::vector<int> inner_map;
    ELE_ASSIGN_OR_RETURN(SubPlan inner, AccessPath(r, &inner_map));
    // Outer must be sorted by the band's lower bound; skip the sort when
    // that bound is a provably-ordered column of the outer stream (always
    // true for §2.2.2 c-table chains, whose band joins preserve f-order).
    ExprPtr sort_key = band_lo->outer->Clone();
    sort_key->RemapColumns(mapping_);
    bool already_sorted = false;
    if (const auto* sc = dynamic_cast<const ColumnExpr*>(sort_key.get())) {
      already_sorted = plan->ordered.count(sc->index()) != 0;
    }
    if (!already_sorted) {
      std::vector<SortKey> keys;
      keys.push_back(SortKey{sort_key->Clone(), true});
      AddSort(plan, std::move(keys),
              "Sort (merge-join order: " + sort_key->ToString() + ")");
    }

    // Inner point: the leading cluster column, in inner-plan coordinates.
    const size_t lead = rel.table->cluster_cols()[0];
    // The merge consumes the inner in point order. AccessPath may have
    // chosen an access path ordered differently (e.g. a v-index range scan
    // of a c-table emits in v order, not f order): sort if not provable.
    const size_t lead_pos = static_cast<size_t>(inner_map[lead]);
    if (inner.ordered.count(lead_pos) == 0) {
      std::vector<SortKey> ikeys;
      ikeys.push_back(SortKey{
          Col(lead_pos, rel.schema.ColumnAt(lead).type,
              rel.alias + "." + rel.schema.ColumnAt(lead).name),
          true});
      AddSort(&inner, std::move(ikeys), "Sort (merge-join inner order)");
    }
    ExprPtr lo = band_lo->outer->Clone();
    lo->RemapColumns(mapping_);
    ExprPtr hi = band_hi->outer->Clone();
    hi->RemapColumns(mapping_);
    ExprPtr point = Col(static_cast<size_t>(inner_map[lead]),
                        rel.schema.ColumnAt(lead).type,
                        rel.alias + "." + rel.schema.ColumnAt(lead).name);
    // The executor's band is inclusive; a strict bound stays behind as a
    // residual predicate.
    if (band_lo->op == CompareOp::kGe) consumed_[band_lo->conjunct_id] = true;
    if (band_hi->op == CompareOp::kLe) consumed_[band_hi->conjunct_id] = true;

    for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
      mapping_[rel.offset + c] =
          inner_map[c] < 0 ? -1 : static_cast<int>(outer_width) + inner_map[c];
    }
    joined_.insert(r);
    // Output stays outer-ordered and is additionally ordered on the inner
    // point column.
    if (!already_sorted) plan->ordered.clear();
    plan->ordered.insert(outer_width + static_cast<size_t>(inner_map[lead]));

    std::vector<ExprPtr> residual;
    for (size_t i : cross_ids) {
      if (consumed_[i]) continue;
      ExprPtr p = q_->conjuncts[i]->Clone();
      p->RemapColumns(mapping_);
      residual.push_back(std::move(p));
      consumed_[i] = true;
    }
    ExprPtr resid = ConjoinAll(std::move(residual));
    plan->exec = std::make_unique<BandMergeJoinExecutor>(
        ctx_, std::move(plan->exec), std::move(inner.exec), std::move(lo),
        std::move(hi), std::move(point), std::move(resid));
    plan->note = Note(std::string("BandMergeJoin inner=") + rel.table->name() +
                          " as " + rel.alias + " (full inner scan" +
                          (already_sorted ? ", outer pre-sorted)" : ")"),
                      std::move(plan->note), std::move(inner.note));
    Decorate(plan, outer_est_);
    plan->width = outer_width + inner.width;
    return Status::OK();
  }

  // ----- Hash join (or cross product when no equality keys exist) -----
  std::vector<int> inner_map;
  ELE_ASSIGN_OR_RETURN(SubPlan inner, AccessPath(r, &inner_map));
  std::vector<ExprPtr> lkeys, rkeys;
  for (const JoinCand& c : cands) {
    if (c.op != CompareOp::kEq || consumed_[c.conjunct_id]) continue;
    if (inner_map[c.local_col] < 0) continue;
    if (!KeyComparable(c.outer->output_type(),
                       rel.schema.ColumnAt(c.local_col).type)) {
      continue;  // e.g. DECIMAL = INT: no exact key, stays a residual
    }
    ExprPtr outer = c.outer->Clone();
    outer->RemapColumns(mapping_);
    lkeys.push_back(std::move(outer));
    rkeys.push_back(Col(static_cast<size_t>(inner_map[c.local_col]),
                        rel.schema.ColumnAt(c.local_col).type));
    consumed_[c.conjunct_id] = true;
  }
  for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
    mapping_[rel.offset + c] =
        inner_map[c] < 0 ? -1 : static_cast<int>(outer_width) + inner_map[c];
  }
  joined_.insert(r);
  std::vector<ExprPtr> residual;
  for (size_t i : cross_ids) {
    if (consumed_[i]) continue;
    ExprPtr p = q_->conjuncts[i]->Clone();
    p->RemapColumns(mapping_);
    residual.push_back(std::move(p));
    consumed_[i] = true;
  }
  ExprPtr resid = ConjoinAll(std::move(residual));
  // Probe-side order is preserved by the hash join (plan->ordered keeps the
  // outer positions, which do not move).
  const std::string label =
      lkeys.empty() ? "NestedProduct (no join keys)" : "HashJoin build=" + rel.alias;
  ExplainPtr outer_note = std::move(plan->note);
  plan->exec = std::make_unique<HashJoinExecutor>(
      ctx_, std::move(plan->exec), std::move(inner.exec), std::move(lkeys),
      std::move(rkeys), std::move(resid));
  plan->note = Note(label, std::move(outer_note), std::move(inner.note));
  Decorate(plan, outer_est_);
  plan->width = outer_width + inner.width;
  return Status::OK();
}

Result<bool> PlanBuilder::TryBuildParallel(SubPlan* out, bool* agg_done) {
  if (q_->hints.parallel_workers < 2) return false;
  if (ctx_->scheduler() == nullptr) return false;
  if (q_->relations.size() != 1) return false;
  BoundRelation& rel = q_->relations[0];
  if (rel.table == nullptr) return false;
  const size_t workers = static_cast<size_t>(q_->hints.parallel_workers);

  // The single relation sits at offset 0, so input positions are already
  // table-local; the morsel scans decode only the referenced columns, and
  // `to_plan` maps table columns to their positions in those rows.
  std::vector<int> to_plan;
  const std::vector<size_t> cols =
      PruneColumns(0, RowPositions(rel.schema.NumColumns()), &to_plan);
  std::vector<ExprPtr> local_preds;
  for (size_t i = 0; i < q_->conjuncts.size(); i++) {
    if (consumed_[i]) continue;
    local_preds.push_back(Localize(*q_->conjuncts[i], 0));
    consumed_[i] = true;
  }

  // PARALLEL forces the clustered path (morsels are clustered-key ranges);
  // a covering index might win serially, but results are identical.
  std::vector<Sarg> sargs;
  ExtractLiteralSargs(local_preds, &sargs);
  BoundsMatch match = MatchBounds(rel.table->cluster_cols(), sargs);
  ELE_ASSIGN_OR_RETURN(StaticRange bounds, BuildStaticRange(match, rel.table));

  auto spec = std::make_shared<ParallelSpec>();
  spec->table = rel.table;
  spec->cols = cols;
  spec->scan_intent = bounds.intent;
  std::vector<ExprPtr> residual;
  for (size_t i = 0; i < local_preds.size(); i++) {
    if (match.used_conjuncts.count(i) == 0) {
      local_preds[i]->RemapColumns(to_plan);
      residual.push_back(std::move(local_preds[i]));
    }
  }
  spec->residual = ConjoinAll(std::move(residual));

  // Split the range into morsels along internal B+-tree separator keys;
  // oversplit ~4x the worker count so the morsel queue load-balances.
  ELE_ASSIGN_OR_RETURN(
      std::vector<std::string> separators,
      rel.table->clustered().PartitionKeys(workers * 4, bounds.range.lo,
                                           bounds.range.hi));
  std::vector<KeyRange> morsels;
  morsels.reserve(separators.size() + 1);
  std::string lo_key = bounds.range.lo;
  for (std::string& sep : separators) {
    morsels.push_back(KeyRange{lo_key, sep});
    lo_key = std::move(sep);
  }
  morsels.push_back(KeyRange{std::move(lo_key), bounds.range.hi});

  const double scan_est = EstimateRows(0);

  // Worker-side plan nodes. Their stats slots are merge targets only: the
  // per-morsel InstrumentedExecutors built by the factory write fresh slots,
  // and GatherExecutor folds those into these shared ones post-barrier.
  auto slot_for = [this](ExplainNode* n) -> std::shared_ptr<obs::OperatorStats> {
    if (!instrument_) return nullptr;
    n->stats = std::make_shared<obs::OperatorStats>();
    return n->stats;
  };
  ExplainPtr tip = Note("ParallelMorselScan " + rel.table->name() + " as " +
                        rel.alias + bounds.desc + " (morsels=" +
                        std::to_string(morsels.size()) + ")");
  tip->est_rows = scan_est;
  spec->scan_slot = slot_for(tip.get());
  if (spec->residual != nullptr) {
    tip = Note("Filter " + spec->residual->ToString(), std::move(tip));
    tip->est_rows = scan_est;
    spec->filter_slot = slot_for(tip.get());
  }

  Schema worker_schema = rel.table->schema().Project(cols);
  Schema final_schema;
  std::vector<AggSpec> final_aggs;
  if (q_->has_grouping) {
    spec->aggregate = true;
    for (ExprPtr& g : q_->group_by) {
      g->RemapColumns(to_plan);
      spec->groups.push_back(std::move(g));
    }
    for (AggSpec& a : q_->aggs) {
      if (a.arg) a.arg->RemapColumns(to_plan);
      spec->aggs.push_back(std::move(a));
    }
    for (const AggSpec& a : spec->aggs) final_aggs.push_back(a.Clone());
    final_schema = MakeAggOutputSchema(spec->groups, spec->aggs);
    worker_schema = MakePartialAggSchema(spec->groups, spec->aggs);
    tip = Note("PartialAggregate", std::move(tip));
    spec->agg_slot = slot_for(tip.get());
  }
  const size_t num_groups = spec->groups.size();

  SubPlan plan;
  plan.exec = std::make_unique<GatherExecutor>(
      ctx_, ctx_->scheduler(), workers, std::move(morsels),
      MakeMorselFactory(spec), worker_schema);
  plan.width = worker_schema.NumColumns();
  plan.note =
      Note("Gather (workers=" + std::to_string(workers) + ")", std::move(tip));
  Decorate(&plan, scan_est);

  if (spec->aggregate) {
    const double agg_est =
        num_groups == 0 ? 1.0 : std::max(1.0, scan_est / 10.0);
    plan.width = final_schema.NumColumns();
    plan.exec = std::make_unique<BatchFinalAggregateExecutor>(
        ctx_, std::move(plan.exec), num_groups, std::move(final_aggs),
        std::move(final_schema));
    plan.note = Note("FinalAggregate", std::move(plan.note));
    Decorate(&plan, agg_est);
    *agg_done = true;
  } else {
    // Morsels are emitted in clustered-key order, so the usual clustered
    // interesting orders hold.
    plan.ordered = KeptOrder(ClusteredOrder(*rel.table, match.eq.size()), cols);
  }

  mapping_ = std::move(to_plan);
  joined_.insert(0);
  outer_est_ = scan_est;
  *out = std::move(plan);
  return true;
}

Result<PlannedQuery> PlanBuilder::Build() {
  ELE_RETURN_NOT_OK(AnalyzePrereqs());

  SubPlan plan;
  bool parallel_agg = false;
  ELE_ASSIGN_OR_RETURN(bool parallel, TryBuildParallel(&plan, &parallel_agg));
  if (!parallel) {
    const std::vector<size_t> order = ChooseJoinOrder();

    outer_est_ = EstimateRows(order[0]);
    std::vector<int> local_map;
    ELE_ASSIGN_OR_RETURN(SubPlan first, AccessPath(order[0], &local_map));
    plan = std::move(first);
    mapping_.assign(ncols_, -1);
    {
      const BoundRelation& rel = q_->relations[order[0]];
      for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
        mapping_[rel.offset + c] = local_map[c];
      }
    }
    joined_.insert(order[0]);
    ELE_RETURN_NOT_OK(ApplyAvailableFilters(&plan));
    for (size_t i = 1; i < order.size(); i++) {
      ELE_RETURN_NOT_OK(JoinNext(order[i], &plan));
      ELE_RETURN_NOT_OK(ApplyAvailableFilters(&plan));
    }
  }

  // Aggregation (the parallel path may already have aggregated).
  if (q_->has_grouping && !parallel_agg) {
    std::vector<ExprPtr> groups;
    for (ExprPtr& g : q_->group_by) {
      g->RemapColumns(mapping_);
      groups.push_back(std::move(g));
    }
    std::vector<AggSpec> aggs;
    for (AggSpec& a : q_->aggs) {
      if (a.arg) a.arg->RemapColumns(mapping_);
      aggs.push_back(std::move(a));
    }
    const double agg_est =
        q_->group_by.empty() ? 1.0 : std::max(1.0, outer_est_ / 10.0);
    if (q_->hints.stream_agg && !q_->hints.hash_agg) {
      std::vector<SortKey> keys;
      for (const ExprPtr& g : groups) keys.push_back(SortKey{g->Clone(), true});
      AddSort(&plan, std::move(keys), "Sort (group order)", outer_est_);
      plan.exec = std::make_unique<BatchStreamAggregateExecutor>(
          std::move(plan.exec), std::move(groups), std::move(aggs));
      plan.note = Note("StreamAggregate", std::move(plan.note));
    } else {
      plan.exec = std::make_unique<BatchHashAggregateExecutor>(
          ctx_, std::move(plan.exec), std::move(groups), std::move(aggs));
      plan.note = Note("HashAggregate", std::move(plan.note));
    }
    Decorate(&plan, agg_est);
  }
  // HAVING binds against the aggregate output schema, which is identical for
  // the serial and the parallel (partial/final) aggregation plans.
  if (q_->has_grouping && q_->having != nullptr) {
    std::string label = "Filter (HAVING) " + q_->having->ToString();
    AddFilter(&plan, std::move(q_->having), std::move(label));
  }

  // Final projection.
  std::vector<ExprPtr> projs;
  for (ExprPtr& s : q_->select_exprs) {
    if (!q_->has_grouping) s->RemapColumns(mapping_);
    projs.push_back(std::move(s));
  }
  plan.exec = std::make_unique<BatchProjectExecutor>(
      std::move(plan.exec), std::move(projs), q_->select_names);
  plan.note = Note("Project", std::move(plan.note));
  Decorate(&plan);
  if (q_->distinct) {
    // DISTINCT = group by every output column with no aggregates.
    std::vector<ExprPtr> dgroups;
    const Schema& out_schema = plan.exec->OutputSchema();
    for (size_t c = 0; c < out_schema.NumColumns(); c++) {
      dgroups.push_back(Col(c, out_schema.ColumnAt(c).type,
                            out_schema.ColumnAt(c).name,
                            out_schema.ColumnAt(c).length));
    }
    plan.exec = std::make_unique<BatchHashAggregateExecutor>(
        ctx_, std::move(plan.exec), std::move(dgroups), std::vector<AggSpec>{});
    plan.note = Note("Distinct", std::move(plan.note));
    Decorate(&plan);
  }

  if (!q_->order_by.empty()) {
    std::vector<SortKey> keys;
    for (BoundOrderKey& k : q_->order_by) {
      keys.push_back(SortKey{std::move(k.expr), k.ascending});
    }
    AddSort(&plan, std::move(keys), "Sort (ORDER BY)");
  }
  if (q_->limit.has_value()) {
    plan.exec = std::make_unique<LimitExecutor>(std::move(plan.exec), *q_->limit);
    plan.note = Note("Limit " + std::to_string(*q_->limit), std::move(plan.note));
    Decorate(&plan, static_cast<double>(*q_->limit));
  }

  PlannedQuery out;
  out.output_schema = q_->output_schema;
  out.executor = std::move(plan.exec);
  out.plan = std::move(plan.note);
  FillEstimates(out.plan.get());
  out.explain = obs::RenderPlanTree(*out.plan, false);
  return out;
}

}  // namespace

Result<PlannedQuery> Planner::Plan(std::unique_ptr<BoundQuery> q) {
  PlanBuilder builder(ctx_, std::move(q), instrument_);
  return builder.Build();
}

}  // namespace elephant
