#include "planner/binder.h"

#include <cctype>
#include <functional>
#include <sstream>

#include "common/batch.h"

namespace elephant {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<ArithOp> ToArithOp(const std::string& op) {
  if (op == "+") return ArithOp::kAdd;
  if (op == "-") return ArithOp::kSub;
  if (op == "*") return ArithOp::kMul;
  if (op == "/") return ArithOp::kDiv;
  return Status::BindError("unknown arithmetic operator " + op);
}

Result<CompareOp> ToCompareOp(const std::string& op) {
  if (op == "=") return CompareOp::kEq;
  if (op == "<>") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return Status::BindError("unknown comparison operator " + op);
}

Result<AggFunc> ToAggFunc(const std::string& name, bool star) {
  if (name == "COUNT") return star ? AggFunc::kCountStar : AggFunc::kCount;
  if (name == "SUM") return AggFunc::kSum;
  if (name == "MIN") return AggFunc::kMin;
  if (name == "MAX") return AggFunc::kMax;
  if (name == "AVG") return AggFunc::kAvg;
  return Status::BindError("unknown aggregate " + name);
}

/// Coerces a literal to be comparable with `target` column type where SQL
/// expects implicit conversion (string -> date/char, int -> decimal).
ExprPtr CoerceLiteral(ExprPtr e, TypeId target) {
  auto* lit = dynamic_cast<LiteralExpr*>(e.get());
  if (lit == nullptr) return e;
  const Value& v = lit->value();
  if (v.type() == target) return e;
  auto cast = v.CastTo(target);
  if (cast.ok()) return Lit(std::move(cast).value());
  return e;
}

/// Applies literal coercion on either side of a comparison. A string
/// against a number, which CompareDomainOf makes an error on every row, is
/// a BindError.
Status CoerceComparison(ExprPtr* l, ExprPtr* r) {
  const TypeId lt = (*l)->output_type();
  const TypeId rt = (*r)->output_type();
  if (lt != rt) {
    *r = CoerceLiteral(std::move(*r), lt);
    *l = CoerceLiteral(std::move(*l), rt);
  }
  const TypeId a = (*l)->output_type(), b = (*r)->output_type();
  if (CompareDomainOf(a, b) != CompareDomain::kMismatch) return Status::OK();
  return Status::BindError(std::string("cannot compare ") + TypeName(a) +
                           " with " + TypeName(b));
}

/// Binds `l op r` for an arithmetic `op`. Operand types no row could
/// combine (arith::ResultType's rejections; `/` over a non-number) are a
/// BindError. An untyped NULL operand binds, and makes a NULL.
Result<ExprPtr> BindArith(const std::string& op, ExprPtr l, ExprPtr r) {
  ELE_ASSIGN_OR_RETURN(ArithOp aop, ToArithOp(op));
  const TypeId lt = l->output_type(), rt = r->output_type();
  if (lt != TypeId::kInvalid && rt != TypeId::kInvalid) {
    Status s;
    if (aop != ArithOp::kDiv) {
      s = arith::ResultType(op[0], lt, rt).status();
    } else if (!IsNumeric(lt) || !IsNumeric(rt)) {
      s = Status::InvalidArgument("division of non-numeric types");
    }
    if (!s.ok()) {
      return Status::BindError("(" + l->ToString() + " " + op + " " +
                               r->ToString() + "): " + s.message());
    }
  }
  return Arith(aop, std::move(l), std::move(r));
}

}  // namespace

PlanHints PlanHints::Parse(const std::string& text) {
  PlanHints h;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) {
    for (char& c : tok) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (tok == "FORCE_ORDER") h.force_order = true;
    if (tok == "LOOP_JOIN" || tok == "INLJ") h.loop_join = true;
    if (tok == "HASH_JOIN") h.hash_join = true;
    if (tok == "MERGE_JOIN") h.merge_join = true;
    if (tok == "STREAM_AGG") h.stream_agg = true;
    if (tok == "HASH_AGG") h.hash_agg = true;
    if (tok == "PARALLEL") {
      int n = 0;
      if (in >> n && n > 0) h.parallel_workers = n;
    }
  }
  return h;
}

PlanHints PlanHints::Merge(const PlanHints& o) const {
  PlanHints h = *this;
  h.force_order |= o.force_order;
  h.loop_join |= o.loop_join;
  h.hash_join |= o.hash_join;
  h.merge_join |= o.merge_join;
  h.stream_agg |= o.stream_agg;
  h.hash_agg |= o.hash_agg;
  h.parallel_workers = std::max(parallel_workers, o.parallel_workers);
  return h;
}

std::string PlanHints::ToString() const {
  std::string out;
  auto add = [&out](bool flag, const char* name) {
    if (flag) {
      if (!out.empty()) out += ' ';
      out += name;
    }
  };
  add(force_order, "FORCE_ORDER");
  add(loop_join, "LOOP_JOIN");
  add(hash_join, "HASH_JOIN");
  add(merge_join, "MERGE_JOIN");
  add(stream_agg, "STREAM_AGG");
  add(hash_agg, "HASH_AGG");
  if (parallel_workers > 0) {
    if (!out.empty()) out += ' ';
    out += "PARALLEL " + std::to_string(parallel_workers);
  }
  return out;
}

Result<ExprPtr> Binder::BindOverTable(const SqlExpr& expr, const Table& table) {
  // A throwaway single-relation scope: name resolution only ever reads the
  // alias and schema, so the relation's table pointer stays null.
  BoundQuery q;
  BoundRelation rel;
  rel.alias = table.name();
  rel.schema = table.schema();
  q.relations.push_back(std::move(rel));
  return BindScalar(expr, q);
}

Result<ExprPtr> Binder::BindColumnRef(const SqlExpr& expr, const BoundQuery& q) {
  int found_rel = -1, found_col = -1;
  for (size_t r = 0; r < q.relations.size(); r++) {
    const BoundRelation& rel = q.relations[r];
    if (!expr.qualifier.empty() && !EqualsIgnoreCase(expr.qualifier, rel.alias)) {
      continue;
    }
    const int c = rel.schema.FindColumn(expr.name);
    if (c < 0) continue;
    if (found_rel >= 0) {
      return Status::BindError("ambiguous column " + expr.ToString());
    }
    found_rel = static_cast<int>(r);
    found_col = c;
  }
  if (found_rel < 0) {
    return Status::BindError("unknown column " + expr.ToString());
  }
  const BoundRelation& rel = q.relations[found_rel];
  const Column& col = rel.schema.ColumnAt(found_col);
  return Col(rel.offset + found_col, col.type, rel.alias + "." + col.name,
             col.length);
}

Result<ExprPtr> Binder::BindScalar(const SqlExpr& expr, const BoundQuery& q) {
  switch (expr.kind) {
    case SqlExprKind::kIdent:
      return BindColumnRef(expr, q);
    case SqlExprKind::kLiteral:
      return Lit(expr.literal);
    case SqlExprKind::kBinary: {
      ELE_ASSIGN_OR_RETURN(ExprPtr l, BindScalar(*expr.lhs, q));
      ELE_ASSIGN_OR_RETURN(ExprPtr r, BindScalar(*expr.rhs, q));
      if (expr.op == "AND") return And(std::move(l), std::move(r));
      if (expr.op == "OR") return Or(std::move(l), std::move(r));
      if (expr.op == "+" || expr.op == "-" || expr.op == "*" || expr.op == "/") {
        return BindArith(expr.op, std::move(l), std::move(r));
      }
      ELE_ASSIGN_OR_RETURN(CompareOp op, ToCompareOp(expr.op));
      ELE_RETURN_NOT_OK(CoerceComparison(&l, &r));
      return Cmp(op, std::move(l), std::move(r));
    }
    case SqlExprKind::kBetween: {
      ELE_ASSIGN_OR_RETURN(ExprPtr v1, BindScalar(*expr.child, q));
      ELE_ASSIGN_OR_RETURN(ExprPtr v2, BindScalar(*expr.child, q));
      ELE_ASSIGN_OR_RETURN(ExprPtr lo, BindScalar(*expr.between_lo, q));
      ELE_ASSIGN_OR_RETURN(ExprPtr hi, BindScalar(*expr.between_hi, q));
      ELE_RETURN_NOT_OK(CoerceComparison(&v1, &lo));
      ELE_RETURN_NOT_OK(CoerceComparison(&v2, &hi));
      return And(Cmp(CompareOp::kGe, std::move(v1), std::move(lo)),
                 Cmp(CompareOp::kLe, std::move(v2), std::move(hi)));
    }
    case SqlExprKind::kNot: {
      ELE_ASSIGN_OR_RETURN(ExprPtr c, BindScalar(*expr.child, q));
      return ExprPtr(std::make_unique<NotExpr>(std::move(c)));
    }
    case SqlExprKind::kIsNull: {
      // Model IS NULL as (col = col) being false for NULLs: we instead bind a
      // dedicated comparison against a NULL literal is wrong under 3VL, so we
      // use NOT(col = col) which is true exactly when col is NULL under our
      // null-rejecting comparison semantics.
      ELE_ASSIGN_OR_RETURN(ExprPtr c1, BindScalar(*expr.child, q));
      ELE_ASSIGN_OR_RETURN(ExprPtr c2, BindScalar(*expr.child, q));
      ExprPtr eq = Cmp(CompareOp::kEq, std::move(c1), std::move(c2));
      if (expr.is_not) return eq;  // col IS NOT NULL == (col = col)
      return ExprPtr(std::make_unique<NotExpr>(std::move(eq)));
    }
    case SqlExprKind::kFuncCall:
      return Status::BindError("aggregate " + expr.func +
                               " not allowed in this context: " +
                               expr.ToString());
    case SqlExprKind::kStar:
      return Status::BindError("'*' not allowed in this context");
  }
  return Status::BindError("unsupported expression " + expr.ToString());
}

Result<ExprPtr> Binder::BindProjection(const SqlExpr& expr, BoundQuery* q,
                                       const std::vector<std::string>& group_keys) {
  // Aggregate call: bind the argument over the input schema, register the
  // spec, reference its slot in the aggregate output schema.
  if (expr.kind == SqlExprKind::kFuncCall) {
    ELE_ASSIGN_OR_RETURN(AggFunc fn, ToAggFunc(expr.func, expr.star_arg));
    ExprPtr arg;
    if (!expr.star_arg) {
      ELE_ASSIGN_OR_RETURN(arg, BindScalar(*expr.child, *q));
      // SUM and AVG add the argument to itself (arith::ResultType): a DATE
      // or a string cannot be. An untyped NULL sums to NULL.
      const TypeId t = arg->output_type();
      if ((fn == AggFunc::kSum || fn == AggFunc::kAvg) && t != TypeId::kInvalid) {
        Result<TypeId> sum = arith::ResultType('+', t, t);
        if (!sum.ok()) {
          return Status::BindError(expr.ToString() + ": " + sum.status().message());
        }
      }
    }
    AggSpec spec(fn, std::move(arg), expr.ToString());
    const TypeId out_type = spec.OutputType();
    const uint32_t out_length = spec.OutputLength();
    q->aggs.push_back(std::move(spec));
    const size_t slot = q->group_by.size() + q->aggs.size() - 1;
    return Col(slot, out_type, expr.ToString(), out_length);
  }
  // Whole expression equal to a GROUP BY expression: reference its slot.
  {
    auto bound = BindScalar(expr, *q);
    if (bound.ok()) {
      const std::string key = bound.value()->ToString();
      for (size_t g = 0; g < group_keys.size(); g++) {
        if (group_keys[g] == key) {
          return Col(g, bound.value()->output_type(), key,
                     bound.value()->output_length());
        }
      }
    }
  }
  // Otherwise recurse so things like `grp_col + 1` or `SUM(x) / COUNT(*)`
  // work.
  switch (expr.kind) {
    case SqlExprKind::kLiteral:
      return Lit(expr.literal);
    case SqlExprKind::kBinary: {
      ELE_ASSIGN_OR_RETURN(ExprPtr l, BindProjection(*expr.lhs, q, group_keys));
      ELE_ASSIGN_OR_RETURN(ExprPtr r, BindProjection(*expr.rhs, q, group_keys));
      if (expr.op == "AND") return And(std::move(l), std::move(r));
      if (expr.op == "OR") return Or(std::move(l), std::move(r));
      if (expr.op == "+" || expr.op == "-" || expr.op == "*" || expr.op == "/") {
        return BindArith(expr.op, std::move(l), std::move(r));
      }
      ELE_ASSIGN_OR_RETURN(CompareOp op, ToCompareOp(expr.op));
      ELE_RETURN_NOT_OK(CoerceComparison(&l, &r));
      return Cmp(op, std::move(l), std::move(r));
    }
    default:
      return Status::BindError("expression " + expr.ToString() +
                               " must appear in GROUP BY or inside an aggregate");
  }
}

Result<std::unique_ptr<BoundQuery>> Binder::Bind(const SelectStmt& stmt) {
  auto q = std::make_unique<BoundQuery>();
  q->hints = PlanHints::Parse(stmt.hint_text);

  // FROM: resolve relations and compute the concatenated input schema.
  if (stmt.from.empty()) {
    return Status::BindError("FROM clause required");
  }
  std::vector<Column> input_cols;
  for (const TableRef& ref : stmt.from) {
    BoundRelation rel;
    rel.alias = ref.alias;
    for (const BoundRelation& existing : q->relations) {
      if (EqualsIgnoreCase(existing.alias, rel.alias)) {
        return Status::BindError("duplicate table alias " + rel.alias);
      }
    }
    if (ref.derived != nullptr) {
      ELE_ASSIGN_OR_RETURN(rel.derived, Bind(*ref.derived));
      rel.schema = rel.derived->output_schema;
      q->uses_virtual |= rel.derived->uses_virtual;
    } else if (const VirtualTable* vt =
                   catalog_->GetVirtualTable(ref.table_name)) {
      rel.vtable = vt;
      rel.schema = vt->schema;
      q->uses_virtual = true;
    } else if (Catalog::IsReservedName(ref.table_name)) {
      // A reserved name that resolved to nothing: report it as the virtual
      // table it pretends to be, not as a missing base table.
      return Status::BindError("unknown virtual system table \"" +
                               ref.table_name + "\"");
    } else {
      ELE_ASSIGN_OR_RETURN(rel.table, catalog_->GetTable(ref.table_name));
      rel.schema = rel.table->schema();
    }
    rel.offset = input_cols.size();
    for (const Column& c : rel.schema.columns()) input_cols.push_back(c);
    q->relations.push_back(std::move(rel));
  }
  q->input_schema = Schema(input_cols);

  // WHERE: split into conjuncts over the input schema.
  if (stmt.where != nullptr) {
    ELE_ASSIGN_OR_RETURN(ExprPtr pred, BindScalar(*stmt.where, *q));
    SplitConjuncts(std::move(pred), &q->conjuncts);
  }

  // GROUP BY.
  std::vector<std::string> group_keys;
  for (const SqlExprPtr& g : stmt.group_by) {
    ELE_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(*g, *q));
    group_keys.push_back(bound->ToString());
    q->group_by.push_back(std::move(bound));
  }

  // Detect aggregates in the select list.
  bool any_agg = false;
  std::function<void(const SqlExpr&)> detect = [&](const SqlExpr& e) {
    if (e.kind == SqlExprKind::kFuncCall) any_agg = true;
    if (e.lhs) detect(*e.lhs);
    if (e.rhs) detect(*e.rhs);
    if (e.child) detect(*e.child);
  };
  for (const SelectItem& item : stmt.items) {
    if (item.expr) detect(*item.expr);
  }
  q->has_grouping = any_agg || !q->group_by.empty();

  // SELECT list.
  for (const SelectItem& item : stmt.items) {
    if (item.star) {
      if (q->has_grouping) {
        return Status::BindError("SELECT * not allowed with GROUP BY");
      }
      for (const BoundRelation& rel : q->relations) {
        for (size_t c = 0; c < rel.schema.NumColumns(); c++) {
          const Column& col = rel.schema.ColumnAt(c);
          q->select_exprs.push_back(Col(rel.offset + c, col.type,
                                        rel.alias + "." + col.name, col.length));
          q->select_names.push_back(col.name);
        }
      }
      continue;
    }
    ExprPtr bound;
    if (q->has_grouping) {
      ELE_ASSIGN_OR_RETURN(bound, BindProjection(*item.expr, q.get(), group_keys));
    } else {
      ELE_ASSIGN_OR_RETURN(bound, BindScalar(*item.expr, *q));
    }
    q->select_names.push_back(!item.alias.empty() ? item.alias
                                                  : item.expr->ToString());
    q->select_exprs.push_back(std::move(bound));
  }

  // HAVING: binds like a select expression (aggregates allowed, other
  // expressions must be grouped).
  if (stmt.having != nullptr) {
    if (!q->has_grouping) {
      return Status::BindError("HAVING requires GROUP BY or aggregates");
    }
    ELE_ASSIGN_OR_RETURN(q->having,
                         BindProjection(*stmt.having, q.get(), group_keys));
  }
  q->distinct = stmt.distinct;

  // Output schema.
  std::vector<Column> out_cols;
  for (size_t i = 0; i < q->select_exprs.size(); i++) {
    out_cols.emplace_back(q->select_names[i], q->select_exprs[i]->output_type(),
                          q->select_exprs[i]->output_length());
  }
  q->output_schema = Schema(out_cols);

  // ORDER BY: by ordinal, output-column name, or select-expression match.
  for (const OrderItem& item : stmt.order_by) {
    BoundOrderKey key;
    key.ascending = item.ascending;
    if (item.expr->kind == SqlExprKind::kLiteral &&
        IsNumeric(item.expr->literal.type())) {
      const int64_t ord = item.expr->literal.AsInt64();
      if (ord < 1 || ord > static_cast<int64_t>(q->select_exprs.size())) {
        return Status::BindError("ORDER BY ordinal out of range");
      }
      key.expr = Col(static_cast<size_t>(ord - 1),
                     q->output_schema.ColumnAt(ord - 1).type);
    } else if (item.expr->kind == SqlExprKind::kIdent &&
               item.expr->qualifier.empty() &&
               q->output_schema.FindColumn(item.expr->name) >= 0) {
      const int c = q->output_schema.FindColumn(item.expr->name);
      key.expr = Col(static_cast<size_t>(c), q->output_schema.ColumnAt(c).type);
    } else {
      // Match against a select expression by (unbound) string equality.
      const std::string want = item.expr->ToString();
      int match = -1;
      for (size_t i = 0; i < stmt.items.size(); i++) {
        if (stmt.items[i].expr != nullptr &&
            stmt.items[i].expr->ToString() == want) {
          match = static_cast<int>(i);
          break;
        }
      }
      if (match < 0) {
        return Status::BindError("ORDER BY expression " + want +
                                 " must appear in the select list");
      }
      key.expr = Col(static_cast<size_t>(match),
                     q->output_schema.ColumnAt(match).type);
    }
    q->order_by.push_back(std::move(key));
  }

  q->limit = stmt.limit;
  return q;
}

}  // namespace elephant
