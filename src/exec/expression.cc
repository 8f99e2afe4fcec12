#include "exec/expression.h"

namespace elephant {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "?";
}

const char* AggFuncName(AggFunc fn) {
  switch (fn) {
    case AggFunc::kCountStar: return "COUNT(*)";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

Result<Value> EvalCompareOp(CompareOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Boolean(false);
  // Scalar Eval only; the batch kernel is CompareExpr::EvalBatch.
  const int c = l.Compare(r);  // lint:allow(value-in-batch-kernel)
  switch (op) {
    case CompareOp::kEq: return Value::Boolean(c == 0);
    case CompareOp::kNe: return Value::Boolean(c != 0);
    case CompareOp::kLt: return Value::Boolean(c < 0);
    case CompareOp::kLe: return Value::Boolean(c <= 0);
    case CompareOp::kGt: return Value::Boolean(c > 0);
    case CompareOp::kGe: return Value::Boolean(c >= 0);
  }
  return Status::Internal("bad compare op");
}

Result<Value> EvalArithOp(ArithOp op, const Value& l, const Value& r) {
  switch (op) {
    case ArithOp::kAdd: return l.Add(r);
    case ArithOp::kSub: return l.Subtract(r);
    case ArithOp::kMul: return l.Multiply(r);
    case ArithOp::kDiv: {
      // SQL `/` is exact here and always yields DOUBLE (deliberate
      // divergence from integer division) so derived averages such as
      // SUM(x)/COUNT(*) — used by view matching and the c-table rewriter —
      // are lossless.
      if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
        return Status::InvalidArgument("division of non-numeric types");
      }
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kDouble);
      const double denom = r.AsDouble();
      if (denom == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(l.AsDouble() / denom);
    }
  }
  return Status::Internal("bad arith op");
}

namespace {

/// One operand of a kernel: a result column, or a constant's one-row column
/// read at row 0 for every row (`mask` 0 turns any row into 0).
struct Operand {
  const ColumnVector* col;
  uint32_t mask;
  uint32_t Row(uint32_t p) const { return p & mask; }
};

Result<Operand> EvalOperand(const Expr& e, const Batch& batch,
                            const std::vector<uint32_t>& positions,
                            ColumnVector* scratch) {
  if (const ColumnVector* k = e.constant()) return Operand{k, 0};
  ELE_ASSIGN_OR_RETURN(const ColumnVector* c,
                       e.EvalBatch(batch, positions, scratch));
  return Operand{c, ~0u};
}

/// out[p] = op(cmp(l, r)) at every listed position, false where either side
/// is NULL. `cmp` is the three-way comparison of two operand rows.
template <typename Cmp>
void CompareRows(CompareOp op, const std::vector<uint32_t>& positions,
                 const Operand& l, const Operand& r, Cmp cmp, int64_t* out) {
  auto run = [&](auto test) {
    for (uint32_t p : positions) {
      const uint32_t a = l.Row(p), b = r.Row(p);
      out[p] = !l.col->IsNull(a) && !r.col->IsNull(b) && test(cmp(a, b));
    }
  };
  switch (op) {
    case CompareOp::kEq: return run([](int c) { return c == 0; });
    case CompareOp::kNe: return run([](int c) { return c != 0; });
    case CompareOp::kLt: return run([](int c) { return c < 0; });
    case CompareOp::kLe: return run([](int c) { return c <= 0; });
    case CompareOp::kGt: return run([](int c) { return c > 0; });
    case CompareOp::kGe: return run([](int c) { return c >= 0; });
  }
}

/// A cell's truth value as Value::AsBool reads it: nonzero integer payload.
bool Truthy(const ColumnVector& c, uint32_t r) {
  return !c.IsNull(r) && c.lane() == Lane::kInt && c.Int(r) != 0;
}

char ArithChar(ArithOp op) {
  return op == ArithOp::kAdd ? '+' : (op == ArithOp::kSub ? '-' : '*');
}

}  // namespace

Result<const ColumnVector*> ColumnExpr::EvalBatch(
    const Batch& batch, const std::vector<uint32_t>& /*positions*/,
    ColumnVector* /*scratch*/) const {
  if (index_ >= batch.num_cols()) {
    return Status::ExecError("column index " + std::to_string(index_) +
                             " out of range (batch arity " +
                             std::to_string(batch.num_cols()) + ")");
  }
  return &batch.col(index_);
}

Result<const ColumnVector*> LiteralExpr::EvalBatch(
    const Batch& batch, const std::vector<uint32_t>& /*positions*/,
    ColumnVector* scratch) const {
  scratch->Reset(constant_.type());
  for (uint32_t r = 0; r < batch.num_rows(); ++r) scratch->Append(constant_, 0);
  return scratch;
}

Result<const ColumnVector*> CompareExpr::EvalBatch(
    const Batch& batch, const std::vector<uint32_t>& positions,
    ColumnVector* scratch) const {
  ColumnVector ls, rs;
  ELE_ASSIGN_OR_RETURN(Operand l, EvalOperand(*lhs_, batch, positions, &ls));
  ELE_ASSIGN_OR_RETURN(Operand r, EvalOperand(*rhs_, batch, positions, &rs));
  scratch->Reset(TypeId::kBoolean);
  scratch->Resize(batch.num_rows());
  int64_t* out = scratch->ints();
  const ColumnVector& lc = *l.col;
  const ColumnVector& rc = *r.col;
  switch (CompareDomainOf(lc.type(), rc.type())) {
    case CompareDomain::kNull:
      break;  // an untyped NULL: every comparison is false
    case CompareDomain::kMismatch:
      if (positions.empty()) break;
      return Status::ExecError(std::string("cannot compare ") +
                               TypeName(lc.type()) + " with " +
                               TypeName(rc.type()));
    case CompareDomain::kString:
      CompareRows(op_, positions, l, r, [&](uint32_t a, uint32_t b) {
        return ComparePadded(lc.String(a), rc.String(b));
      }, out);
      break;
    case CompareDomain::kInt:
      CompareRows(op_, positions, l, r, [&](uint32_t a, uint32_t b) {
        return ThreeWay(lc.Int(a), rc.Int(b));
      }, out);
      break;
    case CompareDomain::kDouble:
      WithDoubles(lc, [&](auto get_l) {
        WithDoubles(rc, [&](auto get_r) {
          CompareRows(op_, positions, l, r, [&](uint32_t a, uint32_t b) {
            return ThreeWay(get_l(a), get_r(b));
          }, out);
        });
      });
      break;
  }
  return scratch;
}

Result<Value> CompareExpr::Eval(const Row& row) const {
  ELE_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
  ELE_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
  return EvalCompareOp(op_, l, r);
}

Result<Value> LogicalExpr::Eval(const Row& row) const {
  ELE_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
  const bool lb = !l.is_null() && l.AsBool();
  if (op_ == LogicalOp::kAnd && !lb) return Value::Boolean(false);
  if (op_ == LogicalOp::kOr && lb) return Value::Boolean(true);
  ELE_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
  return Value::Boolean(!r.is_null() && r.AsBool());
}

Result<const ColumnVector*> LogicalExpr::EvalBatch(
    const Batch& batch, const std::vector<uint32_t>& positions,
    ColumnVector* scratch) const {
  ColumnVector ls;
  ELE_ASSIGN_OR_RETURN(const ColumnVector* l,
                       lhs_->EvalBatch(batch, positions, &ls));
  // Positional short-circuit, mirroring Eval exactly: the rhs is evaluated
  // only where the lhs does not already decide the result (AND with
  // false-ish lhs, OR with true lhs). This matters for errors, not just
  // speed — `x <> 0 AND 10 / x > 1` must never divide at x = 0.
  const bool decided_value = op_ == LogicalOp::kOr;
  std::vector<uint32_t> undecided;
  undecided.reserve(positions.size());
  for (uint32_t pos : positions) {
    if (Truthy(*l, pos) != decided_value) undecided.push_back(pos);
  }
  scratch->Reset(TypeId::kBoolean);
  scratch->Resize(batch.num_rows());
  int64_t* out = scratch->ints();
  for (uint32_t pos : positions) out[pos] = decided_value;
  if (!undecided.empty()) {
    ColumnVector rs;
    ELE_ASSIGN_OR_RETURN(const ColumnVector* r,
                         rhs_->EvalBatch(batch, undecided, &rs));
    for (uint32_t pos : undecided) out[pos] = Truthy(*r, pos);
  }
  return scratch;
}

Result<Value> ArithExpr::Eval(const Row& row) const {
  ELE_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
  ELE_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
  return EvalArithOp(op_, l, r);
}

Result<const ColumnVector*> ArithExpr::EvalBatch(
    const Batch& batch, const std::vector<uint32_t>& positions,
    ColumnVector* scratch) const {
  ColumnVector ls, rs;
  ELE_ASSIGN_OR_RETURN(Operand l, EvalOperand(*lhs_, batch, positions, &ls));
  ELE_ASSIGN_OR_RETURN(Operand r, EvalOperand(*rhs_, batch, positions, &rs));
  const TypeId lt = l.col->type(), rt = r.col->type();
  TypeId t = TypeId::kDouble;
  if (op_ == ArithOp::kDiv) {
    if ((!IsNumeric(lt) || !IsNumeric(rt)) && !positions.empty()) {
      return Status::InvalidArgument("division of non-numeric types");
    }
  } else {
    Result<TypeId> type = arith::ResultType(ArithChar(op_), lt, rt);
    if (!type.ok()) {
      if (positions.empty()) type = TypeId::kInvalid;
      else return type.status();
    }
    t = *type;
  }
  scratch->Reset(t);
  scratch->Resize(batch.num_rows());
  uint8_t* nulls = scratch->nulls();
  auto null_at = [&](uint32_t p) {
    return l.col->IsNull(l.Row(p)) || r.col->IsNull(r.Row(p));
  };
  if (t == TypeId::kDouble) {
    double* out = scratch->doubles();
    Status status;
    WithDoubles(*l.col, [&](auto get_l) {
      WithDoubles(*r.col, [&](auto get_r) {
        if (op_ == ArithOp::kDiv) {
          for (uint32_t p : positions) {
            if (null_at(p)) {
              nulls[p] = 1;
              continue;
            }
            const double denom = get_r(r.Row(p));
            if (denom == 0) {
              status = Status::InvalidArgument("division by zero");
              return;
            }
            out[p] = get_l(l.Row(p)) / denom;
          }
          return;
        }
        const char op = ArithChar(op_);
        for (uint32_t p : positions) {
          if (null_at(p)) {
            nulls[p] = 1;
          } else {
            out[p] = arith::DoubleOp(op, get_l(l.Row(p)), get_r(r.Row(p)));
          }
        }
      });
    });
    ELE_RETURN_NOT_OK(status);
    return scratch;
  }
  int64_t* out = scratch->ints();
  const char op = ArithChar(op_);
  for (uint32_t p : positions) {
    if (null_at(p)) {
      nulls[p] = 1;
      continue;
    }
    ELE_ASSIGN_OR_RETURN(out[p], arith::IntOp(op, t, lt, l.col->Int(l.Row(p)),
                                              rt, r.col->Int(r.Row(p))));
  }
  return scratch;
}

TypeId ArithExpr::output_type() const {
  if (op_ == ArithOp::kDiv) return TypeId::kDouble;
  Result<TypeId> t = arith::ResultType(ArithChar(op_), lhs_->output_type(),
                                       rhs_->output_type());
  return t.ok() ? *t : TypeId::kInvalid;
}

Result<Value> NotExpr::Eval(const Row& row) const {
  ELE_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null(TypeId::kBoolean);
  return Value::Boolean(!v.AsBool());
}

Result<const ColumnVector*> NotExpr::EvalBatch(
    const Batch& batch, const std::vector<uint32_t>& positions,
    ColumnVector* scratch) const {
  ColumnVector cs;
  ELE_ASSIGN_OR_RETURN(const ColumnVector* c,
                       child_->EvalBatch(batch, positions, &cs));
  scratch->Reset(TypeId::kBoolean);
  scratch->Resize(batch.num_rows());
  uint8_t* nulls = scratch->nulls();
  int64_t* out = scratch->ints();
  for (uint32_t pos : positions) {
    nulls[pos] = c->IsNull(pos);
    out[pos] = !c->IsNull(pos) && !Truthy(*c, pos);
  }
  return scratch;
}

ExprPtr ConjoinAll(std::vector<ExprPtr> preds) {
  ExprPtr out;
  for (ExprPtr& p : preds) {
    if (p == nullptr) continue;
    out = out == nullptr ? std::move(p) : And(std::move(out), std::move(p));
  }
  return out;
}

void SplitConjuncts(ExprPtr pred, std::vector<ExprPtr>* out) {
  if (pred == nullptr) return;
  auto* logical = dynamic_cast<LogicalExpr*>(pred.get());
  if (logical != nullptr && logical->op() == LogicalOp::kAnd) {
    SplitConjuncts(logical->TakeLhs(), out);
    SplitConjuncts(logical->TakeRhs(), out);
    return;
  }
  out->push_back(std::move(pred));
}

Result<bool> EvalPredicate(const Expr& pred, const Row& row) {
  ELE_ASSIGN_OR_RETURN(Value v, pred.Eval(row));
  return !v.is_null() && v.AsBool();
}

Status ApplyFilterToBatch(const Expr& pred, Batch* batch) {
  const std::vector<uint32_t> positions = batch->ActiveIndices();
  ColumnVector scratch;
  ELE_ASSIGN_OR_RETURN(const ColumnVector* verdicts,
                       pred.EvalBatch(*batch, positions, &scratch));
  std::vector<uint32_t> keep;
  keep.reserve(positions.size());
  for (uint32_t pos : positions) {
    if (Truthy(*verdicts, pos)) keep.push_back(pos);
  }
  batch->SetSelection(std::move(keep));
  return Status::OK();
}

Status EvalColumns(const std::vector<ExprPtr>& exprs, const Batch& in,
                   const std::vector<uint32_t>& positions,
                   std::vector<const ColumnVector*>* cols,
                   std::vector<ColumnVector>* scratch) {
  cols->resize(exprs.size());
  scratch->resize(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    ELE_ASSIGN_OR_RETURN((*cols)[i],
                         exprs[i]->EvalBatch(in, positions, &(*scratch)[i]));
  }
  return Status::OK();
}

TypeId AggSpec::OutputType() const {
  switch (fn) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return TypeId::kInt64;
    case AggFunc::kSum: {
      const TypeId t = arg->output_type();
      if (t == TypeId::kDouble) return TypeId::kDouble;
      if (t == TypeId::kDecimal) return TypeId::kDecimal;
      return TypeId::kInt64;
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg->output_type();
    case AggFunc::kAvg:
      return TypeId::kDouble;
  }
  return TypeId::kInvalid;
}

namespace {

/// The accumulation domain of SUM and AVG over `spec`'s argument: integers
/// widen to INT64 so INT32 sums don't overflow.
TypeId SumType(const AggSpec& spec) {
  const TypeId t = spec.arg->output_type();
  if (t == TypeId::kDouble) return TypeId::kDouble;
  if (t == TypeId::kDecimal) return TypeId::kDecimal;
  return TypeId::kInt64;
}

}  // namespace

AggStates::AggStates(const AggSpec& spec) : fn_(spec.fn) {
  switch (fn_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      type_ = TypeId::kInt64;
      summable_ = false;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      type_ = SumType(spec);
      const TypeId arg = spec.arg->output_type();
      summable_ = IsNumeric(arg) || arg == TypeId::kInvalid;
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      type_ = spec.arg->output_type();
      summable_ = false;
      break;
  }
  compare_ = CompareDomainOf(type_, type_);
}

void AggStates::AddGroup() {
  counts_.push_back(0);
  has_.push_back(0);
  if (fn_ == AggFunc::kCountStar || fn_ == AggFunc::kCount) return;
  switch (LaneOf(type_)) {
    case Lane::kInt: ints_.push_back(0); break;
    case Lane::kDouble: doubles_.push_back(0); break;
    case Lane::kString: strings_.emplace_back(); break;
  }
}

void AggStates::Clear() {
  counts_.clear();
  has_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

Status AggStates::Add(uint32_t g, const ColumnVector& v, uint32_t r) {
  const bool first = has_[g] == 0;
  has_[g] = 1;
  if (fn_ == AggFunc::kSum || fn_ == AggFunc::kAvg) {
    if (!summable_) {
      return Status::InvalidArgument(
          std::string("arithmetic on non-numeric types ") +
          TypeName(v.type()) + "/" + TypeName(v.type()));
    }
    if (type_ == TypeId::kDouble) {
      const double d = v.lane() == Lane::kDouble ? v.Double(r)
                                                 : static_cast<double>(v.Int(r));
      doubles_[g] = first ? d : doubles_[g] + d;
      return Status::OK();
    }
    if (first) {
      ints_[g] = v.Int(r);
    } else if (__builtin_add_overflow(ints_[g], v.Int(r), &ints_[g])) {
      return Status::InvalidArgument(
          std::string(type_ == TypeId::kDecimal ? "DECIMAL addition"
                                                : "addition") +
          " overflows INT64");
    }
    return Status::OK();
  }
  // MIN / MAX: replace on a strictly smaller (larger) value in
  // Value::Compare order, so the first of equal values stays.
  const int want = fn_ == AggFunc::kMin ? -1 : 1;
  switch (compare_) {
    case CompareDomain::kInt:
      if (first || ThreeWay(v.Int(r), ints_[g]) == want) ints_[g] = v.Int(r);
      break;
    case CompareDomain::kDouble:
      if (first || ThreeWay(v.Double(r), doubles_[g]) == want) {
        doubles_[g] = v.Double(r);
      }
      break;
    case CompareDomain::kString:
      if (first || ComparePadded(v.String(r), strings_[g]) == want) {
        strings_[g].assign(v.String(r));
      }
      break;
    case CompareDomain::kNull:
    case CompareDomain::kMismatch:
      break;
  }
  return Status::OK();
}

Status AggStates::Fold(const ColumnVector* arg,
                       const std::vector<uint32_t>& positions,
                       const std::vector<uint32_t>& groups) {
  const size_t n = positions.size();
  if (fn_ == AggFunc::kCountStar) {
    for (size_t i = 0; i < n; ++i) counts_[groups[i]]++;
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = positions[i];
    if (arg->IsNull(r)) continue;
    const uint32_t g = groups[i];
    counts_[g]++;
    if (fn_ != AggFunc::kCount) ELE_RETURN_NOT_OK(Add(g, *arg, r));
  }
  return Status::OK();
}

Status AggStates::Merge(const ColumnVector& v, const ColumnVector& avg_count,
                        const std::vector<uint32_t>& positions,
                        const std::vector<uint32_t>& groups) {
  for (size_t i = 0; i < positions.size(); ++i) {
    const uint32_t r = positions[i];
    const uint32_t g = groups[i];
    if (fn_ == AggFunc::kCountStar || fn_ == AggFunc::kCount) {
      counts_[g] += v.Int(r);
      continue;
    }
    if (!v.IsNull(r)) ELE_RETURN_NOT_OK(Add(g, v, r));
    if (fn_ == AggFunc::kAvg) counts_[g] += avg_count.Int(r);
  }
  return Status::OK();
}

void AggStates::AppendFinal(uint32_t g, ColumnVector* out) const {
  switch (fn_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return out->AppendInt(counts_[g]);
    case AggFunc::kAvg: {
      if (counts_[g] == 0) return out->AppendNull();
      const double sum =
          type_ == TypeId::kDouble
              ? doubles_[g]
              : static_cast<double>(ints_[g]) /
                    (type_ == TypeId::kDecimal
                         ? static_cast<double>(decimal::kScale)
                         : 1.0);
      return out->AppendDouble(sum / static_cast<double>(counts_[g]));
    }
    default:
      if (!has_[g]) return out->AppendNull();
      switch (LaneOf(type_)) {
        case Lane::kInt: return out->AppendInt(ints_[g]);
        case Lane::kDouble: return out->AppendDouble(doubles_[g]);
        case Lane::kString: return out->AppendString(strings_[g]);
      }
  }
}

void AggStates::AppendPartial(uint32_t g, Batch* out, size_t col) const {
  switch (fn_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return out->col(col).AppendInt(counts_[g]);
    case AggFunc::kAvg: {
      ColumnVector& sum = out->col(col);
      if (!has_[g]) {
        sum.AppendNull();
      } else if (type_ == TypeId::kDouble) {
        sum.AppendDouble(doubles_[g]);
      } else {
        sum.AppendInt(ints_[g]);
      }
      return out->col(col + 1).AppendInt(counts_[g]);
    }
    default:
      return AppendFinal(g, &out->col(col));
  }
}

void AggStates::AppendPartialColumns(const AggSpec& spec, std::vector<Column>* cols) {
  const std::string base = !spec.name.empty() ? spec.name : AggFuncName(spec.fn);
  switch (spec.fn) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      cols->emplace_back(base + "$count", TypeId::kInt64);
      break;
    case AggFunc::kSum:
      cols->emplace_back(base + "$sum", spec.OutputType());
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      cols->emplace_back(base + "$acc", spec.arg->output_type(),
                         spec.arg->output_length());
      break;
    case AggFunc::kAvg:
      cols->emplace_back(base + "$sum", SumType(spec));
      cols->emplace_back(base + "$count", TypeId::kInt64);
      break;
  }
}

}  // namespace elephant
