#include "exec/expression.h"

#include "exec/batch.h"

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
  const int c = l.Compare(r);
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

Status Expr::EvalBatch(const Batch& batch,
                       const std::vector<uint32_t>& positions,
                       std::vector<Value>* out) const {
  out->resize(batch.num_rows());
  Row scratch;
  for (uint32_t pos : positions) {
    batch.GatherRow(pos, &scratch);
    ELE_ASSIGN_OR_RETURN((*out)[pos], Eval(scratch));
  }
  return Status::OK();
}

Status ColumnExpr::EvalBatch(const Batch& batch,
                             const std::vector<uint32_t>& /*positions*/,
                             std::vector<Value>* out) const {
  if (index_ >= batch.num_cols()) {
    return Status::ExecError("column index " + std::to_string(index_) +
                             " out of range (batch arity " +
                             std::to_string(batch.num_cols()) + ")");
  }
  // Copying the full column (not just the listed positions) is safe —
  // column reads have no side effects — and keeps the loop branch-free.
  *out = batch.col(index_);
  return Status::OK();
}

Status LiteralExpr::EvalBatch(const Batch& batch,
                              const std::vector<uint32_t>& /*positions*/,
                              std::vector<Value>* out) const {
  out->assign(batch.num_rows(), value_);
  return Status::OK();
}

Status CompareExpr::EvalBatch(const Batch& batch,
                              const std::vector<uint32_t>& positions,
                              std::vector<Value>* out) const {
  std::vector<Value> l, r;
  ELE_RETURN_NOT_OK(lhs_->EvalBatch(batch, positions, &l));
  ELE_RETURN_NOT_OK(rhs_->EvalBatch(batch, positions, &r));
  out->resize(batch.num_rows());
  for (uint32_t pos : positions) {
    ELE_ASSIGN_OR_RETURN((*out)[pos], EvalCompareOp(op_, l[pos], r[pos]));
  }
  return Status::OK();
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

Status LogicalExpr::EvalBatch(const Batch& batch,
                              const std::vector<uint32_t>& positions,
                              std::vector<Value>* out) const {
  std::vector<Value> l;
  ELE_RETURN_NOT_OK(lhs_->EvalBatch(batch, positions, &l));
  out->resize(batch.num_rows());
  // Positional short-circuit, mirroring the row path exactly: the rhs is
  // evaluated only where the lhs does not already decide the result (AND
  // with false-ish lhs, OR with true lhs). This matters for errors, not
  // just speed — `x <> 0 AND 10 / x > 1` must never divide at x = 0.
  std::vector<uint32_t> undecided;
  undecided.reserve(positions.size());
  for (uint32_t pos : positions) {
    const bool lb = !l[pos].is_null() && l[pos].AsBool();
    if (op_ == LogicalOp::kAnd && !lb) {
      (*out)[pos] = Value::Boolean(false);
    } else if (op_ == LogicalOp::kOr && lb) {
      (*out)[pos] = Value::Boolean(true);
    } else {
      undecided.push_back(pos);
    }
  }
  if (!undecided.empty()) {
    std::vector<Value> r;
    ELE_RETURN_NOT_OK(rhs_->EvalBatch(batch, undecided, &r));
    for (uint32_t pos : undecided) {
      (*out)[pos] = Value::Boolean(!r[pos].is_null() && r[pos].AsBool());
    }
  }
  return Status::OK();
}

Result<Value> ArithExpr::Eval(const Row& row) const {
  ELE_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
  ELE_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
  return EvalArithOp(op_, l, r);
}

Status ArithExpr::EvalBatch(const Batch& batch,
                            const std::vector<uint32_t>& positions,
                            std::vector<Value>* out) const {
  std::vector<Value> l, r;
  ELE_RETURN_NOT_OK(lhs_->EvalBatch(batch, positions, &l));
  ELE_RETURN_NOT_OK(rhs_->EvalBatch(batch, positions, &r));
  out->resize(batch.num_rows());
  for (uint32_t pos : positions) {
    ELE_ASSIGN_OR_RETURN((*out)[pos], EvalArithOp(op_, l[pos], r[pos]));
  }
  return Status::OK();
}

TypeId ArithExpr::output_type() const {
  if (op_ == ArithOp::kDiv) return TypeId::kDouble;
  const TypeId a = lhs_->output_type();
  const TypeId b = rhs_->output_type();
  if (a == TypeId::kDouble || b == TypeId::kDouble) return TypeId::kDouble;
  if (a == TypeId::kDecimal || b == TypeId::kDecimal) return TypeId::kDecimal;
  if (a == TypeId::kInt64 || b == TypeId::kInt64) return TypeId::kInt64;
  if (a == TypeId::kDate || b == TypeId::kDate) return TypeId::kDate;
  return TypeId::kInt32;
}

Result<Value> NotExpr::Eval(const Row& row) const {
  ELE_ASSIGN_OR_RETURN(Value v, child_->Eval(row));
  if (v.is_null()) return Value::Null(TypeId::kBoolean);
  return Value::Boolean(!v.AsBool());
}

Status NotExpr::EvalBatch(const Batch& batch,
                          const std::vector<uint32_t>& positions,
                          std::vector<Value>* out) const {
  std::vector<Value> c;
  ELE_RETURN_NOT_OK(child_->EvalBatch(batch, positions, &c));
  out->resize(batch.num_rows());
  for (uint32_t pos : positions) {
    (*out)[pos] = c[pos].is_null() ? Value::Null(TypeId::kBoolean)
                                   : Value::Boolean(!c[pos].AsBool());
  }
  return Status::OK();
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
  std::vector<Value> verdicts;
  ELE_RETURN_NOT_OK(pred.EvalBatch(*batch, positions, &verdicts));
  std::vector<uint32_t> keep;
  keep.reserve(positions.size());
  for (uint32_t pos : positions) {
    if (!verdicts[pos].is_null() && verdicts[pos].AsBool()) keep.push_back(pos);
  }
  batch->SetSelection(std::move(keep));
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

Status AggState::Accumulate(const Value& v) {
  if (fn_ == AggFunc::kCountStar) {
    count_++;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();
  count_++;
  switch (fn_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (!has_value_) {
        // Widen to the SUM domain so int32 sums don't overflow.
        if (v.type() == TypeId::kInt32) {
          acc_ = Value::Int64(v.AsInt64());
        } else {
          acc_ = v;
        }
      } else {
        ELE_ASSIGN_OR_RETURN(acc_, acc_.Add(v));
      }
      has_value_ = true;
      break;
    case AggFunc::kMin:
      if (!has_value_ || v.Compare(acc_) < 0) acc_ = v;
      has_value_ = true;
      break;
    case AggFunc::kMax:
      if (!has_value_ || v.Compare(acc_) > 0) acc_ = v;
      has_value_ = true;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

namespace {

/// Column type of the sum slot in an AVG partial state: the accumulation
/// domain of the argument (matches AggState::Accumulate's widening).
TypeId AvgSumType(const AggSpec& spec) {
  const TypeId t = spec.arg->output_type();
  if (t == TypeId::kDouble) return TypeId::kDouble;
  if (t == TypeId::kDecimal) return TypeId::kDecimal;
  return TypeId::kInt64;
}

}  // namespace

void AggState::AppendPartialColumns(const AggSpec& spec, std::vector<Column>* cols) {
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
      cols->emplace_back(base + "$sum", AvgSumType(spec));
      cols->emplace_back(base + "$count", TypeId::kInt64);
      break;
  }
}

void AggState::AppendPartial(Row* out) const {
  switch (fn_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      out->push_back(Value::Int64(count_));
      break;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      out->push_back(has_value_ ? acc_ : Value::Null(acc_.type()));
      break;
    case AggFunc::kAvg:
      out->push_back(has_value_ ? acc_ : Value::Null(acc_.type()));
      out->push_back(Value::Int64(count_));
      break;
  }
}

Status AggState::MergePartial(const Value& v, const Value& avg_count) {
  switch (fn_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      count_ += v.AsInt64();
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (!v.is_null()) {
        if (!has_value_) {
          acc_ = v;
        } else {
          ELE_ASSIGN_OR_RETURN(acc_, acc_.Add(v));
        }
        has_value_ = true;
      }
      if (fn_ == AggFunc::kAvg) count_ += avg_count.AsInt64();
      break;
    }
    case AggFunc::kMin: {
      if (!v.is_null() && (!has_value_ || v.Compare(acc_) < 0)) {
        acc_ = v;
        has_value_ = true;
      }
      break;
    }
    case AggFunc::kMax: {
      if (!v.is_null() && (!has_value_ || v.Compare(acc_) > 0)) {
        acc_ = v;
        has_value_ = true;
      }
      break;
    }
  }
  return Status::OK();
}

Value AggState::Finalize() const {
  switch (fn_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(count_);
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return has_value_ ? acc_ : Value::Null(acc_.type());
    case AggFunc::kAvg: {
      if (count_ == 0) return Value::Null(TypeId::kDouble);
      double sum = acc_.type() == TypeId::kDecimal
                       ? static_cast<double>(acc_.AsInt64()) / decimal::kScale
                       : acc_.AsDouble();
      return Value::Double(sum / static_cast<double>(count_));
    }
  }
  return Value();
}

}  // namespace elephant
