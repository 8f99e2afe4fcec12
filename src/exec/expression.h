#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"

namespace elephant {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);

/// Scalar comparison (Expr::Eval): NULL operands yield false.
Result<Value> EvalCompareOp(CompareOp op, const Value& l, const Value& r);

/// Scalar arithmetic (Expr::Eval). `/` always yields DOUBLE; division by
/// zero is an error.
Result<Value> EvalArithOp(ArithOp op, const Value& l, const Value& r);

/// A scalar expression evaluated against a single input row. Column
/// references are positional (resolved by the binder/planner); join
/// executors evaluate expressions against the concatenated row.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against `row`. Comparison of NULL operands yields false
  /// (simplified SQL three-valued logic: NULL never satisfies a filter).
  virtual Result<Value> Eval(const Row& row) const = 0;

  /// Vectorized evaluation: computes this expression at each physical row
  /// index listed in `positions` and returns the result column. A column
  /// reference returns the batch's own column (no copy); every other node
  /// fills `*scratch` with batch.num_rows() cells, of which the ones at
  /// positions NOT listed are unspecified and must never be read. Taking an
  /// explicit position list (rather than evaluating the whole batch) keeps
  /// batch semantics identical to per-row Eval: side-effecting expressions
  /// such as `10 / x` are never evaluated at rows a preceding filter
  /// rejected, and AND/OR short-circuit positionally exactly like Eval.
  /// The kernels are loops over the operands' typed lanes.
  virtual Result<const ColumnVector*> EvalBatch(
      const Batch& batch, const std::vector<uint32_t>& positions,
      ColumnVector* scratch) const = 0;

  /// A one-row column holding this expression's value when it is a
  /// constant (a literal), which kernels read at row 0 for every row;
  /// nullptr otherwise.
  virtual const ColumnVector* constant() const { return nullptr; }

  /// Static result type.
  virtual TypeId output_type() const = 0;

  /// Width for CHAR results (0 otherwise). Needed so schemas derived from
  /// expressions keep fixed-width string layouts intact.
  virtual uint32_t output_length() const { return 0; }

  virtual std::string ToString() const = 0;

  virtual ExprPtr Clone() const = 0;

  /// Collects all column indices referenced by this expression.
  virtual void CollectColumns(std::vector<size_t>* out) const = 0;

  /// Rewrites every column index i to i + delta (used when an expression
  /// moves across a join boundary).
  virtual void ShiftColumns(int delta) = 0;

  /// Rewrites every column index i to mapping[i]. Entries of -1 mark columns
  /// that must not be referenced (programming error if hit).
  virtual void RemapColumns(const std::vector<int>& mapping) = 0;
};

/// Positional column reference.
class ColumnExpr final : public Expr {
 public:
  ColumnExpr(size_t index, TypeId type, std::string name = "", uint32_t length = 0)
      : index_(index), type_(type), name_(std::move(name)), length_(length) {}

  Result<Value> Eval(const Row& row) const override {
    if (index_ >= row.size()) {
      return Status::ExecError("column index " + std::to_string(index_) +
                               " out of range (row arity " +
                               std::to_string(row.size()) + ")");
    }
    return row[index_];
  }
  Result<const ColumnVector*> EvalBatch(const Batch& batch,
                                        const std::vector<uint32_t>& positions,
                                        ColumnVector* scratch) const override;
  TypeId output_type() const override { return type_; }
  uint32_t output_length() const override { return length_; }
  std::string ToString() const override {
    return name_.empty() ? "#" + std::to_string(index_) : name_;
  }
  ExprPtr Clone() const override {
    return std::make_unique<ColumnExpr>(index_, type_, name_, length_);
  }
  void CollectColumns(std::vector<size_t>* out) const override {
    out->push_back(index_);
  }
  void ShiftColumns(int delta) override {
    index_ = static_cast<size_t>(static_cast<long>(index_) + delta);
  }
  void RemapColumns(const std::vector<int>& mapping) override {
    assert(index_ < mapping.size() && mapping[index_] >= 0 &&
           "column remap to unavailable position");
    index_ = static_cast<size_t>(mapping[index_]);
  }

  size_t index() const { return index_; }

 private:
  size_t index_;
  TypeId type_;
  std::string name_;
  uint32_t length_;
};

/// Constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)), constant_(value_.type()) {
    // lint:allow(value-in-batch-kernel): a literal enters as a Value.
    constant_.AppendValue(value_);
  }

  Result<Value> Eval(const Row&) const override { return value_; }
  Result<const ColumnVector*> EvalBatch(const Batch& batch,
                                        const std::vector<uint32_t>& positions,
                                        ColumnVector* scratch) const override;
  const ColumnVector* constant() const override { return &constant_; }
  TypeId output_type() const override { return value_.type(); }
  uint32_t output_length() const override {
    return value_.type() == TypeId::kChar
               ? static_cast<uint32_t>(value_.AsString().size())
               : 0;
  }
  std::string ToString() const override { return value_.ToString(); }
  ExprPtr Clone() const override { return std::make_unique<LiteralExpr>(value_); }
  void CollectColumns(std::vector<size_t>*) const override {}
  void ShiftColumns(int) override {}
  void RemapColumns(const std::vector<int>&) override {}

  const Value& value() const { return value_; }

 private:
  Value value_;
  ColumnVector constant_;  ///< value_ as a one-row column
};

/// Binary comparison; returns BOOLEAN (false when either side is NULL).
class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Row& row) const override;
  Result<const ColumnVector*> EvalBatch(const Batch& batch,
                                        const std::vector<uint32_t>& positions,
                                        ColumnVector* scratch) const override;
  TypeId output_type() const override { return TypeId::kBoolean; }
  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + CompareOpName(op_) + " " +
           rhs_->ToString() + ")";
  }
  ExprPtr Clone() const override {
    return std::make_unique<CompareExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }
  void CollectColumns(std::vector<size_t>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  void ShiftColumns(int delta) override {
    lhs_->ShiftColumns(delta);
    rhs_->ShiftColumns(delta);
  }
  void RemapColumns(const std::vector<int>& mapping) override {
    lhs_->RemapColumns(mapping);
    rhs_->RemapColumns(mapping);
  }

  CompareOp op() const { return op_; }
  const Expr* lhs() const { return lhs_.get(); }
  const Expr* rhs() const { return rhs_.get(); }
  ExprPtr TakeLhs() { return std::move(lhs_); }
  ExprPtr TakeRhs() { return std::move(rhs_); }

 private:
  CompareOp op_;
  ExprPtr lhs_, rhs_;
};

/// AND / OR over boolean operands.
class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Row& row) const override;
  Result<const ColumnVector*> EvalBatch(const Batch& batch,
                                        const std::vector<uint32_t>& positions,
                                        ColumnVector* scratch) const override;
  TypeId output_type() const override { return TypeId::kBoolean; }
  std::string ToString() const override {
    return "(" + lhs_->ToString() + (op_ == LogicalOp::kAnd ? " AND " : " OR ") +
           rhs_->ToString() + ")";
  }
  ExprPtr Clone() const override {
    return std::make_unique<LogicalExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }
  void CollectColumns(std::vector<size_t>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  void ShiftColumns(int delta) override {
    lhs_->ShiftColumns(delta);
    rhs_->ShiftColumns(delta);
  }
  void RemapColumns(const std::vector<int>& mapping) override {
    lhs_->RemapColumns(mapping);
    rhs_->RemapColumns(mapping);
  }

  LogicalOp op() const { return op_; }
  const Expr* lhs() const { return lhs_.get(); }
  const Expr* rhs() const { return rhs_.get(); }
  ExprPtr TakeLhs() { return std::move(lhs_); }
  ExprPtr TakeRhs() { return std::move(rhs_); }

 private:
  LogicalOp op_;
  ExprPtr lhs_, rhs_;
};

/// +, -, *, / over numeric operands.
class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Result<Value> Eval(const Row& row) const override;
  Result<const ColumnVector*> EvalBatch(const Batch& batch,
                                        const std::vector<uint32_t>& positions,
                                        ColumnVector* scratch) const override;
  TypeId output_type() const override;
  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + ArithOpName(op_) + " " +
           rhs_->ToString() + ")";
  }
  ExprPtr Clone() const override {
    return std::make_unique<ArithExpr>(op_, lhs_->Clone(), rhs_->Clone());
  }
  void CollectColumns(std::vector<size_t>* out) const override {
    lhs_->CollectColumns(out);
    rhs_->CollectColumns(out);
  }
  void ShiftColumns(int delta) override {
    lhs_->ShiftColumns(delta);
    rhs_->ShiftColumns(delta);
  }
  void RemapColumns(const std::vector<int>& mapping) override {
    lhs_->RemapColumns(mapping);
    rhs_->RemapColumns(mapping);
  }

 private:
  ArithOp op_;
  ExprPtr lhs_, rhs_;
};

/// NOT over a boolean operand (NULL stays NULL -> filter-false).
class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}

  Result<Value> Eval(const Row& row) const override;
  Result<const ColumnVector*> EvalBatch(const Batch& batch,
                                        const std::vector<uint32_t>& positions,
                                        ColumnVector* scratch) const override;
  TypeId output_type() const override { return TypeId::kBoolean; }
  std::string ToString() const override { return "NOT " + child_->ToString(); }
  ExprPtr Clone() const override {
    return std::make_unique<NotExpr>(child_->Clone());
  }
  void CollectColumns(std::vector<size_t>* out) const override {
    child_->CollectColumns(out);
  }
  void ShiftColumns(int delta) override { child_->ShiftColumns(delta); }
  void RemapColumns(const std::vector<int>& mapping) override {
    child_->RemapColumns(mapping);
  }

 private:
  ExprPtr child_;
};

// ---- Convenience constructors ----

inline ExprPtr Col(size_t i, TypeId t, std::string name = "", uint32_t length = 0) {
  return std::make_unique<ColumnExpr>(i, t, std::move(name), length);
}
inline ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }
inline ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<CompareExpr>(op, std::move(l), std::move(r));
}
inline ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(l), std::move(r));
}
inline ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_unique<LogicalExpr>(LogicalOp::kOr, std::move(l), std::move(r));
}
inline ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<ArithExpr>(op, std::move(l), std::move(r));
}

/// ANDs a list of predicates (nullptr when empty).
ExprPtr ConjoinAll(std::vector<ExprPtr> preds);

/// Splits a predicate tree into its top-level AND conjuncts.
void SplitConjuncts(ExprPtr pred, std::vector<ExprPtr>* out);

/// Evaluates `pred` as a filter: true iff it evaluates to non-NULL true.
Result<bool> EvalPredicate(const Expr& pred, const Row& row);

/// Vectorized filter: evaluates `pred` at the live rows of `*batch` and
/// narrows the selection vector to those where it is non-NULL true —
/// row-for-row the same acceptance test as EvalPredicate.
Status ApplyFilterToBatch(const Expr& pred, Batch* batch);

/// Evaluates `exprs` at `positions` of `in`: (*cols)[i] is expression i's
/// result column, either a column of `in` or (*scratch)[i].
Status EvalColumns(const std::vector<ExprPtr>& exprs, const Batch& in,
                   const std::vector<uint32_t>& positions,
                   std::vector<const ColumnVector*>* cols,
                   std::vector<ColumnVector>* scratch);

// ---- Aggregates ----

enum class AggFunc { kCountStar, kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc fn);

/// One aggregate in a SELECT list: the function and its argument
/// (nullptr for COUNT(*)).
struct AggSpec {
  AggFunc fn;
  ExprPtr arg;
  std::string name;

  AggSpec(AggFunc f, ExprPtr a, std::string n = "")
      : fn(f), arg(std::move(a)), name(std::move(n)) {}
  AggSpec Clone() const {
    return AggSpec(fn, arg ? arg->Clone() : nullptr, name);
  }

  /// Result type of the aggregate given its argument type.
  TypeId OutputType() const;

  /// CHAR width of the result (nonzero only for MIN/MAX of CHAR columns).
  uint32_t OutputLength() const {
    return (fn == AggFunc::kMin || fn == AggFunc::kMax) && arg != nullptr
               ? arg->output_length()
               : 0;
  }
};

/// The running states of one aggregate for every group of an aggregation,
/// by dense group id, folded straight from typed argument columns: a count
/// per group, and for SUM/AVG/MIN/MAX a has-value flag and the running
/// value in the lane of the accumulator's type. SUM and AVG accumulate in
/// the SUM domain (INT64 for integers, DECIMAL scaled, DOUBLE) with the
/// overflow checks of Value::Add; MIN and MAX keep the first of equal
/// values (Value::Compare order). A group folds its rows in input order, so
/// floating-point sums come out the same every run.
///
/// For parallel execution the state also has a *partial* (transfer)
/// representation — the columns a worker emits so a final aggregate can
/// merge per-morsel states exactly: COUNT carries its count, SUM/MIN/MAX
/// carry the running value, and AVG carries its (sum, count) pair so the
/// final division happens once, identically to serial execution.
class AggStates {
 public:
  explicit AggStates(const AggSpec& spec);

  size_t size() const { return counts_.size(); }
  /// Adds a group with an empty state; its id is the previous size().
  void AddGroup();
  /// Drops every group.
  void Clear();

  /// Folds row positions[i] of `arg` (null for COUNT(*)) into group
  /// groups[i], for each i in order; NULLs are skipped per SQL.
  Status Fold(const ColumnVector* arg, const std::vector<uint32_t>& positions,
              const std::vector<uint32_t>& groups);

  /// Folds partial representations: row positions[i] of `v` (the first
  /// partial column) and `avg_count` (the second; read only for AVG) into
  /// group groups[i].
  Status Merge(const ColumnVector& v, const ColumnVector& avg_count,
               const std::vector<uint32_t>& positions,
               const std::vector<uint32_t>& groups);

  /// Appends group `g`'s final value to `out`.
  void AppendFinal(uint32_t g, ColumnVector* out) const;
  /// Appends group `g`'s partial representation to columns [col, col +
  /// PartialWidth) of `out`.
  void AppendPartial(uint32_t g, Batch* out, size_t col) const;

  /// Number of columns the partial representation of `fn` occupies.
  static size_t PartialWidth(AggFunc fn) { return fn == AggFunc::kAvg ? 2 : 1; }

  /// Appends the partial-representation column(s) for `spec` to `cols`.
  static void AppendPartialColumns(const AggSpec& spec, std::vector<Column>* cols);

 private:
  /// Folds one non-NULL cell into group g's running value.
  Status Add(uint32_t g, const ColumnVector& v, uint32_t r);

  AggFunc fn_;
  TypeId type_;  ///< the running value's type (SUM domain, or MIN/MAX arg)
  bool summable_;  ///< SUM/AVG: the argument type has arithmetic
  /// MIN/MAX: the domain a value compares with the running value in (both
  /// have type_, so it is type_'s own lane).
  CompareDomain compare_;
  std::vector<int64_t> counts_;
  std::vector<uint8_t> has_;
  /// Running values, by group, in the lane of type_.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace elephant
