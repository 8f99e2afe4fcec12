#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace elephant {

/// A single runtime value: a tagged union over the engine's type system,
/// plus a NULL marker. Values are what expression evaluation produces and
/// what `Row`s are made of before serialization into tuples.
class Value {
 public:
  /// Constructs a NULL of invalid type.
  Value() : type_(TypeId::kInvalid), is_null_(true) {}

  /// Constructs a typed NULL.
  static Value Null(TypeId t) {
    Value v;
    v.type_ = t;
    v.is_null_ = true;
    return v;
  }

  static Value Boolean(bool b) { return Value(TypeId::kBoolean, b ? 1 : 0); }
  static Value Int32(int32_t i) { return Value(TypeId::kInt32, i); }
  static Value Int64(int64_t i) { return Value(TypeId::kInt64, i); }
  static Value Date(int32_t days) { return Value(TypeId::kDate, days); }
  /// `scaled` is the fixed-point representation (x100).
  static Value Decimal(int64_t scaled) { return Value(TypeId::kDecimal, scaled); }
  /// A non-NULL value of an integer-payload type (BOOLEAN, INT32, INT64,
  /// DATE, DECIMAL scaled) from its payload.
  static Value FromInt(TypeId t, int64_t payload) {
    return t == TypeId::kBoolean ? Boolean(payload != 0) : Value(t, payload);
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.real_ = d;
    return v;
  }
  static Value Char(std::string s) {
    Value v;
    v.type_ = TypeId::kChar;
    v.is_null_ = false;
    v.str_ = std::move(s);
    return v;
  }
  static Value Varchar(std::string s) {
    Value v;
    v.type_ = TypeId::kVarchar;
    v.is_null_ = false;
    v.str_ = std::move(s);
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool AsBool() const { return ival_ != 0; }
  int32_t AsInt32() const { return static_cast<int32_t>(ival_); }
  /// Integer payload for kInt32/kInt64/kDate/kDecimal/kBoolean.
  int64_t AsInt64() const { return ival_; }
  /// Numeric value in the double domain (decimals are unscaled: 1.50 -> 1.5).
  double AsDouble() const {
    if (type_ == TypeId::kDouble) return real_;
    if (type_ == TypeId::kDecimal) {
      return static_cast<double>(ival_) / static_cast<double>(decimal::kScale);
    }
    return static_cast<double>(ival_);
  }
  const std::string& AsString() const { return str_; }

  /// Three-way comparison. NULLs order before all non-NULLs (for sorting);
  /// numeric types compare cross-type via a common domain.
  /// Comparing a string type against a numeric type is a programming error.
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return Compare(o) != 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Stable hash (used by hash join / hash aggregation).
  uint64_t Hash() const;

  /// Arithmetic over numeric values; result type follows the wider operand
  /// (int32 < int64 ~ decimal < double). DECIMAL*DECIMAL keeps scale 2.
  /// NULL operands yield NULL. Errors on non-numeric operands.
  Result<Value> Add(const Value& o) const;
  Result<Value> Subtract(const Value& o) const;
  Result<Value> Multiply(const Value& o) const;

  /// Coerces this value to `target` if a lossless conversion exists
  /// (int widths, int->decimal/double, char<->varchar).
  Result<Value> CastTo(TypeId target) const;

  /// Human-readable rendering (dates as YYYY-MM-DD, decimals with 2 digits).
  std::string ToString() const;

 private:
  Value(TypeId t, int64_t i) : type_(t), is_null_(false), ival_(i) {}
  /// Add, Subtract and Multiply: `op` is '+', '-' or '*' (see arith).
  Result<Value> Arith(char op, const Value& o) const;

  TypeId type_;
  bool is_null_;
  int64_t ival_ = 0;
  double real_ = 0;
  std::string str_;
};

/// Typed halves of Value::Hash: a NULL of any type, a non-NULL integer
/// payload (BOOLEAN, INT32, INT64, DATE, DECIMAL scaled), a DOUBLE (by its
/// bits, so -0.0 and 0.0 differ) and a CHAR or VARCHAR (trailing spaces
/// dropped, so it agrees with ComparePadded equality).
uint64_t HashNull();
uint64_t HashInt(int64_t v);
uint64_t HashDouble(double d);
uint64_t HashString(std::string_view s);

/// Compares strings with trailing-space-insensitive semantics (ANSI CHAR
/// padding): "ab" == "ab  ". Value::Compare's rule for two strings.
int ComparePadded(std::string_view a, std::string_view b);

/// The typed core of Value's +, - and *, shared with the batch kernels so
/// both agree bit for bit. `op` is '+', '-' or '*'.
namespace arith {

/// The type of `l op r` for operands of types `l` and `r`, or the
/// InvalidArgument the Value operator returns for that pair whatever the
/// operands' values: DATE +/- integer is DATE, DATE - DATE is INT32, other
/// DATE arithmetic and non-numeric operands fail, and numeric types widen
/// (INT32 < INT64 < DECIMAL < DOUBLE). An untyped NULL (kInvalid) operand
/// makes the untyped NULL.
Result<TypeId> ResultType(char op, TypeId l, TypeId r);

/// `a op b` where `a` and `b` are the integer payloads of types `l` and `r`
/// and `result` = ResultType(op, l, r) is not DOUBLE. Integers scale into
/// DECIMAL, DECIMAL products keep scale 2, and a result that overflows
/// INT64 or leaves INT32/DATE range fails instead of wrapping.
Result<int64_t> IntOp(char op, TypeId result, TypeId l, int64_t a, TypeId r,
                      int64_t b);

/// `a op b` in the DOUBLE domain.
inline double DoubleOp(char op, double a, double b) {
  return op == '+' ? a + b : (op == '-' ? a - b : a * b);
}

}  // namespace arith

}  // namespace elephant
