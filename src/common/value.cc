#include "common/value.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace elephant {

namespace {

/// True if both operate in the integer domain (everything numeric but double).
bool BothIntegral(TypeId a, TypeId b) {
  return a != TypeId::kDouble && b != TypeId::kDouble;
}

bool IsStringType(TypeId t) { return t == TypeId::kChar || t == TypeId::kVarchar; }

}  // namespace

int ComparePadded(std::string_view a, std::string_view b) {
  size_t la = a.size(), lb = b.size();
  while (la > 0 && a[la - 1] == ' ') la--;
  while (lb > 0 && b[lb - 1] == ' ') lb--;
  int c = std::memcmp(a.data(), b.data(), std::min(la, lb));
  if (c != 0) return c < 0 ? -1 : 1;
  if (la == lb) return 0;
  return la < lb ? -1 : 1;
}

int Value::Compare(const Value& other) const {
  if (is_null_ || other.is_null_) {
    if (is_null_ && other.is_null_) return 0;
    return is_null_ ? -1 : 1;
  }
  if (IsStringType(type_) && IsStringType(other.type_)) {
    return ComparePadded(str_, other.str_);
  }
  assert(!IsStringType(type_) && !IsStringType(other.type_) &&
         "cannot compare string with non-string");
  // DECIMAL has a scale: compare in double domain when mixed with plain ints
  // of a *different* kind is unnecessary here because the engine only compares
  // like columns or int literals against int columns; decimals only meet
  // decimals or doubles.
  if (type_ == TypeId::kDecimal || other.type_ == TypeId::kDecimal) {
    if (type_ == other.type_) {
      return ival_ < other.ival_ ? -1 : (ival_ > other.ival_ ? 1 : 0);
    }
    double a = type_ == TypeId::kDecimal ? static_cast<double>(ival_) / decimal::kScale
                                         : AsDouble();
    double b = other.type_ == TypeId::kDecimal
                   ? static_cast<double>(other.ival_) / decimal::kScale
                   : other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (BothIntegral(type_, other.type_)) {
    return ival_ < other.ival_ ? -1 : (ival_ > other.ival_ ? 1 : 0);
  }
  double a = AsDouble(), b = other.AsDouble();
  return a < b ? -1 : (a > b ? 1 : 0);
}

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint64_t HashNull() { return 0x9e3779b97f4a7c15ull; }

uint64_t HashInt(int64_t v) { return Mix(static_cast<uint64_t>(v)); }

uint64_t HashDouble(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(bits);
}

uint64_t HashString(std::string_view s) {
  // FNV-1a over the unpadded bytes.
  size_t len = s.size();
  while (len > 0 && s[len - 1] == ' ') len--;
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; i++) {
    h ^= static_cast<unsigned char>(s[i]);
    h *= 1099511628211ull;
  }
  return Mix(h);
}

uint64_t Value::Hash() const {
  if (is_null_) return HashNull();
  if (IsStringType(type_)) return HashString(str_);
  if (type_ == TypeId::kDouble) return HashDouble(real_);
  return HashInt(ival_);
}

namespace {

Status NonNumeric(TypeId a, TypeId b) {
  return Status::InvalidArgument(std::string("arithmetic on non-numeric types ") +
                                 TypeName(a) + "/" + TypeName(b));
}

TypeId WiderOf(TypeId a, TypeId b) {
  if (a == TypeId::kDouble || b == TypeId::kDouble) return TypeId::kDouble;
  if (a == TypeId::kDecimal || b == TypeId::kDecimal) return TypeId::kDecimal;
  if (a == TypeId::kInt64 || b == TypeId::kInt64) return TypeId::kInt64;
  return TypeId::kInt32;
}

/// Checked INT64-domain arithmetic. All integer arithmetic in this file
/// funnels through these three so an overflow surfaces as InvalidArgument
/// instead of wrapping (signed overflow is UB, and a silently wrapped SUM
/// is a wrong answer the differential harness can't even catch — both
/// engines would wrap identically). `what` names the operation.
Result<int64_t> CheckedAdd64(int64_t a, int64_t b, const char* what) {
  int64_t r;
  if (__builtin_add_overflow(a, b, &r)) {
    return Status::InvalidArgument(std::string(what) + " overflows INT64");
  }
  return r;
}

Result<int64_t> CheckedSub64(int64_t a, int64_t b, const char* what) {
  int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) {
    return Status::InvalidArgument(std::string(what) + " overflows INT64");
  }
  return r;
}

Result<int64_t> CheckedMul64(int64_t a, int64_t b, const char* what) {
  int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) {
    return Status::InvalidArgument(std::string(what) + " overflows INT64");
  }
  return r;
}

/// Integer payload `v` of type `from` in the `target` integer domain.
/// Fails when scaling an integer into the DECIMAL domain overflows (the
/// decimal payload is the value x100, so values near INT64_MAX don't fit).
Result<int64_t> ToIntegralDomain(TypeId from, int64_t v, TypeId target) {
  if (target == TypeId::kDecimal && from != TypeId::kDecimal) {
    return CheckedMul64(v, decimal::kScale, "DECIMAL scaling");
  }
  return v;
}

/// Narrows an arithmetic result to the INT32 domain, failing instead of
/// silently wrapping. Every narrowing in this file must go through here;
/// `what` names the operation for the error message.
Result<int32_t> NarrowToInt32(int64_t v, const char* what) {
  if (v < std::numeric_limits<int32_t>::min() ||
      v > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(std::string(what) +
                                   " out of INT32 range: " + std::to_string(v));
  }
  // The range check above makes this the checked helper the lint rule
  // points everything else at. lint:allow(unchecked-narrowing)
  return static_cast<int32_t>(v);
}

}  // namespace

namespace arith {

Result<TypeId> ResultType(char op, TypeId l, TypeId r) {
  // The untyped NULL: arithmetic with it is NULL, whatever the other side.
  if (l == TypeId::kInvalid || r == TypeId::kInvalid) return TypeId::kInvalid;
  const bool int_l = l == TypeId::kInt32 || l == TypeId::kInt64;
  const bool int_r = r == TypeId::kInt32 || r == TypeId::kInt64;
  if (op == '+' && (l == TypeId::kDate || r == TypeId::kDate)) {
    // DATE + integer -> DATE (days).
    if ((l == TypeId::kDate && int_r) || (r == TypeId::kDate && int_l)) {
      return TypeId::kDate;
    }
    return Status::InvalidArgument("unsupported DATE addition");
  }
  if (op == '-' && l == TypeId::kDate) {
    // DATE - integer -> DATE; DATE - DATE -> day count.
    if (r == TypeId::kDate) return TypeId::kInt32;
    if (int_r) return TypeId::kDate;
    return Status::InvalidArgument("unsupported DATE subtraction");
  }
  if (op == '-' && r == TypeId::kDate) {
    return Status::InvalidArgument("cannot subtract DATE from a number");
  }
  if (!IsNumeric(l) || !IsNumeric(r)) return NonNumeric(l, r);
  return WiderOf(l, r);
}

Result<int64_t> IntOp(char op, TypeId result, TypeId l, int64_t a, TypeId r,
                      int64_t b) {
  if (l == TypeId::kDate || r == TypeId::kDate) {
    const char* what = op == '+' ? "DATE + integer"
                       : r == TypeId::kDate ? "DATE - DATE"
                                            : "DATE - integer";
    ELE_ASSIGN_OR_RETURN(int64_t v, op == '+' ? CheckedAdd64(a, b, what)
                                              : CheckedSub64(a, b, what));
    ELE_ASSIGN_OR_RETURN(int32_t days, NarrowToInt32(v, what));
    return days;
  }
  const bool dec = result == TypeId::kDecimal;
  ELE_ASSIGN_OR_RETURN(a, ToIntegralDomain(l, a, result));
  ELE_ASSIGN_OR_RETURN(b, ToIntegralDomain(r, b, result));
  int64_t v;
  if (op == '+') {
    ELE_ASSIGN_OR_RETURN(v, CheckedAdd64(a, b, dec ? "DECIMAL addition" : "addition"));
  } else if (op == '-') {
    ELE_ASSIGN_OR_RETURN(
        v, CheckedSub64(a, b, dec ? "DECIMAL subtraction" : "subtraction"));
  } else if (dec) {
    // Keep scale 2: (a*100)*(b*100)/100. The intermediate product carries
    // both scale factors, so it can overflow even when the final quotient
    // would fit; erring there is deliberate (no silent wrap, ever).
    ELE_ASSIGN_OR_RETURN(v, CheckedMul64(a, b, "DECIMAL multiplication"));
    return v / decimal::kScale;
  } else {
    ELE_ASSIGN_OR_RETURN(v, CheckedMul64(a, b, "multiplication"));
  }
  if (result != TypeId::kInt32) return v;
  ELE_ASSIGN_OR_RETURN(int32_t narrow,
                       NarrowToInt32(v, op == '+'   ? "INT32 addition"
                                        : op == '-' ? "INT32 subtraction"
                                                    : "INT32 multiplication"));
  return narrow;
}

}  // namespace arith

Result<Value> Value::Arith(char op, const Value& o) const {
  ELE_ASSIGN_OR_RETURN(TypeId t, arith::ResultType(op, type_, o.type_));
  if (is_null_ || o.is_null_) return Value::Null(t);
  if (t == TypeId::kDouble) {
    return Value::Double(arith::DoubleOp(op, AsDouble(), o.AsDouble()));
  }
  ELE_ASSIGN_OR_RETURN(int64_t r,
                       arith::IntOp(op, t, type_, ival_, o.type_, o.ival_));
  return Value::FromInt(t, r);
}

Result<Value> Value::Add(const Value& o) const { return Arith('+', o); }
Result<Value> Value::Subtract(const Value& o) const { return Arith('-', o); }
Result<Value> Value::Multiply(const Value& o) const { return Arith('*', o); }

Result<Value> Value::CastTo(TypeId target) const {
  if (type_ == target) return *this;
  if (is_null_) return Value::Null(target);
  switch (target) {
    case TypeId::kInt64:
      if (type_ == TypeId::kInt32 || type_ == TypeId::kDate) return Value::Int64(ival_);
      break;
    case TypeId::kInt32:
      if (type_ == TypeId::kInt64) {
        ELE_ASSIGN_OR_RETURN(int32_t narrow,
                             NarrowToInt32(ival_, "CAST to INT32"));
        return Value::Int32(narrow);
      }
      break;
    case TypeId::kDate:
      if (type_ == TypeId::kInt32 || type_ == TypeId::kInt64) {
        ELE_ASSIGN_OR_RETURN(int32_t days, NarrowToInt32(ival_, "CAST to DATE"));
        return Value::Date(days);
      }
      if (type_ == TypeId::kVarchar || type_ == TypeId::kChar) {
        ELE_ASSIGN_OR_RETURN(int32_t d, date::Parse(str_));
        return Value::Date(d);
      }
      break;
    case TypeId::kDecimal:
      if (type_ == TypeId::kInt32 || type_ == TypeId::kInt64) {
        ELE_ASSIGN_OR_RETURN(int64_t scaled,
                             CheckedMul64(ival_, decimal::kScale, "CAST to DECIMAL"));
        return Value::Decimal(scaled);
      }
      if (type_ == TypeId::kDouble) {
        return Value::Decimal(static_cast<int64_t>(std::llround(real_ * decimal::kScale)));
      }
      break;
    case TypeId::kDouble:
      return Value::Double(AsDouble());
    case TypeId::kChar:
      if (type_ == TypeId::kVarchar) return Value::Char(str_);
      break;
    case TypeId::kVarchar:
      if (type_ == TypeId::kChar) return Value::Varchar(str_);
      break;
    default:
      break;
  }
  return Status::InvalidArgument(std::string("cannot cast ") + TypeName(type_) +
                                 " to " + TypeName(target));
}

std::string Value::ToString() const {
  if (is_null_) return "NULL";
  switch (type_) {
    case TypeId::kBoolean: return ival_ ? "true" : "false";
    case TypeId::kInt32:
    case TypeId::kInt64: return std::to_string(ival_);
    case TypeId::kDate:
      // A DATE payload was stored through Value::Date(int32_t), so it is in
      // range by construction. lint:allow(unchecked-narrowing)
      return date::ToString(static_cast<int32_t>(ival_));
    case TypeId::kDecimal: return decimal::ToString(ival_);
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", real_);
      return buf;
    }
    case TypeId::kChar:
    case TypeId::kVarchar: return str_;
    case TypeId::kInvalid: return "<invalid>";
  }
  return "<?>";
}

}  // namespace elephant
