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

/// Compares strings with trailing-space-insensitive semantics (ANSI CHAR
/// padding): "ab" == "ab  ".
int ComparePadded(const std::string& a, const std::string& b) {
  size_t la = a.size(), lb = b.size();
  while (la > 0 && a[la - 1] == ' ') la--;
  while (lb > 0 && b[lb - 1] == ' ') lb--;
  int c = std::memcmp(a.data(), b.data(), std::min(la, lb));
  if (c != 0) return c < 0 ? -1 : 1;
  if (la == lb) return 0;
  return la < lb ? -1 : 1;
}

}  // namespace

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

uint64_t Value::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ull;
  auto mix = [](uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  };
  if (IsStringType(type_)) {
    // FNV-1a over the unpadded bytes so CHAR/VARCHAR hash consistently
    // with ComparePadded equality.
    size_t len = str_.size();
    while (len > 0 && str_[len - 1] == ' ') len--;
    uint64_t h = 1469598103934665603ull;
    for (size_t i = 0; i < len; i++) {
      h ^= static_cast<unsigned char>(str_[i]);
      h *= 1099511628211ull;
    }
    return mix(h);
  }
  if (type_ == TypeId::kDouble) {
    uint64_t bits;
    std::memcpy(&bits, &real_, sizeof(bits));
    return mix(bits);
  }
  return mix(static_cast<uint64_t>(ival_));
}

namespace {

Result<Value> ArithCheck(const Value& a, const Value& b) {
  if (!IsNumeric(a.type()) || !IsNumeric(b.type())) {
    return Status::InvalidArgument(std::string("arithmetic on non-numeric types ") +
                                   TypeName(a.type()) + "/" + TypeName(b.type()));
  }
  return Value();  // placeholder OK marker
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

/// Scaled integer payload of `v` interpreted in the `target` integer domain.
/// Fails when scaling an integer into the DECIMAL domain overflows (the
/// decimal payload is the value x100, so values near INT64_MAX don't fit).
Result<int64_t> ToIntegralDomain(const Value& v, TypeId target) {
  if (target == TypeId::kDecimal && v.type() != TypeId::kDecimal) {
    return CheckedMul64(v.AsInt64(), decimal::kScale, "DECIMAL scaling");
  }
  return v.AsInt64();
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

Result<Value> Value::Add(const Value& o) const {
  // DATE + integer -> DATE (days).
  if (type_ == TypeId::kDate || o.type_ == TypeId::kDate) {
    const Value& d = type_ == TypeId::kDate ? *this : o;
    const Value& n = type_ == TypeId::kDate ? o : *this;
    if (d.type_ == TypeId::kDate && n.type_ != TypeId::kDate &&
        (n.type_ == TypeId::kInt32 || n.type_ == TypeId::kInt64)) {
      if (is_null_ || o.is_null_) return Value::Null(TypeId::kDate);
      ELE_ASSIGN_OR_RETURN(int64_t sum,
                           CheckedAdd64(d.ival_, n.ival_, "DATE + integer"));
      ELE_ASSIGN_OR_RETURN(int32_t days, NarrowToInt32(sum, "DATE + integer"));
      return Value::Date(days);
    }
    return Status::InvalidArgument("unsupported DATE addition");
  }
  ELE_RETURN_NOT_OK(ArithCheck(*this, o).status());
  TypeId t = WiderOf(type_, o.type_);
  if (is_null_ || o.is_null_) return Value::Null(t);
  if (t == TypeId::kDouble) return Value::Double(AsDouble() + o.AsDouble());
  ELE_ASSIGN_OR_RETURN(int64_t a, ToIntegralDomain(*this, t));
  ELE_ASSIGN_OR_RETURN(int64_t b, ToIntegralDomain(o, t));
  const char* what = t == TypeId::kDecimal ? "DECIMAL addition" : "addition";
  ELE_ASSIGN_OR_RETURN(int64_t r, CheckedAdd64(a, b, what));
  if (t == TypeId::kDecimal) return Value::Decimal(r);
  if (t == TypeId::kInt64) return Value::Int64(r);
  ELE_ASSIGN_OR_RETURN(int32_t narrow, NarrowToInt32(r, "INT32 addition"));
  return Value::Int32(narrow);
}

Result<Value> Value::Subtract(const Value& o) const {
  // DATE - integer -> DATE; DATE - DATE -> day count.
  if (type_ == TypeId::kDate) {
    if (o.type_ == TypeId::kDate) {
      if (is_null_ || o.is_null_) return Value::Null(TypeId::kInt32);
      ELE_ASSIGN_OR_RETURN(int64_t diff,
                           CheckedSub64(ival_, o.ival_, "DATE - DATE"));
      ELE_ASSIGN_OR_RETURN(int32_t days, NarrowToInt32(diff, "DATE - DATE"));
      return Value::Int32(days);
    }
    if (o.type_ == TypeId::kInt32 || o.type_ == TypeId::kInt64) {
      if (is_null_ || o.is_null_) return Value::Null(TypeId::kDate);
      ELE_ASSIGN_OR_RETURN(int64_t diff,
                           CheckedSub64(ival_, o.ival_, "DATE - integer"));
      ELE_ASSIGN_OR_RETURN(int32_t days, NarrowToInt32(diff, "DATE - integer"));
      return Value::Date(days);
    }
    return Status::InvalidArgument("unsupported DATE subtraction");
  }
  if (o.type_ == TypeId::kDate) {
    return Status::InvalidArgument("cannot subtract DATE from a number");
  }
  ELE_RETURN_NOT_OK(ArithCheck(*this, o).status());
  TypeId t = WiderOf(type_, o.type_);
  if (is_null_ || o.is_null_) return Value::Null(t);
  if (t == TypeId::kDouble) return Value::Double(AsDouble() - o.AsDouble());
  ELE_ASSIGN_OR_RETURN(int64_t a, ToIntegralDomain(*this, t));
  ELE_ASSIGN_OR_RETURN(int64_t b, ToIntegralDomain(o, t));
  const char* what =
      t == TypeId::kDecimal ? "DECIMAL subtraction" : "subtraction";
  ELE_ASSIGN_OR_RETURN(int64_t r, CheckedSub64(a, b, what));
  if (t == TypeId::kDecimal) return Value::Decimal(r);
  if (t == TypeId::kInt64) return Value::Int64(r);
  ELE_ASSIGN_OR_RETURN(int32_t narrow, NarrowToInt32(r, "INT32 subtraction"));
  return Value::Int32(narrow);
}

Result<Value> Value::Multiply(const Value& o) const {
  ELE_RETURN_NOT_OK(ArithCheck(*this, o).status());
  TypeId t = WiderOf(type_, o.type_);
  if (is_null_ || o.is_null_) return Value::Null(t);
  if (t == TypeId::kDouble) return Value::Double(AsDouble() * o.AsDouble());
  if (t == TypeId::kDecimal) {
    // Keep scale 2: (a*100)*(b*100)/100. The intermediate product carries
    // both scale factors, so it can overflow even when the final quotient
    // would fit; erring there is deliberate (no silent wrap, ever).
    ELE_ASSIGN_OR_RETURN(int64_t a, ToIntegralDomain(*this, t));
    ELE_ASSIGN_OR_RETURN(int64_t b, ToIntegralDomain(o, t));
    ELE_ASSIGN_OR_RETURN(int64_t p, CheckedMul64(a, b, "DECIMAL multiplication"));
    return Value::Decimal(p / decimal::kScale);
  }
  ELE_ASSIGN_OR_RETURN(int64_t r,
                       CheckedMul64(AsInt64(), o.AsInt64(), "multiplication"));
  if (t == TypeId::kInt64) return Value::Int64(r);
  ELE_ASSIGN_OR_RETURN(int32_t narrow,
                       NarrowToInt32(r, "INT32 multiplication"));
  return Value::Int32(narrow);
}

Result<Value> Value::Divide(const Value& o) const {
  ELE_RETURN_NOT_OK(ArithCheck(*this, o).status());
  TypeId t = WiderOf(type_, o.type_);
  if (is_null_ || o.is_null_) return Value::Null(t);
  if (t == TypeId::kDouble) {
    double d = o.AsDouble();
    if (d == 0) return Status::InvalidArgument("division by zero");
    return Value::Double(AsDouble() / d);
  }
  ELE_ASSIGN_OR_RETURN(int64_t b, ToIntegralDomain(o, t));
  if (b == 0) return Status::InvalidArgument("division by zero");
  if (t == TypeId::kDecimal) {
    ELE_ASSIGN_OR_RETURN(int64_t a, ToIntegralDomain(*this, t));
    ELE_ASSIGN_OR_RETURN(int64_t p,
                         CheckedMul64(a, decimal::kScale, "DECIMAL division"));
    return Value::Decimal(p / b);
  }
  // INT64_MIN / -1 is the one quotient that overflows the INT64 domain.
  if (AsInt64() == std::numeric_limits<int64_t>::min() && o.AsInt64() == -1) {
    return Status::InvalidArgument("division overflows INT64");
  }
  int64_t r = AsInt64() / o.AsInt64();
  if (t == TypeId::kInt64) return Value::Int64(r);
  // INT32_MIN / -1 is the one narrowing division: |result| > INT32_MAX.
  ELE_ASSIGN_OR_RETURN(int32_t narrow, NarrowToInt32(r, "INT32 division"));
  return Value::Int32(narrow);
}

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
