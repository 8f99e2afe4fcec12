#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace elephant {

/// Physical column types supported by the engine.
///
/// DATE is stored as int32 days since 1970-01-01 (civil). DECIMAL is a
/// fixed-point int64 scaled by 100 (two fractional digits), which covers the
/// TPC-H money columns exactly. CHAR(n) is fixed-width, space padded;
/// VARCHAR is variable length.
enum class TypeId : uint8_t {
  kInvalid = 0,
  kBoolean,
  kInt32,
  kInt64,
  kDate,
  kDecimal,
  kDouble,
  kChar,
  kVarchar,
};

/// Returns a human-readable type name ("INT32", "DATE", ...).
const char* TypeName(TypeId t);

/// True for types on which arithmetic is defined.
inline bool IsNumeric(TypeId t) {
  return t == TypeId::kInt32 || t == TypeId::kInt64 || t == TypeId::kDecimal ||
         t == TypeId::kDouble;
}

/// Serialized width in bytes of a fixed-width type; CHAR requires `length`.
/// VARCHAR returns 0 (variable).
uint32_t TypeFixedSize(TypeId t, uint32_t length);

/// Calendar date utilities over the int32 days-since-epoch representation.
namespace date {

/// Days since 1970-01-01 for the given civil date (proleptic Gregorian).
int32_t FromYMD(int year, int month, int day);

/// Inverse of FromYMD.
void ToYMD(int32_t days, int* year, int* month, int* day);

/// Parses "YYYY-MM-DD". Returns InvalidArgument on malformed input.
Result<int32_t> Parse(const std::string& s);

/// Formats as "YYYY-MM-DD".
std::string ToString(int32_t days);

}  // namespace date

/// Fixed-point decimal utilities (scale = 2).
namespace decimal {

constexpr int64_t kScale = 100;

/// Parses "[-]digits[.digits]" into the scaled representation
/// (e.g. "12.3" -> 1230). At most two fractional digits are kept.
Result<int64_t> Parse(const std::string& s);

/// Formats the scaled value with two decimals (e.g. 1230 -> "12.30").
std::string ToString(int64_t scaled);

}  // namespace decimal

}  // namespace elephant
