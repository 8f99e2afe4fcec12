#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/batch.h"
#include "common/rng.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace elephant {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: thing");
}

TEST(ResultTest, ValueAndError) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  Result<int> e = Status::InvalidArgument("nope");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST(DateTest, RoundTrip) {
  int32_t d = date::FromYMD(1995, 3, 15);
  int y, m, dd;
  date::ToYMD(d, &y, &m, &dd);
  EXPECT_EQ(y, 1995);
  EXPECT_EQ(m, 3);
  EXPECT_EQ(dd, 15);
  EXPECT_EQ(date::ToString(d), "1995-03-15");
}

TEST(DateTest, Epoch) { EXPECT_EQ(date::FromYMD(1970, 1, 1), 0); }

TEST(DateTest, ParseValidAndInvalid) {
  auto r = date::Parse("1998-12-01");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(date::ToString(r.value()), "1998-12-01");
  EXPECT_FALSE(date::Parse("not-a-date").ok());
  EXPECT_FALSE(date::Parse("1998-13-01").ok());
}

TEST(DateTest, OrderingAcrossYears) {
  EXPECT_LT(date::FromYMD(1992, 12, 31), date::FromYMD(1993, 1, 1));
  EXPECT_LT(date::FromYMD(1995, 2, 28), date::FromYMD(1995, 3, 1));
}

TEST(DecimalTest, ParseAndFormat) {
  EXPECT_EQ(decimal::Parse("12.34").value(), 1234);
  EXPECT_EQ(decimal::Parse("12.3").value(), 1230);
  EXPECT_EQ(decimal::Parse("12").value(), 1200);
  EXPECT_EQ(decimal::Parse("-0.07").value(), -7);
  EXPECT_EQ(decimal::ToString(1234), "12.34");
  EXPECT_EQ(decimal::ToString(-7), "-0.07");
  EXPECT_FALSE(decimal::Parse("abc").ok());
  EXPECT_FALSE(decimal::Parse("").ok());
}

TEST(ValueTest, CompareNumeric) {
  EXPECT_LT(Value::Int32(1).Compare(Value::Int32(2)), 0);
  EXPECT_EQ(Value::Int32(5).Compare(Value::Int64(5)), 0);
  EXPECT_GT(Value::Double(2.5).Compare(Value::Int32(2)), 0);
  EXPECT_EQ(Value::Decimal(150).Compare(Value::Decimal(150)), 0);
}

TEST(ValueTest, NullOrdering) {
  Value n = Value::Null(TypeId::kInt32);
  EXPECT_LT(n.Compare(Value::Int32(-100)), 0);
  EXPECT_EQ(n.Compare(Value::Null(TypeId::kInt32)), 0);
}

TEST(ValueTest, CharPaddingSemantics) {
  EXPECT_EQ(Value::Char("ab  ").Compare(Value::Varchar("ab")), 0);
  EXPECT_EQ(Value::Char("ab  ").Hash(), Value::Varchar("ab").Hash());
  EXPECT_LT(Value::Char("ab").Compare(Value::Char("b")), 0);
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(Value::Int32(3).Add(Value::Int32(4)).value().AsInt32(), 7);
  EXPECT_EQ(Value::Int64(10).Subtract(Value::Int32(3)).value().AsInt64(), 7);
  // DECIMAL 1.50 * 2 = 3.00
  EXPECT_EQ(Value::Decimal(150).Multiply(Value::Int32(2)).value().AsInt64(), 300);
  // DECIMAL 1.50 * DECIMAL 2.00 = 3.00 (scale preserved)
  EXPECT_EQ(Value::Decimal(150).Multiply(Value::Decimal(200)).value().AsInt64(), 300);
  EXPECT_FALSE(Value::Varchar("x").Add(Value::Int32(1)).ok());
}

TEST(ValueTest, ArithmeticWithNullYieldsNull) {
  Value r = Value::Int32(3).Add(Value::Null(TypeId::kInt32)).value();
  EXPECT_TRUE(r.is_null());
}

TEST(ValueTest, Int32OverflowIsAnErrorNotWraparound) {
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  const int32_t kMin = std::numeric_limits<int32_t>::min();
  // Exactly at the boundary: fine.
  EXPECT_EQ(Value::Int32(kMax - 1).Add(Value::Int32(1)).value().AsInt32(), kMax);
  EXPECT_EQ(Value::Int32(kMin + 1).Subtract(Value::Int32(1)).value().AsInt32(),
            kMin);
  // One past the boundary: InvalidArgument, not a wrapped negative/positive.
  auto add = Value::Int32(kMax).Add(Value::Int32(1));
  ASSERT_FALSE(add.ok());
  EXPECT_EQ(add.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(add.status().ToString().find("INT32"), std::string::npos);
  EXPECT_FALSE(Value::Int32(kMin).Subtract(Value::Int32(1)).ok());
  EXPECT_FALSE(Value::Int32(kMax).Multiply(Value::Int32(2)).ok());
  // Promotion to INT64 keeps wide results representable.
  EXPECT_EQ(Value::Int32(kMax).Add(Value::Int64(1)).value().AsInt64(),
            static_cast<int64_t>(kMax) + 1);
}

TEST(ValueTest, Int64OverflowIsAnErrorNotWraparound) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  // Exactly at the boundary: fine.
  EXPECT_EQ(Value::Int64(kMax - 1).Add(Value::Int64(1)).value().AsInt64(), kMax);
  EXPECT_EQ(Value::Int64(kMin + 1).Subtract(Value::Int64(1)).value().AsInt64(),
            kMin);
  EXPECT_EQ(Value::Int64(kMax / 2).Multiply(Value::Int64(2)).value().AsInt64(),
            kMax - 1);
  // One past the boundary: InvalidArgument, not UB / a wrapped value.
  auto add = Value::Int64(kMax).Add(Value::Int64(1));
  ASSERT_FALSE(add.ok());
  EXPECT_EQ(add.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(add.status().ToString().find("INT64"), std::string::npos);
  EXPECT_FALSE(Value::Int64(kMin).Add(Value::Int64(-1)).ok());
  EXPECT_FALSE(Value::Int64(kMin).Subtract(Value::Int64(1)).ok());
  EXPECT_FALSE(Value::Int64(kMax).Subtract(Value::Int64(-1)).ok());
  EXPECT_FALSE(Value::Int64(kMax).Multiply(Value::Int64(2)).ok());
  EXPECT_FALSE(Value::Int64(kMin).Multiply(Value::Int64(-1)).ok());
}

TEST(ValueTest, DecimalOverflowIsAnErrorNotWraparound) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  // The decimal payload is the value scaled by 100; near-INT64_MAX payloads
  // must fail to add/scale rather than wrap.
  EXPECT_FALSE(Value::Decimal(kMax).Add(Value::Decimal(100)).ok());
  EXPECT_FALSE(Value::Decimal(kMax).Subtract(Value::Decimal(-100)).ok());
  // Scaling an INT64 into the decimal domain (x100) can itself overflow.
  EXPECT_FALSE(Value::Decimal(100).Add(Value::Int64(kMax)).ok());
  // The multiplication intermediate carries both scale factors.
  EXPECT_FALSE(Value::Decimal(kMax / 10).Multiply(Value::Decimal(1000)).ok());
  // In-range decimal math is unaffected.
  EXPECT_EQ(
      Value::Decimal(12345).Add(Value::Decimal(55)).value().AsInt64(), 12400);
  EXPECT_EQ(Value::Decimal(200).Multiply(Value::Int64(3)).value().AsInt64(),
            600);
}

TEST(ValueTest, DateArithmeticRangeChecked) {
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  const Value d = Value::Date(date::FromYMD(1998, 9, 1));
  // Ordinary day math still works, in both directions and widths.
  EXPECT_EQ(d.Add(Value::Int32(30)).value().AsInt32(),
            date::FromYMD(1998, 10, 1));
  EXPECT_EQ(d.Subtract(Value::Int64(31)).value().AsInt32(),
            date::FromYMD(1998, 8, 1));
  EXPECT_EQ(Value::Date(date::FromYMD(1998, 9, 2))
                .Subtract(Value::Date(date::FromYMD(1998, 9, 1)))
                .value()
                .AsInt32(),
            1);
  // DATE +/- INT64 past the INT32 day domain fails instead of wrapping to a
  // bogus in-range date.
  EXPECT_FALSE(d.Add(Value::Int64(static_cast<int64_t>(kMax))).ok());
  EXPECT_FALSE(d.Subtract(Value::Int64(static_cast<int64_t>(1) << 40)).ok());
  EXPECT_FALSE(Value::Date(kMax).Add(Value::Int32(1)).ok());
}

TEST(ValueTest, NarrowingCastsRangeChecked) {
  const int64_t kTooBig = static_cast<int64_t>(1) << 40;
  EXPECT_EQ(Value::Int64(7).CastTo(TypeId::kInt32).value().AsInt32(), 7);
  auto cast = Value::Int64(kTooBig).CastTo(TypeId::kInt32);
  ASSERT_FALSE(cast.ok());
  EXPECT_EQ(cast.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(Value::Int64(kTooBig).CastTo(TypeId::kDate).ok());
  EXPECT_EQ(Value::Int64(10957).CastTo(TypeId::kDate).value().AsInt32(), 10957);
}

TEST(ValueTest, CastLossless) {
  EXPECT_EQ(Value::Int32(7).CastTo(TypeId::kInt64).value().AsInt64(), 7);
  EXPECT_EQ(Value::Int32(3).CastTo(TypeId::kDecimal).value().AsInt64(), 300);
  EXPECT_EQ(Value::Varchar("1994-01-01").CastTo(TypeId::kDate).value().AsInt32(),
            date::FromYMD(1994, 1, 1));
  EXPECT_FALSE(Value::Varchar("zz").CastTo(TypeId::kDate).ok());
}

Schema TestSchema() {
  return Schema({
      Column("id", TypeId::kInt64),
      Column("qty", TypeId::kInt32),
      Column("price", TypeId::kDecimal),
      Column("flag", TypeId::kChar, 1),
      Column("comment", TypeId::kVarchar),
      Column("shipped", TypeId::kDate),
  });
}

TEST(SchemaTest, FindColumnCaseInsensitive) {
  Schema s = TestSchema();
  EXPECT_EQ(s.FindColumn("QTY"), 1);
  EXPECT_EQ(s.FindColumn("comment"), 4);
  EXPECT_EQ(s.FindColumn("missing"), -1);
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema a({Column("x", TypeId::kInt32)});
  Schema b({Column("y", TypeId::kInt64)});
  Schema c = Schema::Concat(a, b);
  ASSERT_EQ(c.NumColumns(), 2u);
  EXPECT_EQ(c.ColumnAt(0).name, "x");
  EXPECT_EQ(c.ColumnAt(1).name, "y");
}

/// Expects column `c` of the tuple in `buf` to read back through the typed
/// readers as `want`: NULL exactly when it is, else its payload in the lane
/// its type lives in (a DOUBLE bit for bit, a string padding-insensitive).
void ExpectCell(const Schema& s, const std::string& buf, size_t c,
                const Value& want) {
  ASSERT_TRUE(tuple::CheckTuple(buf.data(), buf.size()).ok());
  ASSERT_EQ(tuple::IsNull(buf.data(), c), want.is_null()) << "column " << c;
  if (want.is_null()) return;
  switch (LaneOf(s.ColumnAt(c).type)) {
    case Lane::kInt:
      EXPECT_EQ(tuple::GetInt(s, buf.data(), c), want.AsInt64()) << "column " << c;
      break;
    case Lane::kDouble: {
      const double got = tuple::GetDouble(s, buf.data(), c);
      const double expected = want.AsDouble();
      uint64_t got_bits, expected_bits;
      std::memcpy(&got_bits, &got, sizeof(got));
      std::memcpy(&expected_bits, &expected, sizeof(expected));
      EXPECT_EQ(got_bits, expected_bits) << "column " << c;
      break;
    }
    case Lane::kString:
      EXPECT_EQ(ComparePadded(tuple::GetString(s, buf.data(), c), want.AsString()),
                0)
          << "column " << c;
      break;
  }
}

TEST(TupleTest, HeaderOverheadIsNineBytes) {
  // The paper (§3) cites 9 bytes/tuple of row-store overhead; our layout
  // reproduces it.
  EXPECT_EQ(tuple::kHeaderSize, 9u);
}

TEST(TupleTest, SerializeDeserializeRoundTrip) {
  Schema s = TestSchema();
  Row row{Value::Int64(12345),  Value::Int32(-7),
          Value::Decimal(9999), Value::Char("R"),
          Value::Varchar("hello world"), Value::Date(date::FromYMD(1994, 5, 1))};
  std::string buf;
  ASSERT_TRUE(tuple::Serialize(s, row, &buf).ok());
  // Header, null bitmap, fixed slots, then the VARCHAR's 11 bytes.
  EXPECT_EQ(buf.size(), tuple::kHeaderSize + s.NullBitmapBytes() +
                            s.FixedSectionSize() + 11);
  for (size_t i = 0; i < row.size(); i++) ExpectCell(s, buf, i, row[i]);
}

TEST(TupleTest, NullsRoundTrip) {
  Schema s = TestSchema();
  Row row{Value::Null(TypeId::kInt64), Value::Int32(1),
          Value::Null(TypeId::kDecimal), Value::Null(TypeId::kChar),
          Value::Null(TypeId::kVarchar), Value::Date(0)};
  std::string buf;
  ASSERT_TRUE(tuple::Serialize(s, row, &buf).ok());
  for (size_t i = 0; i < row.size(); i++) ExpectCell(s, buf, i, row[i]);
  EXPECT_TRUE(tuple::IsNull(buf.data(), 0));
  EXPECT_FALSE(tuple::IsNull(buf.data(), 1));
  EXPECT_TRUE(tuple::IsNull(buf.data(), 2));
  EXPECT_TRUE(tuple::IsNull(buf.data(), 4));
}

TEST(TupleTest, SingleColumnAccessWithoutFullDeserialize) {
  Schema s = TestSchema();
  Row row{Value::Int64(1), Value::Int32(2), Value::Decimal(3), Value::Char("A"),
          Value::Varchar("xyz"), Value::Date(100)};
  std::string buf;
  ASSERT_TRUE(tuple::Serialize(s, row, &buf).ok());
  EXPECT_EQ(tuple::GetString(s, buf.data(), 4), "xyz");
  EXPECT_EQ(tuple::GetInt(s, buf.data(), 0), 1);
  EXPECT_EQ(tuple::GetInt(s, buf.data(), 5), 100);
}

TEST(TupleTest, ArityMismatchRejected) {
  Schema s = TestSchema();
  Row row{Value::Int64(1)};
  std::string buf;
  EXPECT_FALSE(tuple::Serialize(s, row, &buf).ok());
}

TEST(TupleTest, CharIsSpacePadded) {
  Schema s({Column("c", TypeId::kChar, 4)});
  Row row{Value::Char("ab")};
  std::string buf;
  ASSERT_TRUE(tuple::Serialize(s, row, &buf).ok());
  EXPECT_EQ(tuple::GetString(s, buf.data(), 0), "ab  ");
  ExpectCell(s, buf, 0, Value::Char("ab"));
}

TEST(TupleTest, LaneWrittenTuplesOfEveryTypeRoundTrip) {
  // The lane writer and the Row writer are one writer: a tuple written from
  // typed columns holds the bytes Serialize(Row) writes, and decodes to the
  // loaded values.
  Schema s({Column("b", TypeId::kBoolean), Column("i", TypeId::kInt32),
            Column("l", TypeId::kInt64), Column("d", TypeId::kDate),
            Column("m", TypeId::kDecimal), Column("x", TypeId::kDouble),
            Column("c", TypeId::kChar, 5), Column("v", TypeId::kVarchar)});
  const std::vector<Row> rows = {
      {Value::Boolean(true), Value::Int32(-7), Value::Int64(-5'000'000'000),
       Value::Date(date::FromYMD(1994, 5, 1)), Value::Decimal(-125),
       Value::Double(-0.0), Value::Char("ab"), Value::Varchar("tail  ")},
      {Value::Boolean(false), Value::Int32(INT32_MIN), Value::Int64(INT64_MAX),
       Value::Date(-1), Value::Decimal(1), Value::Double(1e300),
       Value::Char("abcde"), Value::Varchar("")},
      {Value::Null(TypeId::kBoolean), Value::Null(TypeId::kInt32),
       Value::Null(TypeId::kInt64), Value::Null(TypeId::kDate),
       Value::Null(TypeId::kDecimal), Value::Null(TypeId::kDouble),
       Value::Null(TypeId::kChar), Value::Null(TypeId::kVarchar)}};
  Batch batch;
  batch.Reset(s);
  for (const Row& row : rows) batch.AppendRow(row);
  for (uint32_t r = 0; r < rows.size(); r++) {
    std::string lanes, values;
    ASSERT_TRUE(tuple::Serialize(s, batch, r, &lanes).ok());
    ASSERT_TRUE(tuple::Serialize(s, rows[r], &values).ok());
    EXPECT_EQ(lanes, values) << "row " << r;
    for (size_t c = 0; c < s.NumColumns(); c++) {
      ExpectCell(s, lanes, c, rows[r][c]);
    }
  }
  std::string neg_zero;
  ASSERT_TRUE(tuple::Serialize(s, batch, 0, &neg_zero).ok());
  EXPECT_TRUE(std::signbit(tuple::GetDouble(s, neg_zero.data(), 5)));
}

TEST(TupleTest, LaneWrittenVarcharLongerThanItsSlotFails) {
  Schema s({Column("v", TypeId::kVarchar)});
  Batch batch;
  batch.Reset(s);
  batch.col(0).AppendString(std::string(0x10000, 'x'));
  batch.col(0).AppendString(std::string(0xffff, 'x'));
  batch.SetRowCount(2);
  std::string buf;
  EXPECT_TRUE(tuple::Serialize(s, batch, 0, &buf).IsInvalidArgument());
  buf.clear();
  EXPECT_TRUE(tuple::Serialize(s, batch, 1, &buf).ok());
}

// --- Key codec property tests: memcmp order must equal value order. ---

class KeyCodecOrderTest : public ::testing::TestWithParam<TypeId> {};

Value RandomValueOf(TypeId t, Rng* rng) {
  switch (t) {
    case TypeId::kInt32: return Value::Int32(static_cast<int32_t>(rng->Uniform(-1000000, 1000000)));
    case TypeId::kInt64: return Value::Int64(rng->Uniform(-1'000'000'000'000, 1'000'000'000'000));
    case TypeId::kDate: return Value::Date(static_cast<int32_t>(rng->Uniform(0, 20000)));
    case TypeId::kDecimal: return Value::Decimal(rng->Uniform(-10'000'000, 10'000'000));
    case TypeId::kDouble: return Value::Double((rng->NextDouble() - 0.5) * 1e9);
    case TypeId::kVarchar: {
      std::string s;
      int len = static_cast<int>(rng->Uniform(0, 12));
      for (int i = 0; i < len; i++) {
        s.push_back(static_cast<char>('a' + rng->Uniform(0, 25)));
      }
      return Value::Varchar(s);
    }
    default: return Value::Int32(0);
  }
}

TEST_P(KeyCodecOrderTest, EncodingPreservesOrder) {
  TypeId t = GetParam();
  Rng rng(12345 + static_cast<int>(t));
  for (int trial = 0; trial < 2000; trial++) {
    Value a = RandomValueOf(t, &rng);
    Value b = RandomValueOf(t, &rng);
    std::string ka, kb;
    keycodec::Encode(a, &ka);
    keycodec::Encode(b, &kb);
    int vcmp = a.Compare(b);
    int kcmp = ka.compare(kb);
    if (vcmp < 0) EXPECT_LT(kcmp, 0) << a.ToString() << " vs " << b.ToString();
    if (vcmp > 0) EXPECT_GT(kcmp, 0) << a.ToString() << " vs " << b.ToString();
    if (vcmp == 0) EXPECT_EQ(kcmp, 0) << a.ToString() << " vs " << b.ToString();
  }
}

TEST_P(KeyCodecOrderTest, DecodeRoundTrips) {
  TypeId t = GetParam();
  Rng rng(999 + static_cast<int>(t));
  for (int trial = 0; trial < 500; trial++) {
    Value a = RandomValueOf(t, &rng);
    std::string k;
    keycodec::Encode(a, &k);
    size_t pos = 0;
    keycodec::KeyCell back;
    ASSERT_TRUE(keycodec::DecodeCell(t, k, &pos, &back).ok());
    ASSERT_FALSE(back.is_null);
    switch (LaneOf(t)) {
      case Lane::kInt: EXPECT_EQ(back.i, a.AsInt64()); break;
      case Lane::kDouble: EXPECT_EQ(back.d, a.AsDouble()); break;
      case Lane::kString: EXPECT_EQ(back.s, a.AsString()); break;
    }
    EXPECT_EQ(pos, k.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, KeyCodecOrderTest,
                         ::testing::Values(TypeId::kInt32, TypeId::kInt64,
                                           TypeId::kDate, TypeId::kDecimal,
                                           TypeId::kDouble, TypeId::kVarchar));

TEST(KeyCodecTest, NullSortsFirst) {
  std::string kn, kv;
  keycodec::Encode(Value::Null(TypeId::kInt32), &kn);
  keycodec::Encode(Value::Int32(-2000000000), &kv);
  EXPECT_LT(kn.compare(kv), 0);
}

TEST(KeyCodecTest, CompositeKeysDoNotAlias) {
  // ("ab", "c") must differ from ("a", "bc").
  std::string k1, k2;
  keycodec::Encode(Value::Varchar("ab"), &k1);
  keycodec::Encode(Value::Varchar("c"), &k1);
  keycodec::Encode(Value::Varchar("a"), &k2);
  keycodec::Encode(Value::Varchar("bc"), &k2);
  EXPECT_NE(k1, k2);
}

TEST(KeyCodecTest, EmbeddedZeroBytesRoundTrip) {
  std::string raw("a\0b", 3);
  std::string k;
  keycodec::Encode(Value::Varchar(raw), &k);
  size_t pos = 0;
  keycodec::KeyCell v;
  ASSERT_TRUE(keycodec::DecodeCell(TypeId::kVarchar, k, &pos, &v).ok());
  EXPECT_EQ(v.s, raw);
}

TEST(KeyCodecTest, PrefixUpperBoundCoversAllExtensions) {
  std::string prefix;
  keycodec::Encode(Value::Int32(42), &prefix);
  std::string full = prefix;
  keycodec::Encode(Value::Int32(2147483647), &full);
  EXPECT_LT(full.compare(keycodec::PrefixUpperBound(prefix)), 0);
  EXPECT_GT(keycodec::PrefixUpperBound(prefix).compare(prefix), 0);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; i++) {
    int64_t v = r.Uniform(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

}  // namespace
}  // namespace elephant
