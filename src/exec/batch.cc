#include "exec/batch.h"

#include <cassert>

namespace elephant {

void ColumnVector::Append(const ColumnVector& src, uint32_t r) {
  nulls_.push_back(src.nulls_[r]);
  switch (lane_) {
    case Lane::kInt: ints_.push_back(src.ints_[r]); break;
    case Lane::kDouble: doubles_.push_back(src.doubles_[r]); break;
    case Lane::kString:
      chars_.append(src.String(r));
      ends_.push_back(static_cast<uint32_t>(chars_.size()));
      break;
  }
}

void ColumnVector::Gather(const ColumnVector& src, const uint32_t* rows,
                          size_t n) {
  const size_t base = nulls_.size();
  nulls_.resize(base + n);
  for (size_t i = 0; i < n; ++i) nulls_[base + i] = src.nulls_[rows[i]];
  switch (lane_) {
    case Lane::kInt:
      ints_.resize(base + n);
      for (size_t i = 0; i < n; ++i) ints_[base + i] = src.ints_[rows[i]];
      break;
    case Lane::kDouble:
      doubles_.resize(base + n);
      for (size_t i = 0; i < n; ++i) doubles_[base + i] = src.doubles_[rows[i]];
      break;
    case Lane::kString:
      ends_.reserve(base + n);
      for (size_t i = 0; i < n; ++i) {
        chars_.append(src.String(rows[i]));
        ends_.push_back(static_cast<uint32_t>(chars_.size()));
      }
      break;
  }
}

// lint:allow(value-in-batch-kernel): the boundary conversion itself.
void ColumnVector::AppendValue(const Value& v) {
  if (v.is_null()) return AppendNull();
  assert(LaneOf(v.type()) == lane_ &&
         (v.type() == TypeId::kDecimal) == (type_ == TypeId::kDecimal) &&
         "value does not fit the column's type");
  switch (lane_) {
    case Lane::kInt: return AppendInt(v.AsInt64());
    case Lane::kDouble: return AppendDouble(v.AsDouble());
    case Lane::kString: return AppendString(v.AsString());
  }
}

// lint:allow(value-in-batch-kernel): the boundary conversion itself.
Value ColumnVector::GetValue(uint32_t r) const {
  if (IsNull(r)) return Value::Null(type_);
  switch (type_) {
    case TypeId::kDouble: return Value::Double(Double(r));
    case TypeId::kChar: return Value::Char(std::string(String(r)));
    case TypeId::kVarchar: return Value::Varchar(std::string(String(r)));
    default: return Value::FromInt(type_, Int(r));
  }
}

int CompareCells(const ColumnVector& a, uint32_t i, const ColumnVector& b,
                 uint32_t j) {
  switch (CompareDomainOf(a.type(), b.type())) {
    case CompareDomain::kString:
      return ComparePadded(a.String(i), b.String(j));
    case CompareDomain::kInt:
      return ThreeWay(a.Int(i), b.Int(j));
    case CompareDomain::kDouble: {
      int c = 0;
      WithDoubles(a, [&](auto get_a) {
        WithDoubles(b, [&](auto get_b) { c = ThreeWay(get_a(i), get_b(j)); });
      });
      return c;
    }
    case CompareDomain::kNull:
    case CompareDomain::kMismatch:
      break;
  }
  assert(false && "cannot compare string with non-string");
  return 0;
}

void EncodeCell(const ColumnVector& col, uint32_t r, std::string* out) {
  if (col.IsNull(r)) return keycodec::EncodeNull(out);
  switch (col.lane()) {
    case Lane::kInt: return keycodec::EncodeInt(col.type(), col.Int(r), out);
    case Lane::kDouble: return keycodec::EncodeDouble(col.Double(r), out);
    case Lane::kString: return keycodec::EncodeString(col.String(r), out);
  }
}

uint64_t Batch::AppendActiveRowsTo(std::vector<Row>* rows) const {
  const uint32_t n = ActiveCount();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = ActiveIndex(i);
    Row row;
    row.reserve(cols_.size());
    // lint:allow(value-in-batch-kernel): the root conversion, counted by DrainBatches.
    for (const ColumnVector& c : cols_) row.push_back(c.GetValue(r));
    rows->push_back(std::move(row));
  }
  return static_cast<uint64_t>(n) * cols_.size();
}

void GatherColumns(const Batch& src, const std::vector<uint32_t>& rows,
                   size_t first, Batch* out) {
  for (size_t c = 0; c < src.num_cols(); ++c) {
    out->col(first + c).Gather(src.col(c), rows);
  }
}

Result<std::vector<Row>> DrainBatches(BatchExecutor* exec, uint64_t* values) {
  ELE_RETURN_NOT_OK(exec->Init());
  std::vector<Row> rows;
  Batch batch;
  uint64_t built = 0;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, exec->NextBatch(&batch));
    if (!has) break;
    built += batch.AppendActiveRowsTo(&rows);
  }
  if (values != nullptr) *values += built;
  return rows;
}

}  // namespace elephant
