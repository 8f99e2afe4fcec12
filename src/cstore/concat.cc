#include "cstore/concat.h"

namespace elephant {
namespace cstore {

ColumnConcatenator::ColumnConcatenator(Database* db,
                                       const ProjectionMeta& projection,
                                       std::vector<std::string> columns,
                                       ConcatMode mode)
    : db_(db), proj_(projection), columns_(std::move(columns)), mode_(mode) {}

Status ColumnConcatenator::Open(int64_t first_id, int64_t last_id) {
  cursors_.clear();
  current_id_ = first_id;
  last_id_ = last_id;
  rows_produced_ = 0;
  for (const std::string& col : columns_) {
    const CTableMeta* meta = proj_.Find(col);
    if (meta == nullptr) {
      return Status::InvalidArgument("projection " + proj_.name +
                                     " has no c-table for column " + col);
    }
    ColumnCursor cursor;
    cursor.meta = meta;
    ELE_ASSIGN_OR_RETURN(cursor.table, db_->catalog().GetTable(meta->table_name));
    // Start at the run covering first_id: the greatest f <= first_id. Seek
    // to first_id and step from the preceding run if needed — c-table runs
    // tile the id space, so scanning from max(first_id - max_run, 0) is not
    // necessary: we seek to the run at or before first_id via a range scan
    // starting at f = 0 when the table is small, or via the v-index... The
    // clustered index supports "first key >= x"; to find "last key <= x" we
    // scan forward from x and, if the first run starts past first_id, the
    // covering run must be the previous one — so instead we conservatively
    // start the scan at f = 0 only when first_id is 0. For general ranges
    // we exploit that callers align first_id to run boundaries of the
    // *leading* column; deeper columns' runs subdivide those, so seeking to
    // f >= first_id always lands exactly on the covering run.
    const std::string lo =
        cursor.table->EncodeClusterPrefix({Value::Int32(static_cast<int32_t>(first_id))});
    // Each cursor walks its c-table forward to last_id: a sequential sweep
    // per column. As in the planner, the sweep runs under sequential intent
    // only when the c-table is large relative to the pool (>= 1/4 of
    // capacity); small c-tables stay in the young region so warm repeated
    // concatenations do not recycle their own pages.
    const double bytes_per_row =
        cursor.table->schema().FixedSectionSize() + 24.0;
    const double est_pages =
        static_cast<double>(cursor.table->row_count()) * bytes_per_row /
        kPageSize;
    const AccessIntent intent =
        est_pages * 4.0 >= static_cast<double>(db_->pool().capacity())
            ? AccessIntent::kSequentialScan
            : AccessIntent::kPointLookup;
    cursor.it = std::make_unique<IndexCursor>(cursor.table, nullptr, intent);
    ELE_RETURN_NOT_OK(cursor.it->Seek(KeyRange{lo, ""}));
    if (!cursor.it->Valid()) {
      return Status::OutOfRange("first_id past the end of c-table " +
                                meta->table_name);
    }
    ELE_RETURN_NOT_OK(ReadRun(&cursor));
    if (cursor.run_first > first_id) {
      return Status::InvalidArgument(
          "first_id does not align with a run boundary of " + meta->table_name);
    }
    cursors_.push_back(std::move(cursor));
  }
  return Status::OK();
}

Status ColumnConcatenator::ReadRun(ColumnCursor* cursor) {
  Batch& run = cursor->run;
  run.Reset(cursor->it->schema());
  ELE_RETURN_NOT_OK(cursor->it->ReadInto(&run, 0));
  run.SetRowCount(1);
  cursor->run_first = run.col(0).Int(0);
  cursor->run_last =
      cursor->run_first + (cursor->meta->has_count ? run.col(2).Int(0) - 1 : 0);
  cursor->value = run.col(1).GetValue(0);
  return Status::OK();
}

Status ColumnConcatenator::AdvanceTo(ColumnCursor* cursor, int64_t id) {
  while (cursor->run_last < id) {
    if (!cursor->it->Valid()) {
      return Status::OutOfRange("c-table " + cursor->meta->table_name +
                                " exhausted at id " + std::to_string(id));
    }
    ELE_RETURN_NOT_OK(ReadRun(cursor));
  }
  return Status::OK();
}

Result<Row> ColumnConcatenator::MarshalRoundTrip(const Row& row) const {
  // The quasi-interpreted out-of-server boundary: values cross as text (the
  // way mid-tier TVF frameworks marshal rows) and are re-parsed on the way
  // back in.
  std::string wire;
  for (const Value& v : row) {
    wire += v.ToString();
    wire += '\x1f';
  }
  Row back;
  back.reserve(row.size());
  size_t pos = 0;
  for (const Value& v : row) {
    const size_t end = wire.find('\x1f', pos);
    const std::string field = wire.substr(pos, end - pos);
    pos = end + 1;
    switch (v.type()) {
      case TypeId::kInt32:
        back.push_back(Value::Int32(static_cast<int32_t>(std::stol(field))));
        break;
      case TypeId::kInt64:
        back.push_back(Value::Int64(std::stoll(field)));
        break;
      case TypeId::kDate: {
        ELE_ASSIGN_OR_RETURN(int32_t d, date::Parse(field));
        back.push_back(Value::Date(d));
        break;
      }
      case TypeId::kDecimal: {
        ELE_ASSIGN_OR_RETURN(int64_t d, decimal::Parse(field));
        back.push_back(Value::Decimal(d));
        break;
      }
      case TypeId::kDouble:
        back.push_back(Value::Double(std::stod(field)));
        break;
      case TypeId::kChar:
        back.push_back(Value::Char(field));
        break;
      case TypeId::kVarchar:
        back.push_back(Value::Varchar(field));
        break;
      default:
        return Status::Internal("unexpected type in marshal round trip");
    }
  }
  return back;
}

Result<bool> ColumnConcatenator::Next(Row* out) {
  if (current_id_ > last_id_) return false;
  out->clear();
  out->reserve(cursors_.size());
  for (ColumnCursor& cursor : cursors_) {
    ELE_RETURN_NOT_OK(AdvanceTo(&cursor, current_id_));
    out->push_back(cursor.value);
  }
  if (mode_ == ConcatMode::kExternal) {
    ELE_ASSIGN_OR_RETURN(*out, MarshalRoundTrip(*out));
  }
  current_id_++;
  rows_produced_++;
  return true;
}

}  // namespace cstore
}  // namespace elephant
