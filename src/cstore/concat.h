#pragma once

#include <memory>
#include <vector>

#include "cstore/projection.h"
#include "engine/database.h"

namespace elephant {
namespace cstore {

/// §3 "Column concatenation": reconstructing projection rows by zipping
/// c-table streams positionally — what a C-store does natively when
/// materializing tuples from columns. The paper prototyped this as C#
/// table-valued functions and found them "not particularly efficient (they
/// are outside the server, the logic is quasi-interpreted)".
///
/// This module provides both sides of that comparison:
///  - kNative:   an in-engine operator that merges the per-column run
///               cursors directly (what native support would look like);
///  - kExternal: the same logic behind a simulated out-of-process TVF
///               boundary — every row is marshalled to a textual wire
///               format and parsed back, as a mid-tier concatenator would.
enum class ConcatMode { kNative, kExternal };

/// Streams reconstructed projection rows for positions [first_id, last_id]
/// by concatenating the given columns' c-tables.
class ColumnConcatenator {
 public:
  /// `columns` are source column names present in `projection`.
  ColumnConcatenator(Database* db, const ProjectionMeta& projection,
                     std::vector<std::string> columns, ConcatMode mode);

  /// Opens cursors at `first_id` (inclusive); rows stream until `last_id`.
  Status Open(int64_t first_id, int64_t last_id);

  /// Produces the next reconstructed row (one Value per requested column).
  /// Returns false at the end of the range.
  Result<bool> Next(Row* out);

  /// Rows produced since Open().
  uint64_t rows_produced() const { return rows_produced_; }

 private:
  /// A cursor over one c-table, positioned on the run covering the current
  /// virtual id.
  struct ColumnCursor {
    const CTableMeta* meta = nullptr;
    Table* table = nullptr;
    std::unique_ptr<IndexCursor> it;
    Batch run;              ///< the current run's (f, v[, c]) row
    int64_t run_first = 0;  ///< f of the current run
    int64_t run_last = -1;  ///< f + c - 1 of the current run
    Value value;
  };

  /// Reads the run at `cursor`'s position and advances past it.
  static Status ReadRun(ColumnCursor* cursor);
  /// Advances `cursor` until its run covers `id`.
  Status AdvanceTo(ColumnCursor* cursor, int64_t id);

  /// The simulated TVF boundary: serialize `row` to text and parse it back.
  Result<Row> MarshalRoundTrip(const Row& row) const;

  Database* db_;
  const ProjectionMeta& proj_;
  std::vector<std::string> columns_;
  ConcatMode mode_;

  std::vector<ColumnCursor> cursors_;
  int64_t current_id_ = 0;
  int64_t last_id_ = -1;
  uint64_t rows_produced_ = 0;
};

}  // namespace cstore
}  // namespace elephant
