#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/status.h"

namespace elephant {

/// Rows per batch in the vectorized engine. Large enough to amortize
/// per-call overhead (virtual dispatch, instrumentation snapshots), small
/// enough that a batch of hot columns stays cache-resident.
inline constexpr uint32_t kBatchCapacity = 1024;

/// The physical lane a column of a type lives in: one int64 lane for every
/// integer-payload type (BOOLEAN, INT32, INT64, DATE, DECIMAL scaled x100,
/// and the untyped NULL), a double lane, and a string lane for CHAR (kept
/// with its padding) and VARCHAR.
enum class Lane : uint8_t { kInt, kDouble, kString };

inline Lane LaneOf(TypeId t) {
  if (t == TypeId::kDouble) return Lane::kDouble;
  if (t == TypeId::kChar || t == TypeId::kVarchar) return Lane::kString;
  return Lane::kInt;
}

/// One typed column of a batch: a null mask plus the one lane its type
/// lives in. String cells sit back to back in one arena, `ends_[r]` marking
/// where row r's bytes end. A NULL cell holds 0 (or the empty string) in
/// its lane, so a loop over a lane never branches on the mask to read it.
///
/// Cells are appended in row order. Numeric columns can also be sized up
/// front (Resize) and written at any row, which is how expression kernels
/// fill the rows a selection vector lists. Value appears only at the
/// boundary helpers (AppendValue, GetValue) that rows enter and leave the
/// engine through.
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(TypeId type) { Reset(type); }

  /// Drops every cell and retypes the column (keeping lane capacity).
  void Reset(TypeId type) {
    type_ = type;
    lane_ = LaneOf(type);
    nulls_.clear();
    ints_.clear();
    doubles_.clear();
    chars_.clear();
    ends_.clear();
  }

  TypeId type() const { return type_; }
  Lane lane() const { return lane_; }
  uint32_t size() const { return static_cast<uint32_t>(nulls_.size()); }

  bool IsNull(uint32_t r) const { return nulls_[r] != 0; }
  int64_t Int(uint32_t r) const { return ints_[r]; }
  double Double(uint32_t r) const { return doubles_[r]; }
  std::string_view String(uint32_t r) const {
    const uint32_t begin = r == 0 ? 0 : ends_[r - 1];
    return std::string_view(chars_.data() + begin, ends_[r] - begin);
  }

  void AppendNull() {
    nulls_.push_back(1);
    switch (lane_) {
      case Lane::kInt: ints_.push_back(0); break;
      case Lane::kDouble: doubles_.push_back(0); break;
      case Lane::kString: ends_.push_back(static_cast<uint32_t>(chars_.size())); break;
    }
  }
  void AppendInt(int64_t v) {
    nulls_.push_back(0);
    ints_.push_back(v);
  }
  void AppendDouble(double v) {
    nulls_.push_back(0);
    doubles_.push_back(v);
  }
  void AppendString(std::string_view s) {
    nulls_.push_back(0);
    chars_.append(s);
    ends_.push_back(static_cast<uint32_t>(chars_.size()));
  }

  /// Appends cell `r` of `src`, a column of the same lane.
  void Append(const ColumnVector& src, uint32_t r);
  /// Appends cells rows[0..n) of `src` (same lane), in that order.
  void Gather(const ColumnVector& src, const uint32_t* rows, size_t n);
  void Gather(const ColumnVector& src, const std::vector<uint32_t>& rows) {
    Gather(src, rows.data(), rows.size());
  }

  /// Sizes an int or double column to `n` cells, each non-NULL 0, for
  /// positional writes through the raw lanes below.
  void Resize(uint32_t n) {
    nulls_.assign(n, 0);
    if (lane_ == Lane::kDouble) {
      doubles_.assign(n, 0);
    } else {
      ints_.assign(n, 0);
    }
  }
  uint8_t* nulls() { return nulls_.data(); }
  int64_t* ints() { return ints_.data(); }
  double* doubles() { return doubles_.data(); }

  /// Boundary: appends a Value of this column's type (NULL of any type).
  void AppendValue(const Value& v);  // lint:allow(value-in-batch-kernel)
  /// Boundary: cell `r` as a Value of this column's type.
  Value GetValue(uint32_t r) const;  // lint:allow(value-in-batch-kernel)

 private:
  TypeId type_ = TypeId::kInvalid;
  Lane lane_ = Lane::kInt;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::string chars_;
  std::vector<uint32_t> ends_;
};

/// Three-way comparison of two values of one C++ type: -1, 0 or 1.
template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// The domain Value::Compare compares two non-NULL values of types `a` and
/// `b` in, chosen once from the types: strings by ComparePadded (kString);
/// two integer-lane types as int64 unless exactly one is DECIMAL (kInt);
/// every other pair of numbers as doubles, a DECIMAL unscaled (kDouble).
/// kNull: either type is the untyped NULL, so no comparison is true;
/// kMismatch: a string against a number, an error.
enum class CompareDomain : uint8_t { kString, kInt, kDouble, kNull, kMismatch };

inline CompareDomain CompareDomainOf(TypeId a, TypeId b) {
  if (a == TypeId::kInvalid || b == TypeId::kInvalid) return CompareDomain::kNull;
  const Lane la = LaneOf(a), lb = LaneOf(b);
  if ((la == Lane::kString) != (lb == Lane::kString)) {
    return CompareDomain::kMismatch;
  }
  if (la == Lane::kString) return CompareDomain::kString;
  if (la == Lane::kInt && lb == Lane::kInt &&
      (a == TypeId::kDecimal) == (b == TypeId::kDecimal)) {
    return CompareDomain::kInt;
  }
  return CompareDomain::kDouble;
}

/// Calls `k` with a reader of numeric column `c`'s cells in the double
/// domain (Value::AsDouble: a DECIMAL unscaled, an integer converted); the
/// lane test is made once, not per cell.
template <typename K>
void WithDoubles(const ColumnVector& c, K&& k) {
  if (c.lane() == Lane::kDouble) {
    k([&c](uint32_t r) { return c.Double(r); });
    return;
  }
  const double scale =
      c.type() == TypeId::kDecimal ? static_cast<double>(decimal::kScale) : 1.0;
  k([&c, scale](uint32_t r) { return static_cast<double>(c.Int(r)) / scale; });
}

/// Value::Compare between two non-NULL cells, in their CompareDomainOf
/// domain. A string against a number is an error, reported as 0.
int CompareCells(const ColumnVector& a, uint32_t i, const ColumnVector& b,
                 uint32_t j);

/// Appends the keycodec encoding of cell `r` (as keycodec::Encode would
/// encode its Value) to `*out`.
void EncodeCell(const ColumnVector& col, uint32_t r, std::string* out);

/// A batch of up to kBatchCapacity rows in columnar layout, plus an optional
/// selection vector.
///
/// Layout: `col(c)` is column c, typed by the schema the batch was Reset
/// to; every column has exactly `num_rows()` cells. When the selection
/// vector is active, only the physical row indices it lists (strictly
/// ascending) are live — the other rows still hold cells but are logically
/// deleted. Producers that filter (BatchFilterExecutor) set a selection
/// vector instead of compacting; consumers iterate live rows via
/// ActiveCount()/ActiveIndex().
///
/// Cells at non-selected positions must never influence results: vectorized
/// expression evaluation takes an explicit position list for exactly this
/// reason (see Expr::EvalBatch), so e.g. `10 / x` is never evaluated at a
/// row where a preceding filter already rejected `x = 0`.
///
/// Operators that hold many rows (the hash join's build side, Sort, the band
/// merge join's window) keep them in a Batch past kBatchCapacity, as typed
/// storage they gather from.
class Batch {
 public:
  Batch() = default;

  /// Drops all rows and re-shapes to one empty column per `schema` column.
  void Reset(const Schema& schema) {
    cols_.resize(schema.NumColumns());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].Reset(schema.ColumnAt(c).type);
    }
    num_rows_ = 0;
    sel_.clear();
    sel_active_ = false;
  }

  size_t num_cols() const { return cols_.size(); }
  uint32_t num_rows() const { return num_rows_; }
  bool empty() const { return ActiveCount() == 0; }

  const ColumnVector& col(size_t c) const { return cols_[c]; }
  ColumnVector& col(size_t c) { return cols_[c]; }

  /// Boundary: appends one row of Values; the batch must not be full.
  void AppendRow(const Row& row) {  // lint:allow(value-in-batch-kernel)
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].AppendValue(row[c]);
    ++num_rows_;
  }

  bool full() const { return num_rows_ >= kBatchCapacity; }

  /// Declares the row count after filling columns directly (bypassing
  /// AppendRow); every column must hold exactly `n` cells.
  void SetRowCount(uint32_t n) { num_rows_ = n; }

  /// Boundary: appends the live rows, in order, to `*rows` as Values.
  /// Returns the number of Values built.
  uint64_t AppendActiveRowsTo(std::vector<Row>* rows) const;

  /// Installs a selection vector (physical indices, strictly ascending).
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    sel_active_ = true;
  }
  bool selection_active() const { return sel_active_; }
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// Number of live rows (selected rows, or all rows when no selection).
  uint32_t ActiveCount() const {
    return sel_active_ ? static_cast<uint32_t>(sel_.size()) : num_rows_;
  }
  /// Physical index of the i-th live row, i in [0, ActiveCount()).
  uint32_t ActiveIndex(uint32_t i) const { return sel_active_ ? sel_[i] : i; }

  /// The live physical indices as a vector (materializes the identity list
  /// when no selection is active). Used to feed Expr::EvalBatch.
  std::vector<uint32_t> ActiveIndices() const {
    if (sel_active_) return sel_;
    std::vector<uint32_t> all(num_rows_);
    for (uint32_t i = 0; i < num_rows_; ++i) all[i] = i;
    return all;
  }

 private:
  std::vector<ColumnVector> cols_;
  uint32_t num_rows_ = 0;
  std::vector<uint32_t> sel_;
  bool sel_active_ = false;
};

/// Appends rows `rows` of every column of `src` to columns [first, first +
/// src.num_cols()) of `*out`. The caller sets the row count.
void GatherColumns(const Batch& src, const std::vector<uint32_t>& rows,
                   size_t first, Batch* out);

/// The operator interface: every physical operator, from the scans to the
/// joins, Sort and Gather, is a BatchExecutor. Init() once, then NextBatch
/// fills `*out` (after resetting it to the operator's output schema) and
/// returns true while rows remain; a true return with zero active rows is
/// legal (e.g. a fully-filtered batch) and consumers must simply ask again.
/// After the first false return, behavior of further calls is unspecified.
class BatchExecutor {
 public:
  virtual ~BatchExecutor() = default;

  virtual Status Init() = 0;
  virtual Result<bool> NextBatch(Batch* out) = 0;
  virtual const Schema& OutputSchema() const = 0;
};

using BatchExecutorPtr = std::unique_ptr<BatchExecutor>;

/// Runs `exec` to completion (Init + every NextBatch) and returns its live
/// rows in output order: the client drain loop, in one place, and the one
/// place rows leave the engine as Values. When `values` is given, it is
/// advanced by the number of Values built.
Result<std::vector<Row>> DrainBatches(BatchExecutor* exec,
                                      uint64_t* values = nullptr);

}  // namespace elephant
