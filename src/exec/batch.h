#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/schema.h"
#include "common/status.h"

namespace elephant {

/// Rows per batch in the vectorized engine. Large enough to amortize
/// per-call overhead (virtual dispatch, instrumentation snapshots), small
/// enough that a batch of hot columns stays cache-resident.
inline constexpr uint32_t kBatchCapacity = 1024;

/// A batch of up to kBatchCapacity rows in columnar layout, plus an optional
/// selection vector.
///
/// Layout: `cols_[c][r]` is column c of physical row r; every column vector
/// has exactly `num_rows()` entries. When the selection vector is active,
/// only the physical row indices it lists (strictly ascending) are live —
/// the other rows still hold values but are logically deleted. Producers
/// that filter (BatchFilterExecutor) set a selection vector instead of
/// compacting; consumers iterate live rows via ActiveCount()/ActiveIndex().
///
/// Values at non-selected positions must never influence results: vectorized
/// expression evaluation takes an explicit position list for exactly this
/// reason (see Expr::EvalBatch), so e.g. `10 / x` is never evaluated at a
/// row where a preceding filter already rejected `x = 0`.
class Batch {
 public:
  Batch() = default;

  /// Drops all rows and re-shapes to `num_cols` empty columns.
  void Reset(size_t num_cols) {
    cols_.resize(num_cols);
    for (auto& c : cols_) c.clear();
    num_rows_ = 0;
    sel_.clear();
    sel_active_ = false;
  }

  size_t num_cols() const { return cols_.size(); }
  uint32_t num_rows() const { return num_rows_; }
  bool empty() const { return ActiveCount() == 0; }

  const std::vector<Value>& col(size_t c) const { return cols_[c]; }
  std::vector<Value>& col(size_t c) { return cols_[c]; }

  /// Appends one row (copying); the batch must not be full.
  void AppendRow(const Row& row) {
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
    ++num_rows_;
  }

  /// Moves one row's values in; the batch must not be full.
  void AppendRowMove(Row&& row) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(std::move(row[c]));
    }
    ++num_rows_;
  }

  bool full() const { return num_rows_ >= kBatchCapacity; }

  /// Declares the row count after filling columns directly (bypassing
  /// AppendRow); every column must hold exactly `n` entries.
  void SetRowCount(uint32_t n) { num_rows_ = n; }

  /// Copies physical row r into `*row` (resized to num_cols()).
  void GatherRow(uint32_t r, Row* row) const {
    row->resize(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) (*row)[c] = cols_[c][r];
  }

  /// Moves the live rows, in order, onto the end of `*rows`; the batch's
  /// values are left moved-from.
  void MoveActiveRowsTo(std::vector<Row>* rows) {
    const uint32_t n = ActiveCount();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t r = ActiveIndex(i);
      Row row;
      row.reserve(cols_.size());
      for (auto& c : cols_) row.push_back(std::move(c[r]));
      rows->push_back(std::move(row));
    }
  }

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
  std::vector<std::vector<Value>> cols_;
  uint32_t num_rows_ = 0;
  std::vector<uint32_t> sel_;
  bool sel_active_ = false;
};

/// The operator interface: every physical operator, from the scans to the
/// joins, Sort and Gather, is a BatchExecutor. Init() once, then NextBatch
/// fills `*out` (after resetting it to the operator's output width) and
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
/// rows in output order: the client drain loop, in one place.
Result<std::vector<Row>> DrainBatches(BatchExecutor* exec);

}  // namespace elephant
