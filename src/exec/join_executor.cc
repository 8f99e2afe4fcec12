#include "exec/join_executor.h"

namespace elephant {

namespace {

/// Appends one output row: physical row `r` of `outer`, then `inner`.
void AppendJoined(const Batch& outer, uint32_t r, const Row& inner,
                  Batch* out) {
  const size_t width = outer.num_cols();
  for (size_t c = 0; c < width; ++c) out->col(c).push_back(outer.col(c)[r]);
  for (size_t c = 0; c < inner.size(); ++c) {
    out->col(width + c).push_back(inner[c]);
  }
  out->SetRowCount(out->num_rows() + 1);
}

/// Evaluates `exprs` over the live rows of `in`, one vector per expression.
Status EvalColumns(const std::vector<ExprPtr>& exprs, const Batch& in,
                   std::vector<std::vector<Value>>* cols) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  cols->resize(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    ELE_RETURN_NOT_OK(exprs[i]->EvalBatch(in, positions, &(*cols)[i]));
  }
  return Status::OK();
}

/// Encodes the join key of physical row `r` into `*key`; false when any key
/// value is NULL (NULL keys never join).
bool EncodeJoinKey(const std::vector<std::vector<Value>>& cols, uint32_t r,
                   std::string* key) {
  key->clear();
  for (const std::vector<Value>& col : cols) {
    if (col[r].is_null()) return false;
    keycodec::Encode(col[r], key);
  }
  return true;
}

/// Applies a join residual to a finished output batch.
Status ApplyResidual(const ExprPtr& residual, Batch* out) {
  if (residual == nullptr || out->num_rows() == 0) return Status::OK();
  return ApplyFilterToBatch(*residual, out);
}

}  // namespace

// ---- Index nested-loop join ----

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecContext* ctx, BatchExecutorPtr outer, const Table* inner_table,
    const SecondaryIndex* inner_index, InljBounds bounds, ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      bounds_(std::move(bounds)),
      residual_(std::move(residual)),
      inner_(inner_table, inner_index, AccessIntent::kPointLookup) {
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_.schema());
}

Status IndexNestedLoopJoinExecutor::Init() {
  outer_batch_.Reset(0);
  outer_pos_ = 0;
  inner_open_ = false;
  outer_done_ = false;
  return outer_->Init();
}

Result<bool> IndexNestedLoopJoinExecutor::NextOuterBatch() {
  do {
    ELE_ASSIGN_OR_RETURN(bool has, outer_->NextBatch(&outer_batch_));
    if (!has) return false;
  } while (outer_batch_.empty());
  ELE_RETURN_NOT_OK(EvalColumns(bounds_.eq_exprs, outer_batch_, &eq_vals_));
  const std::vector<uint32_t> rows = outer_batch_.ActiveIndices();
  if (bounds_.lo != nullptr) {
    ELE_RETURN_NOT_OK(bounds_.lo->EvalBatch(outer_batch_, rows, &lo_vals_));
  }
  if (bounds_.hi != nullptr) {
    ELE_RETURN_NOT_OK(bounds_.hi->EvalBatch(outer_batch_, rows, &hi_vals_));
  }
  outer_pos_ = 0;
  return true;
}

Status IndexNestedLoopJoinExecutor::Probe(uint32_t r) {
  eq_row_.clear();
  for (const std::vector<Value>& col : eq_vals_) eq_row_.push_back(col[r]);
  std::optional<Value> lo, hi;
  if (bounds_.lo != nullptr) lo = lo_vals_[r];
  if (bounds_.hi != nullptr) hi = hi_vals_[r];
  MakeKeyRange(eq_row_, lo, bounds_.lo_inclusive, hi, bounds_.hi_inclusive,
               &range_);
  ctx_->counters().index_seeks++;
  return inner_.Seek(range_);
}

Result<bool> IndexNestedLoopJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (!out->full()) {
    if (inner_open_) {
      while (!out->full() && inner_.Valid()) {
        ELE_RETURN_NOT_OK(inner_.Read(&inner_row_));
        ctx_->counters().rows_scanned++;
        AppendJoined(outer_batch_, outer_row_, inner_row_, out);
      }
      if (out->full()) break;
      inner_open_ = false;
    }
    if (outer_done_) break;
    if (outer_pos_ == outer_batch_.ActiveCount()) {
      ELE_ASSIGN_OR_RETURN(bool has, NextOuterBatch());
      if (!has) {
        outer_done_ = true;
        break;
      }
    }
    outer_row_ = outer_batch_.ActiveIndex(outer_pos_++);
    ELE_RETURN_NOT_OK(Probe(outer_row_));
    inner_open_ = true;
  }
  ELE_RETURN_NOT_OK(ApplyResidual(residual_, out));
  return out->num_rows() > 0;
}

// ---- Hash join ----

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, BatchExecutorPtr left,
                                   BatchExecutorPtr right,
                                   std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys,
                                   ExprPtr residual)
    : ctx_(ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->OutputSchema(), right_->OutputSchema());
}

Status HashJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(left_->Init());
  ELE_RETURN_NOT_OK(right_->Init());
  build_.clear();
  probe_.Reset(0);
  probe_pos_ = 0;
  probe_done_ = false;
  Batch in;
  std::string key;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, right_->NextBatch(&in));
    if (!has) break;
    ELE_RETURN_NOT_OK(EvalColumns(right_keys_, in, &key_cols_));
    const uint32_t n = in.ActiveCount();
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t r = in.ActiveIndex(i);
      if (!EncodeJoinKey(key_cols_, r, &key)) continue;
      Row row;
      in.GatherRow(r, &row);
      build_.emplace(key, std::move(row));
    }
  }
  matches_ = {build_.end(), build_.end()};
  return Status::OK();
}

Result<bool> HashJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  std::string key;
  while (!out->full()) {
    if (matches_.first != matches_.second) {
      AppendJoined(probe_, probe_row_, matches_.first->second, out);
      ++matches_.first;
      continue;
    }
    if (probe_done_) break;
    if (probe_pos_ == probe_.ActiveCount()) {
      ELE_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&probe_));
      if (!has) {
        probe_done_ = true;
        break;
      }
      ELE_RETURN_NOT_OK(EvalColumns(left_keys_, probe_, &key_cols_));
      probe_pos_ = 0;
      continue;
    }
    probe_row_ = probe_.ActiveIndex(probe_pos_++);
    if (EncodeJoinKey(key_cols_, probe_row_, &key)) {
      matches_ = build_.equal_range(key);
    }
  }
  ELE_RETURN_NOT_OK(ApplyResidual(residual_, out));
  return out->num_rows() > 0;
}

// ---- Band merge join ----

BandMergeJoinExecutor::BandMergeJoinExecutor(
    ExecContext* ctx, BatchExecutorPtr outer, BatchExecutorPtr inner,
    ExprPtr outer_lo, ExprPtr outer_hi, ExprPtr inner_point, ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_lo_(std::move(outer_lo)),
      outer_hi_(std::move(outer_hi)),
      inner_point_(std::move(inner_point)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_->OutputSchema());
}

Status BandMergeJoinExecutor::AdvanceOuter() {
  emit_pos_ = 0;
  outer_valid_ = false;
  while (!outer_valid_) {
    if (outer_pos_ == outer_batch_.ActiveCount()) {
      ELE_ASSIGN_OR_RETURN(bool has, outer_->NextBatch(&outer_batch_));
      if (!has) return Status::OK();
      const std::vector<uint32_t> positions = outer_batch_.ActiveIndices();
      ELE_RETURN_NOT_OK(outer_lo_->EvalBatch(outer_batch_, positions, &los_));
      ELE_RETURN_NOT_OK(outer_hi_->EvalBatch(outer_batch_, positions, &his_));
      outer_pos_ = 0;
      continue;
    }
    outer_row_ = outer_batch_.ActiveIndex(outer_pos_++);
    lo_ = los_[outer_row_];
    hi_ = his_[outer_row_];
    outer_valid_ = !lo_.is_null() && !hi_.is_null();
  }
  while (!window_.empty() && window_.front().first.Compare(lo_) < 0) {
    window_.pop_front();
  }
  return Status::OK();
}

Result<bool> BandMergeJoinExecutor::PullInner() {
  while (true) {
    if (inner_pos_ == inner_batch_.ActiveCount()) {
      ELE_ASSIGN_OR_RETURN(bool has, inner_->NextBatch(&inner_batch_));
      if (!has) return false;
      ELE_RETURN_NOT_OK(inner_point_->EvalBatch(
          inner_batch_, inner_batch_.ActiveIndices(), &points_));
      inner_pos_ = 0;
      continue;
    }
    const uint32_t r = inner_batch_.ActiveIndex(inner_pos_++);
    // Points below lo are below every later range too.
    if (points_[r].is_null() || points_[r].Compare(lo_) < 0) continue;
    Row row;
    inner_batch_.GatherRow(r, &row);
    window_.emplace_back(std::move(points_[r]), std::move(row));
    return true;
  }
}

Status BandMergeJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  ELE_RETURN_NOT_OK(inner_->Init());
  outer_batch_.Reset(0);
  inner_batch_.Reset(0);
  outer_pos_ = 0;
  inner_pos_ = 0;
  window_.clear();
  inner_done_ = false;
  return AdvanceOuter();
}

Result<bool> BandMergeJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (outer_valid_ && !out->full()) {
    if (emit_pos_ == window_.size()) {
      // The window is exhausted for this range: read the next inner point.
      if (inner_done_) {
        ELE_RETURN_NOT_OK(AdvanceOuter());
        continue;
      }
      ELE_ASSIGN_OR_RETURN(bool has, PullInner());
      if (!has) {
        inner_done_ = true;
        continue;
      }
    }
    const auto& [point, inner_row] = window_[emit_pos_];
    if (point.Compare(hi_) > 0) {
      ELE_RETURN_NOT_OK(AdvanceOuter());
      continue;
    }
    emit_pos_++;
    AppendJoined(outer_batch_, outer_row_, inner_row, out);
  }
  ELE_RETURN_NOT_OK(ApplyResidual(residual_, out));
  return out->num_rows() > 0;
}

}  // namespace elephant
