#include "exec/join_executor.h"

namespace elephant {

namespace {

/// Appends physical row `r` of `outer` to the leading columns of `out`.
void AppendOuter(const Batch& outer, uint32_t r, Batch* out) {
  for (size_t c = 0; c < outer.num_cols(); ++c) {
    out->col(c).push_back(outer.col(c)[r]);
  }
}

/// Appends one output row: physical row `r` of `outer`, then `inner`.
void AppendJoined(const Batch& outer, uint32_t r, const Row& inner,
                  Batch* out) {
  AppendOuter(outer, r, out);
  const size_t width = outer.num_cols();
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

/// Applies a join residual to a finished output batch.
Status ApplyResidual(const ExprPtr& residual, Batch* out) {
  if (residual == nullptr || out->num_rows() == 0) return Status::OK();
  return ApplyFilterToBatch(*residual, out);
}

}  // namespace

// ---- Index nested-loop join ----

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecContext* ctx, BatchExecutorPtr outer, const Table* inner_table,
    const SecondaryIndex* inner_index, InljBounds bounds, ExprPtr residual,
    std::optional<std::vector<size_t>> inner_cols)
    : ctx_(ctx),
      outer_(std::move(outer)),
      bounds_(std::move(bounds)),
      residual_(std::move(residual)),
      inner_(ctx, inner_table, inner_index, AccessIntent::kPointLookup,
             std::move(inner_cols)) {
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_.schema());
  // Index key columns lead a covering index's rows; clustered keys are
  // the table's cluster columns.
  for (size_t i = 0; i < bounds_.eq_exprs.size(); ++i) {
    eq_types_.push_back(
        inner_index != nullptr
            ? inner_index->out_schema.ColumnAt(i).type
            : inner_table->schema()
                  .ColumnAt(inner_table->cluster_cols()[i])
                  .type);
  }
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

Result<bool> IndexNestedLoopJoinExecutor::Probe(uint32_t r) {
  eq_row_.clear();
  Value cast;
  for (size_t i = 0; i < eq_vals_.size(); ++i) {
    const Value* k = CastKey(eq_vals_[i][r], eq_types_[i], &cast);
    if (k == nullptr) return false;
    eq_row_.push_back(*k);
  }
  std::optional<Value> lo, hi;
  if (bounds_.lo != nullptr) lo = lo_vals_[r];
  if (bounds_.hi != nullptr) hi = hi_vals_[r];
  MakeKeyRange(eq_row_, lo, bounds_.lo_inclusive, hi, bounds_.hi_inclusive,
               &range_);
  ctx_->counters().index_seeks++;
  ELE_RETURN_NOT_OK(inner_.Seek(range_));
  return true;
}

Result<bool> IndexNestedLoopJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (!out->full()) {
    if (inner_open_) {
      while (!out->full() && inner_.Valid()) {
        AppendOuter(outer_batch_, outer_row_, out);
        ELE_RETURN_NOT_OK(inner_.ReadInto(out, outer_batch_.num_cols()));
        out->SetRowCount(out->num_rows() + 1);
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
    ELE_ASSIGN_OR_RETURN(inner_open_, Probe(outer_row_));
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
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    key_types_.push_back(CommonKeyType(left_keys_[i]->output_type(),
                                       right_keys_[i]->output_type()));
  }
}

bool HashJoinExecutor::EncodeKey(uint32_t r) {
  key_.clear();
  Value cast;
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    const Value* k = CastKey(key_cols_[i][r], key_types_[i], &cast);
    if (k == nullptr) return false;
    keycodec::Encode(*k, &key_);
  }
  return true;
}

Status HashJoinExecutor::AddBuildBatch(Batch* in) {
  ELE_RETURN_NOT_OK(EvalColumns(right_keys_, *in, &key_cols_));
  const size_t width = in->num_cols();
  const uint32_t n = in->ActiveCount();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = in->ActiveIndex(i);
    if (!EncodeKey(r)) continue;
    if (table_.size() % kBatchCapacity == 0) {
      build_.emplace_back().Reset(width);
      for (size_t c = 0; c < width; ++c) {
        build_.back().col(c).reserve(kBatchCapacity);
      }
    }
    table_.Insert(key_);
    Batch& chunk = build_.back();
    for (size_t c = 0; c < width; ++c) {
      chunk.col(c).push_back(std::move(in->col(c)[r]));
    }
    chunk.SetRowCount(chunk.num_rows() + 1);
  }
  return Status::OK();
}

Status HashJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(left_->Init());
  ELE_RETURN_NOT_OK(right_->Init());
  table_.Clear();
  build_.clear();
  probe_.Reset(0);
  probe_pos_ = 0;
  probe_done_ = false;
  match_ = KeyTable::kNone;
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, right_->NextBatch(&in));
    if (!has) break;
    ELE_RETURN_NOT_OK(AddBuildBatch(&in));
  }
  ctx_->counters().hash_inserts += table_.size();
  return Status::OK();
}

Result<bool> HashJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (!out->full()) {
    if (match_ != KeyTable::kNone) {
      const Batch& chunk = build_[match_ / kBatchCapacity];
      const uint32_t row = match_ % kBatchCapacity;
      AppendOuter(probe_, probe_row_, out);
      for (size_t c = 0; c < chunk.num_cols(); ++c) {
        out->col(probe_.num_cols() + c).push_back(chunk.col(c)[row]);
      }
      out->SetRowCount(out->num_rows() + 1);
      match_ = table_.NextMatch(match_);
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
    if (EncodeKey(probe_row_)) {
      ctx_->counters().hash_probes++;
      match_ = table_.Find(key_);
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
