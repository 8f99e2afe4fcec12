#include "exec/join_executor.h"

namespace elephant {

namespace {

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
  outer_batch_.Reset(outer_->OutputSchema());
  outer_pos_ = 0;
  inner_open_ = false;
  outer_done_ = false;
  outer_rows_.clear();
  return outer_->Init();
}

Result<bool> IndexNestedLoopJoinExecutor::NextOuterBatch() {
  do {
    ELE_ASSIGN_OR_RETURN(bool has, outer_->NextBatch(&outer_batch_));
    if (!has) return false;
  } while (outer_batch_.empty());
  const std::vector<uint32_t> rows = outer_batch_.ActiveIndices();
  ELE_RETURN_NOT_OK(
      EvalColumns(bounds_.eq_exprs, outer_batch_, rows, &eq_cols_, &eq_scratch_));
  if (bounds_.lo != nullptr) {
    ELE_ASSIGN_OR_RETURN(lo_col_,
                         bounds_.lo->EvalBatch(outer_batch_, rows, &lo_scratch_));
  }
  if (bounds_.hi != nullptr) {
    ELE_ASSIGN_OR_RETURN(hi_col_,
                         bounds_.hi->EvalBatch(outer_batch_, rows, &hi_scratch_));
  }
  outer_pos_ = 0;
  return true;
}

Result<bool> IndexNestedLoopJoinExecutor::Probe(uint32_t r) {
  range_.lo.clear();
  for (size_t i = 0; i < eq_cols_.size(); ++i) {
    if (!EncodeKeyCell(*eq_cols_[i], r, eq_types_[i], &range_.lo)) return false;
  }
  if (lo_col_ != nullptr) {
    lo_key_.clear();
    EncodeCell(*lo_col_, r, &lo_key_);
  }
  if (hi_col_ != nullptr) {
    hi_key_.clear();
    EncodeCell(*hi_col_, r, &hi_key_);
  }
  BoundKeyRange(lo_col_ != nullptr ? &lo_key_ : nullptr, bounds_.lo_inclusive,
                hi_col_ != nullptr ? &hi_key_ : nullptr, bounds_.hi_inclusive,
                &range_);
  ctx_->counters().index_seeks++;
  ELE_RETURN_NOT_OK(inner_.Seek(range_));
  return true;
}

void IndexNestedLoopJoinExecutor::FlushOuter(Batch* out) {
  GatherColumns(outer_batch_, outer_rows_, 0, out);
  outer_rows_.clear();
}

Result<bool> IndexNestedLoopJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_);
  const size_t width = outer_batch_.num_cols();
  uint32_t n = 0;
  while (n < kBatchCapacity) {
    if (inner_open_) {
      while (n < kBatchCapacity && inner_.Valid()) {
        outer_rows_.push_back(outer_row_);
        ELE_RETURN_NOT_OK(inner_.ReadInto(out, width));
        n++;
      }
      if (n == kBatchCapacity) break;
      inner_open_ = false;
    }
    if (outer_done_) break;
    if (outer_pos_ == outer_batch_.ActiveCount()) {
      FlushOuter(out);  // the outer cells before the outer batch changes
      ELE_ASSIGN_OR_RETURN(bool has, NextOuterBatch());
      if (!has) {
        outer_done_ = true;
        break;
      }
    }
    outer_row_ = outer_batch_.ActiveIndex(outer_pos_++);
    ELE_ASSIGN_OR_RETURN(inner_open_, Probe(outer_row_));
  }
  FlushOuter(out);
  out->SetRowCount(n);
  ELE_RETURN_NOT_OK(ApplyResidual(residual_, out));
  return n > 0;
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
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    if (!EncodeKeyCell(*key_cols_[i], r, key_types_[i], &key_)) return false;
  }
  return true;
}

Status HashJoinExecutor::AddBuildBatch(const Batch& in) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  ELE_RETURN_NOT_OK(
      EvalColumns(right_keys_, in, positions, &key_cols_, &key_scratch_));
  std::vector<uint32_t> keyed;
  keyed.reserve(positions.size());
  for (uint32_t r : positions) {
    if (!EncodeKey(r)) continue;
    table_.Insert(key_);
    keyed.push_back(r);
  }
  GatherColumns(in, keyed, 0, &build_);
  return Status::OK();
}

Status HashJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(left_->Init());
  ELE_RETURN_NOT_OK(right_->Init());
  table_.Clear();
  build_.Reset(right_->OutputSchema());
  probe_.Reset(left_->OutputSchema());
  probe_pos_ = 0;
  probe_done_ = false;
  match_ = KeyTable::kNone;
  probe_rows_.clear();
  build_rows_.clear();
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, right_->NextBatch(&in));
    if (!has) break;
    ELE_RETURN_NOT_OK(AddBuildBatch(in));
  }
  ctx_->counters().hash_inserts += table_.size();
  return Status::OK();
}

void HashJoinExecutor::FlushPairs(Batch* out) {
  GatherColumns(probe_, probe_rows_, 0, out);
  GatherColumns(build_, build_rows_, probe_.num_cols(), out);
  probe_rows_.clear();
  build_rows_.clear();
}

Result<bool> HashJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_);
  uint32_t n = 0;
  while (n < kBatchCapacity) {
    if (match_ != KeyTable::kNone) {
      probe_rows_.push_back(probe_row_);
      build_rows_.push_back(match_);
      n++;
      match_ = table_.NextMatch(match_);
      continue;
    }
    if (probe_done_) break;
    if (probe_pos_ == probe_.ActiveCount()) {
      FlushPairs(out);  // the probe cells before the probe batch changes
      ELE_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&probe_));
      if (!has) {
        probe_done_ = true;
        break;
      }
      ELE_RETURN_NOT_OK(EvalColumns(left_keys_, probe_, probe_.ActiveIndices(),
                                    &key_cols_, &key_scratch_));
      probe_pos_ = 0;
      continue;
    }
    probe_row_ = probe_.ActiveIndex(probe_pos_++);
    if (EncodeKey(probe_row_)) {
      ctx_->counters().hash_probes++;
      match_ = table_.Find(key_);
    }
  }
  FlushPairs(out);
  out->SetRowCount(n);
  ELE_RETURN_NOT_OK(ApplyResidual(residual_, out));
  return n > 0;
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
  window_schema_ = Schema::Concat(
      inner_->OutputSchema(),
      Schema({Column("point", inner_point_->output_type())}));
}

Status BandMergeJoinExecutor::AdvanceOuter() {
  emit_pos_ = 0;
  outer_valid_ = false;
  while (!outer_valid_) {
    if (outer_pos_ == outer_batch_.ActiveCount()) {
      ELE_ASSIGN_OR_RETURN(bool has, outer_->NextBatch(&outer_batch_));
      if (!has) return Status::OK();
      const std::vector<uint32_t> positions = outer_batch_.ActiveIndices();
      ELE_ASSIGN_OR_RETURN(
          los_, outer_lo_->EvalBatch(outer_batch_, positions, &lo_scratch_));
      ELE_ASSIGN_OR_RETURN(
          his_, outer_hi_->EvalBatch(outer_batch_, positions, &hi_scratch_));
      outer_pos_ = 0;
      continue;
    }
    outer_row_ = outer_batch_.ActiveIndex(outer_pos_++);
    outer_valid_ = !los_->IsNull(outer_row_) && !his_->IsNull(outer_row_);
  }
  const ColumnVector& points = window_.col(window_.num_cols() - 1);
  while (window_front_ < window_.num_rows() &&
         CompareCells(points, WindowRow(0), *los_, outer_row_) < 0) {
    window_front_++;
  }
  return Status::OK();
}

Result<bool> BandMergeJoinExecutor::PullInner() {
  while (true) {
    if (inner_pos_ == inner_batch_.ActiveCount()) {
      ELE_ASSIGN_OR_RETURN(bool has, inner_->NextBatch(&inner_batch_));
      if (!has) return false;
      ELE_ASSIGN_OR_RETURN(
          points_, inner_point_->EvalBatch(
                       inner_batch_, inner_batch_.ActiveIndices(), &point_scratch_));
      inner_pos_ = 0;
      continue;
    }
    const uint32_t r = inner_batch_.ActiveIndex(inner_pos_++);
    // Points below lo are below every later range too.
    if (points_->IsNull(r) || CompareCells(*points_, r, *los_, outer_row_) < 0) {
      continue;
    }
    if (window_front_ >= kBatchCapacity &&
        2 * window_front_ >= window_.num_rows()) {
      // Compact: drop the rows no later outer row can reach.
      std::vector<uint32_t> live;
      for (uint32_t w = static_cast<uint32_t>(window_front_);
           w < window_.num_rows(); ++w) {
        live.push_back(w);
      }
      Batch compacted;
      compacted.Reset(window_schema_);
      GatherColumns(window_, live, 0, &compacted);
      compacted.SetRowCount(static_cast<uint32_t>(live.size()));
      window_ = std::move(compacted);
      window_front_ = 0;
    }
    const size_t width = inner_batch_.num_cols();
    for (size_t c = 0; c < width; ++c) {
      window_.col(c).Append(inner_batch_.col(c), r);
    }
    window_.col(width).Append(*points_, r);
    window_.SetRowCount(window_.num_rows() + 1);
    return true;
  }
}

Status BandMergeJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  ELE_RETURN_NOT_OK(inner_->Init());
  outer_batch_.Reset(outer_->OutputSchema());
  inner_batch_.Reset(inner_->OutputSchema());
  outer_pos_ = 0;
  inner_pos_ = 0;
  window_.Reset(window_schema_);
  window_front_ = 0;
  inner_done_ = false;
  return AdvanceOuter();
}

Result<bool> BandMergeJoinExecutor::NextBatch(Batch* out) {
  out->Reset(schema_);
  const size_t outer_width = outer_batch_.num_cols();
  const size_t inner_width = window_.num_cols() - 1;
  while (outer_valid_ && !out->full()) {
    if (window_front_ + emit_pos_ == window_.num_rows()) {
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
    const uint32_t w = WindowRow(emit_pos_);
    if (CompareCells(window_.col(inner_width), w, *his_, outer_row_) > 0) {
      ELE_RETURN_NOT_OK(AdvanceOuter());
      continue;
    }
    emit_pos_++;
    for (size_t c = 0; c < outer_width; ++c) {
      out->col(c).Append(outer_batch_.col(c), outer_row_);
    }
    for (size_t c = 0; c < inner_width; ++c) {
      out->col(outer_width + c).Append(window_.col(c), w);
    }
    out->SetRowCount(out->num_rows() + 1);
  }
  ELE_RETURN_NOT_OK(ApplyResidual(residual_, out));
  return out->num_rows() > 0;
}

}  // namespace elephant
