#include "exec/join_executor.h"

namespace elephant {

InljBounds InljBounds::Clone() const {
  InljBounds out;
  for (const ExprPtr& e : eq_exprs) out.eq_exprs.push_back(e->Clone());
  out.lo = lo ? lo->Clone() : nullptr;
  out.lo_inclusive = lo_inclusive;
  out.hi = hi ? hi->Clone() : nullptr;
  out.hi_inclusive = hi_inclusive;
  return out;
}

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecContext* ctx, ExecutorPtr outer, const Table* inner_table,
    const SecondaryIndex* inner_index, InljBounds bounds, ExprPtr residual)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_table_(inner_table),
      inner_index_(inner_index),
      bounds_(std::move(bounds)),
      residual_(std::move(residual)) {
  const Schema& inner_schema =
      inner_index_ != nullptr ? inner_index_->out_schema : inner_table_->schema();
  schema_ = Schema::Concat(outer_->OutputSchema(), inner_schema);
}

Status IndexNestedLoopJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  outer_valid_ = false;
  inner_scan_.reset();
  return Status::OK();
}

Status IndexNestedLoopJoinExecutor::OpenInner() {
  std::vector<Value> eq_values;
  eq_values.reserve(bounds_.eq_exprs.size());
  for (const ExprPtr& e : bounds_.eq_exprs) {
    ELE_ASSIGN_OR_RETURN(Value v, e->Eval(outer_row_));
    eq_values.push_back(std::move(v));
  }
  std::optional<Value> lo, hi;
  if (bounds_.lo != nullptr) {
    ELE_ASSIGN_OR_RETURN(Value v, bounds_.lo->Eval(outer_row_));
    lo = std::move(v);
  }
  if (bounds_.hi != nullptr) {
    ELE_ASSIGN_OR_RETURN(Value v, bounds_.hi->Eval(outer_row_));
    hi = std::move(v);
  }
  KeyRange range = MakeKeyRange(eq_values, lo, bounds_.lo_inclusive, hi,
                                bounds_.hi_inclusive);
  if (inner_index_ != nullptr) {
    inner_scan_ = std::make_unique<SecondaryIndexScanExecutor>(
        ctx_, inner_table_, inner_index_, std::move(range));
  } else {
    inner_scan_ = std::make_unique<ClusteredScanExecutor>(ctx_, inner_table_,
                                                          std::move(range));
  }
  ctx_->counters().index_seeks++;
  return inner_scan_->Init();
}

Result<bool> IndexNestedLoopJoinExecutor::Next(Row* out) {
  while (true) {
    if (!outer_valid_) {
      ELE_ASSIGN_OR_RETURN(bool has, outer_->Next(&outer_row_));
      if (!has) return false;
      outer_valid_ = true;
      ELE_RETURN_NOT_OK(OpenInner());
    }
    Row inner_row;
    ELE_ASSIGN_OR_RETURN(bool has_inner, inner_scan_->Next(&inner_row));
    if (!has_inner) {
      outer_valid_ = false;
      continue;
    }
    out->clear();
    out->reserve(outer_row_.size() + inner_row.size());
    out->insert(out->end(), outer_row_.begin(), outer_row_.end());
    out->insert(out->end(), inner_row.begin(), inner_row.end());
    if (residual_ != nullptr) {
      ELE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *out));
      if (!pass) continue;
    }
    return true;
  }
}

HashJoinExecutor::HashJoinExecutor(ExecContext* ctx, ExecutorPtr left,
                                   ExecutorPtr right, std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys, ExprPtr residual)
    : ctx_(ctx),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->OutputSchema(), right_->OutputSchema());
}

Result<std::string> HashJoinExecutor::EncodeKeys(const std::vector<ExprPtr>& exprs,
                                                 const Row& row) {
  std::string key;
  for (const ExprPtr& e : exprs) {
    ELE_ASSIGN_OR_RETURN(Value v, e->Eval(row));
    if (v.is_null()) return std::string();  // NULL keys never join
    keycodec::Encode(v, &key);
  }
  return key;
}

Status HashJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(left_->Init());
  ELE_RETURN_NOT_OK(right_->Init());
  build_.clear();
  probe_valid_ = false;
  Row row;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
    if (!has) break;
    ELE_ASSIGN_OR_RETURN(std::string key, EncodeKeys(right_keys_, row));
    if (key.empty() && !right_keys_.empty()) continue;  // NULL key
    build_.emplace(std::move(key), row);
  }
  return Status::OK();
}

Result<bool> HashJoinExecutor::Next(Row* out) {
  while (true) {
    if (!probe_valid_) {
      ELE_ASSIGN_OR_RETURN(bool has, left_->Next(&probe_row_));
      if (!has) return false;
      ELE_ASSIGN_OR_RETURN(std::string key, EncodeKeys(left_keys_, probe_row_));
      if (key.empty() && !left_keys_.empty()) continue;  // NULL key
      matches_ = build_.equal_range(key);
      probe_valid_ = true;
    }
    if (matches_.first == matches_.second) {
      probe_valid_ = false;
      continue;
    }
    const Row& build_row = matches_.first->second;
    ++matches_.first;
    out->clear();
    out->reserve(probe_row_.size() + build_row.size());
    out->insert(out->end(), probe_row_.begin(), probe_row_.end());
    out->insert(out->end(), build_row.begin(), build_row.end());
    if (residual_ != nullptr) {
      ELE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *out));
      if (!pass) continue;
    }
    return true;
  }
}

BandMergeJoinExecutor::BandMergeJoinExecutor(ExecContext* ctx, ExecutorPtr outer,
                                             ExecutorPtr inner, ExprPtr outer_lo,
                                             ExprPtr outer_hi, ExprPtr inner_point,
                                             ExprPtr residual)
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
  do {
    ELE_ASSIGN_OR_RETURN(outer_valid_, outer_->Next(&outer_row_));
    if (!outer_valid_) return Status::OK();
    ELE_ASSIGN_OR_RETURN(lo_, outer_lo_->Eval(outer_row_));
    ELE_ASSIGN_OR_RETURN(hi_, outer_hi_->Eval(outer_row_));
  } while (lo_.is_null() || hi_.is_null());
  while (!window_.empty() && window_.front().first.Compare(lo_) < 0) {
    window_.pop_front();
  }
  return Status::OK();
}

Status BandMergeJoinExecutor::Init() {
  ELE_RETURN_NOT_OK(outer_->Init());
  ELE_RETURN_NOT_OK(inner_->Init());
  window_.clear();
  inner_done_ = false;
  return AdvanceOuter();
}

Result<bool> BandMergeJoinExecutor::Next(Row* out) {
  while (outer_valid_) {
    if (emit_pos_ == window_.size()) {
      // The window is exhausted for this range: read the next inner point.
      if (inner_done_) {
        ELE_RETURN_NOT_OK(AdvanceOuter());
        continue;
      }
      ELE_ASSIGN_OR_RETURN(bool has, inner_->Next(&inner_row_));
      if (!has) {
        inner_done_ = true;
        continue;
      }
      ELE_ASSIGN_OR_RETURN(Value point, inner_point_->Eval(inner_row_));
      // Points below lo are below every later range too (reuse the buffer).
      if (point.is_null() || point.Compare(lo_) < 0) continue;
      window_.emplace_back(std::move(point), std::move(inner_row_));
    }
    const auto& [point, inner_row] = window_[emit_pos_];
    if (point.Compare(hi_) > 0) {
      ELE_RETURN_NOT_OK(AdvanceOuter());
      continue;
    }
    emit_pos_++;
    out->clear();
    out->reserve(outer_row_.size() + inner_row.size());
    out->insert(out->end(), outer_row_.begin(), outer_row_.end());
    out->insert(out->end(), inner_row.begin(), inner_row.end());
    if (residual_ != nullptr) {
      ELE_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *out));
      if (!pass) continue;
    }
    return true;
  }
  return false;
}

}  // namespace elephant
