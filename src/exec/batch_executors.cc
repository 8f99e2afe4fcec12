#include "exec/batch_executors.h"

namespace elephant {

namespace {

std::vector<AggStates> FreshAggStates(const std::vector<AggSpec>& aggs) {
  std::vector<AggStates> states;
  states.reserve(aggs.size());
  for (const AggSpec& a : aggs) states.emplace_back(a);
  return states;
}

/// Evaluates the aggregate arguments at `positions` of `in` into `*args`
/// (nullptr for COUNT(*)).
Status EvalAggArgs(const std::vector<AggSpec>& aggs, const Batch& in,
                   const std::vector<uint32_t>& positions,
                   std::vector<const ColumnVector*>* args,
                   std::vector<ColumnVector>* scratch) {
  args->assign(aggs.size(), nullptr);
  scratch->resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFunc::kCountStar) continue;
    ELE_ASSIGN_OR_RETURN((*args)[a],
                         aggs[a].arg->EvalBatch(in, positions, &(*scratch)[a]));
  }
  return Status::OK();
}

}  // namespace

Schema MakeAggOutputSchema(const std::vector<ExprPtr>& groups,
                           const std::vector<AggSpec>& aggs) {
  std::vector<Column> cols;
  for (const ExprPtr& g : groups) {
    cols.emplace_back(g->ToString(), g->output_type(), g->output_length());
  }
  for (const AggSpec& a : aggs) {
    std::string name = !a.name.empty()
                           ? a.name
                           : std::string(AggFuncName(a.fn)) +
                                 (a.arg ? "(" + a.arg->ToString() + ")" : "");
    cols.emplace_back(std::move(name), a.OutputType(), a.OutputLength());
  }
  return Schema(std::move(cols));
}

Schema MakePartialAggSchema(const std::vector<ExprPtr>& groups,
                            const std::vector<AggSpec>& aggs) {
  std::vector<Column> cols;
  for (const ExprPtr& g : groups) {
    cols.emplace_back(g->ToString(), g->output_type(), g->output_length());
  }
  for (const AggSpec& a : aggs) AggStates::AppendPartialColumns(a, &cols);
  return Schema(std::move(cols));
}

// ---- Filter / projection ----

Result<bool> BatchFilterExecutor::NextBatch(Batch* out) {
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    if (out->empty()) continue;
    ELE_RETURN_NOT_OK(ApplyFilterToBatch(*predicate_, out));
    if (!out->empty()) return true;
  }
}

BatchProjectExecutor::BatchProjectExecutor(BatchExecutorPtr child,
                                           std::vector<ExprPtr> exprs,
                                           std::vector<std::string> names)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  std::vector<Column> cols;
  for (size_t i = 0; i < exprs_.size(); i++) {
    std::string name = i < names.size() && !names[i].empty()
                           ? names[i]
                           : exprs_[i]->ToString();
    cols.emplace_back(std::move(name), exprs_[i]->output_type(),
                      exprs_[i]->output_length());
  }
  schema_ = Schema(std::move(cols));
}

Result<bool> BatchProjectExecutor::NextBatch(Batch* out) {
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) return false;
    if (!in.empty()) break;
  }
  const std::vector<uint32_t> positions = in.ActiveIndices();
  out->Reset(schema_);
  ColumnVector scratch;
  for (size_t e = 0; e < exprs_.size(); ++e) {
    ELE_ASSIGN_OR_RETURN(const ColumnVector* result,
                         exprs_[e]->EvalBatch(in, positions, &scratch));
    out->col(e).Gather(*result, positions);
  }
  out->SetRowCount(static_cast<uint32_t>(positions.size()));
  return true;
}

// ---- Grouped (blocking) aggregation ----

GroupedAggregateExecutor::GroupedAggregateExecutor(ExecContext* ctx,
                                                   BatchExecutorPtr child,
                                                   std::vector<AggSpec>&& aggs,
                                                   size_t num_groups,
                                                   Schema schema)
    : ctx_(ctx),
      child_(std::move(child)),
      aggs_(std::move(aggs)),
      num_groups_(num_groups),
      schema_(std::move(schema)) {}

Status GroupedAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  table_.Clear();
  states_ = FreshAggStates(aggs_);
  group_cols_.resize(num_groups_);
  for (size_t c = 0; c < num_groups_; ++c) {
    group_cols_[c].Reset(schema_.ColumnAt(c).type);
  }
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    if (!in.empty()) ELE_RETURN_NOT_OK(Fold(in));
  }
  if (num_groups_ == 0 && table_.size() == 0) {
    // A scalar aggregate over empty input: one group of empty states.
    AssignGroups({}, {0});
  }
  emit_order_ = table_.SortedIds();
  emit_pos_ = 0;
  inited_ = true;
  return Status::OK();
}

void GroupedAggregateExecutor::AssignGroups(
    const std::vector<const ColumnVector*>& keys,
    const std::vector<uint32_t>& positions) {
  ExecCounters& counters = ctx_->counters();
  group_ids_.resize(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    const uint32_t pos = positions[i];
    key_.clear();
    for (const ColumnVector* k : keys) EncodeCell(*k, pos, &key_);
    bool created;
    const uint32_t id = table_.FindOrInsert(key_, &created);
    if (created) {
      counters.hash_inserts++;
      for (size_t c = 0; c < keys.size(); ++c) {
        group_cols_[c].Append(*keys[c], pos);
      }
      for (AggStates& s : states_) s.AddGroup();
    }
    group_ids_[i] = id;
  }
  counters.hash_probes += positions.size();
}

Result<bool> GroupedAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_);
  if (!inited_ || emit_pos_ == emit_order_.size()) return false;
  const size_t n = std::min<size_t>(kBatchCapacity, emit_order_.size() - emit_pos_);
  const uint32_t* ids = emit_order_.data() + emit_pos_;
  for (size_t c = 0; c < num_groups_; ++c) {
    out->col(c).Gather(group_cols_[c], ids, n);
  }
  for (size_t i = 0; i < n; ++i) Emit(ids[i], out, num_groups_);
  emit_pos_ += n;
  out->SetRowCount(static_cast<uint32_t>(n));
  return true;
}

BatchHashAggregateExecutor::BatchHashAggregateExecutor(
    ExecContext* ctx, BatchExecutorPtr child, std::vector<ExprPtr> group_exprs,
    std::vector<AggSpec> aggs, bool partial)
    : GroupedAggregateExecutor(
          ctx, std::move(child), std::move(aggs), group_exprs.size(),
          partial ? MakePartialAggSchema(group_exprs, aggs)
                  : MakeAggOutputSchema(group_exprs, aggs)),
      group_exprs_(std::move(group_exprs)),
      partial_(partial) {}

Status BatchHashAggregateExecutor::Fold(const Batch& in) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  ELE_RETURN_NOT_OK(
      EvalColumns(group_exprs_, in, positions, &keys_, &key_scratch_));
  ELE_RETURN_NOT_OK(EvalAggArgs(aggs_, in, positions, &args_, &arg_scratch_));
  AssignGroups(keys_, positions);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ELE_RETURN_NOT_OK(states_[a].Fold(args_[a], positions, group_ids_));
  }
  return Status::OK();
}

void BatchHashAggregateExecutor::Emit(uint32_t g, Batch* out, size_t col) const {
  for (size_t a = 0; a < states_.size(); ++a) {
    if (partial_) {
      states_[a].AppendPartial(g, out, col);
      col += AggStates::PartialWidth(aggs_[a].fn);
    } else {
      states_[a].AppendFinal(g, &out->col(col++));
    }
  }
}

Status BatchFinalAggregateExecutor::Fold(const Batch& in) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  keys_.resize(num_groups_);
  for (size_t g = 0; g < num_groups_; ++g) keys_[g] = &in.col(g);
  AssignGroups(keys_, positions);
  size_t col = num_groups_;
  for (size_t a = 0; a < aggs_.size(); a++) {
    const size_t width = AggStates::PartialWidth(aggs_[a].fn);
    ELE_RETURN_NOT_OK(states_[a].Merge(in.col(col), in.col(col + width - 1),
                                       positions, group_ids_));
    col += width;
  }
  return Status::OK();
}

void BatchFinalAggregateExecutor::Emit(uint32_t g, Batch* out, size_t col) const {
  for (const AggStates& s : states_) s.AppendFinal(g, &out->col(col++));
}

// ---- Stream aggregation ----

BatchStreamAggregateExecutor::BatchStreamAggregateExecutor(
    BatchExecutorPtr child, std::vector<ExprPtr> group_exprs,
    std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_ = MakeAggOutputSchema(group_exprs_, aggs_);
}

Status BatchStreamAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  states_ = FreshAggStates(aggs_);
  group_values_.resize(group_exprs_.size());
  has_group_ = false;
  child_done_ = false;
  final_emitted_ = false;
  positions_.clear();
  next_ = 0;
  return Status::OK();
}

Result<bool> BatchStreamAggregateExecutor::NextInput() {
  ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_));
  if (!has) return false;
  positions_ = in_.ActiveIndices();
  next_ = 0;
  ELE_RETURN_NOT_OK(EvalColumns(group_exprs_, in_, positions_, &group_cols_,
                                &group_scratch_));
  ELE_RETURN_NOT_OK(
      EvalAggArgs(aggs_, in_, positions_, &args_, &arg_scratch_));
  keys_.resize(positions_.size());
  for (size_t i = 0; i < positions_.size(); ++i) {
    keys_[i].clear();
    for (const ColumnVector* g : group_cols_) {
      EncodeCell(*g, positions_[i], &keys_[i]);
    }
  }
  return true;
}

void BatchStreamAggregateExecutor::StartGroup(uint32_t pos) {
  for (size_t c = 0; c < group_values_.size(); ++c) {
    group_values_[c].Reset(schema_.ColumnAt(c).type);
    group_values_[c].Append(*group_cols_[c], pos);
  }
  for (AggStates& s : states_) {
    s.Clear();
    s.AddGroup();
  }
  has_group_ = true;
}

void BatchStreamAggregateExecutor::FinishGroup(Batch* out) {
  size_t col = 0;
  for (const ColumnVector& v : group_values_) out->col(col++).Append(v, 0);
  for (const AggStates& s : states_) s.AppendFinal(0, &out->col(col++));
  out->SetRowCount(out->num_rows() + 1);
  has_group_ = false;
}

Result<bool> BatchStreamAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_);
  while (!out->full()) {
    if (next_ == positions_.size()) {
      if (!child_done_) {
        ELE_ASSIGN_OR_RETURN(bool has, NextInput());
        child_done_ = !has;
        continue;
      }
      if (final_emitted_) break;
      final_emitted_ = true;
      if (!has_group_ && group_exprs_.empty()) {
        // Scalar aggregate over empty input: one row of empty-group states.
        StartGroup(0);
      }
      if (has_group_) FinishGroup(out);
      continue;
    }
    if (has_group_ && keys_[next_] != current_key_) {
      // Group boundary (possibly mid-batch, possibly the carry-over from a
      // previous batch): finish the old group before starting the new one.
      FinishGroup(out);
      continue;
    }
    if (!has_group_) {
      current_key_ = keys_[next_];
      StartGroup(positions_[next_]);
    }
    size_t end = next_;
    while (end < positions_.size() && keys_[end] == current_key_) ++end;
    run_.assign(positions_.begin() + next_, positions_.begin() + end);
    zeros_.assign(end - next_, 0);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      ELE_RETURN_NOT_OK(states_[a].Fold(args_[a], run_, zeros_));
    }
    next_ = end;
  }
  return out->num_rows() > 0;
}

}  // namespace elephant
