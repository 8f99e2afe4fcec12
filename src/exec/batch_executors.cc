#include "exec/batch_executors.h"

namespace elephant {

namespace {

Status EvalAggInputs(const Batch& in, const std::vector<uint32_t>& positions,
                     const std::vector<ExprPtr>& group_exprs,
                     const std::vector<AggSpec>& aggs, AggInputVectors* v) {
  v->group_cols.resize(group_exprs.size());
  for (size_t g = 0; g < group_exprs.size(); ++g) {
    ELE_RETURN_NOT_OK(
        group_exprs[g]->EvalBatch(in, positions, &v->group_cols[g]));
  }
  v->agg_cols.resize(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].fn == AggFunc::kCountStar) continue;
    ELE_RETURN_NOT_OK(aggs[a].arg->EvalBatch(in, positions, &v->agg_cols[a]));
  }
  return Status::OK();
}

/// Encodes the group key of row `pos` into `*key`.
void EncodeGroupKeyAt(const AggInputVectors& v, uint32_t pos,
                      std::string* key) {
  key->clear();
  for (const auto& col : v.group_cols) keycodec::Encode(col[pos], key);
}

/// Moves the group values of row `pos` into `*values` (a group's first row;
/// the vectors are per batch and the key is already encoded).
void TakeGroupValuesAt(AggInputVectors* v, uint32_t pos, Row* values) {
  values->clear();
  for (auto& col : v->group_cols) values->push_back(std::move(col[pos]));
}

Status AccumulateAt(const std::vector<AggSpec>& aggs, const AggInputVectors& v,
                    uint32_t pos, std::vector<AggState>* states) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn == AggFunc::kCountStar) {
      ELE_RETURN_NOT_OK((*states)[i].Accumulate(Value()));
    } else {
      ELE_RETURN_NOT_OK((*states)[i].Accumulate(v.agg_cols[i][pos]));
    }
  }
  return Status::OK();
}

std::vector<AggState> FreshAggStates(const std::vector<AggSpec>& aggs) {
  std::vector<AggState> states;
  states.reserve(aggs.size());
  for (const AggSpec& a : aggs) states.emplace_back(a.fn);
  return states;
}

}  // namespace

Result<std::vector<Row>> DrainBatches(BatchExecutor* exec) {
  ELE_RETURN_NOT_OK(exec->Init());
  std::vector<Row> rows;
  Batch batch;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, exec->NextBatch(&batch));
    if (!has) break;
    batch.MoveActiveRowsTo(&rows);
  }
  return rows;
}

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
  for (const AggSpec& a : aggs) AggState::AppendPartialColumns(a, &cols);
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
  out->Reset(exprs_.size());
  std::vector<Value> result;
  for (size_t e = 0; e < exprs_.size(); ++e) {
    ELE_RETURN_NOT_OK(exprs_[e]->EvalBatch(in, positions, &result));
    auto& col = out->col(e);
    col.reserve(positions.size());
    for (uint32_t pos : positions) col.push_back(std::move(result[pos]));
  }
  out->SetRowCount(static_cast<uint32_t>(positions.size()));
  return true;
}

// ---- Grouped (blocking) aggregation ----

Status GroupedAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  table_.Clear();
  groups_.clear();
  Batch in;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in));
    if (!has) break;
    ELE_RETURN_NOT_OK(Fold(in));
  }
  if (scalar_ && groups_.empty()) {
    bool created;
    key_.clear();
    GroupForKey(&created);
  }
  emit_order_ = table_.SortedIds();
  emit_pos_ = 0;
  inited_ = true;
  return Status::OK();
}

GroupedAggregateExecutor::Group& GroupedAggregateExecutor::GroupForKey(
    bool* created) {
  ExecCounters& counters = ctx_->counters();
  counters.hash_probes++;
  const uint32_t id = table_.FindOrInsert(key_, created);
  if (*created) {
    counters.hash_inserts++;
    groups_.push_back(Group{Row{}, FreshAggStates(aggs_)});
  }
  return groups_[id];
}

Result<bool> GroupedAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  if (!inited_) return false;
  Row row;
  while (!out->full() && emit_pos_ < emit_order_.size()) {
    Group& group = groups_[emit_order_[emit_pos_++]];
    row = std::move(group.group_values);  // each group is emitted once
    Emit(group, &row);
    out->AppendRowMove(std::move(row));
  }
  return out->num_rows() > 0;
}

BatchHashAggregateExecutor::BatchHashAggregateExecutor(
    ExecContext* ctx, BatchExecutorPtr child, std::vector<ExprPtr> group_exprs,
    std::vector<AggSpec> aggs, bool partial)
    : GroupedAggregateExecutor(
          ctx, std::move(child), std::move(aggs), group_exprs.empty(),
          partial ? MakePartialAggSchema(group_exprs, aggs)
                  : MakeAggOutputSchema(group_exprs, aggs)),
      group_exprs_(std::move(group_exprs)),
      partial_(partial) {}

Status BatchHashAggregateExecutor::Fold(const Batch& in) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  ELE_RETURN_NOT_OK(
      EvalAggInputs(in, positions, group_exprs_, aggs_, &inputs_));
  bool created;
  for (uint32_t pos : positions) {
    EncodeGroupKeyAt(inputs_, pos, &key_);
    Group& g = GroupForKey(&created);
    if (created) TakeGroupValuesAt(&inputs_, pos, &g.group_values);
    ELE_RETURN_NOT_OK(AccumulateAt(aggs_, inputs_, pos, &g.states));
  }
  return Status::OK();
}

void BatchHashAggregateExecutor::Emit(const Group& group, Row* out) const {
  for (const AggState& s : group.states) {
    if (partial_) {
      s.AppendPartial(out);
    } else {
      out->push_back(s.Finalize());
    }
  }
}

Status BatchFinalAggregateExecutor::Fold(const Batch& in) {
  const uint32_t n = in.ActiveCount();
  bool created;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t r = in.ActiveIndex(i);
    key_.clear();
    for (size_t g = 0; g < num_groups_; g++) {
      keycodec::Encode(in.col(g)[r], &key_);
    }
    Group& group = GroupForKey(&created);
    if (created) {
      for (size_t g = 0; g < num_groups_; g++) {
        group.group_values.push_back(in.col(g)[r]);
      }
    }
    size_t col = num_groups_;
    for (size_t a = 0; a < aggs_.size(); a++) {
      const size_t width = AggState::PartialWidth(aggs_[a].fn);
      ELE_RETURN_NOT_OK(group.states[a].MergePartial(
          in.col(col)[r], in.col(col + width - 1)[r]));
      col += width;
    }
  }
  return Status::OK();
}

void BatchFinalAggregateExecutor::Emit(const Group& group, Row* out) const {
  for (const AggState& s : group.states) out->push_back(s.Finalize());
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
  has_group_ = false;
  child_done_ = false;
  final_emitted_ = false;
  pending_.clear();
  return Status::OK();
}

Row BatchStreamAggregateExecutor::FinishCurrent() {
  Row out;
  out.reserve(current_values_.size() + states_.size());
  for (Value& v : current_values_) out.push_back(std::move(v));
  for (const AggState& s : states_) out.push_back(s.Finalize());
  has_group_ = false;
  return out;
}

Status BatchStreamAggregateExecutor::ConsumeBatch(const Batch& in) {
  const std::vector<uint32_t> positions = in.ActiveIndices();
  ELE_RETURN_NOT_OK(
      EvalAggInputs(in, positions, group_exprs_, aggs_, &inputs_));
  for (uint32_t pos : positions) {
    EncodeGroupKeyAt(inputs_, pos, &key_);
    if (has_group_ && key_ != current_key_) {
      // Group boundary (possibly mid-batch, possibly the carry-over from a
      // previous batch): finish the old group before starting the new one.
      pending_.push_back(FinishCurrent());
    }
    if (!has_group_) {
      has_group_ = true;
      current_key_.swap(key_);
      TakeGroupValuesAt(&inputs_, pos, &current_values_);
      states_ = FreshAggStates(aggs_);
    }
    ELE_RETURN_NOT_OK(AccumulateAt(aggs_, inputs_, pos, &states_));
  }
  return Status::OK();
}

Result<bool> BatchStreamAggregateExecutor::NextBatch(Batch* out) {
  out->Reset(schema_.NumColumns());
  while (!out->full()) {
    if (!pending_.empty()) {
      out->AppendRowMove(std::move(pending_.front()));
      pending_.pop_front();
      continue;
    }
    if (child_done_) {
      if (final_emitted_) break;
      final_emitted_ = true;
      if (has_group_) {
        pending_.push_back(FinishCurrent());
      } else if (group_exprs_.empty()) {
        // Scalar aggregate over empty input: one row of empty-group states.
        states_ = FreshAggStates(aggs_);
        current_values_.clear();
        has_group_ = true;
        pending_.push_back(FinishCurrent());
      }
      continue;
    }
    ELE_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_));
    if (!has) {
      child_done_ = true;
      continue;
    }
    ELE_RETURN_NOT_OK(ConsumeBatch(in_));
  }
  return out->num_rows() > 0;
}
}  // namespace elephant
