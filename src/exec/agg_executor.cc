#include "exec/agg_executor.h"

namespace elephant {

Schema MakeAggOutputSchema(const Schema& input, const std::vector<ExprPtr>& groups,
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

namespace {

Result<std::string> EncodeGroupKey(const std::vector<ExprPtr>& exprs, const Row& row,
                                   Row* values_out) {
  std::string key;
  values_out->clear();
  for (const ExprPtr& e : exprs) {
    ELE_ASSIGN_OR_RETURN(Value v, e->Eval(row));
    keycodec::Encode(v, &key);
    values_out->push_back(std::move(v));
  }
  return key;
}

Status AccumulateAggs(const std::vector<AggSpec>& aggs, std::vector<AggState>* states,
                      const Row& row) {
  for (size_t i = 0; i < aggs.size(); i++) {
    if (aggs[i].fn == AggFunc::kCountStar) {
      ELE_RETURN_NOT_OK((*states)[i].Accumulate(Value()));
    } else {
      auto v = aggs[i].arg->Eval(row);
      if (!v.ok()) return v.status();
      ELE_RETURN_NOT_OK((*states)[i].Accumulate(v.value()));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<AggState> FreshAggStates(const std::vector<AggSpec>& aggs) {
  std::vector<AggState> states;
  states.reserve(aggs.size());
  for (const AggSpec& a : aggs) states.emplace_back(a.fn);
  return states;
}

HashAggregateExecutor::HashAggregateExecutor(ExecContext* ctx, ExecutorPtr child,
                                             std::vector<ExprPtr> group_exprs,
                                             std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_ = MakeAggOutputSchema(child_->OutputSchema(), group_exprs_, aggs_);
}

Status HashAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  groups_.clear();
  Row row, group_values;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) break;
    ELE_ASSIGN_OR_RETURN(std::string key,
                         EncodeGroupKey(group_exprs_, row, &group_values));
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      it = groups_.emplace(std::move(key), Group{group_values, FreshAggStates(aggs_)})
               .first;
    }
    ELE_RETURN_NOT_OK(AccumulateAggs(aggs_, &it->second.states, row));
  }
  // Scalar aggregation (no GROUP BY) over empty input yields one row.
  if (group_exprs_.empty() && groups_.empty()) {
    groups_.emplace(std::string(), Group{Row{}, FreshAggStates(aggs_)});
  }
  emit_it_ = groups_.begin();
  inited_ = true;
  return Status::OK();
}

Result<bool> HashAggregateExecutor::Next(Row* out) {
  if (!inited_ || emit_it_ == groups_.end()) return false;
  out->clear();
  out->reserve(group_exprs_.size() + aggs_.size());
  for (const Value& v : emit_it_->second.group_values) out->push_back(v);
  for (const AggState& s : emit_it_->second.states) out->push_back(s.Finalize());
  ++emit_it_;
  return true;
}

StreamAggregateExecutor::StreamAggregateExecutor(ExecContext* ctx, ExecutorPtr child,
                                                 std::vector<ExprPtr> group_exprs,
                                                 std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_ = MakeAggOutputSchema(child_->OutputSchema(), group_exprs_, aggs_);
}

Status StreamAggregateExecutor::Init() {
  ELE_RETURN_NOT_OK(child_->Init());
  has_group_ = false;
  child_done_ = false;
  return Status::OK();
}

void StreamAggregateExecutor::EmitCurrent(Row* out) {
  out->clear();
  out->reserve(current_values_.size() + states_.size());
  for (const Value& v : current_values_) out->push_back(v);
  for (const AggState& s : states_) out->push_back(s.Finalize());
  has_group_ = false;
}

Result<bool> StreamAggregateExecutor::Next(Row* out) {
  if (child_done_) {
    if (has_group_) {
      EmitCurrent(out);
      return true;
    }
    return false;
  }
  Row row, group_values;
  while (true) {
    ELE_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
    if (!has) {
      child_done_ = true;
      if (has_group_) {
        EmitCurrent(out);
        return true;
      }
      // Scalar aggregate over empty input: one row of empty-group states.
      if (group_exprs_.empty()) {
        states_ = FreshAggStates(aggs_);
        current_values_.clear();
        has_group_ = true;
        EmitCurrent(out);
        return true;
      }
      return false;
    }
    ELE_ASSIGN_OR_RETURN(std::string key,
                         EncodeGroupKey(group_exprs_, row, &group_values));
    if (!has_group_) {
      has_group_ = true;
      current_key_ = std::move(key);
      current_values_ = std::move(group_values);
      states_ = FreshAggStates(aggs_);
      ELE_RETURN_NOT_OK(AccumulateAggs(aggs_, &states_, row));
      continue;
    }
    if (key == current_key_) {
      ELE_RETURN_NOT_OK(AccumulateAggs(aggs_, &states_, row));
      continue;
    }
    // Group boundary: emit the finished group, then start the new one.
    Row finished_out;
    EmitCurrent(&finished_out);
    *out = std::move(finished_out);
    has_group_ = true;
    current_key_ = std::move(key);
    current_values_ = std::move(group_values);
    states_ = FreshAggStates(aggs_);
    ELE_RETURN_NOT_OK(AccumulateAggs(aggs_, &states_, row));
    return true;
  }
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

}  // namespace elephant
