#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "exec/agg_executor.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"
#include "exec/scan_executor.h"

namespace elephant {

/// Batch twin of ClusteredScanExecutor: materializes up to kBatchCapacity
/// table rows per NextBatch call. Same iterator, same key range, same
/// rows_scanned accounting per row pulled from storage.
/// batch: this IS the vectorized scan (row twin: ClusteredScanExecutor).
class BatchClusteredScanExecutor final : public BatchExecutor {
 public:
  BatchClusteredScanExecutor(ExecContext* ctx, const Table* table,
                             KeyRange range = {},
                             AccessIntent intent = AccessIntent::kPointLookup)
      : ctx_(ctx), table_(table), range_(std::move(range)), intent_(intent) {}

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return table_->schema(); }

 private:
  ExecContext* ctx_;
  const Table* table_;
  KeyRange range_;
  AccessIntent intent_;
  std::optional<Table::RowIterator> it_;
};

/// Batch twin of SecondaryIndexScanExecutor (covering-index range scan);
/// decodes through the same DecodeSecondaryIndexRow helper as the row path.
/// batch: this IS the vectorized index scan (row twin:
/// SecondaryIndexScanExecutor).
class BatchSecondaryIndexScanExecutor final : public BatchExecutor {
 public:
  BatchSecondaryIndexScanExecutor(ExecContext* ctx, const Table* table,
                                  const SecondaryIndex* index, KeyRange range = {},
                                  AccessIntent intent = AccessIntent::kPointLookup)
      : ctx_(ctx),
        table_(table),
        index_(index),
        range_(std::move(range)),
        intent_(intent) {}

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return index_->out_schema; }

 private:
  ExecContext* ctx_;
  const Table* table_;
  const SecondaryIndex* index_;
  KeyRange range_;
  AccessIntent intent_;
  std::optional<BPlusTree::Iterator> it_;
};

/// Batch filter: narrows the child batch's selection vector to rows where
/// the predicate is non-NULL true (ApplyFilterToBatch), without copying
/// survivors. Fully-filtered batches are skipped internally, so a true
/// return always carries at least one live row.
class BatchFilterExecutor final : public BatchExecutor {
 public:
  BatchFilterExecutor(BatchExecutorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}

  Status Init() override { return child_->Init(); }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  BatchExecutorPtr child_;
  ExprPtr predicate_;
};

/// Batch projection: evaluates one expression per output column over the
/// live rows of each child batch and emits a dense (selection-free) batch.
class BatchProjectExecutor final : public BatchExecutor {
 public:
  BatchProjectExecutor(BatchExecutorPtr child, std::vector<ExprPtr> exprs,
                       std::vector<std::string> names);

  Status Init() override { return child_->Init(); }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  BatchExecutorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// Batch twin of HashAggregateExecutor: consumes the whole child in Init()
/// — group keys and aggregate arguments evaluated vectorized per batch,
/// folded through the same AggState accumulators in the same row order —
/// then drains groups in encoded-key order, kBatchCapacity rows at a time.
class BatchHashAggregateExecutor final : public BatchExecutor {
 public:
  BatchHashAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                             std::vector<ExprPtr> group_exprs,
                             std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  struct Group {
    Row group_values;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups_;
  std::map<std::string, Group>::iterator emit_it_;
  bool inited_ = false;
};

/// Batch twin of StreamAggregateExecutor: input arrives clustered by the
/// group expressions; the current group's state is carried across batch
/// boundaries so a group split over two (or more) batches folds exactly
/// like the row path.
class BatchStreamAggregateExecutor final : public BatchExecutor {
 public:
  BatchStreamAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                               std::vector<ExprPtr> group_exprs,
                               std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  /// Folds one child batch into group states, appending each finished
  /// group's output row to `pending_`.
  Status ConsumeBatch(const Batch& in);
  Row FinishCurrent();

  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  bool has_group_ = false;
  bool child_done_ = false;
  bool final_emitted_ = false;
  std::string current_key_;
  Row current_values_;
  std::vector<AggState> states_;
  std::deque<Row> pending_;
  Batch in_;
};

/// Worker-side half of a parallel aggregation: groups its input like
/// BatchHashAggregateExecutor but emits partial transfer rows instead of
/// finalized values (COUNT -> count, SUM -> running sum, AVG -> (sum, count),
/// ...). One instance runs per morsel; a BatchFinalAggregateExecutor above
/// the exchange merges the partial rows exactly. A scalar partial aggregate
/// over an empty morsel still emits one row, mirroring serial scalar
/// aggregation.
class BatchPartialAggregateExecutor final : public BatchExecutor {
 public:
  BatchPartialAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                                std::vector<ExprPtr> group_exprs,
                                std::vector<AggSpec> aggs);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  struct Group {
    Row group_values;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups_;
  std::map<std::string, Group>::iterator emit_it_;
  bool inited_ = false;
};

/// Session-side half of a parallel aggregation: merges partial transfer rows
/// (group values ++ partial states), usually via a BatchFromRowAdapter over
/// the Gather exchange, through AggState::MergePartial, emitting in
/// encoded-group-key order exactly like HashAggregateExecutor. Merging is
/// exact for integer and decimal aggregates; the input arrives in
/// deterministic morsel order, so even floating-point sums are reproducible
/// run to run.
class BatchFinalAggregateExecutor final : public BatchExecutor {
 public:
  BatchFinalAggregateExecutor(ExecContext* ctx, BatchExecutorPtr child,
                              size_t num_groups, std::vector<AggSpec> aggs,
                              Schema output_schema);

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return schema_; }

 private:
  ExecContext* ctx_;
  BatchExecutorPtr child_;
  size_t num_groups_;
  std::vector<AggSpec> aggs_;
  Schema schema_;

  struct Group {
    Row group_values;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups_;
  std::map<std::string, Group>::iterator emit_it_;
  bool inited_ = false;
};

/// Row-side adapter over a batch subtree: the fallback bridge that lets a
/// batch pipeline feed any Volcano consumer (joins, Sort, Limit, the engine
/// drain loop). Transparent: no plan node, no counters of its own.
/// batch: adapter between the engines, not an operator (no batch twin).
class RowFromBatchAdapter final : public Executor {
 public:
  explicit RowFromBatchAdapter(BatchExecutorPtr child)
      : child_(std::move(child)) {}

  Status Init() override {
    idx_ = 0;
    done_ = false;
    batch_.Reset(0);
    return child_->Init();
  }
  Result<bool> Next(Row* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  BatchExecutorPtr child_;
  Batch batch_;
  uint32_t idx_ = 0;
  bool done_ = false;
};

/// Batch-side adapter over a row subtree: lets batch consumers (e.g. a
/// final aggregate above the Gather exchange, or a stream aggregate above a
/// Sort) run over any Volcano producer. Emits dense batches.
class BatchFromRowAdapter final : public BatchExecutor {
 public:
  explicit BatchFromRowAdapter(ExecutorPtr child) : child_(std::move(child)) {}

  Status Init() override {
    done_ = false;
    return child_->Init();
  }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  ExecutorPtr child_;
  bool done_ = false;
};

}  // namespace elephant
