#pragma once

#include "common/batch.h"
#include "exec/executor.h"
#include "exec/expression.h"

namespace elephant {

/// One sort key: an expression and its direction.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Materializes the child and emits rows in sort-key order (in-memory sort;
/// the engine's working sets fit the paper's read-mostly workloads). Sort
/// keys are evaluated vectorized per input batch and encoded per row; the
/// input's live rows are gathered into typed columns, and output batches
/// gather them back in key order. Ties keep input order.
class SortExecutor final : public BatchExecutor {
 public:
  SortExecutor(ExecContext* ctx, BatchExecutorPtr child,
               std::vector<SortKey> keys)
      : ctx_(ctx), child_(std::move(child)), keys_(std::move(keys)) {}

  Status Init() override;
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  ExecContext* ctx_;
  BatchExecutorPtr child_;
  std::vector<SortKey> keys_;
  Batch rows_;                  ///< every input row, in input order
  std::vector<uint32_t> order_;  ///< rows_ indices in sort-key order
  size_t pos_ = 0;
};

/// Emits at most `limit` child rows: the batch that crosses the limit is
/// cut by its selection vector, and the child is not asked again.
class LimitExecutor final : public BatchExecutor {
 public:
  LimitExecutor(BatchExecutorPtr child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}

  Status Init() override {
    emitted_ = 0;
    return child_->Init();
  }
  Result<bool> NextBatch(Batch* out) override;
  const Schema& OutputSchema() const override { return child_->OutputSchema(); }

 private:
  BatchExecutorPtr child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
};

}  // namespace elephant
