#pragma once

#include <vector>

#include "catalog/catalog.h"
#include "common/batch.h"
#include "exec/executor.h"

namespace elephant {

/// Scans a virtual system table: materializes the provider's rows at Init()
/// (a consistent point-in-time snapshot of the engine state — counters read
/// mid-scan would tear) and streams them out in batches. No pages are
/// touched, so virtual scans contribute zero physical I/O to the query's
/// IoStats — the property that lets `elephant_stat_*` queries be excluded
/// from the statement registry without skewing reconciliation.
class VirtualTableScanExecutor final : public BatchExecutor {
 public:
  VirtualTableScanExecutor(ExecContext* ctx, const VirtualTable* vtable)
      : ctx_(ctx), vtable_(vtable) {}

  Status Init() override {
    ELE_ASSIGN_OR_RETURN(rows_, vtable_->provider());
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(Batch* out) override {
    out->Reset(vtable_->schema);
    while (!out->full() && pos_ < rows_.size()) {
      ctx_->counters().rows_scanned++;
      // lint:allow(value-in-batch-kernel): system-view rows enter as Values.
      out->AppendRow(rows_[pos_++]);
    }
    return out->num_rows() > 0;
  }

  const Schema& OutputSchema() const override { return vtable_->schema; }

 private:
  ExecContext* ctx_;
  const VirtualTable* vtable_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

}  // namespace elephant
