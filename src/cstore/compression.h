#pragma once

#include <cstdint>
#include <vector>

#include "common/batch.h"

namespace elephant {
namespace compression {

/// The run structure of a projection sorted by its columns at `sort_idx`
/// (§2.2.1), one pass per column over the lanes: per row, the first sort
/// position where it differs from the previous row under Value equality,
/// or sort_idx.size() (row 0 gets 0). A row starts a run at position p
/// exactly when its entry is <= p, so runs respect shallower columns.
std::vector<uint32_t> FirstDifferences(const Batch& rows,
                                       const std::vector<size_t>& sort_idx);

/// Runs per sort position from FirstDifferences' entries: element p counts
/// the rows whose entry is <= p.
std::vector<uint64_t> RunCounts(const std::vector<uint32_t>& first_diff,
                                size_t positions);

/// Size estimators used by the ColOpt lower bound and the storage study
/// (§3, "Storage layer"). All sizes in bytes.

/// Fixed byte width of a value of this type in a native column store
/// (strings use their actual lengths; the helpers below take averages).
uint64_t NativeValueBytes(TypeId t, uint32_t char_length);

/// Native C-store RLE size: one (value, count) pair per run, no per-tuple
/// header (count stored as a 32-bit integer).
uint64_t NativeRleBytes(uint64_t runs, uint64_t value_bytes);

/// Uncompressed native column size: one value per row.
uint64_t NativePlainBytes(uint64_t rows, uint64_t value_bytes);

/// Dictionary-encoded size: distinct values stored once plus ceil(log2 d)
/// bits per row (byte-aligned per row for simplicity).
uint64_t DictionaryBytes(uint64_t rows, uint64_t distinct, uint64_t value_bytes);

/// Row-store size of a c-table in (f, v, c) form: per-tuple header +
/// f (8) + v + c (8), matching the engine's tuple layout.
uint64_t CTableRowStoreBytes(uint64_t runs, uint64_t value_bytes, bool has_count);

}  // namespace compression
}  // namespace elephant
