#include "cstore/compression.h"

#include <cmath>

#include "common/schema.h"

namespace elephant {
namespace compression {

std::vector<uint32_t> FirstDifferences(const Batch& rows,
                                       const std::vector<size_t>& sort_idx) {
  const uint32_t positions = static_cast<uint32_t>(sort_idx.size());
  std::vector<uint32_t> first_diff(rows.num_rows(), positions);
  if (!first_diff.empty()) first_diff[0] = 0;
  // Deepest position first, so a row keeps the shallowest one it differs at.
  for (uint32_t p = positions; p-- > 0;) {
    const ColumnVector& col = rows.col(sort_idx[p]);
    for (uint32_t r = 1; r < col.size(); r++) {
      const bool is_null = col.IsNull(r);
      if (is_null != col.IsNull(r - 1) ||
          (!is_null && CompareCells(col, r, col, r - 1) != 0)) {
        first_diff[r] = p;
      }
    }
  }
  return first_diff;
}

std::vector<uint64_t> RunCounts(const std::vector<uint32_t>& first_diff,
                                size_t positions) {
  std::vector<uint64_t> counts(positions + 1, 0);
  for (uint32_t d : first_diff) counts[d]++;
  for (size_t p = 1; p < positions; p++) counts[p] += counts[p - 1];
  counts.resize(positions);
  return counts;
}

uint64_t NativeValueBytes(TypeId t, uint32_t char_length) {
  const uint32_t fixed = TypeFixedSize(t, char_length);
  return fixed > 0 ? fixed : 16;  // average width for VARCHAR
}

uint64_t NativeRleBytes(uint64_t runs, uint64_t value_bytes) {
  return runs * (value_bytes + 4);
}

uint64_t NativePlainBytes(uint64_t rows, uint64_t value_bytes) {
  return rows * value_bytes;
}

uint64_t DictionaryBytes(uint64_t rows, uint64_t distinct, uint64_t value_bytes) {
  if (distinct == 0) return 0;
  uint64_t bits = 1;
  while ((1ull << bits) < distinct) bits++;
  const uint64_t code_bytes = (bits + 7) / 8;
  return distinct * value_bytes + rows * code_bytes;
}

uint64_t CTableRowStoreBytes(uint64_t runs, uint64_t value_bytes, bool has_count) {
  const uint64_t header = tuple::kHeaderSize + 1;  // header + null bitmap byte
  const uint64_t row = header + 8 /*f*/ + value_bytes + (has_count ? 8 : 0);
  return runs * row;
}

}  // namespace compression
}  // namespace elephant
