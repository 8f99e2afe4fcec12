#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/config.h"
#include "common/status.h"

namespace elephant {

/// A view over one page laid out as a B+-tree node.
///
///   [u8 type][u16 count][u16 free_ptr][i32 link]          (9-byte header)
///   [slot 0][slot 1]...     each slot {u16 off, u16 klen, u16 vlen}
///   ...free space...
///   [cell data: key bytes ++ value bytes]                 (grows downward)
///
/// For leaves, `link` is the next-leaf page id; for internal nodes it is the
/// leftmost child. Internal cells store the child page id as a 4-byte value;
/// cell i's child covers keys in [KeyAt(i), KeyAt(i+1)).
class BTreeNode {
 public:
  enum Type : uint8_t { kLeaf = 1, kInternal = 2 };

  static constexpr uint32_t kHeaderBytes = 9;
  static constexpr uint32_t kSlotBytes = 6;

  explicit BTreeNode(char* data) : data_(data) {}

  void Init(Type type);

  bool IsLeaf() const { return static_cast<unsigned char>(data_[0]) == kLeaf; }
  uint16_t Count() const { return GetU16(1); }
  page_id_t Link() const { return GetI32(5); }
  void SetLink(page_id_t id) { PutI32(5, id); }

  std::string_view KeyAt(int i) const;
  std::string_view ValueAt(int i) const;

  /// Child page id stored in cell i (internal nodes only).
  page_id_t ChildCellAt(int i) const;
  /// Child covering descent index i in [0, Count()]: 0 = leftmost link.
  page_id_t ChildForIndex(int i) const { return i == 0 ? Link() : ChildCellAt(i - 1); }

  /// Number of cells with key strictly less than `key` (lower bound).
  int LowerBound(std::string_view key) const;
  /// Number of cells with key <= `key` (upper bound).
  int UpperBound(std::string_view key) const;

  /// Contiguous free bytes between the slot array and the cell data.
  uint32_t ContiguousFree() const;
  /// Free bytes recoverable by compaction (deleted-cell space included).
  uint32_t TotalFree() const;
  /// Bytes a new cell with this payload needs (slot + data).
  static uint32_t CellBytes(size_t klen, size_t vlen) {
    return kSlotBytes + static_cast<uint32_t>(klen + vlen);
  }

  /// Inserts a cell at position i, shifting slots. Caller guarantees space
  /// (ContiguousFree() >= CellBytes); use Compact() first if fragmented.
  void InsertCell(int i, std::string_view key, std::string_view value);

  /// Removes cell i (slot shifted out; data space becomes fragmentation).
  void RemoveCell(int i);

  /// Overwrites cell i's value in place; requires same value length.
  void SetValueInPlace(int i, std::string_view value);

  /// Rewrites all cells to eliminate fragmentation.
  void Compact();

  /// Keeps cells [0, m) and compacts: a split's left half.
  void Truncate(int m) {
    PutU16(1, static_cast<uint16_t>(m));
    Compact();
  }

  /// Bytes of cell data + slots currently live (used by split balancing).
  uint32_t LiveBytes() const;

 private:
  uint16_t GetU16(uint32_t off) const {
    return static_cast<uint16_t>(static_cast<unsigned char>(data_[off]) |
                                 (static_cast<unsigned char>(data_[off + 1]) << 8));
  }
  void PutU16(uint32_t off, uint16_t v) {
    data_[off] = static_cast<char>(v & 0xff);
    data_[off + 1] = static_cast<char>((v >> 8) & 0xff);
  }
  int32_t GetI32(uint32_t off) const {
    uint32_t v = 0;
    for (int i = 0; i < 4; i++) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[off + i])) << (8 * i);
    }
    return static_cast<int32_t>(v);
  }
  void PutI32(uint32_t off, int32_t v) {
    for (int i = 0; i < 4; i++) {
      data_[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  uint16_t SlotOff(int i) const { return GetU16(kHeaderBytes + i * kSlotBytes); }
  uint16_t SlotKlen(int i) const { return GetU16(kHeaderBytes + i * kSlotBytes + 2); }
  uint16_t SlotVlen(int i) const { return GetU16(kHeaderBytes + i * kSlotBytes + 4); }

  char* data_;
};

}  // namespace elephant
