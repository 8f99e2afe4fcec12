#include "storage/btree_node.h"

#include <cstring>
#include <vector>

namespace elephant {

void BTreeNode::Init(Type type) {
  data_[0] = static_cast<char>(type);
  PutU16(1, 0);
  PutU16(3, kPageSize);
  PutI32(5, kInvalidPageId);
}

std::string_view BTreeNode::KeyAt(int i) const {
  return std::string_view(data_ + SlotOff(i), SlotKlen(i));
}

std::string_view BTreeNode::ValueAt(int i) const {
  return std::string_view(data_ + SlotOff(i) + SlotKlen(i), SlotVlen(i));
}

page_id_t BTreeNode::ChildCellAt(int i) const {
  std::string_view v = ValueAt(i);
  uint32_t id = 0;
  for (int b = 0; b < 4; b++) {
    id |= static_cast<uint32_t>(static_cast<unsigned char>(v[b])) << (8 * b);
  }
  return static_cast<page_id_t>(id);
}

namespace {
int CompareKeys(std::string_view a, std::string_view b) {
  int c = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  if (c != 0) return c;
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}
}  // namespace

int BTreeNode::LowerBound(std::string_view key) const {
  int lo = 0, hi = Count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (CompareKeys(KeyAt(mid), key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int BTreeNode::UpperBound(std::string_view key) const {
  int lo = 0, hi = Count();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (CompareKeys(KeyAt(mid), key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t BTreeNode::ContiguousFree() const {
  const uint32_t slots_end = kHeaderBytes + Count() * kSlotBytes;
  const uint32_t free_ptr = GetU16(3) == 0 ? kPageSize : GetU16(3);
  return free_ptr > slots_end ? free_ptr - slots_end : 0;
}

uint32_t BTreeNode::LiveBytes() const {
  uint32_t bytes = 0;
  for (int i = 0; i < Count(); i++) {
    bytes += kSlotBytes + SlotKlen(i) + SlotVlen(i);
  }
  return bytes;
}

uint32_t BTreeNode::TotalFree() const {
  return kPageSize - kHeaderBytes - LiveBytes();
}

void BTreeNode::InsertCell(int i, std::string_view key, std::string_view value) {
  const uint16_t count = Count();
  const uint32_t need = static_cast<uint32_t>(key.size() + value.size());
  uint16_t free_ptr = GetU16(3) == 0 ? kPageSize : GetU16(3);
  const uint16_t off = static_cast<uint16_t>(free_ptr - need);
  std::memcpy(data_ + off, key.data(), key.size());
  std::memcpy(data_ + off + key.size(), value.data(), value.size());
  // Shift slot entries [i, count) right by one.
  char* slots = data_ + kHeaderBytes;
  std::memmove(slots + (i + 1) * kSlotBytes, slots + i * kSlotBytes,
               (count - i) * kSlotBytes);
  PutU16(kHeaderBytes + i * kSlotBytes, off);
  PutU16(kHeaderBytes + i * kSlotBytes + 2, static_cast<uint16_t>(key.size()));
  PutU16(kHeaderBytes + i * kSlotBytes + 4, static_cast<uint16_t>(value.size()));
  PutU16(1, count + 1);
  PutU16(3, off);
}

void BTreeNode::RemoveCell(int i) {
  const uint16_t count = Count();
  char* slots = data_ + kHeaderBytes;
  std::memmove(slots + i * kSlotBytes, slots + (i + 1) * kSlotBytes,
               (count - 1 - i) * kSlotBytes);
  PutU16(1, count - 1);
}

void BTreeNode::SetValueInPlace(int i, std::string_view value) {
  std::memcpy(data_ + SlotOff(i) + SlotKlen(i), value.data(), value.size());
}

void BTreeNode::Compact() {
  const uint16_t count = Count();
  std::vector<std::pair<std::string, std::string>> cells;
  cells.reserve(count);
  for (int i = 0; i < count; i++) {
    cells.emplace_back(std::string(KeyAt(i)), std::string(ValueAt(i)));
  }
  uint16_t free_ptr = kPageSize;
  for (int i = 0; i < count; i++) {
    const auto& [k, v] = cells[i];
    free_ptr = static_cast<uint16_t>(free_ptr - k.size() - v.size());
    std::memcpy(data_ + free_ptr, k.data(), k.size());
    std::memcpy(data_ + free_ptr + k.size(), v.data(), v.size());
    PutU16(kHeaderBytes + i * kSlotBytes, free_ptr);
    PutU16(kHeaderBytes + i * kSlotBytes + 2, static_cast<uint16_t>(k.size()));
    PutU16(kHeaderBytes + i * kSlotBytes + 4, static_cast<uint16_t>(v.size()));
  }
  PutU16(3, free_ptr);
}

}  // namespace elephant
