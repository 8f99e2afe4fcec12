#include "exec/key_table.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace elephant {

namespace {

constexpr size_t kMinBuckets = 16;

bool IsIntegerKey(TypeId t) {
  return t == TypeId::kInt32 || t == TypeId::kInt64 || t == TypeId::kDate;
}

bool IsStringKey(TypeId t) {
  return t == TypeId::kChar || t == TypeId::kVarchar;
}

}  // namespace

uint64_t KeyTable::HashOf(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

void KeyTable::Clear() {
  arena_.clear();
  ends_.clear();
  hashes_.clear();
  next_.clear();
  heads_.clear();
}

uint32_t KeyTable::Append(std::string_view key, uint64_t hash) {
  if (size() == heads_.size()) Rehash(std::max(kMinBuckets, 2 * size()));
  const auto id = static_cast<uint32_t>(size());
  arena_.append(key);
  ends_.push_back(arena_.size());
  hashes_.push_back(hash);
  uint32_t& head = heads_[hash & mask()];
  next_.push_back(head);
  head = id;
  return id;
}

uint32_t KeyTable::FindOrInsert(std::string_view key, bool* inserted) {
  const uint64_t hash = HashOf(key);
  if (!heads_.empty()) {
    const uint32_t id = Scan(heads_[hash & mask()], key, hash);
    *inserted = id == kNone;
    if (id != kNone) return id;
  }
  *inserted = true;
  return Append(key, hash);
}

uint32_t KeyTable::Find(std::string_view key) const {
  if (heads_.empty()) return kNone;
  const uint64_t hash = HashOf(key);
  return Scan(heads_[hash & mask()], key, hash);
}

uint32_t KeyTable::Scan(uint32_t id, std::string_view key,
                        uint64_t hash) const {
  while (id != kNone && (hashes_[id] != hash || this->key(id) != key)) {
    id = next_[id];
  }
  return id;
}

void KeyTable::Rehash(size_t buckets) {
  heads_.assign(buckets, kNone);
  for (uint32_t id = 0; id < size(); ++id) {
    uint32_t& head = heads_[hashes_[id] & mask()];
    next_[id] = head;
    head = id;
  }
}

std::vector<uint32_t> KeyTable::SortedIds() const {
  std::vector<uint32_t> ids(size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::stable_sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
    return key(a) < key(b);
  });
  return ids;
}

bool SameKeyEncoding(TypeId a, TypeId b) {
  if (a == b || (IsStringKey(a) && IsStringKey(b))) return true;
  return (a == TypeId::kInt32 || a == TypeId::kDate) &&
         (b == TypeId::kInt32 || b == TypeId::kDate);
}

bool KeyComparable(TypeId a, TypeId b) {
  return SameKeyEncoding(a, b) || (IsIntegerKey(a) && IsIntegerKey(b));
}

TypeId CommonKeyType(TypeId a, TypeId b) {
  return SameKeyEncoding(a, b) ? a : TypeId::kInt64;
}

bool EncodeKeyCell(const ColumnVector& col, uint32_t r, TypeId type,
                   std::string* out) {
  if (col.IsNull(r)) return false;
  if (SameKeyEncoding(col.type(), type)) {
    EncodeCell(col, r, out);
    return true;
  }
  // Two integer types of different widths: the value must fit `type`.
  const int64_t v = col.Int(r);
  if (type != TypeId::kInt64 && (v < INT32_MIN || v > INT32_MAX)) return false;
  keycodec::EncodeInt(type, v, out);
  return true;
}

}  // namespace elephant
