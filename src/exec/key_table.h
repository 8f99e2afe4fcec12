#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/schema.h"
#include "common/batch.h"

namespace elephant {

/// The flat hash table under hash join and grouped aggregation, keyed by
/// encoded keys (keycodec byte strings). Entries get dense ids 0, 1, 2, ...
/// in insertion order; an operator keeps what it stores per entry (build
/// rows, group states) in its own arrays indexed by id. Layout:
///   - one arena holds every entry's key bytes back to back; `ends_[id]` is
///     where entry id's key ends (it starts where entry id-1's ends);
///   - `hashes_[id]` is the key's 64-bit hash;
///   - `next_[id]` chains the entries that share a bucket, off `heads_`, a
///     power-of-two array with at least one bucket per entry.
/// A new entry goes to the head of its chain, and growing relinks entries in
/// id order, so a chain always lists equal keys newest-first: Find returns
/// the newest entry with a key and NextMatch the next-newest, the order in
/// which libstdc++'s node-based hash multimap lists equal keys.
class KeyTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  size_t size() const { return hashes_.size(); }

  /// Drops every entry.
  void Clear();

  /// Appends an entry for `key`, equal keys allowed; returns its id.
  uint32_t Insert(std::string_view key) { return Append(key, HashOf(key)); }

  /// The id of the entry equal to `key`, appending one when there is none;
  /// `*inserted` says which happened. For tables of distinct keys.
  uint32_t FindOrInsert(std::string_view key, bool* inserted);

  /// The newest entry whose key equals `key`, or kNone.
  uint32_t Find(std::string_view key) const;

  /// The next-newest entry after `id` with the same key, or kNone.
  uint32_t NextMatch(uint32_t id) const {
    return Scan(next_[id], key(id), hashes_[id]);
  }

  std::string_view key(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_.data() + begin, ends_[id] - begin);
  }

  /// Every entry id, ordered by key bytes (memcmp order; ties by id).
  std::vector<uint32_t> SortedIds() const;

 private:
  static uint64_t HashOf(std::string_view key);
  size_t mask() const { return heads_.size() - 1; }
  uint32_t Append(std::string_view key, uint64_t hash);
  /// The first entry from `id` on along its chain whose key equals `key`.
  uint32_t Scan(uint32_t id, std::string_view key, uint64_t hash) const;
  /// Resizes the bucket array to `buckets` (a power of two) and relinks.
  void Rehash(size_t buckets);

  std::string arena_;
  std::vector<size_t> ends_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> next_;
  std::vector<uint32_t> heads_;
};

/// Whether keycodec encodes equal values of types `a` and `b` alike: the
/// same type, CHAR against VARCHAR (both drop trailing spaces), or INT
/// against DATE (both take 4 bytes; BIGINT takes 8).
bool SameKeyEncoding(TypeId a, TypeId b);

/// Whether equality between values of types `a` and `b` can be decided on
/// key encodings: SameKeyEncoding, or two integer types (INT, BIGINT, DATE)
/// once cast to one width (CastKey). Any other pair, such as DECIMAL against
/// an integer, must be compared with Value::Compare, as a residual predicate.
bool KeyComparable(TypeId a, TypeId b);

/// The type both sides of a KeyComparable equi-join key pair are keyed as:
/// `a` when the encodings already agree, else BIGINT.
TypeId CommonKeyType(TypeId a, TypeId b);

/// Appends cell `r` of `col` encoded as a key of `type` (KeyComparable
/// with the column's type): its own encoding when the encodings agree, else
/// its integer cast to `type`'s width (Value::CastTo). Equal encodings of
/// two keys of one type then mean Value::Compare equality. False, leaving
/// `*out` unspecified, when the cell is NULL or outside `type`'s range:
/// such a cell equals no key of `type`.
bool EncodeKeyCell(const ColumnVector& col, uint32_t r, TypeId type,
                   std::string* out);

}  // namespace elephant
