#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "common/value.h"

namespace elephant {

class Batch;  // common/batch.h

/// A column definition: name, physical type and (for CHAR) its width.
struct Column {
  std::string name;
  TypeId type = TypeId::kInvalid;
  /// Width for CHAR(n); ignored otherwise.
  uint32_t length = 0;
  bool nullable = true;

  Column() = default;
  Column(std::string n, TypeId t, uint32_t len = 0, bool null_ok = true)
      : name(std::move(n)), type(t), length(len), nullable(null_ok) {}

  /// Serialized width of the in-tuple slot: fixed size, or 4 bytes
  /// (offset+length) for VARCHAR.
  uint32_t SlotSize() const {
    return type == TypeId::kVarchar ? 4 : TypeFixedSize(type, length);
  }
};

/// An ordered list of columns plus the derived physical tuple layout.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> cols) : cols_(std::move(cols)) { Rebuild(); }

  size_t NumColumns() const { return cols_.size(); }
  const Column& ColumnAt(size_t i) const { return cols_[i]; }
  const std::vector<Column>& columns() const { return cols_; }

  /// Index of the column with the given (case-insensitive) name, or -1.
  int FindColumn(const std::string& name) const;

  /// Byte offset of column `i`'s slot within the fixed section.
  uint32_t SlotOffset(size_t i) const { return slot_offsets_[i]; }
  /// Total size of the fixed-slot section.
  uint32_t FixedSectionSize() const { return fixed_size_; }
  /// Bytes in the null bitmap.
  uint32_t NullBitmapBytes() const {
    return static_cast<uint32_t>((cols_.size() + 7) / 8);
  }

  /// Schema concatenation (used for join output schemas).
  static Schema Concat(const Schema& a, const Schema& b);

  /// The columns at positions `cols`, in that order.
  Schema Project(const std::vector<size_t>& cols) const;

  /// "name TYPE, name TYPE, ..." — for debugging and EXPLAIN output.
  std::string ToString() const;

  bool operator==(const Schema& o) const;

 private:
  void Rebuild();

  std::vector<Column> cols_;
  std::vector<uint32_t> slot_offsets_;
  uint32_t fixed_size_ = 0;
};

/// A materialized row: one Value per schema column.
using Row = std::vector<Value>;

/// Tuple (de)serialization with a SQL-Server-like physical layout. The paper
/// (§3, "Storage layer") calls out a 9-byte per-tuple overhead in the
/// row-store; our header reproduces it exactly:
///
///   [u8 status][u32 tuple_len][u16 ncols][u16 var_section_offset]  = 9 bytes
///   [null bitmap: ceil(ncols/8) bytes]
///   [fixed slots: per column; VARCHAR slot = u16 offset, u16 len]
///   [variable-length data]
namespace tuple {

/// Fixed header size in bytes (the row-store per-tuple overhead).
constexpr uint32_t kHeaderSize = 9;

/// Serializes `row` (which must match `schema`) into `out` (appended).
/// With `cols`, cell cols[i] of `row` is column i of `schema`.
Status Serialize(const Schema& schema, const Row& row, std::string* out,
                 const std::vector<size_t>* cols = nullptr);

/// Serializes row `r` of `batch` (columns typed as `schema`'s, or with
/// `cols`, batch column cols[i] as column i) into `out`, through the one
/// writer the Row overload also runs.
Status Serialize(const Schema& schema, const Batch& batch, uint32_t r,
                 std::string* out, const std::vector<size_t>* cols = nullptr);

/// Checks that `size` bytes hold a whole tuple (header and its length).
Status CheckTuple(const char* data, size_t size);

/// Typed single-column reads: an O(1) read of a column's null bit or of a
/// non-NULL column's fixed slot (plus the var section for VARCHAR), as the
/// integer (BOOLEAN, INT32, INT64, DATE, DECIMAL scaled), DOUBLE or string
/// (CHAR with its padding, VARCHAR) it is. IndexCursor (catalog/table.h)
/// is the one reader of stored tuples.
inline bool IsNull(const char* data, size_t col) {
  return (data[kHeaderSize + col / 8] >> (col % 8)) & 1;
}
int64_t GetInt(const Schema& schema, const char* data, size_t col);
double GetDouble(const Schema& schema, const char* data, size_t col);
std::string_view GetString(const Schema& schema, const char* data, size_t col);

}  // namespace tuple

/// Order-preserving byte-string encoding for index keys: the memcmp order of
/// encoded keys equals the tuple order of the source values (ASC, NULLs
/// first). Strings are encoded with 0x00 escaping so that keys of composite
/// indexes cannot alias each other.
namespace keycodec {

/// Appends the encoding of `v` to `out`.
void Encode(const Value& v, std::string* out);

/// Typed halves of Encode: a NULL of any type, a non-NULL integer-payload
/// value of `type` (BOOLEAN, INT32, DATE, INT64, DECIMAL scaled), a DOUBLE,
/// and a CHAR or VARCHAR (trailing spaces dropped).
void EncodeNull(std::string* out);
void EncodeInt(TypeId type, int64_t v, std::string* out);
void EncodeDouble(double d, std::string* out);
void EncodeString(std::string_view s, std::string* out);

/// Encodes a composite key from `row` columns `cols` (in order).
std::string EncodeKey(const Row& row, const std::vector<size_t>& cols);

/// One decoded key column, unboxed: NULL, or the payload in the member its
/// type uses (integer types in `i`, DOUBLE in `d`, strings in `s`).
struct KeyCell {
  bool is_null = true;
  int64_t i = 0;
  double d = 0;
  std::string s;
};

/// Decodes one key column of type `type` from `data` at `*pos` into `*out`
/// (its string buffer is reused) and advances `*pos`. IndexCursor is its
/// one reader of stored keys.
Status DecodeCell(TypeId type, std::string_view data, size_t* pos, KeyCell* out);

/// The smallest key that is strictly greater than every key having `prefix`
/// as a prefix (appends 0xFF sentinel). Used for prefix range scans.
std::string PrefixUpperBound(std::string prefix);

}  // namespace keycodec

}  // namespace elephant
