#include "common/schema.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "common/batch.h"

namespace elephant {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); i++) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < cols_.size(); i++) {
    if (EqualsIgnoreCase(cols_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

void Schema::Rebuild() {
  slot_offsets_.clear();
  uint32_t off = 0;
  for (const Column& c : cols_) {
    slot_offsets_.push_back(off);
    off += c.SlotSize();
  }
  fixed_size_ = off;
}

Schema Schema::Concat(const Schema& a, const Schema& b) {
  std::vector<Column> cols = a.columns();
  cols.insert(cols.end(), b.columns().begin(), b.columns().end());
  return Schema(std::move(cols));
}

Schema Schema::Project(const std::vector<size_t>& cols) const {
  std::vector<Column> out;
  out.reserve(cols.size());
  for (size_t c : cols) out.push_back(cols_[c]);
  return Schema(std::move(out));
}

std::string Schema::ToString() const {
  std::string out;
  for (size_t i = 0; i < cols_.size(); i++) {
    if (i > 0) out += ", ";
    out += cols_[i].name;
    out += ' ';
    out += TypeName(cols_[i].type);
    if (cols_[i].type == TypeId::kChar) {
      out += '(' + std::to_string(cols_[i].length) + ')';
    }
  }
  return out;
}

bool Schema::operator==(const Schema& o) const {
  if (cols_.size() != o.cols_.size()) return false;
  for (size_t i = 0; i < cols_.size(); i++) {
    if (cols_[i].name != o.cols_[i].name || cols_[i].type != o.cols_[i].type ||
        cols_[i].length != o.cols_[i].length) {
      return false;
    }
  }
  return true;
}

namespace tuple {

namespace {

void PutU16(std::string* out, size_t pos, uint16_t v) {
  (*out)[pos] = static_cast<char>(v & 0xff);
  (*out)[pos + 1] = static_cast<char>((v >> 8) & 0xff);
}
void PutU32(std::string* out, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; i++) (*out)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               (static_cast<unsigned char>(p[1]) << 8));
}
uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}
void PutFixed(std::string* out, size_t pos, uint64_t v, uint32_t n) {
  for (uint32_t i = 0; i < n; i++) (*out)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}
uint64_t GetFixed(const char* p, uint32_t n) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < n; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Sign-extends an n-byte little-endian payload.
int64_t SignExtend(uint64_t v, uint32_t n) {
  if (n >= 8) return static_cast<int64_t>(v);
  uint64_t sign_bit = 1ull << (8 * n - 1);
  if (v & sign_bit) v |= ~((sign_bit << 1) - 1);
  return static_cast<int64_t>(v);
}

}  // namespace

namespace {

/// The one writer of the tuple format. `cells` reads column i of the row:
/// IsNull(i), else its payload by lane (Int, Double or String).
template <typename Cells>
Status WriteTuple(const Schema& schema, const Cells& cells, std::string* out) {
  const size_t base = out->size();
  const uint32_t nbm = schema.NullBitmapBytes();
  const uint32_t fixed_start = kHeaderSize + nbm;
  const uint32_t var_start = fixed_start + schema.FixedSectionSize();
  out->resize(base + var_start, '\0');

  uint32_t var_off = 0;  // relative to var_start
  for (size_t i = 0; i < schema.NumColumns(); i++) {
    const Column& c = schema.ColumnAt(i);
    if (cells.IsNull(i)) {
      (*out)[base + kHeaderSize + i / 8] |= static_cast<char>(1 << (i % 8));
      continue;
    }
    const size_t slot = base + fixed_start + schema.SlotOffset(i);
    switch (c.type) {
      case TypeId::kBoolean:
        (*out)[slot] = cells.Int(i) != 0 ? 1 : 0;
        break;
      case TypeId::kInt32:
      case TypeId::kDate:
        PutFixed(out, slot, static_cast<uint32_t>(cells.Int(i)), 4);
        break;
      case TypeId::kInt64:
      case TypeId::kDecimal:
        PutFixed(out, slot, static_cast<uint64_t>(cells.Int(i)), 8);
        break;
      case TypeId::kDouble: {
        double d = cells.Double(i);
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        PutFixed(out, slot, bits, 8);
        break;
      }
      case TypeId::kChar: {
        const std::string_view s = cells.String(i);
        size_t n = std::min<size_t>(s.size(), c.length);
        std::memcpy(out->data() + slot, s.data(), n);
        std::memset(out->data() + slot + n, ' ', c.length - n);
        break;
      }
      case TypeId::kVarchar: {
        const std::string_view s = cells.String(i);
        if (s.size() > 0xffff) return Status::InvalidArgument("varchar too long");
        PutU16(out, slot, static_cast<uint16_t>(var_off));
        PutU16(out, slot + 2, static_cast<uint16_t>(s.size()));
        out->append(s);
        var_off += static_cast<uint32_t>(s.size());
        break;
      }
      case TypeId::kInvalid:
        return Status::Internal("serialize: invalid column type");
    }
  }
  const uint32_t total = static_cast<uint32_t>(out->size() - base);
  (*out)[base] = 0;  // status flags (unused; reserves the row-version byte)
  PutU32(out, base + 1, total);
  PutU16(out, base + 5, static_cast<uint16_t>(schema.NumColumns()));
  PutU16(out, base + 7, static_cast<uint16_t>(var_start));
  return Status::OK();
}

/// A row of Values as WriteTuple cells: column i is row[cols[i]], or
/// row[i] without `cols`.
struct ValueCells {
  const Row& row;
  const std::vector<size_t>* cols;
  const Value& At(size_t i) const { return row[cols != nullptr ? (*cols)[i] : i]; }
  bool IsNull(size_t i) const { return At(i).is_null(); }
  int64_t Int(size_t i) const { return At(i).AsInt64(); }
  double Double(size_t i) const { return At(i).AsDouble(); }
  std::string_view String(size_t i) const { return At(i).AsString(); }
};

/// Row `r` of a batch's typed columns as WriteTuple cells: column i is
/// batch column cols[i], or column i without `cols`.
struct LaneCells {
  const Batch& batch;
  uint32_t r;
  const std::vector<size_t>* cols;
  const ColumnVector& At(size_t i) const {
    return batch.col(cols != nullptr ? (*cols)[i] : i);
  }
  bool IsNull(size_t i) const { return At(i).IsNull(r); }
  int64_t Int(size_t i) const { return At(i).Int(r); }
  double Double(size_t i) const { return At(i).Double(r); }
  std::string_view String(size_t i) const { return At(i).String(r); }
};

}  // namespace

Status Serialize(const Schema& schema, const Row& row, std::string* out,
                 const std::vector<size_t>* cols) {
  if (cols == nullptr && row.size() != schema.NumColumns()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " does not match schema arity " +
                                   std::to_string(schema.NumColumns()));
  }
  return WriteTuple(schema, ValueCells{row, cols}, out);
}

Status Serialize(const Schema& schema, const Batch& batch, uint32_t r,
                 std::string* out, const std::vector<size_t>* cols) {
  return WriteTuple(schema, LaneCells{batch, r, cols}, out);
}

int64_t GetInt(const Schema& schema, const char* data, size_t col) {
  const char* slot =
      data + kHeaderSize + schema.NullBitmapBytes() + schema.SlotOffset(col);
  switch (schema.ColumnAt(col).type) {
    case TypeId::kBoolean: return *slot != 0 ? 1 : 0;
    case TypeId::kInt32:
    case TypeId::kDate: return SignExtend(GetFixed(slot, 4), 4);
    default: return static_cast<int64_t>(GetFixed(slot, 8));
  }
}

double GetDouble(const Schema& schema, const char* data, size_t col) {
  const uint64_t bits = GetFixed(
      data + kHeaderSize + schema.NullBitmapBytes() + schema.SlotOffset(col), 8);
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

std::string_view GetString(const Schema& schema, const char* data, size_t col) {
  const Column& c = schema.ColumnAt(col);
  const char* slot =
      data + kHeaderSize + schema.NullBitmapBytes() + schema.SlotOffset(col);
  if (c.type == TypeId::kChar) return std::string_view(slot, c.length);
  const uint16_t var_start = GetU16(data + 7);
  return std::string_view(data + var_start + GetU16(slot), GetU16(slot + 2));
}

Status CheckTuple(const char* data, size_t size) {
  if (size < kHeaderSize) return Status::Corruption("tuple shorter than header");
  const uint32_t total = GetU32(data + 1);
  if (total > size) return Status::Corruption("tuple length exceeds buffer");
  return Status::OK();
}

}  // namespace tuple

namespace keycodec {

namespace {

constexpr char kNullMarker = '\x00';
constexpr char kValueMarker = '\x01';

void AppendBigEndian(std::string* out, uint64_t v, uint32_t n) {
  for (int i = static_cast<int>(n) - 1; i >= 0; i--) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t ReadBigEndian(std::string_view s, size_t pos, uint32_t n) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < n; i++) {
    v = (v << 8) | static_cast<unsigned char>(s[pos + i]);
  }
  return v;
}

}  // namespace

void EncodeNull(std::string* out) { out->push_back(kNullMarker); }

void EncodeInt(TypeId type, int64_t v, std::string* out) {
  out->push_back(kValueMarker);
  switch (type) {
    case TypeId::kBoolean:
      out->push_back(v != 0 ? 1 : 0);
      break;
    case TypeId::kInt32:
    case TypeId::kDate:
      AppendBigEndian(out, static_cast<uint32_t>(v) ^ 0x80000000u, 4);
      break;
    default:
      AppendBigEndian(out, static_cast<uint64_t>(v) ^ 0x8000000000000000ull, 8);
      break;
  }
}

void EncodeDouble(double d, std::string* out) {
  out->push_back(kValueMarker);
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  // IEEE754 total-order trick: flip all bits for negatives, sign bit
  // for non-negatives.
  if (bits & 0x8000000000000000ull) {
    bits = ~bits;
  } else {
    bits |= 0x8000000000000000ull;
  }
  AppendBigEndian(out, bits, 8);
}

void EncodeString(std::string_view s, std::string* out) {
  // Strip trailing spaces so CHAR padding compares like ComparePadded,
  // escape 0x00, terminate with 0x00 0x00.
  out->push_back(kValueMarker);
  size_t len = s.size();
  while (len > 0 && s[len - 1] == ' ') len--;
  for (size_t i = 0; i < len; i++) {
    out->push_back(s[i]);
    if (s[i] == '\x00') out->push_back('\xff');
  }
  out->push_back('\x00');
  out->push_back('\x00');
}

void Encode(const Value& v, std::string* out) {
  if (v.is_null()) return EncodeNull(out);
  switch (v.type()) {
    case TypeId::kDouble: return EncodeDouble(v.AsDouble(), out);
    case TypeId::kChar:
    case TypeId::kVarchar: return EncodeString(v.AsString(), out);
    case TypeId::kInvalid: assert(false && "cannot encode invalid value"); return;
    default: return EncodeInt(v.type(), v.AsInt64(), out);
  }
}

std::string EncodeKey(const Row& row, const std::vector<size_t>& cols) {
  std::string out;
  for (size_t c : cols) Encode(row[c], &out);
  return out;
}

Status DecodeCell(TypeId type, std::string_view data, size_t* pos,
                  KeyCell* out) {
  if (*pos >= data.size()) return Status::OutOfRange("key exhausted");
  out->is_null = data[(*pos)++] == kNullMarker;
  if (out->is_null) return Status::OK();
  switch (type) {
    case TypeId::kBoolean:
      out->i = data[(*pos)++] != 0 ? 1 : 0;
      return Status::OK();
    case TypeId::kInt32:
    case TypeId::kDate: {
      const uint32_t u =
          static_cast<uint32_t>(ReadBigEndian(data, *pos, 4)) ^ 0x80000000u;
      *pos += 4;
      out->i = static_cast<int32_t>(u);
      return Status::OK();
    }
    case TypeId::kInt64:
    case TypeId::kDecimal:
      out->i = static_cast<int64_t>(ReadBigEndian(data, *pos, 8) ^
                                    0x8000000000000000ull);
      *pos += 8;
      return Status::OK();
    case TypeId::kDouble: {
      uint64_t bits = ReadBigEndian(data, *pos, 8);
      *pos += 8;
      if (bits & 0x8000000000000000ull) {
        bits &= ~0x8000000000000000ull;
      } else {
        bits = ~bits;
      }
      std::memcpy(&out->d, &bits, 8);
      return Status::OK();
    }
    case TypeId::kChar:
    case TypeId::kVarchar: {
      out->s.clear();
      while (*pos < data.size()) {
        char c = data[(*pos)++];
        if (c == '\x00') {
          if (*pos >= data.size()) return Status::Corruption("truncated string key");
          char next = data[(*pos)++];
          if (next == '\x00') break;  // terminator
          out->s.push_back('\x00');   // escaped zero
        } else {
          out->s.push_back(c);
        }
      }
      return Status::OK();
    }
    default:
      return Status::NotSupported("decode of this type");
  }
}

std::string PrefixUpperBound(std::string prefix) {
  prefix.push_back('\xff');
  return prefix;
}

}  // namespace keycodec

}  // namespace elephant
