#include "wal/log_record.h"

#include <cstring>

namespace elephant::wal {

namespace {

constexpr uint32_t kFixedHead = 4 + 1 + 1 + 2 + 8 + 8 + 8 + 4 + 4 + 1 + 4 + 4 + 4;
constexpr uint32_t kTrailer = 4 + 4;  // length echo + CRC

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; i++) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; i++) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               (static_cast<unsigned char>(p[1]) << 8));
}
uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}
uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

uint32_t Fnv1a32(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

uint32_t LogRecord::EncodedSize() const {
  return kFixedHead + static_cast<uint32_t>(key.size()) +
         static_cast<uint32_t>(before.size()) +
         static_cast<uint32_t>(after.size()) + kTrailer;
}

void LogRecord::EncodeTo(std::string* out) const {
  const size_t start = out->size();
  PutU32(out, EncodedSize());
  out->push_back(static_cast<char>(type));
  out->push_back(static_cast<char>(clr_action));
  PutU16(out, slot);
  PutU64(out, txn_id);
  PutU64(out, prev_lsn);
  PutU64(out, undo_next_lsn);
  PutU32(out, static_cast<uint32_t>(page_id));
  PutU32(out, table_id);
  out->push_back(static_cast<char>(tree));
  PutU32(out, static_cast<uint32_t>(key.size()));
  PutU32(out, static_cast<uint32_t>(before.size()));
  PutU32(out, static_cast<uint32_t>(after.size()));
  out->append(key);
  out->append(before);
  out->append(after);
  PutU32(out, EncodedSize());  // tail length echo: enables backward decode
  PutU32(out, Fnv1a32(std::string_view(out->data() + start, out->size() - start)));
}

Result<std::pair<LogRecord, uint32_t>> LogRecord::Decode(std::string_view buf) {
  if (buf.size() < kFixedHead + kTrailer) {
    return Status::Corruption("log record truncated (header)");
  }
  const char* p = buf.data();
  const uint32_t len = GetU32(p);
  if (len < kFixedHead + kTrailer || len > buf.size()) {
    return Status::Corruption("log record truncated (body)");
  }
  const uint32_t stored_crc = GetU32(p + len - 4);
  if (Fnv1a32(std::string_view(p, len - 4)) != stored_crc) {
    return Status::Corruption("log record CRC mismatch");
  }
  if (GetU32(p + len - 8) != len) {
    return Status::Corruption("log record length echo mismatch");
  }
  LogRecord rec;
  rec.type = static_cast<LogRecordType>(static_cast<unsigned char>(p[4]));
  rec.clr_action = static_cast<ClrAction>(static_cast<unsigned char>(p[5]));
  rec.slot = GetU16(p + 6);
  rec.txn_id = GetU64(p + 8);
  rec.prev_lsn = GetU64(p + 16);
  rec.undo_next_lsn = GetU64(p + 24);
  rec.page_id = static_cast<page_id_t>(GetU32(p + 32));
  rec.table_id = GetU32(p + 36);
  rec.tree = static_cast<uint8_t>(p[40]);
  const uint32_t key_len = GetU32(p + 41);
  const uint32_t before_len = GetU32(p + 45);
  const uint32_t after_len = GetU32(p + 49);
  if (kFixedHead + static_cast<uint64_t>(key_len) + before_len + after_len +
          kTrailer !=
      len) {
    return Status::Corruption("log record payload length mismatch");
  }
  const char* payload = p + kFixedHead;
  rec.key.assign(payload, key_len);
  rec.before.assign(payload + key_len, before_len);
  rec.after.assign(payload + key_len + before_len, after_len);
  return std::make_pair(std::move(rec), len);
}

Result<LogRecord> LogRecord::DecodeEndingAt(std::string_view log, lsn_t end_lsn) {
  if (end_lsn > log.size() || end_lsn < kFixedHead + kTrailer) {
    return Status::Corruption("log record end offset out of range");
  }
  const uint32_t len = GetU32(log.data() + end_lsn - 8);
  if (len > end_lsn || len < kFixedHead + kTrailer) {
    return Status::Corruption("log record tail length echo out of range");
  }
  auto decoded = Decode(log.substr(end_lsn - len, len));
  if (!decoded.ok()) return decoded.status();
  if (decoded->second != len) {
    return Status::Corruption("log record backward decode length mismatch");
  }
  return std::move(decoded->first);
}

}  // namespace elephant::wal
