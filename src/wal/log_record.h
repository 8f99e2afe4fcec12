#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/config.h"
#include "common/status.h"

namespace elephant::wal {

/// Every mutation of durable state is described by exactly one of these.
/// Tree records are the ARIES/IM split: each names one page, so redo is a
/// single-page operation replayed in log order, while the key and the
/// before/after values let undo find its entry again by key through the
/// tree, wherever splits have moved it since.
enum class LogRecordType : uint8_t {
  kBegin = 1,       ///< transaction started
  kCommit = 2,      ///< transaction durably committed (group-flushed)
  kAbort = 3,       ///< transaction fully rolled back (written after undo)
  kInsert = 4,      ///< leaf cell inserted at (page, slot): key,
                    ///< after = value (also a split's separator, inside
                    ///< a kSplit record)
  kDelete = 5,      ///< leaf cell removed at (page, slot): key, before = value
  kUpdate = 6,      ///< leaf value rewritten in place (same size): key,
                    ///< before and after values
  kClr = 7,         ///< compensation record: redo-only undo step
  kCheckpoint = 8,  ///< checkpoint marker (redo starts after this)
  kPageImage = 9,   ///< whole page (redo-only): a page's first change after
                    ///< a checkpoint logs its image first
  kSplit = 10,      ///< one B+-tree split (redo-only): `after` holds the
                    ///< encoded records of its page changes — images of the
                    ///< pages it rewrote, then the separator it inserted —
                    ///< under one CRC, so a torn tail drops all of them
};

/// The cell change a CLR made (and its redo repeats). CLRs are never undone
/// themselves: rollback progress survives a crash during rollback.
enum class ClrAction : uint8_t {
  kNone = 0,
  kInsert = 1,  ///< re-inserted the cell a delete removed
  kDelete = 2,  ///< removed the cell an insert added
  kUpdate = 3,  ///< restored the value an update overwrote
};

/// One WAL record. Construction is part of the WAL protocol: outside
/// src/wal/ and src/txn/ the elephant_lint rule `wal-protocol` rejects any
/// mention of this type, so every byte that enters the log is written by
/// code in those two directories.
///
/// Wire format (little-endian, CRC over everything before it):
///   [u32 len][u8 type][u8 clr_action][u16 slot]
///   [u64 txn_id][u64 prev_lsn][u64 undo_next_lsn]
///   [i32 page_id][u32 table_id][u8 tree]
///   [u32 key_len][u32 before_len][u32 after_len][key][before][after]
///   [u32 len][u32 crc]
///
/// The length is echoed at the tail so a record can be decoded backwards
/// from its end offset — rollback walks a transaction's chain by LSN
/// without scanning the log from the front.
///
/// An LSN is the byte offset of the record END in the log, so a record is
/// durable exactly when the log's durable watermark reaches its LSN.
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  ClrAction clr_action = ClrAction::kNone;
  txn_id_t txn_id = kInvalidTxnId;
  lsn_t prev_lsn = kInvalidLsn;       ///< previous record of the same txn
  lsn_t undo_next_lsn = kInvalidLsn;  ///< CLR: next record to undo
  page_id_t page_id = kInvalidPageId;
  slot_id_t slot = 0;     ///< cell position; kPageImage: start of the elided hole
  uint32_t table_id = 0;  ///< the table whose tree the page belongs to
  uint8_t tree = 0;       ///< 0 = clustered, i = secondary index i - 1
  std::string key;
  std::string before;
  std::string after;

  /// Serialized size in bytes.
  uint32_t EncodedSize() const;

  /// Appends the wire encoding to `out`.
  void EncodeTo(std::string* out) const;

  /// Decodes one record from the head of `buf`. Returns the record plus the
  /// bytes consumed, or kCorruption when the buffer holds a truncated or
  /// CRC-damaged record (how a torn final flush is detected).
  static Result<std::pair<LogRecord, uint32_t>> Decode(std::string_view buf);

  /// Decodes the record whose END is at byte offset `end_lsn` of `log`,
  /// using the tail length echo to find its start.
  static Result<LogRecord> DecodeEndingAt(std::string_view log, lsn_t end_lsn);
};

/// FNV-1a 32-bit, the engine's stock checksum (plan hashes use the 64-bit
/// variant). Exposed for the crash-matrix oracle.
uint32_t Fnv1a32(std::string_view bytes);

}  // namespace elephant::wal
