#pragma once

#include <cstdint>

namespace elephant {

/// Disk page size in bytes (SQL Server uses 8 KiB pages; we follow suit).
constexpr uint32_t kPageSize = 8192;

/// Page identifier within a DiskManager. kInvalidPageId marks "no page".
using page_id_t = int32_t;
constexpr page_id_t kInvalidPageId = -1;

/// Cell position within a page.
using slot_id_t = uint16_t;

/// Default buffer pool capacity in pages (64 MiB at 8 KiB pages).
constexpr uint32_t kDefaultBufferPoolPages = 8192;

/// Log sequence number. An LSN is the byte offset of the END of a log record
/// in the append-only WAL, so `durable_bytes >= lsn` means the record is on
/// stable storage. kInvalidLsn (0) means "no log record" — real records
/// always end past offset zero.
using lsn_t = uint64_t;
constexpr lsn_t kInvalidLsn = 0;

/// Transaction identifier. kInvalidTxnId marks "no transaction" (e.g. log
/// records produced by recovery itself).
using txn_id_t = uint64_t;
constexpr txn_id_t kInvalidTxnId = 0;

}  // namespace elephant
