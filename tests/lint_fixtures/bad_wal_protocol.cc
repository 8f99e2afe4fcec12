// Fixture for the wal-protocol rule: code outside src/wal/ and src/txn/
// forging a WAL record and stamping a frame LSN by hand. Redo is exact only
// because every page change is logged first and the buffer pool learns that
// record's LSN before write-back; an executor doing either directly bypasses
// the protocol. Logged B+-tree pages change only through the wal:: tree
// helpers (InsertCell / RemoveCell / SetValue / LogSplit).
#include "storage/buffer_pool.h"
#include "wal/log_record.h"

namespace elephant {

void ForgeLogRecord(BufferPool& pool, page_id_t page) {
  wal::LogRecord rec;
  rec.type = wal::LogRecordType::kInsert;
  pool.RecordPageLsn(page, 42);
}

}  // namespace elephant
