#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "engine/database.h"

struct sqlite3;

namespace elephant {

/// Test-only differential oracle: an in-memory SQLite database that shares no
/// parsing, planning or execution code with this engine. Tests copy engine
/// tables into it, run the same statement on both sides and compare.
///
/// Loading. CopyTable reads a table with `SELECT *` and inserts every row
/// through typed binds: INT/BIGINT/BOOLEAN as INTEGER, DECIMAL and DOUBLE as
/// REAL, DATE as ISO `YYYY-MM-DD` text, CHAR/VARCHAR as text.
///
/// Rewrites applied to the statement before SQLite runs it:
///  - the `DATE` keyword before a string literal is stripped (ISO text
///    compares chronologically);
///  - every `/` becomes `* 1.0 /`, so division yields a double;
///  - each top-level ORDER BY term gets an explicit NULLS FIRST (ASC) or
///    NULLS LAST (DESC);
///  - `/*+ ... */` hint blocks are ordinary comments to SQLite.
///
/// Comparison. Cells compare in a common domain: integers exactly; DECIMAL
/// and DOUBLE (and any integer met by a REAL) with a 1e-9 relative tolerance
/// (absolute below magnitude 1); text after trimming trailing spaces; NULL
/// only equals NULL. Then, on the statement's shape:
///  - no ORDER BY, no LIMIT: the two results are equal as multisets;
///  - ORDER BY: the sequences of sort-key values are equal, and the results
///    are equal as multisets (rows tied on the key may come in any order);
///  - LIMIT: the row counts are equal and every engine row is contained (as
///    a multiset) in SQLite's result without the LIMIT; with ORDER BY the
///    key sequence must also equal SQLite's limited key sequence.
/// ORDER BY terms must be output ordinals or output column names.
///
/// Deliberate divergences, and how each is normalized:
///  - `/` always yields DOUBLE in the engine (DESIGN.md "Exact division"),
///    integer division in SQLite: the `* 1.0 /` rewrite.
///  - NULL ordering: the engine sorts NULLs first ascending and last
///    descending; the rewrite pins SQLite to the same.
///  - DECIMAL is exact fixed-point (scale 2) in the engine, REAL in SQLite:
///    the numeric tolerance.
///  - DATE is a type in the engine, text here: the keyword strip and ISO
///    storage.
///  - CHAR(n) values come back space-padded, and the engine compares strings
///    pad-insensitively: text is stored and compared right-trimmed.
/// Divergences the oracle reports rather than normalizes (tests keep such
/// statements out of their oracle legs and check them another way):
///  - arithmetic errors: division by zero and integer overflow fail the
///    engine statement, while SQLite yields NULL or promotes to REAL; an
///    engine error is always reported as a divergence;
///  - DECIMAL * DECIMAL truncates to scale 2 in the engine;
///  - a comparison with NULL is FALSE in the engine rather than UNKNOWN,
///    which differs from SQL only under NOT.
class SqliteOracle {
 public:
  /// Opens an empty in-memory SQLite database. NotSupported when the build
  /// did not find SQLite3; tests GTEST_SKIP loudly on that.
  static Result<std::unique_ptr<SqliteOracle>> Open();

  ~SqliteOracle();
  SqliteOracle(const SqliteOracle&) = delete;
  SqliteOracle& operator=(const SqliteOracle&) = delete;

  /// Copies `table` (all rows, same column names) from `db` into SQLite.
  Status CopyTable(Database* db, const std::string& table);

  /// Runs `sql` in SQLite and compares it with `engine`, the engine's result
  /// for the same statement. OK when they agree; otherwise an error whose
  /// message describes the first divergence.
  Status Check(const std::string& sql, const QueryResult& engine);

 private:
  explicit SqliteOracle(sqlite3* db) : db_(db) {}

  sqlite3* db_;
};

}  // namespace elephant
