#include "sqlite_oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <vector>

#ifdef ELEPHANT_HAVE_SQLITE3
#include <sqlite3.h>
#endif

namespace elephant {

#ifdef ELEPHANT_HAVE_SQLITE3

namespace {

constexpr double kRelTol = 1e-9;

/// One result cell in the domain both sides are compared in.
struct Cell {
  enum class Kind { kNull, kInt, kReal, kText };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double r = 0;
  std::string s;

  static Cell Int(int64_t v) { return Cell{Kind::kInt, v, 0, {}}; }
  static Cell Real(double v) { return Cell{Kind::kReal, 0, v, {}}; }
  static Cell Text(std::string v) {
    while (!v.empty() && v.back() == ' ') v.pop_back();
    return Cell{Kind::kText, 0, 0, std::move(v)};
  }

  bool numeric() const { return kind == Kind::kInt || kind == Kind::kReal; }
  double real() const { return kind == Kind::kInt ? static_cast<double>(i) : r; }
  std::string ToString() const {
    switch (kind) {
      case Kind::kNull: return "NULL";
      case Kind::kInt: return std::to_string(i);
      case Kind::kReal: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", r);
        return buf;
      }
      case Kind::kText: return "'" + s + "'";
    }
    return "?";
  }
};
using CellRow = std::vector<Cell>;

Cell FromValue(const Value& v) {
  if (v.is_null()) return Cell{};
  switch (v.type()) {
    case TypeId::kBoolean:
    case TypeId::kInt32:
    case TypeId::kInt64:
      return Cell::Int(v.AsInt64());
    case TypeId::kDecimal:
    case TypeId::kDouble:
      return Cell::Real(v.AsDouble());
    case TypeId::kDate:
      return Cell::Text(v.ToString());
    case TypeId::kChar:
    case TypeId::kVarchar:
      return Cell::Text(v.AsString());
    case TypeId::kInvalid:
      break;
  }
  return Cell{};
}

bool CellsEqual(const Cell& a, const Cell& b) {
  if (a.numeric() && b.numeric()) {
    if (a.kind == Cell::Kind::kInt && b.kind == Cell::Kind::kInt) return a.i == b.i;
    const double x = a.real(), y = b.real();
    return std::fabs(x - y) <= kRelTol * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  if (a.kind != b.kind) return false;
  return a.kind != Cell::Kind::kText || a.s == b.s;
}

/// Canonical total order for sorting multisets: NULL < numbers < text.
int CompareCells(const Cell& a, const Cell& b) {
  auto rank = [](const Cell& c) {
    return c.kind == Cell::Kind::kNull ? 0 : c.numeric() ? 1 : 2;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b) ? -1 : 1;
  if (a.kind == Cell::Kind::kText) return a.s.compare(b.s);
  if (!a.numeric()) return 0;
  if (a.kind == Cell::Kind::kInt && b.kind == Cell::Kind::kInt) {
    return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
  }
  return a.real() < b.real() ? -1 : (a.real() > b.real() ? 1 : 0);
}

bool RowLess(const CellRow& a, const CellRow& b) {
  for (size_t c = 0; c < std::min(a.size(), b.size()); c++) {
    const int cmp = CompareCells(a[c], b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

bool RowsEqual(const CellRow& a, const CellRow& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); c++) {
    if (!CellsEqual(a[c], b[c])) return false;
  }
  return true;
}

std::string RowString(const CellRow& row) {
  std::string out = "(";
  for (size_t c = 0; c < row.size(); c++) {
    if (c > 0) out += ", ";
    out += row[c].ToString();
  }
  return out + ")";
}

std::vector<CellRow> Sorted(std::vector<CellRow> rows) {
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

// ---------- statement analysis ----------

struct Token {
  enum class Kind { kWord, kNumber, kString, kSymbol, kComment, kSpace };
  Kind kind;
  std::string text;
  int depth;  ///< parenthesis depth at the token
};

std::string Upper(std::string s) {
  for (char& c : s) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

std::vector<Token> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  int depth = 0;
  size_t i = 0;
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (i < sql.size()) {
    const size_t start = i;
    const char c = sql[i];
    Token::Kind kind;
    if (std::isspace(static_cast<unsigned char>(c))) {
      while (i < sql.size() && std::isspace(static_cast<unsigned char>(sql[i]))) i++;
      kind = Token::Kind::kSpace;
    } else if (c == '\'') {
      i++;
      while (i < sql.size()) {
        if (sql[i] == '\'' && (i + 1 >= sql.size() || sql[i + 1] != '\'')) break;
        i += sql[i] == '\'' ? 2 : 1;
      }
      i = std::min(i + 1, sql.size());
      kind = Token::Kind::kString;
    } else if (sql.compare(i, 2, "/*") == 0) {
      const size_t end = sql.find("*/", i + 2);
      i = end == std::string::npos ? sql.size() : end + 2;
      kind = Token::Kind::kComment;
    } else if (sql.compare(i, 2, "--") == 0) {
      const size_t end = sql.find('\n', i);
      i = end == std::string::npos ? sql.size() : end;
      kind = Token::Kind::kComment;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) || sql[i] == '.')) {
        i++;
      }
      kind = Token::Kind::kNumber;
    } else if (is_word(c)) {
      while (i < sql.size() && is_word(sql[i])) i++;
      kind = Token::Kind::kWord;
    } else {
      const std::string two = sql.substr(i, 2);
      i += (two == "<=" || two == ">=" || two == "<>" || two == "!=") ? 2 : 1;
      kind = Token::Kind::kSymbol;
    }
    std::string text = sql.substr(start, i - start);
    if (text == ")") depth--;
    out.push_back(Token{kind, text, depth});
    if (text == "(") depth++;
  }
  return out;
}

struct OrderTerm {
  std::string expr;  ///< term text without ASC/DESC
  bool desc = false;
};

/// A statement as SQLite runs it, plus the shape facts the comparison needs.
struct Analyzed {
  std::string sql;            ///< rewritten, LIMIT kept
  std::string unlimited_sql;  ///< rewritten, top-level LIMIT dropped
  bool limited = false;       ///< has a top-level LIMIT
  std::vector<OrderTerm> order;
};

bool IsWord(const Token& t, const char* word) {
  return t.kind == Token::Kind::kWord && Upper(t.text) == word;
}

/// Applies the rewrites (DATE keyword strip, `/` to `* 1.0 /`), then splits
/// off the top-level ORDER BY terms and LIMIT. Comments and whitespace are
/// dropped; the engine dialect puts ORDER BY and LIMIT last, in that order.
Result<Analyzed> Analyze(const std::string& sql) {
  std::vector<Token> toks;
  for (Token& t : Tokenize(sql)) {
    if (t.kind == Token::Kind::kSpace || t.kind == Token::Kind::kComment) {
      continue;
    }
    if (t.kind == Token::Kind::kString && !toks.empty() &&
        IsWord(toks.back(), "DATE")) {
      toks.pop_back();
    }
    if (t.kind == Token::Kind::kSymbol && t.text == "/") t.text = "* 1.0 /";
    toks.push_back(std::move(t));
  }
  auto top_level = [&](size_t i, const char* word) {
    return i < toks.size() && toks[i].depth == 0 && IsWord(toks[i], word);
  };
  Analyzed a;
  std::string body;
  size_t i = 0;
  for (; i < toks.size() && !top_level(i, "ORDER") && !top_level(i, "LIMIT");
       i++) {
    body += toks[i].text + " ";
  }
  std::string order_by;
  if (top_level(i, "ORDER")) {
    if (i + 1 >= toks.size() || !IsWord(toks[i + 1], "BY")) {
      return Status::InvalidArgument("oracle: ORDER without BY");
    }
    OrderTerm term;
    auto finish_term = [&] {
      order_by += (order_by.empty() ? " ORDER BY " : ", ") + term.expr +
                  (term.desc ? " DESC NULLS LAST" : " ASC NULLS FIRST");
      a.order.push_back(term);
      term = OrderTerm{};
    };
    for (i += 2; i < toks.size() && !top_level(i, "LIMIT"); i++) {
      const Token& t = toks[i];
      if (t.depth == 0 && t.text == ",") {
        finish_term();
      } else if (t.depth == 0 && (IsWord(t, "ASC") || IsWord(t, "DESC"))) {
        term.desc = IsWord(t, "DESC");
      } else {
        term.expr += (term.expr.empty() ? "" : " ") + t.text;
      }
    }
    finish_term();
  }
  std::string limit;
  if (i < toks.size()) {
    if (i + 1 >= toks.size() || toks[i + 1].kind != Token::Kind::kNumber) {
      return Status::InvalidArgument("oracle: LIMIT without a number");
    }
    a.limited = true;
    limit = " LIMIT " + toks[i + 1].text;
  }
  a.unlimited_sql = body + order_by;
  a.sql = a.unlimited_sql + limit;
  return a;
}

/// Output column index of an ORDER BY term: a 1-based ordinal or an output
/// column name (case-insensitive).
Result<size_t> TermColumn(const OrderTerm& term, const Schema& schema) {
  const std::string e = Upper(term.expr);
  if (!e.empty() && std::all_of(e.begin(), e.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c));
      })) {
    const size_t ordinal = std::stoul(e);
    if (ordinal >= 1 && ordinal <= schema.NumColumns()) return ordinal - 1;
  }
  for (size_t c = 0; c < schema.NumColumns(); c++) {
    if (Upper(schema.ColumnAt(c).name) == e) return c;
  }
  return Status::InvalidArgument("oracle: ORDER BY term '" + term.expr +
                                 "' is neither an output ordinal nor an "
                                 "output column name");
}

std::vector<CellRow> Keys(const std::vector<CellRow>& rows,
                          const std::vector<size_t>& cols) {
  std::vector<CellRow> keys;
  keys.reserve(rows.size());
  for (const CellRow& r : rows) {
    CellRow k;
    for (size_t c : cols) k.push_back(r[c]);
    keys.push_back(std::move(k));
  }
  return keys;
}

Status Divergence(const std::string& what, const std::string& sql) {
  return Status::Internal("oracle divergence (" + what + ") on: " + sql);
}

/// `want` and `got` are equal as sequences (both already in the order to
/// compare).
Status ExpectSequence(const std::vector<CellRow>& want,
                      const std::vector<CellRow>& got, const char* what,
                      const std::string& sql) {
  if (want.size() != got.size()) {
    return Divergence(std::string(what) + ": sqlite " +
                          std::to_string(want.size()) + " rows, engine " +
                          std::to_string(got.size()),
                      sql);
  }
  for (size_t i = 0; i < want.size(); i++) {
    if (!RowsEqual(want[i], got[i])) {
      return Divergence(std::string(what) + " at " + std::to_string(i) +
                            ": sqlite " + RowString(want[i]) + ", engine " +
                            RowString(got[i]),
                        sql);
    }
  }
  return Status::OK();
}

/// Every row of `sub` appears in `super` (multiset containment).
Status ExpectContained(const std::vector<CellRow>& super,
                       const std::vector<CellRow>& sub, const std::string& sql) {
  const std::vector<CellRow> big = Sorted(super), small = Sorted(sub);
  size_t j = 0;
  for (const CellRow& row : small) {
    while (j < big.size() && !RowsEqual(big[j], row) && RowLess(big[j], row)) j++;
    if (j == big.size() || !RowsEqual(big[j], row)) {
      return Divergence("engine row " + RowString(row) +
                            " is not in sqlite's unlimited result",
                        sql);
    }
    j++;
  }
  return Status::OK();
}

Status SqliteError(sqlite3* db, const std::string& what) {
  return Status::Internal("sqlite " + what + ": " + sqlite3_errmsg(db));
}

/// Runs one statement and returns its rows (and, via `width`, its column
/// count).
Result<std::vector<CellRow>> Run(sqlite3* db, const std::string& sql,
                                 size_t* width) {
  sqlite3_stmt* stmt = nullptr;
  if (sqlite3_prepare_v2(db, sql.c_str(), -1, &stmt, nullptr) != SQLITE_OK) {
    return SqliteError(db, "prepare of \"" + sql + "\"");
  }
  std::unique_ptr<sqlite3_stmt, int (*)(sqlite3_stmt*)> guard(stmt,
                                                              sqlite3_finalize);
  *width = static_cast<size_t>(sqlite3_column_count(stmt));
  std::vector<CellRow> rows;
  int rc;
  while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
    CellRow row;
    for (int c = 0; c < sqlite3_column_count(stmt); c++) {
      switch (sqlite3_column_type(stmt, c)) {
        case SQLITE_INTEGER:
          row.push_back(Cell::Int(sqlite3_column_int64(stmt, c)));
          break;
        case SQLITE_FLOAT:
          row.push_back(Cell::Real(sqlite3_column_double(stmt, c)));
          break;
        case SQLITE_TEXT:
          row.push_back(Cell::Text(
              reinterpret_cast<const char*>(sqlite3_column_text(stmt, c))));
          break;
        case SQLITE_NULL:
          row.push_back(Cell{});
          break;
        default:
          return Status::Internal("sqlite returned a BLOB for: " + sql);
      }
    }
    rows.push_back(std::move(row));
  }
  if (rc != SQLITE_DONE) return SqliteError(db, "step of \"" + sql + "\"");
  return rows;
}

Status Exec(sqlite3* db, const std::string& sql) {
  if (sqlite3_exec(db, sql.c_str(), nullptr, nullptr, nullptr) != SQLITE_OK) {
    return SqliteError(db, "exec of \"" + sql + "\"");
  }
  return Status::OK();
}

const char* SqliteType(TypeId t) {
  switch (t) {
    case TypeId::kBoolean:
    case TypeId::kInt32:
    case TypeId::kInt64:
      return "INTEGER";
    case TypeId::kDecimal:
    case TypeId::kDouble:
      return "REAL";
    default:
      return "TEXT";
  }
}

Status Bind(sqlite3* db, sqlite3_stmt* stmt, int pos, const Value& v) {
  const Cell cell = FromValue(v);
  int rc = SQLITE_OK;
  switch (cell.kind) {
    case Cell::Kind::kNull: rc = sqlite3_bind_null(stmt, pos); break;
    case Cell::Kind::kInt: rc = sqlite3_bind_int64(stmt, pos, cell.i); break;
    case Cell::Kind::kReal: rc = sqlite3_bind_double(stmt, pos, cell.r); break;
    case Cell::Kind::kText:
      rc = sqlite3_bind_text(stmt, pos, cell.s.c_str(),
                             static_cast<int>(cell.s.size()), SQLITE_TRANSIENT);
      break;
  }
  return rc == SQLITE_OK ? Status::OK() : SqliteError(db, "bind");
}

}  // namespace

Result<std::unique_ptr<SqliteOracle>> SqliteOracle::Open() {
  sqlite3* db = nullptr;
  if (sqlite3_open(":memory:", &db) != SQLITE_OK) {
    const std::string msg = db != nullptr ? sqlite3_errmsg(db) : "out of memory";
    sqlite3_close(db);
    return Status::Internal("sqlite open: " + msg);
  }
  return std::unique_ptr<SqliteOracle>(new SqliteOracle(db));
}

SqliteOracle::~SqliteOracle() { sqlite3_close(db_); }

Status SqliteOracle::CopyTable(Database* db, const std::string& table) {
  ELE_ASSIGN_OR_RETURN(QueryResult src, db->Execute("SELECT * FROM " + table));
  const Schema& schema = src.schema;
  std::string create = "CREATE TABLE " + table + " (";
  std::string insert = "INSERT INTO " + table + " VALUES (";
  for (size_t c = 0; c < schema.NumColumns(); c++) {
    create += (c > 0 ? ", " : "") + schema.ColumnAt(c).name + " " +
              SqliteType(schema.ColumnAt(c).type);
    insert += c > 0 ? ", ?" : "?";
  }
  ELE_RETURN_NOT_OK(Exec(db_, create + ")"));
  ELE_RETURN_NOT_OK(Exec(db_, "BEGIN"));
  sqlite3_stmt* stmt = nullptr;
  if (sqlite3_prepare_v2(db_, (insert + ")").c_str(), -1, &stmt, nullptr) !=
      SQLITE_OK) {
    return SqliteError(db_, "prepare of insert");
  }
  std::unique_ptr<sqlite3_stmt, int (*)(sqlite3_stmt*)> guard(stmt,
                                                              sqlite3_finalize);
  for (const Row& row : src.rows) {
    for (size_t c = 0; c < row.size(); c++) {
      ELE_RETURN_NOT_OK(Bind(db_, stmt, static_cast<int>(c) + 1, row[c]));
    }
    if (sqlite3_step(stmt) != SQLITE_DONE) return SqliteError(db_, "insert");
    sqlite3_reset(stmt);
  }
  return Exec(db_, "COMMIT");
}

Status SqliteOracle::Check(const std::string& sql, const QueryResult& engine) {
  ELE_ASSIGN_OR_RETURN(Analyzed a, Analyze(sql));
  size_t width = 0;
  ELE_ASSIGN_OR_RETURN(std::vector<CellRow> want, Run(db_, a.sql, &width));
  if (width != engine.schema.NumColumns()) {
    return Divergence("sqlite returns " + std::to_string(width) +
                          " columns, engine " +
                          std::to_string(engine.schema.NumColumns()),
                      sql);
  }
  std::vector<CellRow> got;
  got.reserve(engine.rows.size());
  for (const Row& row : engine.rows) {
    CellRow cells;
    for (const Value& v : row) cells.push_back(FromValue(v));
    got.push_back(std::move(cells));
  }
  if (!a.order.empty()) {
    std::vector<size_t> key_cols;
    for (const OrderTerm& t : a.order) {
      ELE_ASSIGN_OR_RETURN(size_t col, TermColumn(t, engine.schema));
      key_cols.push_back(col);
    }
    ELE_RETURN_NOT_OK(ExpectSequence(Keys(want, key_cols), Keys(got, key_cols),
                                     "sort-key sequence", sql));
  }
  if (!a.limited) {
    return ExpectSequence(Sorted(std::move(want)), Sorted(std::move(got)),
                          "multiset row", sql);
  }
  if (want.size() != got.size()) {
    return Divergence("LIMIT row count: sqlite " + std::to_string(want.size()) +
                          ", engine " + std::to_string(got.size()),
                      sql);
  }
  ELE_ASSIGN_OR_RETURN(std::vector<CellRow> all,
                       Run(db_, a.unlimited_sql, &width));
  return ExpectContained(all, got, sql);
}

#else  // !ELEPHANT_HAVE_SQLITE3

Result<std::unique_ptr<SqliteOracle>> SqliteOracle::Open() {
  return Status::NotSupported(
      "built without SQLite3 (find_package(SQLite3) failed)");
}

SqliteOracle::~SqliteOracle() = default;

Status SqliteOracle::CopyTable(Database*, const std::string&) {
  return Status::NotSupported("built without SQLite3");
}

Status SqliteOracle::Check(const std::string&, const QueryResult&) {
  return Status::NotSupported("built without SQLite3");
}

#endif  // ELEPHANT_HAVE_SQLITE3

}  // namespace elephant
