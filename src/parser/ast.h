#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/value.h"

namespace elephant {

// Abstract syntax trees produced by the parser. These are unresolved: names
// are strings, types are unknown; the binder turns them into bound
// expressions and plans.

struct SqlExpr;
using SqlExprPtr = std::unique_ptr<SqlExpr>;

enum class SqlExprKind {
  kIdent,     ///< column reference, optionally qualified
  kLiteral,   ///< constant
  kStar,      ///< '*' (only valid inside COUNT(*) / SELECT *)
  kBinary,    ///< binary operator (comparison, arithmetic, AND/OR)
  kNot,       ///< NOT child
  kIsNull,    ///< child IS [NOT] NULL
  kFuncCall,  ///< aggregate function call
  kBetween,   ///< child BETWEEN lo AND hi
};

struct SqlExpr {
  SqlExprKind kind;

  // kIdent
  std::string qualifier;  ///< table alias, may be empty
  std::string name;       ///< column name (upper-cased)

  // kLiteral
  Value literal;

  // kBinary: op is one of = <> < <= > >= + - * / AND OR
  std::string op;
  SqlExprPtr lhs, rhs;

  // kNot / kIsNull / kBetween / kFuncCall argument
  SqlExprPtr child;
  bool is_not = false;  ///< for IS NOT NULL

  // kFuncCall
  std::string func;      ///< COUNT/SUM/MIN/MAX/AVG (upper-cased)
  bool star_arg = false; ///< COUNT(*)

  // kBetween
  SqlExprPtr between_lo, between_hi;

  /// Height of this subtree (1 for a leaf). The parser rejects trees taller
  /// than kMaxExprDepth, so every later recursive pass over a SqlExpr or its
  /// bound Expr has bounded stack depth.
  uint32_t height = 1;

  /// Human-readable rendering (used in error messages and as default
  /// output-column names).
  std::string ToString() const;
};

struct SelectStmt;

/// An entry in the FROM list: either a base table or a derived table
/// (parenthesized subquery) with an alias.
struct TableRef {
  std::string table_name;  ///< empty for derived tables
  std::string alias;       ///< defaults to table_name
  std::unique_ptr<SelectStmt> derived;
};

struct SelectItem {
  SqlExprPtr expr;   ///< null for bare '*'
  std::string alias;
  bool star = false;
};

struct OrderItem {
  SqlExprPtr expr;
  bool ascending = true;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  SqlExprPtr where;
  std::vector<SqlExprPtr> group_by;
  SqlExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<uint64_t> limit;
  std::string hint_text;  ///< raw contents of a leading /*+ ... */ block
};

struct ColumnDef {
  std::string name;
  TypeId type;
  uint32_t length = 0;  ///< CHAR(n)
};

struct CreateTableStmt {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<std::string> cluster_by;  ///< column names; may be empty
};

struct CreateIndexStmt {
  std::string index_name;
  std::string table_name;
  std::vector<std::string> key_columns;
  std::vector<std::string> include_columns;
};

struct InsertStmt {
  std::string table_name;
  std::vector<std::vector<SqlExprPtr>> rows;  ///< literal expressions only
};

struct DeleteStmt {
  std::string table_name;
  SqlExprPtr where;  ///< null deletes every row
};

struct UpdateStmt {
  std::string table_name;
  /// SET assignments in statement order: column name -> value expression.
  std::vector<std::pair<std::string, SqlExprPtr>> sets;
  SqlExprPtr where;  ///< null updates every row
};

enum class StatementKind {
  kSelect,
  kCreateTable,
  kCreateIndex,
  kInsert,
  kDelete,
  kUpdate,
  kBegin,
  kCommit,
  kRollback,
  kCheckpoint,
  kExplain,
};

struct Statement {
  StatementKind kind;
  std::unique_ptr<SelectStmt> select;  ///< also the target of kExplain
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<DeleteStmt> delete_stmt;
  std::unique_ptr<UpdateStmt> update_stmt;
  bool explain_analyze = false;  ///< kExplain: EXPLAIN ANALYZE (run the query)
};

}  // namespace elephant
