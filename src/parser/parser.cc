#include "parser/parser.h"

#include <algorithm>
#include <cstdlib>

#include "parser/lexer.h"

namespace elephant {

std::string SqlExpr::ToString() const {
  switch (kind) {
    case SqlExprKind::kIdent:
      return qualifier.empty() ? name : qualifier + "." + name;
    case SqlExprKind::kLiteral:
      return literal.ToString();
    case SqlExprKind::kStar:
      return "*";
    case SqlExprKind::kBinary:
      return "(" + lhs->ToString() + " " + op + " " + rhs->ToString() + ")";
    case SqlExprKind::kNot:
      return "NOT " + child->ToString();
    case SqlExprKind::kIsNull:
      return child->ToString() + (is_not ? " IS NOT NULL" : " IS NULL");
    case SqlExprKind::kFuncCall:
      return func + "(" + (star_arg ? "*" : child->ToString()) + ")";
    case SqlExprKind::kBetween:
      return child->ToString() + " BETWEEN " + between_lo->ToString() + " AND " +
             between_hi->ToString();
  }
  return "?";
}

namespace {

constexpr uint32_t kDerivedTableLevels = 8;

/// Binding strength of expression operators, loosest first. NOT is a
/// prefix operator; comparisons include BETWEEN and IS [NOT] NULL.
enum Prec : int { kOrPrec = 1, kAndPrec, kNotPrec, kCmpPrec, kAddPrec, kMulPrec };

/// Precedence of the binary (or comparison) operator at `t`; 0 for none.
int OperatorPrec(const Token& t) {
  if (t.kind == TokenKind::kIdent) {
    if (t.text == "OR") return kOrPrec;
    if (t.text == "AND") return kAndPrec;
    if (t.text == "BETWEEN" || t.text == "IS") return kCmpPrec;
    return 0;
  }
  if (t.kind != TokenKind::kSymbol) return 0;
  const std::string& s = t.text;
  if (s == "=" || s == "<>" || s == "<" || s == "<=" || s == ">" || s == ">=") {
    return kCmpPrec;
  }
  if (s == "+" || s == "-") return kAddPrec;
  if (s == "*" || s == "/") return kMulPrec;
  return 0;
}

bool IsAggName(const std::string& s) {
  return s == "COUNT" || s == "SUM" || s == "MIN" || s == "MAX" || s == "AVG";
}

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement();
  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt();

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().kind == TokenKind::kIdent && Peek().text == kw) {
      Advance();
      return true;
    }
    return false;
  }
  bool CheckKeyword(const std::string& kw) const {
    return Peek().kind == TokenKind::kIdent && Peek().text == kw;
  }
  bool MatchSymbol(const std::string& sym) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == sym) {
      Advance();
      return true;
    }
    return false;
  }
  bool CheckSymbol(const std::string& sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!MatchSymbol(sym)) {
      return Status::ParseError("expected '" + sym + "' near offset " +
                                std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!MatchKeyword(kw)) {
      return Status::ParseError("expected " + kw + " near offset " +
                                std::to_string(Peek().offset));
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::ParseError("expected identifier near offset " +
                                std::to_string(Peek().offset));
    }
    return Advance().text;
  }

  /// `levels` of parser recursion, held for the scope's lifetime.
  class Nested {
   public:
    explicit Nested(Parser* p, uint32_t levels = 1) : p_(p), levels_(levels) {
      p_->nesting_ += levels_;
    }
    ~Nested() { p_->nesting_ -= levels_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser* p_;
    uint32_t levels_;
  };

  /// ParseError once `depth` (parser nesting or tree height) passes
  /// kMaxExprDepth.
  Status CheckDepth(uint32_t depth) const {
    return depth <= kMaxExprDepth ? Status::OK() : DepthError();
  }
  [[gnu::noinline]] Status DepthError() const {
    return Status::ParseError("expression nested deeper than " +
                              std::to_string(kMaxExprDepth) +
                              " levels near offset " +
                              std::to_string(Peek().offset));
  }

  /// Builds a binary node; fails when the tree grows past kMaxExprDepth.
  Result<SqlExprPtr> Binary(std::string op, SqlExprPtr l, SqlExprPtr r) {
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kBinary;
    e->op = std::move(op);
    e->height = 1 + std::max(l->height, r->height);
    ELE_RETURN_NOT_OK(CheckDepth(e->height));
    e->lhs = std::move(l);
    e->rhs = std::move(r);
    return e;
  }

  Result<SqlExprPtr> ParseExpr(int min_prec = kOrPrec);
  Result<SqlExprPtr> ParsePrimary();
  [[gnu::noinline]] Result<SqlExprPtr> ParseNot();
  [[gnu::noinline]] Result<SqlExprPtr> ParseComparison(SqlExprPtr lhs);
  [[gnu::noinline]] Result<SqlExprPtr> Negate(SqlExprPtr operand);
  [[gnu::noinline]] Result<SqlExprPtr> ParseAggregate();
  [[gnu::noinline]] Result<SqlExprPtr> ParseLeaf();
  Result<Value> ParseNumberLiteral(const std::string& text);

  Result<TableRef> ParseTableRef();
  Result<CreateTableStmt> ParseCreateTable();
  Result<CreateIndexStmt> ParseCreateIndex();
  Result<InsertStmt> ParseInsert();
  Result<DeleteStmt> ParseDelete();
  Result<UpdateStmt> ParseUpdate();
  Result<std::vector<std::string>> ParseNameList();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  uint32_t nesting_ = 0;  ///< current recursion depth; see Nested
};

/// Precedence climbing: parses operators binding at least as tightly as
/// `min_prec`. A parenthesis level costs one ParseExpr and one ParsePrimary
/// frame, which keeps kMaxExprDepth levels affordable on the stack.
Result<SqlExprPtr> Parser::ParseExpr(int min_prec) {
  SqlExprPtr lhs;
  // The loosest operator that may still extend lhs: operators of one
  // precedence chain left to right, comparisons do not chain, and a NOT
  // operand has already taken everything tighter than AND.
  int max_prec = kMulPrec;
  if (min_prec <= kNotPrec && MatchKeyword("NOT")) {
    ELE_ASSIGN_OR_RETURN(lhs, ParseNot());
    max_prec = kAndPrec;
  } else {
    ELE_ASSIGN_OR_RETURN(lhs, ParsePrimary());
  }
  while (true) {
    const int prec = OperatorPrec(Peek());
    if (prec == 0 || prec < min_prec || prec > max_prec) return lhs;
    if (prec == kCmpPrec) {
      ELE_ASSIGN_OR_RETURN(lhs, ParseComparison(std::move(lhs)));
      max_prec = kAndPrec;
      continue;
    }
    std::string op = Advance().text;
    ELE_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseExpr(prec + 1));
    ELE_ASSIGN_OR_RETURN(lhs, Binary(std::move(op), std::move(lhs), std::move(rhs)));
    max_prec = prec;
  }
}

/// The operand of a NOT just consumed: a comparison or another NOT.
Result<SqlExprPtr> Parser::ParseNot() {
  Nested nested(this);
  ELE_RETURN_NOT_OK(CheckDepth(nesting_));
  ELE_ASSIGN_OR_RETURN(SqlExprPtr child, ParseExpr(kNotPrec));
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kNot;
  e->height = 1 + child->height;
  ELE_RETURN_NOT_OK(CheckDepth(e->height));
  e->child = std::move(child);
  return e;
}

/// The comparison, BETWEEN or IS [NOT] NULL whose left operand is `lhs`;
/// the current token is its operator.
Result<SqlExprPtr> Parser::ParseComparison(SqlExprPtr lhs) {
  if (MatchKeyword("BETWEEN")) {
    ELE_ASSIGN_OR_RETURN(SqlExprPtr lo, ParseExpr(kAddPrec));
    ELE_RETURN_NOT_OK(ExpectKeyword("AND"));
    ELE_ASSIGN_OR_RETURN(SqlExprPtr hi, ParseExpr(kAddPrec));
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kBetween;
    e->height = 1 + std::max({lhs->height, lo->height, hi->height});
    ELE_RETURN_NOT_OK(CheckDepth(e->height));
    e->child = std::move(lhs);
    e->between_lo = std::move(lo);
    e->between_hi = std::move(hi);
    return e;
  }
  if (MatchKeyword("IS")) {
    bool is_not = MatchKeyword("NOT");
    ELE_RETURN_NOT_OK(ExpectKeyword("NULL"));
    auto e = std::make_unique<SqlExpr>();
    e->kind = SqlExprKind::kIsNull;
    e->height = 1 + lhs->height;
    ELE_RETURN_NOT_OK(CheckDepth(e->height));
    e->child = std::move(lhs);
    e->is_not = is_not;
    return e;
  }
  std::string op = Advance().text;
  ELE_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseExpr(kAddPrec));
  return Binary(std::move(op), std::move(lhs), std::move(rhs));
}

Result<Value> Parser::ParseNumberLiteral(const std::string& text) {
  if (text.find('.') != std::string::npos) {
    ELE_ASSIGN_OR_RETURN(int64_t scaled, decimal::Parse(text));
    return Value::Decimal(scaled);
  }
  errno = 0;
  const long long v = std::strtoll(text.c_str(), nullptr, 10);
  if (errno != 0) return Status::ParseError("integer literal overflow: " + text);
  if (v >= INT32_MIN && v <= INT32_MAX) return Value::Int32(static_cast<int32_t>(v));
  return Value::Int64(v);
}

// ParsePrimary and ParseExpr recurse once per nesting level, so they keep
// their own frames small (sanitizer builds give every local its own stack
// slot): everything else lives in helpers that are not inlined into them.
Result<SqlExprPtr> Parser::ParsePrimary() {
  Nested nested(this);
  ELE_RETURN_NOT_OK(CheckDepth(nesting_));
  if (MatchSymbol("(")) {
    ELE_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
    ELE_RETURN_NOT_OK(ExpectSymbol(")"));
    return inner;
  }
  if (MatchSymbol("-")) {
    ELE_ASSIGN_OR_RETURN(SqlExprPtr operand, ParsePrimary());
    return Negate(std::move(operand));
  }
  if (IsAggName(Peek().text) && Peek().kind == TokenKind::kIdent &&
      Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(") {
    return ParseAggregate();
  }
  return ParseLeaf();
}

Result<SqlExprPtr> Parser::Negate(SqlExprPtr operand) {
  if (operand->kind == SqlExprKind::kLiteral && !operand->literal.is_null() &&
      IsNumeric(operand->literal.type())) {
    // Over a numeric literal, unary minus folds into a negative literal
    // (so INSERT ... VALUES (-5) stays a literal), typed like any other
    // literal: INT32 when it fits (CastTo's NarrowToInt32 range check),
    // else INT64 / DECIMAL.
    ELE_ASSIGN_OR_RETURN(Value neg, Value::Int64(0).Subtract(operand->literal));
    if (neg.type() == TypeId::kInt64) {
      Result<Value> narrow = neg.CastTo(TypeId::kInt32);
      if (narrow.ok()) neg = std::move(narrow).value();
    }
    operand->literal = std::move(neg);
    return operand;
  }
  // Otherwise: 0 - operand.
  auto zero = std::make_unique<SqlExpr>();
  zero->kind = SqlExprKind::kLiteral;
  zero->literal = Value::Int32(0);
  return Binary("-", std::move(zero), std::move(operand));
}

Result<SqlExprPtr> Parser::ParseAggregate() {
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kFuncCall;
  e->func = Advance().text;
  Advance();  // '('
  if (MatchSymbol("*")) {
    e->star_arg = true;
  } else {
    ELE_ASSIGN_OR_RETURN(e->child, ParseExpr());
    e->height = 1 + e->child->height;
    ELE_RETURN_NOT_OK(CheckDepth(e->height));
  }
  ELE_RETURN_NOT_OK(ExpectSymbol(")"));
  return e;
}

Result<SqlExprPtr> Parser::ParseLeaf() {
  const Token& tok = Peek();
  auto e = std::make_unique<SqlExpr>();
  e->kind = SqlExprKind::kLiteral;
  if (tok.kind == TokenKind::kNumber) {
    Advance();
    ELE_ASSIGN_OR_RETURN(e->literal, ParseNumberLiteral(tok.text));
    return e;
  }
  if (tok.kind == TokenKind::kString) {
    Advance();
    e->literal = Value::Varchar(tok.raw);
    return e;
  }
  if (tok.kind != TokenKind::kIdent) {
    return Status::ParseError("unexpected token near offset " +
                              std::to_string(tok.offset));
  }
  // DATE 'yyyy-mm-dd' literal.
  if (tok.text == "DATE" && Peek(1).kind == TokenKind::kString) {
    Advance();
    const Token& str = Advance();
    ELE_ASSIGN_OR_RETURN(int32_t days, date::Parse(str.raw));
    e->literal = Value::Date(days);
    return e;
  }
  if (tok.text == "NULL") {
    Advance();
    return e;
  }
  // Qualified or bare identifier.
  Advance();
  e->kind = SqlExprKind::kIdent;
  if (MatchSymbol(".")) {
    ELE_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
    e->qualifier = tok.text;
    e->name = col;
  } else {
    e->name = tok.text;
  }
  return e;
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  if (MatchSymbol("(")) {
    // A nested SELECT is charged as kDerivedTableLevels expression levels:
    // parsing, binding and planning one takes several times the stack.
    Nested nested(this, kDerivedTableLevels);
    ELE_RETURN_NOT_OK(CheckDepth(nesting_));
    ELE_ASSIGN_OR_RETURN(ref.derived, ParseSelectStmt());
    ELE_RETURN_NOT_OK(ExpectSymbol(")"));
    MatchKeyword("AS");
    ELE_ASSIGN_OR_RETURN(ref.alias, ExpectIdent());
    return ref;
  }
  ELE_ASSIGN_OR_RETURN(ref.table_name, ExpectIdent());
  ref.alias = ref.table_name;
  if (MatchKeyword("AS")) {
    ELE_ASSIGN_OR_RETURN(ref.alias, ExpectIdent());
  } else if (Peek().kind == TokenKind::kIdent && !CheckKeyword("WHERE") &&
             !CheckKeyword("GROUP") && !CheckKeyword("ORDER") &&
             !CheckKeyword("LIMIT") && !CheckKeyword("ON") &&
             !CheckKeyword("INNER") && !CheckKeyword("JOIN") &&
             !CheckKeyword("HAVING")) {
    ELE_ASSIGN_OR_RETURN(ref.alias, ExpectIdent());
  }
  return ref;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectStmt() {
  auto stmt = std::make_unique<SelectStmt>();
  if (Peek().kind == TokenKind::kHintBlock) {
    stmt->hint_text = Advance().text;
  }
  ELE_RETURN_NOT_OK(ExpectKeyword("SELECT"));
  if (MatchKeyword("DISTINCT")) stmt->distinct = true;
  // Select list.
  do {
    SelectItem item;
    if (CheckSymbol("*")) {
      Advance();
      item.star = true;
    } else {
      ELE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        ELE_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      } else if (Peek().kind == TokenKind::kIdent && !CheckKeyword("FROM")) {
        ELE_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      }
    }
    stmt->items.push_back(std::move(item));
  } while (MatchSymbol(","));

  ELE_RETURN_NOT_OK(ExpectKeyword("FROM"));
  do {
    ELE_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
    stmt->from.push_back(std::move(ref));
    // Explicit INNER JOIN ... ON ... sugar: fold the ON condition into WHERE.
    while (CheckKeyword("INNER") || CheckKeyword("JOIN")) {
      MatchKeyword("INNER");
      ELE_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      ELE_ASSIGN_OR_RETURN(TableRef jref, ParseTableRef());
      stmt->from.push_back(std::move(jref));
      ELE_RETURN_NOT_OK(ExpectKeyword("ON"));
      ELE_ASSIGN_OR_RETURN(SqlExprPtr cond, ParseExpr());
      if (stmt->where == nullptr) {
        stmt->where = std::move(cond);
      } else {
        ELE_ASSIGN_OR_RETURN(stmt->where, Binary("AND", std::move(stmt->where),
                                                 std::move(cond)));
      }
    }
  } while (MatchSymbol(","));

  if (MatchKeyword("WHERE")) {
    ELE_ASSIGN_OR_RETURN(SqlExprPtr w, ParseExpr());
    if (stmt->where == nullptr) {
      stmt->where = std::move(w);
    } else {
      ELE_ASSIGN_OR_RETURN(stmt->where,
                           Binary("AND", std::move(stmt->where), std::move(w)));
    }
  }
  if (MatchKeyword("GROUP")) {
    ELE_RETURN_NOT_OK(ExpectKeyword("BY"));
    do {
      ELE_ASSIGN_OR_RETURN(SqlExprPtr g, ParseExpr());
      stmt->group_by.push_back(std::move(g));
    } while (MatchSymbol(","));
  }
  if (MatchKeyword("HAVING")) {
    ELE_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  if (MatchKeyword("ORDER")) {
    ELE_RETURN_NOT_OK(ExpectKeyword("BY"));
    do {
      OrderItem item;
      ELE_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
    } while (MatchSymbol(","));
  }
  if (MatchKeyword("LIMIT")) {
    if (Peek().kind != TokenKind::kNumber) {
      return Status::ParseError("expected number after LIMIT");
    }
    stmt->limit = std::strtoull(Advance().text.c_str(), nullptr, 10);
  }
  return stmt;
}

Result<CreateTableStmt> Parser::ParseCreateTable() {
  CreateTableStmt stmt;
  ELE_ASSIGN_OR_RETURN(stmt.name, ExpectIdent());
  ELE_RETURN_NOT_OK(ExpectSymbol("("));
  do {
    ColumnDef col;
    ELE_ASSIGN_OR_RETURN(col.name, ExpectIdent());
    ELE_ASSIGN_OR_RETURN(std::string type, ExpectIdent());
    if (type == "INT" || type == "INTEGER" || type == "INT32") {
      col.type = TypeId::kInt32;
    } else if (type == "BIGINT" || type == "INT64") {
      col.type = TypeId::kInt64;
    } else if (type == "DATE") {
      col.type = TypeId::kDate;
    } else if (type == "DECIMAL" || type == "NUMERIC" || type == "MONEY") {
      col.type = TypeId::kDecimal;
      if (MatchSymbol("(")) {  // DECIMAL(p,s) accepted, scale fixed at 2
        while (!CheckSymbol(")") && !AtEnd()) Advance();
        ELE_RETURN_NOT_OK(ExpectSymbol(")"));
      }
    } else if (type == "DOUBLE" || type == "FLOAT" || type == "REAL") {
      col.type = TypeId::kDouble;
    } else if (type == "CHAR") {
      col.type = TypeId::kChar;
      col.length = 1;
      if (MatchSymbol("(")) {
        if (Peek().kind != TokenKind::kNumber) {
          return Status::ParseError("expected CHAR length");
        }
        col.length = static_cast<uint32_t>(std::strtoul(Advance().text.c_str(),
                                                        nullptr, 10));
        ELE_RETURN_NOT_OK(ExpectSymbol(")"));
      }
    } else if (type == "VARCHAR" || type == "TEXT") {
      col.type = TypeId::kVarchar;
      if (MatchSymbol("(")) {  // length accepted but not enforced
        while (!CheckSymbol(")") && !AtEnd()) Advance();
        ELE_RETURN_NOT_OK(ExpectSymbol(")"));
      }
    } else {
      return Status::ParseError("unknown type " + type);
    }
    stmt.columns.push_back(std::move(col));
  } while (MatchSymbol(","));
  ELE_RETURN_NOT_OK(ExpectSymbol(")"));
  if (MatchKeyword("CLUSTER")) {
    ELE_RETURN_NOT_OK(ExpectKeyword("BY"));
    ELE_RETURN_NOT_OK(ExpectSymbol("("));
    ELE_ASSIGN_OR_RETURN(stmt.cluster_by, ParseNameList());
    ELE_RETURN_NOT_OK(ExpectSymbol(")"));
  }
  return stmt;
}

Result<std::vector<std::string>> Parser::ParseNameList() {
  std::vector<std::string> names;
  do {
    ELE_ASSIGN_OR_RETURN(std::string n, ExpectIdent());
    names.push_back(std::move(n));
  } while (MatchSymbol(","));
  return names;
}

Result<CreateIndexStmt> Parser::ParseCreateIndex() {
  CreateIndexStmt stmt;
  ELE_ASSIGN_OR_RETURN(stmt.index_name, ExpectIdent());
  ELE_RETURN_NOT_OK(ExpectKeyword("ON"));
  ELE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
  ELE_RETURN_NOT_OK(ExpectSymbol("("));
  ELE_ASSIGN_OR_RETURN(stmt.key_columns, ParseNameList());
  ELE_RETURN_NOT_OK(ExpectSymbol(")"));
  if (MatchKeyword("INCLUDE")) {
    ELE_RETURN_NOT_OK(ExpectSymbol("("));
    ELE_ASSIGN_OR_RETURN(stmt.include_columns, ParseNameList());
    ELE_RETURN_NOT_OK(ExpectSymbol(")"));
  }
  return stmt;
}

Result<InsertStmt> Parser::ParseInsert() {
  InsertStmt stmt;
  ELE_RETURN_NOT_OK(ExpectKeyword("INTO"));
  ELE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
  ELE_RETURN_NOT_OK(ExpectKeyword("VALUES"));
  do {
    ELE_RETURN_NOT_OK(ExpectSymbol("("));
    std::vector<SqlExprPtr> row;
    do {
      ELE_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
      row.push_back(std::move(e));
    } while (MatchSymbol(","));
    ELE_RETURN_NOT_OK(ExpectSymbol(")"));
    stmt.rows.push_back(std::move(row));
  } while (MatchSymbol(","));
  return stmt;
}

Result<DeleteStmt> Parser::ParseDelete() {
  DeleteStmt stmt;
  ELE_RETURN_NOT_OK(ExpectKeyword("FROM"));
  ELE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
  if (MatchKeyword("WHERE")) {
    ELE_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  return stmt;
}

Result<UpdateStmt> Parser::ParseUpdate() {
  UpdateStmt stmt;
  ELE_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
  ELE_RETURN_NOT_OK(ExpectKeyword("SET"));
  do {
    ELE_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
    ELE_RETURN_NOT_OK(ExpectSymbol("="));
    ELE_ASSIGN_OR_RETURN(SqlExprPtr value, ParseExpr());
    stmt.sets.emplace_back(std::move(col), std::move(value));
  } while (MatchSymbol(","));
  if (MatchKeyword("WHERE")) {
    ELE_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  return stmt;
}

Result<Statement> Parser::ParseStatement() {
  Statement stmt;
  if (MatchKeyword("EXPLAIN")) {
    stmt.kind = StatementKind::kExplain;
    stmt.explain_analyze = MatchKeyword("ANALYZE");
    ELE_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
  } else if (CheckKeyword("SELECT") || Peek().kind == TokenKind::kHintBlock) {
    stmt.kind = StatementKind::kSelect;
    ELE_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
  } else if (MatchKeyword("CREATE")) {
    if (MatchKeyword("TABLE")) {
      stmt.kind = StatementKind::kCreateTable;
      ELE_ASSIGN_OR_RETURN(CreateTableStmt ct, ParseCreateTable());
      stmt.create_table = std::make_unique<CreateTableStmt>(std::move(ct));
    } else if (MatchKeyword("INDEX")) {
      stmt.kind = StatementKind::kCreateIndex;
      ELE_ASSIGN_OR_RETURN(CreateIndexStmt ci, ParseCreateIndex());
      stmt.create_index = std::make_unique<CreateIndexStmt>(std::move(ci));
    } else {
      return Status::ParseError("expected TABLE or INDEX after CREATE");
    }
  } else if (MatchKeyword("INSERT")) {
    stmt.kind = StatementKind::kInsert;
    ELE_ASSIGN_OR_RETURN(InsertStmt ins, ParseInsert());
    stmt.insert = std::make_unique<InsertStmt>(std::move(ins));
  } else if (MatchKeyword("DELETE")) {
    stmt.kind = StatementKind::kDelete;
    ELE_ASSIGN_OR_RETURN(DeleteStmt del, ParseDelete());
    stmt.delete_stmt = std::make_unique<DeleteStmt>(std::move(del));
  } else if (MatchKeyword("UPDATE")) {
    stmt.kind = StatementKind::kUpdate;
    ELE_ASSIGN_OR_RETURN(UpdateStmt upd, ParseUpdate());
    stmt.update_stmt = std::make_unique<UpdateStmt>(std::move(upd));
  } else if (MatchKeyword("BEGIN") || MatchKeyword("START")) {
    stmt.kind = StatementKind::kBegin;
    MatchKeyword("TRANSACTION");
    MatchKeyword("WORK");
  } else if (MatchKeyword("COMMIT")) {
    stmt.kind = StatementKind::kCommit;
    MatchKeyword("TRANSACTION");
    MatchKeyword("WORK");
  } else if (MatchKeyword("ROLLBACK") || MatchKeyword("ABORT")) {
    stmt.kind = StatementKind::kRollback;
    MatchKeyword("TRANSACTION");
    MatchKeyword("WORK");
  } else if (MatchKeyword("CHECKPOINT")) {
    stmt.kind = StatementKind::kCheckpoint;
  } else {
    return Status::ParseError(
        "expected SELECT, CREATE, INSERT, DELETE, UPDATE, BEGIN, COMMIT, "
        "ROLLBACK or CHECKPOINT");
  }
  MatchSymbol(";");
  if (!AtEnd()) {
    return Status::ParseError("trailing tokens near offset " +
                              std::to_string(Peek().offset));
  }
  return stmt;
}

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  ELE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

void CollectTableNames(const SelectStmt& stmt, std::vector<std::string>* out) {
  for (const TableRef& ref : stmt.from) {
    if (ref.derived != nullptr) {
      CollectTableNames(*ref.derived, out);
    } else {
      out->push_back(ref.table_name);
    }
  }
}

Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql) {
  ELE_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::ParseError("expected a SELECT statement");
  }
  return std::move(stmt.select);
}

}  // namespace elephant
