#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "parser/ast.h"

namespace elephant {

/// Deepest expression a statement may contain, counted both as parser
/// nesting (parentheses, NOT, unary minus, function arguments; a derived
/// table counts as several levels) and as expression-tree height (each
/// AND/OR/arithmetic/comparison term adds a level). Parsing, binding,
/// planning, evaluation and destruction all recurse over expressions, so
/// past this limit ParseStatement returns a ParseError instead of
/// exhausting the stack. 1,024 leaves room for 1,000-term expressions and
/// stays within an 8 MiB stack under AddressSanitizer, which gives every
/// local its own stack slot.
inline constexpr uint32_t kMaxExprDepth = 1024;

/// Parses one SQL statement (SELECT / CREATE TABLE / CREATE INDEX / INSERT).
/// The supported subset covers everything the paper's workload and its
/// c-table rewrites need: multi-table FROM with derived tables, WHERE with
/// AND/OR/BETWEEN, GROUP BY, aggregate functions, ORDER BY, LIMIT, and a
/// leading /*+ ... */ hint block.
Result<Statement> ParseStatement(const std::string& sql);

/// Convenience: parses a statement that must be a SELECT.
Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql);

/// Collects every base-table name referenced by the SELECT's FROM lists
/// (recursing into derived tables), in first-appearance order. The engine
/// uses this before binding to lock the statement's tables and refresh
/// stale derived tables.
void CollectTableNames(const SelectStmt& stmt, std::vector<std::string>* out);

}  // namespace elephant
