#pragma once

#include <string>

namespace elephant {

/// Optimizer hints, settable via a leading `/*+ ... */` SQL comment or
/// programmatically. The paper (§3, "Query hints") notes that the c-table
/// rewrites sometimes need hints because the optimizer lacks domain knowledge
/// of the c-table representation (e.g. that band-join seeks arrive in strictly
/// sorted order, making index nested-loop joins far cheaper than its cost
/// model assumes).
struct PlanHints {
  bool force_order = false;  ///< FORCE_ORDER: join in FROM-list order
  bool loop_join = false;    ///< LOOP_JOIN: prefer index nested-loop joins
  bool hash_join = false;    ///< HASH_JOIN: prefer hash joins
  bool merge_join = false;   ///< MERGE_JOIN: use band-merge for band predicates
  bool stream_agg = false;   ///< STREAM_AGG: sort + stream aggregation
  bool hash_agg = false;     ///< HASH_AGG: hash aggregation

  /// PARALLEL n: run eligible single-table scans/aggregations with n workers
  /// (morsel-driven). 0 = unset (serial); values < 2 stay serial.
  int parallel_workers = 0;

  /// Parses a hint block body, e.g. "FORCE_ORDER LOOP_JOIN" or "PARALLEL 4".
  /// Unknown tokens are ignored (hints are advisory).
  static PlanHints Parse(const std::string& text);

  /// Merges two hint sets (logical OR of every flag; max of worker counts).
  PlanHints Merge(const PlanHints& other) const;

  std::string ToString() const;
};

}  // namespace elephant
