#pragma once

#include <cstdint>
#include <string>

#include "common/schema.h"
#include "common/status.h"
#include "engine/database.h"

namespace elephant {

/// Configuration for the TPC-H data generator.
///
/// The paper uses TPC-H at scale factor 10 on a dedicated server; this
/// generator reproduces the distributions the workload depends on (dates,
/// supplier keys, return flags, prices) at laptop-friendly scale factors.
/// Row counts scale exactly like dbgen: customer = 150k x SF,
/// orders = 1.5M x SF, lineitem ~ 6M x SF (1-7 lines per order),
/// supplier = 10k x SF.
struct TpchConfig {
  double scale_factor = 0.01;
  uint64_t seed = 19920101;
};

/// Deterministic TPC-H generator (dbgen-faithful where the workload cares):
///  - o_orderdate uniform in [1992-01-01, 1998-08-02]
///  - l_shipdate = o_orderdate + uniform[1, 121] days
///  - l_receiptdate = l_shipdate + uniform[1, 30] days
///  - l_returnflag = 'R' or 'A' when l_receiptdate <= 1995-06-17, else 'N'
///  - l_suppkey uniform over suppliers, c_nationkey uniform over 25 nations
/// Long text columns are shortened (comments trimmed) — they are never read
/// by the workload and only inflate tuple width uniformly across strategies.
class TpchGenerator {
 public:
  explicit TpchGenerator(TpchConfig config) : config_(config) {}

  /// Creates and bulk-loads nation, region, supplier, customer, orders and
  /// lineitem into `db` (clustered on their primary keys — the paper's `Row`
  /// baseline materializes only primary indexes); each load sets its
  /// table's statistics.
  Status LoadInto(Database* db) const;

  uint64_t NumCustomers() const { return Scaled(150000); }
  uint64_t NumOrders() const { return Scaled(1500000); }
  uint64_t NumSuppliers() const { return Scaled(10000); }

  static Schema NationSchema();
  static Schema RegionSchema();
  static Schema SupplierSchema();
  static Schema CustomerSchema();
  static Schema OrdersSchema();
  static Schema LineitemSchema();

  /// First and last possible o_orderdate (dbgen constants).
  static int32_t MinOrderDate();
  static int32_t MaxOrderDate();

  const TpchConfig& config() const { return config_; }

 private:
  uint64_t Scaled(uint64_t base) const {
    const double v = static_cast<double>(base) * config_.scale_factor;
    return v < 1 ? 1 : static_cast<uint64_t>(v);
  }

  TpchConfig config_;
};

}  // namespace elephant
