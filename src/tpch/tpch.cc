#include "tpch/tpch.h"

#include "common/rng.h"

namespace elephant {

namespace {

const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                            "MACHINERY"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
const char* kModes[7] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                         "TRUCK"};
const char* kInstructs[4] = {"COLLECT COD", "DELIVER IN PERSON", "NONE",
                             "TAKE BACK RETURN"};

std::string PaddedNumber(const char* prefix, uint64_t n, int width) {
  std::string s = std::to_string(n);
  std::string out = prefix;
  out.append(width > static_cast<int>(s.size()) ? width - s.size() : 0, '0');
  out += s;
  return out;
}

}  // namespace

int32_t TpchGenerator::MinOrderDate() { return date::FromYMD(1992, 1, 1); }
int32_t TpchGenerator::MaxOrderDate() { return date::FromYMD(1998, 8, 2); }

Schema TpchGenerator::NationSchema() {
  return Schema({Column("n_nationkey", TypeId::kInt32),
                 Column("n_name", TypeId::kVarchar),
                 Column("n_regionkey", TypeId::kInt32),
                 Column("n_comment", TypeId::kVarchar)});
}

Schema TpchGenerator::RegionSchema() {
  return Schema({Column("r_regionkey", TypeId::kInt32),
                 Column("r_name", TypeId::kVarchar),
                 Column("r_comment", TypeId::kVarchar)});
}

Schema TpchGenerator::SupplierSchema() {
  return Schema({Column("s_suppkey", TypeId::kInt32),
                 Column("s_name", TypeId::kVarchar),
                 Column("s_address", TypeId::kVarchar),
                 Column("s_nationkey", TypeId::kInt32),
                 Column("s_phone", TypeId::kVarchar),
                 Column("s_acctbal", TypeId::kDecimal)});
}

Schema TpchGenerator::CustomerSchema() {
  return Schema({Column("c_custkey", TypeId::kInt32),
                 Column("c_name", TypeId::kVarchar),
                 Column("c_address", TypeId::kVarchar),
                 Column("c_nationkey", TypeId::kInt32),
                 Column("c_phone", TypeId::kVarchar),
                 Column("c_acctbal", TypeId::kDecimal),
                 Column("c_mktsegment", TypeId::kVarchar)});
}

Schema TpchGenerator::OrdersSchema() {
  return Schema({Column("o_orderkey", TypeId::kInt32),
                 Column("o_custkey", TypeId::kInt32),
                 Column("o_orderstatus", TypeId::kChar, 1),
                 Column("o_totalprice", TypeId::kDecimal),
                 Column("o_orderdate", TypeId::kDate),
                 Column("o_orderpriority", TypeId::kVarchar),
                 Column("o_shippriority", TypeId::kInt32)});
}

Schema TpchGenerator::LineitemSchema() {
  return Schema({Column("l_orderkey", TypeId::kInt32),
                 Column("l_linenumber", TypeId::kInt32),
                 Column("l_suppkey", TypeId::kInt32),
                 Column("l_quantity", TypeId::kInt32),
                 Column("l_extendedprice", TypeId::kDecimal),
                 Column("l_discount", TypeId::kDecimal),
                 Column("l_tax", TypeId::kDecimal),
                 Column("l_returnflag", TypeId::kChar, 1),
                 Column("l_linestatus", TypeId::kChar, 1),
                 Column("l_shipdate", TypeId::kDate),
                 Column("l_commitdate", TypeId::kDate),
                 Column("l_receiptdate", TypeId::kDate),
                 Column("l_shipinstruct", TypeId::kVarchar),
                 Column("l_shipmode", TypeId::kVarchar)});
}

Status TpchGenerator::LoadInto(Database* db) const {
  Catalog& catalog = db->catalog();
  Rng rng(config_.seed);
  // Each table's rows are appended to a typed batch in clustered-key order
  // (keys ascend as they are generated), which the table then loads.
  auto load = [](Table* table, Batch* rows, uint64_t n) {
    rows->SetRowCount(static_cast<uint32_t>(n));
    return table->BulkLoad(*rows);
  };

  // --- nation / region (fixed size) ---
  {
    ELE_ASSIGN_OR_RETURN(Table * region,
                         catalog.CreateTable("region", RegionSchema(), {0}, true));
    Batch rows;
    rows.Reset(region->schema());
    for (int r = 0; r < 5; r++) {
      rows.col(0).AppendInt(r);
      rows.col(1).AppendString(kRegions[r]);
      rows.col(2).AppendString("region comment");
    }
    ELE_RETURN_NOT_OK(load(region, &rows, 5));
  }
  {
    ELE_ASSIGN_OR_RETURN(Table * nation,
                         catalog.CreateTable("nation", NationSchema(), {0}, true));
    Batch rows;
    rows.Reset(nation->schema());
    for (int n = 0; n < 25; n++) {
      rows.col(0).AppendInt(n);
      rows.col(1).AppendString(kNations[n]);
      rows.col(2).AppendInt(kNationRegion[n]);
      rows.col(3).AppendString("nation comment");
    }
    ELE_RETURN_NOT_OK(load(nation, &rows, 25));
  }

  // --- supplier ---
  {
    ELE_ASSIGN_OR_RETURN(Table * supplier,
                         catalog.CreateTable("supplier", SupplierSchema(), {0}, true));
    Batch rows;
    rows.Reset(supplier->schema());
    const uint64_t n = NumSuppliers();
    for (uint64_t i = 1; i <= n; i++) {
      rows.col(0).AppendInt(static_cast<int32_t>(i));
      rows.col(1).AppendString(PaddedNumber("Supplier#", i, 9));
      rows.col(2).AppendString(PaddedNumber("addr", rng.Uniform(0, 99999), 5));
      rows.col(3).AppendInt(rng.Uniform(0, 24));
      rows.col(4).AppendString(
          PaddedNumber("27-", rng.Uniform(1000000, 9999999), 7));
      rows.col(5).AppendInt(rng.Uniform(-99999, 999999));
    }
    ELE_RETURN_NOT_OK(load(supplier, &rows, n));
  }

  // --- customer ---
  const uint64_t num_customers = NumCustomers();
  {
    ELE_ASSIGN_OR_RETURN(Table * customer,
                         catalog.CreateTable("customer", CustomerSchema(), {0}, true));
    Batch rows;
    rows.Reset(customer->schema());
    for (uint64_t i = 1; i <= num_customers; i++) {
      rows.col(0).AppendInt(static_cast<int32_t>(i));
      rows.col(1).AppendString(PaddedNumber("Customer#", i, 9));
      rows.col(2).AppendString(PaddedNumber("addr", rng.Uniform(0, 999999), 6));
      rows.col(3).AppendInt(rng.Uniform(0, 24));
      rows.col(4).AppendString(
          PaddedNumber("13-", rng.Uniform(1000000, 9999999), 7));
      rows.col(5).AppendInt(rng.Uniform(-99999, 999999));
      rows.col(6).AppendString(kSegments[rng.Uniform(0, 4)]);
    }
    ELE_RETURN_NOT_OK(load(customer, &rows, num_customers));
  }

  // --- orders + lineitem (lineitem derives from its order) ---
  const uint64_t num_orders = NumOrders();
  const int32_t min_date = MinOrderDate();
  const int32_t max_date = MaxOrderDate();
  const int32_t flag_cutoff = date::FromYMD(1995, 6, 17);
  {
    ELE_ASSIGN_OR_RETURN(Table * orders,
                         catalog.CreateTable("orders", OrdersSchema(), {0}, true));
    ELE_ASSIGN_OR_RETURN(
        Table * lineitem,
        catalog.CreateTable("lineitem", LineitemSchema(), {0, 1}, true));
    Batch order_rows, line_rows;
    order_rows.Reset(orders->schema());
    line_rows.Reset(lineitem->schema());
    uint64_t num_lines = 0;
    const int64_t num_suppliers = static_cast<int64_t>(NumSuppliers());
    for (uint64_t o = 1; o <= num_orders; o++) {
      const int32_t orderdate =
          static_cast<int32_t>(rng.Uniform(min_date, max_date));
      const int lines = static_cast<int>(rng.Uniform(1, 7));
      int64_t total = 0;
      for (int ln = 1; ln <= lines; ln++) {
        const int32_t shipdate = orderdate + static_cast<int32_t>(rng.Uniform(1, 121));
        const int32_t commitdate =
            orderdate + static_cast<int32_t>(rng.Uniform(30, 90));
        const int32_t receiptdate =
            shipdate + static_cast<int32_t>(rng.Uniform(1, 30));
        const int32_t qty = static_cast<int32_t>(rng.Uniform(1, 50));
        const int64_t price = rng.Uniform(90000, 10500000) / 100 * qty;  // cents
        total += price;
        const char* returnflag = "N";
        if (receiptdate <= flag_cutoff) {
          returnflag = rng.Uniform(0, 1) == 0 ? "R" : "A";
        }
        const char* linestatus = shipdate > date::FromYMD(1995, 6, 17) ? "O" : "F";
        line_rows.col(0).AppendInt(static_cast<int32_t>(o));
        line_rows.col(1).AppendInt(ln);
        line_rows.col(2).AppendInt(rng.Uniform(1, num_suppliers));
        line_rows.col(3).AppendInt(qty);
        line_rows.col(4).AppendInt(price);
        line_rows.col(5).AppendInt(rng.Uniform(0, 10));
        line_rows.col(6).AppendInt(rng.Uniform(0, 8));
        line_rows.col(7).AppendString(returnflag);
        line_rows.col(8).AppendString(linestatus);
        line_rows.col(9).AppendInt(shipdate);
        line_rows.col(10).AppendInt(commitdate);
        line_rows.col(11).AppendInt(receiptdate);
        line_rows.col(12).AppendString(kInstructs[rng.Uniform(0, 3)]);
        line_rows.col(13).AppendString(kModes[rng.Uniform(0, 6)]);
        num_lines++;
      }
      order_rows.col(0).AppendInt(static_cast<int32_t>(o));
      order_rows.col(1).AppendInt(
          rng.Uniform(1, static_cast<int64_t>(num_customers)));
      order_rows.col(2).AppendString(orderdate > date::FromYMD(1995, 6, 17) ? "O"
                                                                            : "F");
      order_rows.col(3).AppendInt(total);
      order_rows.col(4).AppendInt(orderdate);
      order_rows.col(5).AppendString(kPriorities[rng.Uniform(0, 4)]);
      order_rows.col(6).AppendInt(0);
    }
    ELE_RETURN_NOT_OK(load(orders, &order_rows, num_orders));
    ELE_RETURN_NOT_OK(load(lineitem, &line_rows, num_lines));
  }
  return Status::OK();
}

}  // namespace elephant
