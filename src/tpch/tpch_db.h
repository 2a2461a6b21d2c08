#ifndef DATABLOCKS_TPCH_TPCH_DB_H_
#define DATABLOCKS_TPCH_TPCH_DB_H_

#include <cstdint>
#include <memory>

#include "datablock/data_block.h"
#include "storage/table.h"

namespace datablocks::tpch {

/// Decimal columns (money, discounts) are stored as int64 with these scales.
/// Money: cents. Discount/tax: integer percent (l_discount 0..10 means
/// 0.00..0.10).
inline constexpr double kMoneyScale = 100.0;

// Column indexes per table, in schema order.
namespace col {
namespace region { enum : uint32_t { regionkey, name, comment }; }
namespace nation { enum : uint32_t { nationkey, name, regionkey, comment }; }
namespace supplier {
enum : uint32_t { suppkey, name, address, nationkey, phone, acctbal, comment };
}
namespace customer {
enum : uint32_t {
  custkey, name, address, nationkey, phone, acctbal, mktsegment, comment
};
}
namespace part {
enum : uint32_t {
  partkey, name, mfgr, brand, type, size, container, retailprice, comment
};
}
namespace partsupp {
enum : uint32_t { partkey, suppkey, availqty, supplycost, comment };
}
namespace orders {
enum : uint32_t {
  orderkey, custkey, orderstatus, totalprice, orderdate, orderpriority,
  clerk, shippriority, comment
};
}
namespace lineitem {
enum : uint32_t {
  orderkey, partkey, suppkey, linenumber, quantity, extendedprice, discount,
  tax, returnflag, linestatus, shipdate, commitdate, receiptdate,
  shipinstruct, shipmode, comment
};
}
}  // namespace col

struct TpchConfig {
  /// TPC-H scale factor; SF 1 is ~6M lineitem rows. Fractional factors scale
  /// all cardinalities linearly (minimum table sizes apply).
  double scale_factor = 0.1;
  /// Records per chunk / Data Block (paper default 2^16).
  uint32_t chunk_capacity = DataBlock::kDefaultCapacity;
  uint64_t seed = 19920101;
};

/// The eight TPC-H relations, generated in primary-key order like dbgen's
/// CSV output (Section 3.2: "we kept the insertion order of the generated
/// CSV files").
class TpchDatabase {
 public:
  explicit TpchDatabase(const TpchConfig& config);

  TpchConfig config;
  Table region;
  Table nation;
  Table supplier;
  Table customer;
  Table part;
  Table partsupp;
  Table orders;
  Table lineitem;

  /// Freezes every table into Data Blocks. `sort_lineitem_by_shipdate`
  /// reproduces the Figure 11 "+SORT" configuration (each lineitem block
  /// sorted on l_shipdate before compression).
  void FreezeAll(bool sort_lineitem_by_shipdate = false);

  uint64_t TotalBytes() const;

  /// Cardinalities implied by the scale factor.
  int64_t NumSuppliers() const;
  int64_t NumCustomers() const;
  int64_t NumParts() const;
  int64_t NumOrders() const;
};

/// Populates all eight tables (deterministic for a given seed).
void GenerateTpch(TpchDatabase* db);

/// Convenience: construct + generate.
std::unique_ptr<TpchDatabase> MakeTpch(const TpchConfig& config);

}  // namespace datablocks::tpch

#endif  // DATABLOCKS_TPCH_TPCH_DB_H_
