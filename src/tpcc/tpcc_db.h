#ifndef DATABLOCKS_TPCC_TPCC_DB_H_
#define DATABLOCKS_TPCC_TPCC_DB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lifecycle/lifecycle_manager.h"
#include "storage/table.h"
#include "util/rng.h"

namespace datablocks::tpcc {

// Column indexes per table, in schema order.
namespace col {
namespace item { enum : uint32_t { id, im_id, name, price, data }; }
namespace warehouse {
enum : uint32_t { id, name, street1, street2, city, state, zip, tax, ytd };
}
namespace district {
enum : uint32_t {
  id, w_id, name, street1, street2, city, state, zip, tax, ytd, next_o_id
};
}
namespace customer {
enum : uint32_t {
  id, d_id, w_id, first, middle, last, street1, street2, city, state, zip,
  phone, since, credit, credit_lim, discount, balance, ytd_payment,
  payment_cnt, delivery_cnt, data
};
}
namespace history {
enum : uint32_t { c_id, c_d_id, c_w_id, d_id, w_id, date, amount, data };
}
namespace neworder { enum : uint32_t { o_id, d_id, w_id }; }
namespace order {
enum : uint32_t { id, d_id, w_id, c_id, entry_d, carrier_id, ol_cnt, all_local };
}
namespace orderline {
enum : uint32_t {
  o_id, d_id, w_id, number, i_id, supply_w_id, delivery_d, quantity, amount,
  dist_info
};
}
namespace stock {
enum : uint32_t { i_id, w_id, quantity, dist, ytd, order_cnt, remote_cnt, data };
}
}  // namespace col

struct TpccConfig {
  int num_warehouses = 5;           // paper Section 5.3 uses 5
  int num_items = 100000;
  int customers_per_district = 3000;
  int orders_per_district = 3000;
  uint32_t chunk_capacity = 1u << 16;
  uint64_t seed = 42;
};

struct NewOrderResult {
  bool committed = false;  // 1% of NewOrders roll back (invalid item)
  int64_t total_amount = 0;
};

/// TPC-C database with the five standard transactions. Primary-key indexes
/// are arrays of stable RowIds addressed by the (dense) key; freezing keeps
/// RowIds valid so OLTP point accesses transparently hit compressed Data
/// Blocks — the scenario of the paper's Section 5.3. An order's lines are
/// inserted back to back, so its entry stores only the first RowId; lines
/// that are not consecutive (they straddle a chunk, or Delivery relocated
/// only some out of a frozen chunk) are listed explicitly instead. A
/// district's undelivered orders are always [oldest, D_NEXT_O_ID).
class TpccDatabase {
 public:
  explicit TpccDatabase(const TpccConfig& config);

  /// Populates all tables per the TPC-C load specification (scaled).
  void Load();

  // -- Transactions (single-threaded; deterministic given the Rng). -------
  NewOrderResult NewOrder(Rng& rng);
  void Payment(Rng& rng);
  void OrderStatus(Rng& rng);  // read-only
  int Delivery(Rng& rng);      // returns #orders delivered
  int StockLevel(Rng& rng);    // read-only; returns low-stock count

  /// Runs the standard mix (45/43/4/4/4) once, inside one
  /// Table::ReadSection; returns the transaction type executed (0..4).
  int RunMixedTransaction(Rng& rng);

  // -- Experiments ---------------------------------------------------------
  /// Freezes all full (cold) neworder chunks into Data Blocks (first
  /// experiment in Section 5.3).
  void FreezeOldNewOrders();
  /// Freezes every table (read-only experiment in Section 5.3).
  void FreezeEverything();

  // -- Block lifecycle -----------------------------------------------------
  /// Attaches one LifecycleManager to the append-mostly tables (history,
  /// neworder, order, orderline): OLTP point accesses drive their
  /// temperature, cooled-down chunks freeze automatically, and when the
  /// four tables' frozen bytes together exceed the memory budget, the
  /// coldest blocks among them evict to one archive, `dir`/tpcc.dbar.
  /// Tables receiving unconditional in-place updates (warehouse, district,
  /// customer, stock) and the read-only item table stay unmanaged.
  /// Transactions remain correct when managed rows freeze: Table::UpdateRow
  /// relocates a frozen row into the hot tail (delete + reinsert, paper
  /// Section 3) and the index takes its new RowId.
  void EnableLifecycle(const LifecycleConfig& config, const std::string& dir);

  /// Runs one policy epoch of the manager (EnableLifecycle first).
  void LifecycleTick();

  /// The manager, or nullptr before EnableLifecycle.
  LifecycleManager* lifecycle() const { return lifecycle_.get(); }
  /// {lifecycle()}: the one-element list bench/e2e/oltp.cc still sums over.
  std::vector<LifecycleManager*> lifecycle_managers() const {
    if (lifecycle_ == nullptr) return {};
    return {lifecycle_.get()};
  }

  /// Validates invariants (W_YTD = sum(D_YTD), order/orderline counts, ...).
  bool CheckConsistency(std::string* msg) const;

  /// Heap bytes held by the primary-key indexes.
  size_t IndexBytes() const;

  const TpccConfig& config() const { return config_; }

  Table item;
  Table warehouse;
  Table district;
  Table customer;
  Table history;
  Table neworder;
  Table order;
  Table orderline;
  Table stock;

 private:
  friend class TpccTest;

  // Dense composite-key encodings (array positions).
  size_t DistKey(int w, int d) const { return size_t((w - 1) * 10 + d - 1); }
  size_t CustKey(int w, int d, int c) const {
    return DistKey(w, d) * size_t(config_.customers_per_district) +
           size_t(c - 1);
  }
  size_t StockKey(int w, int i) const {
    return size_t(w - 1) * size_t(config_.num_items) + size_t(i - 1);
  }

  struct OrderEntry {
    RowId order = 0;
    RowId neworder = 0;  // meaningful while the order is undelivered
    RowId lines = 0;     // first line's RowId, or its offset in scattered_
    int32_t ol_cnt = 0;
    bool scattered = false;
  };
  OrderEntry& Entry(int w, int d, int o) {
    return orders_[DistKey(w, d)][size_t(o - 1)];
  }
  RowId Line(const OrderEntry& e, int l) const {
    return e.scattered ? scattered_[e.lines + size_t(l)] : e.lines + RowId(l);
  }
  /// Records line `l`'s RowId; lines 0..l-1 are already recorded.
  void SetLine(OrderEntry& e, int l, RowId id);

  int RandomCustomerId(Rng& rng) {
    return int(rng.NuRand(1023, 1, config_.customers_per_district));
  }
  int RandomItemId(Rng& rng) {
    return int(rng.NuRand(8191, 1, config_.num_items));
  }

  TpccConfig config_;

  // Primary-key indexes (RowIds stay stable across freezing).
  std::vector<RowId> item_idx_;                       // by i_id - 1
  std::vector<RowId> warehouse_idx_;                  // by w_id - 1
  std::vector<RowId> district_idx_;                   // by DistKey
  std::vector<RowId> customer_idx_;                   // by CustKey
  std::vector<RowId> stock_idx_;                      // by StockKey
  std::vector<std::vector<OrderEntry>> orders_;       // by DistKey, o_id - 1
  std::vector<int32_t> oldest_undelivered_;           // by DistKey
  std::vector<int32_t> last_order_of_cust_;           // by CustKey; 0 = none
  std::vector<RowId> scattered_;  // lines of non-consecutive orders

  // Declared after the tables, so destroyed before them: the manager
  // unhooks their fetchers while they exist. It reads nothing on the way
  // out, and the evicted chunks are never read again.
  std::unique_ptr<LifecycleManager> lifecycle_;
};

}  // namespace datablocks::tpcc

#endif  // DATABLOCKS_TPCC_TPCC_DB_H_
