#include "tpcc/tpcc_db.h"

#include <cstdio>

#include "util/date.h"

namespace datablocks::tpcc {

namespace {

Schema ItemSchema() {
  return Schema({{"i_id", TypeId::kInt32},
                 {"i_im_id", TypeId::kInt32},
                 {"i_name", TypeId::kString},
                 {"i_price", TypeId::kInt64},
                 {"i_data", TypeId::kString}});
}

Schema WarehouseSchema() {
  return Schema({{"w_id", TypeId::kInt32},
                 {"w_name", TypeId::kString},
                 {"w_street_1", TypeId::kString},
                 {"w_street_2", TypeId::kString},
                 {"w_city", TypeId::kString},
                 {"w_state", TypeId::kString},
                 {"w_zip", TypeId::kString},
                 {"w_tax", TypeId::kInt64},
                 {"w_ytd", TypeId::kInt64}});
}

Schema DistrictSchema() {
  return Schema({{"d_id", TypeId::kInt32},
                 {"d_w_id", TypeId::kInt32},
                 {"d_name", TypeId::kString},
                 {"d_street_1", TypeId::kString},
                 {"d_street_2", TypeId::kString},
                 {"d_city", TypeId::kString},
                 {"d_state", TypeId::kString},
                 {"d_zip", TypeId::kString},
                 {"d_tax", TypeId::kInt64},
                 {"d_ytd", TypeId::kInt64},
                 {"d_next_o_id", TypeId::kInt32}});
}

Schema CustomerSchema() {
  return Schema({{"c_id", TypeId::kInt32},
                 {"c_d_id", TypeId::kInt32},
                 {"c_w_id", TypeId::kInt32},
                 {"c_first", TypeId::kString},
                 {"c_middle", TypeId::kString},
                 {"c_last", TypeId::kString},
                 {"c_street_1", TypeId::kString},
                 {"c_street_2", TypeId::kString},
                 {"c_city", TypeId::kString},
                 {"c_state", TypeId::kString},
                 {"c_zip", TypeId::kString},
                 {"c_phone", TypeId::kString},
                 {"c_since", TypeId::kDate},
                 {"c_credit", TypeId::kString},
                 {"c_credit_lim", TypeId::kInt64},
                 {"c_discount", TypeId::kInt64},
                 {"c_balance", TypeId::kInt64},
                 {"c_ytd_payment", TypeId::kInt64},
                 {"c_payment_cnt", TypeId::kInt32},
                 {"c_delivery_cnt", TypeId::kInt32},
                 {"c_data", TypeId::kString}});
}

Schema HistorySchema() {
  return Schema({{"h_c_id", TypeId::kInt32},
                 {"h_c_d_id", TypeId::kInt32},
                 {"h_c_w_id", TypeId::kInt32},
                 {"h_d_id", TypeId::kInt32},
                 {"h_w_id", TypeId::kInt32},
                 {"h_date", TypeId::kDate},
                 {"h_amount", TypeId::kInt64},
                 {"h_data", TypeId::kString}});
}

Schema NewOrderSchema() {
  return Schema({{"no_o_id", TypeId::kInt32},
                 {"no_d_id", TypeId::kInt32},
                 {"no_w_id", TypeId::kInt32}});
}

Schema OrderSchema() {
  return Schema({{"o_id", TypeId::kInt32},
                 {"o_d_id", TypeId::kInt32},
                 {"o_w_id", TypeId::kInt32},
                 {"o_c_id", TypeId::kInt32},
                 {"o_entry_d", TypeId::kDate},
                 {"o_carrier_id", TypeId::kInt32, /*nullable=*/true},
                 {"o_ol_cnt", TypeId::kInt32},
                 {"o_all_local", TypeId::kInt32}});
}

Schema OrderLineSchema() {
  return Schema({{"ol_o_id", TypeId::kInt32},
                 {"ol_d_id", TypeId::kInt32},
                 {"ol_w_id", TypeId::kInt32},
                 {"ol_number", TypeId::kInt32},
                 {"ol_i_id", TypeId::kInt32},
                 {"ol_supply_w_id", TypeId::kInt32},
                 {"ol_delivery_d", TypeId::kDate, /*nullable=*/true},
                 {"ol_quantity", TypeId::kInt32},
                 {"ol_amount", TypeId::kInt64},
                 {"ol_dist_info", TypeId::kString}});
}

Schema StockSchema() {
  return Schema({{"s_i_id", TypeId::kInt32},
                 {"s_w_id", TypeId::kInt32},
                 {"s_quantity", TypeId::kInt32},
                 {"s_dist", TypeId::kString},
                 {"s_ytd", TypeId::kInt64},
                 {"s_order_cnt", TypeId::kInt32},
                 {"s_remote_cnt", TypeId::kInt32},
                 {"s_data", TypeId::kString}});
}

/// The 16 C_LAST syllables of the TPC-C spec.
const char* kLastSyl[10] = {"BAR", "OUGHT", "ABLE", "PRI", "PRES",
                            "ESE", "ANTI", "CALLY", "ATION", "EING"};

std::string LastName(int num) {
  return std::string(kLastSyl[(num / 100) % 10]) + kLastSyl[(num / 10) % 10] +
         kLastSyl[num % 10];
}

const int32_t kLoadDate = MakeDate(2015, 1, 1);

}  // namespace

TpccDatabase::TpccDatabase(const TpccConfig& config)
    : item("item", ItemSchema(), config.chunk_capacity),
      warehouse("warehouse", WarehouseSchema(), config.chunk_capacity),
      district("district", DistrictSchema(), config.chunk_capacity),
      customer("customer", CustomerSchema(), config.chunk_capacity),
      history("history", HistorySchema(), config.chunk_capacity),
      neworder("neworder", NewOrderSchema(), config.chunk_capacity),
      order("order", OrderSchema(), config.chunk_capacity),
      orderline("orderline", OrderLineSchema(), config.chunk_capacity),
      stock("stock", StockSchema(), config.chunk_capacity),
      config_(config) {}

void TpccDatabase::Load() {
  Rng rng(config_.seed);
  char buf[32];
  // Each row is written as one Insert of cells. A cell borrows its string,
  // and a generated string is a temporary that lives until the Insert
  // returns; the braces evaluate in order, so the Rng draws do too.

  // items. Rows load in key order, so the keyed arrays fill by appending.
  item_idx_.resize(size_t(config_.num_items));
  for (int i = 1; i <= config_.num_items; ++i) {
    std::string data = rng.RandomString(26, 50);
    if (rng.Uniform(0, 9) == 0) data.replace(data.size() / 2, 8, "ORIGINAL");
    item_idx_[size_t(i - 1)] = item.Insert(
        {Cell::Int(i), Cell::Int(rng.Uniform(1, 10000)),
         Cell::Str(rng.RandomString(14, 24)),
         Cell::Int(rng.Uniform(100, 10000)), Cell::Str(data)});
  }

  warehouse_idx_.resize(size_t(config_.num_warehouses));
  for (int w = 1; w <= config_.num_warehouses; ++w) {
    std::snprintf(buf, sizeof(buf), "WH%04d", w);
    warehouse_idx_[size_t(w - 1)] =
        warehouse.Insert({Cell::Int(w),
                          Cell::Str(buf),
                          Cell::Str(rng.RandomString(10, 20)),
                          Cell::Str(rng.RandomString(10, 20)),
                          Cell::Str(rng.RandomString(10, 20)),
                          Cell::Str(rng.RandomString(2, 2)),
                          Cell::Str(rng.RandomString(9, 9)),
                          Cell::Int(rng.Uniform(0, 2000)),  // tax, basis points
                          Cell::Int(30000000)});            // ytd = 300,000.00

    // stock for this warehouse.
    for (int i = 1; i <= config_.num_items; ++i) {
      std::string data = rng.RandomString(26, 50);
      if (rng.Uniform(0, 9) == 0)
        data.replace(data.size() / 2, 8, "ORIGINAL");
      stock_idx_.push_back(stock.Insert({Cell::Int(i),
                                         Cell::Int(w),
                                         Cell::Int(rng.Uniform(10, 100)),
                                         Cell::Str(rng.RandomString(24, 24)),
                                         Cell::Int(0),
                                         Cell::Int(0),
                                         Cell::Int(0),
                                         Cell::Str(data)}));
    }

    for (int d = 1; d <= 10; ++d) {
      std::snprintf(buf, sizeof(buf), "DIST%02d", d);
      district_idx_.push_back(
          district.Insert({Cell::Int(d),
                           Cell::Int(w),
                           Cell::Str(buf),
                           Cell::Str(rng.RandomString(10, 20)),
                           Cell::Str(rng.RandomString(10, 20)),
                           Cell::Str(rng.RandomString(10, 20)),
                           Cell::Str(rng.RandomString(2, 2)),
                           Cell::Str(rng.RandomString(9, 9)),
                           Cell::Int(rng.Uniform(0, 2000)),
                           Cell::Int(3000000),  // ytd = 30,000.00
                           Cell::Int(config_.orders_per_district + 1)}));

      // customers.
      for (int c = 1; c <= config_.customers_per_district; ++c) {
        int last_num = c <= 1000 ? c - 1 : int(rng.NuRand(255, 0, 999));
        std::snprintf(buf, sizeof(buf), "%016d", c);
        customer_idx_.push_back(customer.Insert(
            {Cell::Int(c),
             Cell::Int(d),
             Cell::Int(w),
             Cell::Str(rng.RandomString(8, 16)),  // first
             Cell::Str("OE"),
             Cell::Str(LastName(last_num)),
             Cell::Str(rng.RandomString(10, 20)),
             Cell::Str(rng.RandomString(10, 20)),
             Cell::Str(rng.RandomString(10, 20)),
             Cell::Str(rng.RandomString(2, 2)),
             Cell::Str(rng.RandomString(9, 9)),
             Cell::Str(buf),  // phone
             Cell::Int(kLoadDate),
             Cell::Str(rng.Uniform(0, 9) == 0 ? "BC" : "GC"),
             Cell::Int(5000000),               // credit_lim 50,000.00
             Cell::Int(rng.Uniform(0, 5000)),  // discount bp
             Cell::Int(-1000),                 // balance -10.00
             Cell::Int(1000),                  // ytd_payment 10.00
             Cell::Int(1),
             Cell::Int(0),
             Cell::Str(rng.RandomString(50, 100))}));
      }

      // orders 1..orders_per_district over a random customer permutation.
      std::vector<int> cust_perm(size_t(config_.customers_per_district));
      for (size_t i = 0; i < cust_perm.size(); ++i)
        cust_perm[i] = int(i) + 1;
      for (size_t i = cust_perm.size(); i > 1; --i)
        std::swap(cust_perm[i - 1], cust_perm[size_t(rng.Uniform(
                                        0, int64_t(i) - 1))]);
      const int new_order_start =
          config_.orders_per_district - config_.orders_per_district * 3 / 10;
      orders_.emplace_back(size_t(config_.orders_per_district));
      oldest_undelivered_.push_back(new_order_start + 1);
      last_order_of_cust_.resize(customer_idx_.size());
      for (int o = 1; o <= config_.orders_per_district; ++o) {
        int c = cust_perm[size_t(o - 1) % cust_perm.size()];
        int ol_cnt = int(rng.Uniform(5, 15));
        bool delivered = o <= new_order_start;
        OrderEntry& e = Entry(w, d, o);
        e.order = order.Insert(
            {Cell::Int(o), Cell::Int(d), Cell::Int(w), Cell::Int(c),
             Cell::Int(kLoadDate),
             delivered ? Cell::Int(int(rng.Uniform(1, 10))) : Cell::Null(),
             Cell::Int(ol_cnt), Cell::Int(1)});
        e.ol_cnt = ol_cnt;
        last_order_of_cust_[CustKey(w, d, c)] = o;

        for (int l = 1; l <= ol_cnt; ++l) {
          int64_t amount = delivered ? 0 : rng.Uniform(1, 999999);
          SetLine(e, l - 1,
                  orderline.Insert(
                      {Cell::Int(o), Cell::Int(d), Cell::Int(w), Cell::Int(l),
                       Cell::Int(int(rng.Uniform(1, config_.num_items))),
                       Cell::Int(w),
                       delivered ? Cell::Int(kLoadDate) : Cell::Null(),
                       Cell::Int(5), Cell::Int(amount),
                       Cell::Str(rng.RandomString(24, 24))}));
        }
        if (!delivered) {
          e.neworder =
              neworder.Insert({Cell::Int(o), Cell::Int(d), Cell::Int(w)});
        }
      }

      // One history row per customer.
      for (int c = 1; c <= config_.customers_per_district; ++c) {
        history.Insert({Cell::Int(c), Cell::Int(d), Cell::Int(w),
                        Cell::Int(d), Cell::Int(w), Cell::Int(kLoadDate),
                        Cell::Int(1000),
                        Cell::Str(rng.RandomString(12, 24))});
      }
    }
  }
}

void TpccDatabase::FreezeOldNewOrders() {
  // All but the tail chunk are cold: the queue consumes from the oldest end.
  for (size_t i = 0; i + 1 < neworder.num_chunks(); ++i) {
    if (neworder.chunk_state(i) == ChunkState::kHot &&
        neworder.chunk_rows(i) > 0)
      neworder.FreezeChunk(i);
  }
}

void TpccDatabase::SetLine(OrderEntry& e, int l, RowId id) {
  if (!e.scattered && l > 0 && id != e.lines + RowId(l)) {
    // Not consecutive: list the order's lines explicitly from now on (those
    // past l are placeholders until they are recorded).
    for (int k = 0; k < e.ol_cnt; ++k) scattered_.push_back(e.lines + k);
    e.lines = scattered_.size() - size_t(e.ol_cnt);
    e.scattered = true;
  }
  if (e.scattered) scattered_[e.lines + size_t(l)] = id;
  else if (l == 0) e.lines = id;
}

void TpccDatabase::EnableLifecycle(const LifecycleConfig& config,
                                   const std::string& dir) {
  DB_CHECK(lifecycle_ == nullptr);
  lifecycle_ = std::make_unique<LifecycleManager>(
      std::vector<Table*>{&history, &neworder, &order, &orderline},
      dir + "/tpcc.dbar", config);
}

void TpccDatabase::LifecycleTick() { lifecycle_->Tick(); }

void TpccDatabase::FreezeEverything() {
  item.FreezeAll();
  warehouse.FreezeAll();
  district.FreezeAll();
  customer.FreezeAll();
  history.FreezeAll();
  neworder.FreezeAll();
  order.FreezeAll();
  orderline.FreezeAll();
  stock.FreezeAll();
}

bool TpccDatabase::CheckConsistency(std::string* msg) const {
  auto fail = [msg](std::string what) {
    if (msg != nullptr) *msg = std::move(what);
    return false;
  };
  // W_YTD == sum(D_YTD) per warehouse.
  for (int w = 1; w <= config_.num_warehouses; ++w) {
    int64_t w_ytd =
        warehouse.GetInt(warehouse_idx_[size_t(w - 1)], col::warehouse::ytd);
    int64_t d_sum = 0;
    for (int d = 1; d <= 10; ++d)
      d_sum += district.GetInt(district_idx_[DistKey(w, d)],
                               col::district::ytd);
    if (w_ytd != d_sum)
      return fail("W_YTD mismatch for warehouse " + std::to_string(w));
  }
  // D_NEXT_O_ID - 1 == max order id per district; the undelivered range
  // [oldest, D_NEXT_O_ID) is well formed. Row counts come from the index.
  uint64_t lines = 0, undelivered = 0;
  for (int w = 1; w <= config_.num_warehouses; ++w) {
    for (int d = 1; d <= 10; ++d) {
      const int64_t next = district.GetInt(district_idx_[DistKey(w, d)],
                                           col::district::next_o_id);
      const std::vector<OrderEntry>& orders = orders_[DistKey(w, d)];
      if (int64_t(orders.size()) != next - 1) return fail("missing max order");
      const int32_t oldest = oldest_undelivered_[DistKey(w, d)];
      if (oldest < 1 || oldest > next) return fail("neworder beyond next_o_id");
      undelivered += uint64_t(next - oldest);
      for (const OrderEntry& e : orders) lines += uint64_t(e.ol_cnt);
    }
  }
  if (lines != orderline.num_visible())
    return fail("sum(O_OL_CNT) != |ORDER-LINE|");
  if (undelivered != neworder.num_visible())
    return fail("|NEW-ORDER| != undelivered orders");
  return true;
}

size_t TpccDatabase::IndexBytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  size_t n = bytes(item_idx_) + bytes(warehouse_idx_) + bytes(district_idx_) +
             bytes(customer_idx_) + bytes(stock_idx_) + bytes(orders_) +
             bytes(oldest_undelivered_) + bytes(last_order_of_cust_) +
             bytes(scattered_);
  for (const auto& o : orders_) n += bytes(o);
  return n;
}

}  // namespace datablocks::tpcc
