// The five TPC-C transactions, implemented against the Table point-access
// API. Reads transparently hit hot chunks or frozen Data Blocks (single
// position decompression). Every update goes through Table::UpdateRow,
// which follows the paper's rules: hot rows are updated in place, frozen
// rows can only be deleted, so it relocates them into the hot tail
// (Section 3), and the index takes the RowId it returns. So the
// transactions run in every chunk state, whichever tables freeze. Rows are
// written as Cells, never as owning Values.

#include <algorithm>
#include <span>
#include <string_view>

#include "tpcc/tpcc_db.h"
#include "util/date.h"

namespace datablocks::tpcc {

namespace {
const int32_t kTxnDate = MakeDate(2016, 6, 1);
}

NewOrderResult TpccDatabase::NewOrder(Rng& rng) {
  NewOrderResult result;
  const int w = int(rng.Uniform(1, config_.num_warehouses));
  const int d = int(rng.Uniform(1, 10));
  const int c = RandomCustomerId(rng);
  const int ol_cnt = int(rng.Uniform(5, 15));
  const bool rollback = rng.Uniform(1, 100) == 1;  // 1% unused item id

  struct Line {
    int i_id;
    int supply_w;
    int qty;
    // s_row serves the prefetches; the update loop reads the index again.
    RowId i_row, s_row;
    std::string_view dist;  // the stock row's, borrowed
  };
  Line lines[15];  // ol_cnt <= 15
  for (int l = 0; l < ol_cnt; ++l) {
    Line& ln = lines[l];
    ln.i_id = RandomItemId(rng);
    if (rollback && l == ol_cnt - 1) ln.i_id = config_.num_items + 1;
    ln.supply_w = w;
    if (config_.num_warehouses > 1 && rng.Uniform(1, 100) == 1) {
      do {
        ln.supply_w = int(rng.Uniform(1, config_.num_warehouses));
      } while (ln.supply_w == w);
    }
    ln.qty = int(rng.Uniform(1, 10));
  }

  // Validate items first (a failed lookup aborts the transaction before any
  // write, which is how the 1% rollback manifests here).
  for (int l = 0; l < ol_cnt; ++l) {
    if (lines[l].i_id > config_.num_items) return result;  // not committed
  }
  // The borrowed dist strings stay valid until the section closes.
  Table::ReadSection section;
  // Start the customer row and every line's item and stock rows towards
  // the cache; the loop at the end reads them one line at a time, each a
  // likely miss.
  const RowId c_row = customer_idx_[CustKey(w, d, c)];
  customer.Prefetch(c_row, {col::customer::discount});
  for (int l = 0; l < ol_cnt; ++l) {
    Line& ln = lines[l];
    ln.i_row = item_idx_[size_t(ln.i_id - 1)];
    ln.s_row = stock_idx_[StockKey(ln.supply_w, ln.i_id)];
    item.Prefetch(ln.i_row, {col::item::price});
    stock.Prefetch(ln.s_row, {col::stock::quantity, col::stock::ytd,
                              col::stock::order_cnt, col::stock::dist});
  }

  RowId& d_row = district_idx_[DistKey(w, d)];
  const int32_t o_id =
      int32_t(district.GetInt(d_row, col::district::next_o_id));
  d_row = district.UpdateRow(d_row,
                             {{col::district::next_o_id, Cell::Int(o_id + 1)}});
  const int64_t w_tax =
      warehouse.GetInt(warehouse_idx_[size_t(w - 1)], col::warehouse::tax);
  const int64_t d_tax = district.GetInt(d_row, col::district::tax);
  const int64_t c_disc = customer.GetInt(c_row, col::customer::discount);

  bool all_local = true;
  for (int l = 0; l < ol_cnt; ++l) all_local &= lines[l].supply_w == w;

  OrderEntry& e = orders_[DistKey(w, d)].emplace_back();
  e.order = order.Insert({Cell::Int(o_id), Cell::Int(d), Cell::Int(w),
                          Cell::Int(c), Cell::Int(kTxnDate), Cell::Null(),
                          Cell::Int(ol_cnt), Cell::Int(all_local ? 1 : 0)});
  e.ol_cnt = ol_cnt;
  last_order_of_cust_[CustKey(w, d, c)] = o_id;

  e.neworder = neworder.Insert({Cell::Int(o_id), Cell::Int(d), Cell::Int(w)});

  // The stock rows' string references have arrived by now: start the dist
  // strings they point to towards the cache as well.
  for (int l = 0; l < ol_cnt; ++l) {
    lines[l].dist = stock.GetStringView(lines[l].s_row, col::stock::dist);
    __builtin_prefetch(lines[l].dist.data());
  }

  int64_t total = 0;
  for (int l = 0; l < ol_cnt; ++l) {
    Line& ln = lines[l];
    // An item ordered twice: the first line's update may have given its row
    // a new id.
    RowId& s_row = stock_idx_[StockKey(ln.supply_w, ln.i_id)];
    int64_t price = item.GetInt(ln.i_row, col::item::price);
    int32_t s_qty = int32_t(stock.GetInt(s_row, col::stock::quantity));
    s_qty = s_qty >= ln.qty + 10 ? s_qty - ln.qty : s_qty - ln.qty + 91;
    // The remote count changes only for a remote supplier.
    const bool remote = ln.supply_w != w;
    const CellUpdate changes[] = {
        {col::stock::quantity, Cell::Int(s_qty)},
        {col::stock::ytd,
         Cell::Int(stock.GetInt(s_row, col::stock::ytd) + ln.qty)},
        {col::stock::order_cnt,
         Cell::Int(stock.GetInt(s_row, col::stock::order_cnt) + 1)},
        {col::stock::remote_cnt,
         Cell::Int(remote ? stock.GetInt(s_row, col::stock::remote_cnt) + 1
                          : 0)}};
    s_row = stock.UpdateRow(s_row, std::span(changes, remote ? 4 : 3));
    int64_t amount = price * ln.qty;
    total += amount;
    SetLine(e, l,
            orderline.Insert({Cell::Int(o_id), Cell::Int(d), Cell::Int(w),
                              Cell::Int(l + 1), Cell::Int(ln.i_id),
                              Cell::Int(ln.supply_w), Cell::Null(),
                              Cell::Int(ln.qty), Cell::Int(amount),
                              Cell::Str(ln.dist)}));
  }

  result.committed = true;
  result.total_amount =
      total * (10000 - c_disc) / 10000 * (10000 + w_tax + d_tax) / 10000;
  return result;
}

void TpccDatabase::Payment(Rng& rng) {
  const int w = int(rng.Uniform(1, config_.num_warehouses));
  const int d = int(rng.Uniform(1, 10));
  int c_w = w, c_d = d;
  if (config_.num_warehouses > 1 && rng.Uniform(1, 100) <= 15) {
    do {
      c_w = int(rng.Uniform(1, config_.num_warehouses));
    } while (c_w == w);
    c_d = int(rng.Uniform(1, 10));
  }
  const int64_t amount = rng.Uniform(100, 500000);
  const int c = RandomCustomerId(rng);
  const RowId c_row = customer_idx_[CustKey(c_w, c_d, c)];
  customer.Prefetch(c_row, {col::customer::balance, col::customer::ytd_payment,
                            col::customer::payment_cnt});

  RowId& w_row = warehouse_idx_[size_t(w - 1)];
  w_row = warehouse.UpdateRow(
      w_row,
      {{col::warehouse::ytd,
        Cell::Int(warehouse.GetInt(w_row, col::warehouse::ytd) + amount)}});
  RowId& d_row = district_idx_[DistKey(w, d)];
  d_row = district.UpdateRow(
      d_row,
      {{col::district::ytd,
        Cell::Int(district.GetInt(d_row, col::district::ytd) + amount)}});

  customer_idx_[CustKey(c_w, c_d, c)] = customer.UpdateRow(
      c_row,
      {{col::customer::balance,
        Cell::Int(customer.GetInt(c_row, col::customer::balance) - amount)},
       {col::customer::ytd_payment,
        Cell::Int(customer.GetInt(c_row, col::customer::ytd_payment) +
                  amount)},
       {col::customer::payment_cnt,
        Cell::Int(customer.GetInt(c_row, col::customer::payment_cnt) + 1)}});

  history.Insert({Cell::Int(c), Cell::Int(c_d), Cell::Int(c_w), Cell::Int(d),
                  Cell::Int(w), Cell::Int(kTxnDate), Cell::Int(amount),
                  Cell::Str("payment")});
}

void TpccDatabase::OrderStatus(Rng& rng) {
  const int w = int(rng.Uniform(1, config_.num_warehouses));
  const int d = int(rng.Uniform(1, 10));
  const int c = RandomCustomerId(rng);

  RowId c_row = customer_idx_[CustKey(w, d, c)];
  volatile int64_t balance =
      customer.GetInt(c_row, col::customer::balance);
  (void)balance;

  const int32_t o_id = last_order_of_cust_[CustKey(w, d, c)];
  if (o_id == 0) return;
  const OrderEntry& e = Entry(w, d, o_id);
  volatile int64_t entry = order.GetInt(e.order, col::order::entry_d);
  (void)entry;

  int64_t sum_amount = 0;
  for (int l = 0; l < e.ol_cnt; ++l) {
    const RowId ol = Line(e, l);
    sum_amount += orderline.GetInt(ol, col::orderline::amount);
    volatile int64_t qty = orderline.GetInt(ol, col::orderline::quantity);
    (void)qty;
  }
  (void)sum_amount;
}

int TpccDatabase::Delivery(Rng& rng) {
  const int w = int(rng.Uniform(1, config_.num_warehouses));
  const int carrier = int(rng.Uniform(1, 10));
  int delivered = 0;
  for (int d = 1; d <= 10; ++d) {
    int32_t& oldest = oldest_undelivered_[DistKey(w, d)];
    if (size_t(oldest) > orders_[DistKey(w, d)].size()) continue;
    OrderEntry& e = Entry(w, d, oldest++);

    // Delete the neworder row (works on hot *and* frozen chunks).
    neworder.Delete(e.neworder);

    int c = int(order.GetInt(e.order, col::order::c_id));
    // Under a lifecycle manager the order's chunk may have frozen; the
    // update then relocates the row, so refresh the index.
    e.order = order.UpdateRow(e.order,
                              {{col::order::carrier_id, Cell::Int(carrier)}});

    int64_t total = 0;
    const OrderEntry before = e;  // lines are read from the old RowIds
    for (int l = 0; l < before.ol_cnt; ++l) {
      const RowId ol = orderline.UpdateRow(
          Line(before, l), {{col::orderline::delivery_d, Cell::Int(kTxnDate)}});
      SetLine(e, l, ol);
      total += orderline.GetInt(ol, col::orderline::amount);
    }
    RowId& c_row = customer_idx_[CustKey(w, d, c)];
    c_row = customer.UpdateRow(
        c_row,
        {{col::customer::balance,
          Cell::Int(customer.GetInt(c_row, col::customer::balance) + total)},
         {col::customer::delivery_cnt,
          Cell::Int(customer.GetInt(c_row, col::customer::delivery_cnt) + 1)}});
    ++delivered;
  }
  return delivered;
}

int TpccDatabase::StockLevel(Rng& rng) {
  const int w = int(rng.Uniform(1, config_.num_warehouses));
  const int d = int(rng.Uniform(1, 10));
  const int threshold = int(rng.Uniform(10, 20));

  RowId d_row = district_idx_[DistKey(w, d)];
  const int32_t next_o =
      int32_t(district.GetInt(d_row, col::district::next_o_id));

  // Gather the item ids first, so that every stock probe is in flight
  // before the first one is read.
  int32_t items[20 * 15];  // 20 orders of at most 15 lines
  size_t num_items = 0;
  for (int32_t o = std::max(1, next_o - 20); o < next_o; ++o) {
    const OrderEntry& e = Entry(w, d, o);
    for (int l = 0; l < e.ol_cnt; ++l) {
      items[num_items++] =
          int32_t(orderline.GetInt(Line(e, l), col::orderline::i_id));
    }
  }
  for (size_t k = 0; k < num_items; ++k)
    stock.Prefetch(stock_idx_[StockKey(w, items[k])], {col::stock::quantity});
  size_t n = 0;  // low-stock items, compacted in place
  for (size_t k = 0; k < num_items; ++k) {
    if (stock.GetInt(stock_idx_[StockKey(w, items[k])],
                     col::stock::quantity) < threshold) {
      items[n++] = items[k];
    }
  }
  std::sort(items, items + n);
  return int(std::unique(items, items + n) - items);
}

int TpccDatabase::RunMixedTransaction(Rng& rng) {
  // One read section for the whole transaction: its point accesses then
  // open no section of their own and make no locked write to a chunk slot.
  Table::ReadSection section;
  int64_t roll = rng.Uniform(1, 100);
  if (roll <= 45) {
    NewOrder(rng);
    return 0;
  }
  if (roll <= 88) {
    Payment(rng);
    return 1;
  }
  if (roll <= 92) {
    OrderStatus(rng);
    return 2;
  }
  if (roll <= 96) {
    Delivery(rng);
    return 3;
  }
  StockLevel(rng);
  return 4;
}

}  // namespace datablocks::tpcc
