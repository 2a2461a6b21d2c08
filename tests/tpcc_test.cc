// TPC-C substrate: load invariants, transaction semantics, consistency
// under the mixed workload, and correct behaviour with frozen (compressed)
// chunks — the Section 5.3 scenarios.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <tuple>
#include <unordered_set>

#include "obs/metrics.h"
#include "tpcc/tpcc_db.h"

namespace datablocks::tpcc {
namespace {

TpccConfig SmallConfig() {
  TpccConfig cfg;
  cfg.num_warehouses = 2;
  cfg.num_items = 2000;
  cfg.customers_per_district = 120;
  cfg.orders_per_district = 120;
  cfg.chunk_capacity = 1024;
  return cfg;
}

class TpccFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<TpccDatabase>(SmallConfig());
    db_->Load();
  }
  std::unique_ptr<TpccDatabase> db_;
};

TEST_F(TpccFixture, LoadCardinalities) {
  const TpccConfig& cfg = db_->config();
  EXPECT_EQ(db_->item.num_rows(), uint64_t(cfg.num_items));
  EXPECT_EQ(db_->warehouse.num_rows(), uint64_t(cfg.num_warehouses));
  EXPECT_EQ(db_->district.num_rows(), uint64_t(cfg.num_warehouses) * 10);
  EXPECT_EQ(db_->customer.num_rows(),
            uint64_t(cfg.num_warehouses) * 10 * cfg.customers_per_district);
  EXPECT_EQ(db_->order.num_rows(),
            uint64_t(cfg.num_warehouses) * 10 * cfg.orders_per_district);
  EXPECT_EQ(db_->stock.num_rows(),
            uint64_t(cfg.num_warehouses) * cfg.num_items);
  // ~30% of loaded orders are undelivered new-orders.
  double no_frac =
      double(db_->neworder.num_rows()) / double(db_->order.num_rows());
  EXPECT_NEAR(no_frac, 0.3, 0.02);
}

TEST_F(TpccFixture, ConsistentAfterLoad) {
  std::string msg;
  EXPECT_TRUE(db_->CheckConsistency(&msg)) << msg;
}

TEST_F(TpccFixture, NewOrderCreatesRows) {
  Rng rng(5);
  uint64_t orders_before = db_->order.num_rows();
  uint64_t no_before = db_->neworder.num_visible();
  int committed = 0;
  for (int i = 0; i < 50; ++i) committed += db_->NewOrder(rng).committed;
  EXPECT_EQ(db_->order.num_rows(), orders_before + uint64_t(committed));
  EXPECT_EQ(db_->neworder.num_visible(), no_before + uint64_t(committed));
  std::string msg;
  EXPECT_TRUE(db_->CheckConsistency(&msg)) << msg;
}

TEST_F(TpccFixture, NewOrderRollbackRateIsOnePercent) {
  Rng rng(17);
  int committed = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) committed += db_->NewOrder(rng).committed;
  double rate = 1.0 - double(committed) / n;
  EXPECT_NEAR(rate, 0.01, 0.006);
}

TEST_F(TpccFixture, PaymentMaintainsYtdInvariant) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) db_->Payment(rng);
  std::string msg;
  EXPECT_TRUE(db_->CheckConsistency(&msg)) << msg;
}

TEST_F(TpccFixture, DeliveryConsumesNewOrders) {
  Rng rng(9);
  uint64_t visible_before = db_->neworder.num_visible();
  int delivered = 0;
  for (int i = 0; i < 10; ++i) delivered += db_->Delivery(rng);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(db_->neworder.num_visible(),
            visible_before - uint64_t(delivered));
}

TEST_F(TpccFixture, ReadOnlyTransactionsRun) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    db_->OrderStatus(rng);
    int low = db_->StockLevel(rng);
    EXPECT_GE(low, 0);
  }
}

TEST_F(TpccFixture, MixedWorkloadStaysConsistent) {
  Rng rng(13);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[db_->RunMixedTransaction(rng)];
  // Standard mix: 45/43/4/4/4.
  EXPECT_NEAR(double(counts[0]) / 5000, 0.45, 0.03);
  EXPECT_NEAR(double(counts[1]) / 5000, 0.43, 0.03);
  std::string msg;
  EXPECT_TRUE(db_->CheckConsistency(&msg)) << msg;
}

TEST_F(TpccFixture, FrozenNewOrdersKeepWorking) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) db_->RunMixedTransaction(rng);
  db_->FreezeOldNewOrders();
  // At least one neworder chunk must actually be frozen for the experiment
  // to be meaningful.
  bool any_frozen = false;
  for (size_t c = 0; c < db_->neworder.num_chunks(); ++c)
    any_frozen |= db_->neworder.chunk_state(c) == ChunkState::kFrozen;
  EXPECT_TRUE(any_frozen);
  // Deliveries must drain frozen neworder rows via delete flags; new orders
  // keep inserting into the hot tail.
  for (int i = 0; i < 2000; ++i) db_->RunMixedTransaction(rng);
  std::string msg;
  EXPECT_TRUE(db_->CheckConsistency(&msg)) << msg;
}

TEST_F(TpccFixture, FullyFrozenReadOnly) {
  db_->FreezeEverything();
  EXPECT_EQ(db_->customer.HotBytes(), 0u);
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    db_->OrderStatus(rng);
    db_->StockLevel(rng);
  }
  std::string msg;
  EXPECT_TRUE(db_->CheckConsistency(&msg)) << msg;
}

TEST_F(TpccFixture, FreezingCompressesTpccData) {
  uint64_t hot = db_->customer.MemoryBytes() + db_->orderline.MemoryBytes() +
                 db_->stock.MemoryBytes();
  db_->FreezeEverything();
  uint64_t frozen = db_->customer.MemoryBytes() +
                    db_->orderline.MemoryBytes() + db_->stock.MemoryBytes();
  EXPECT_LT(frozen, hot);
}

TEST_F(TpccFixture, ConsistencyCountsCatchRowsDeletedBehindTheIndex) {
  std::string msg;
  db_->orderline.Delete(MakeRowId(0, 3));
  EXPECT_FALSE(db_->CheckConsistency(&msg));
  EXPECT_EQ(msg, "sum(O_OL_CNT) != |ORDER-LINE|");

  db_ = std::make_unique<TpccDatabase>(SmallConfig());
  db_->Load();
  db_->neworder.Delete(MakeRowId(0, 0));
  EXPECT_FALSE(db_->CheckConsistency(&msg));
  EXPECT_EQ(msg, "|NEW-ORDER| != undelivered orders");
}

// StockLevel counts distinct low-stock items by sort + unique; a hash set
// over rows found by scanning the tables (not through the index) must
// agree on every call.
TEST_F(TpccFixture, StockLevelMatchesHashSetOverScannedRows) {
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) db_->RunMixedTransaction(rng);

  namespace ol = col::orderline;
  std::map<std::tuple<int64_t, int64_t, int64_t>, std::vector<int64_t>> items;
  std::map<std::pair<int64_t, int64_t>, int64_t> quantity, next_o_id;
  auto for_rows = [](const Table& t, auto fn) {
    for (size_t c = 0; c < t.num_chunks(); ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
        if (t.IsVisible(MakeRowId(c, r))) fn(MakeRowId(c, r));
  };
  for_rows(db_->orderline, [&](RowId id) {
    const Table& t = db_->orderline;
    items[{t.GetInt(id, ol::w_id), t.GetInt(id, ol::d_id),
           t.GetInt(id, ol::o_id)}]
        .push_back(t.GetInt(id, ol::i_id));
  });
  for_rows(db_->stock, [&](RowId id) {
    quantity[{db_->stock.GetInt(id, col::stock::w_id),
              db_->stock.GetInt(id, col::stock::i_id)}] =
        db_->stock.GetInt(id, col::stock::quantity);
  });
  for_rows(db_->district, [&](RowId id) {
    next_o_id[{db_->district.GetInt(id, col::district::w_id),
               db_->district.GetInt(id, col::district::id)}] =
        db_->district.GetInt(id, col::district::next_o_id);
  });

  int64_t total = 0;
  for (int i = 0; i < 300; ++i) {
    Rng draw = rng;  // StockLevel's own draws, in its order
    const int64_t w = draw.Uniform(1, db_->config().num_warehouses);
    const int64_t d = draw.Uniform(1, 10);
    const int64_t threshold = draw.Uniform(10, 20);
    const int64_t next = next_o_id.at({w, d});
    std::unordered_set<int64_t> low;
    for (int64_t o = std::max<int64_t>(1, next - 20); o < next; ++o)
      for (int64_t i_id : items.at({w, d, o}))
        if (quantity.at({w, i_id}) < threshold) low.insert(i_id);
    ASSERT_EQ(db_->StockLevel(rng), int(low.size())) << "call " << i;
    total += int64_t(low.size());
  }
  EXPECT_GT(total, 0);
}

TEST_F(TpccFixture, IndexBytesAreBoundedPerRow) {
  // 64 B per order (a 32 B entry, up to twice over by vector growth, plus
  // the rare explicit line list), 8 B per stock, item, district and
  // customer row, and 4 B more per customer for its last order.
  auto bound = [this] {
    const TpccDatabase& db = *db_;
    return 64 * db.order.num_visible() +
           8 * (db.stock.num_rows() + db.item.num_rows() +
                db.warehouse.num_rows()) +
           64 * db.district.num_rows() + 12 * db.customer.num_rows();
  };
  EXPECT_GT(db_->IndexBytes(), 32 * db_->order.num_visible());
  EXPECT_LE(db_->IndexBytes(), bound());
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) db_->RunMixedTransaction(rng);
  EXPECT_LE(db_->IndexBytes(), bound());
}

}  // namespace

// Friend of TpccDatabase: reads its private index.
class TpccTest : public ::testing::Test {
 protected:
  static size_t ScatteredLines(const TpccDatabase& db) {
    return db.scattered_.size();
  }

  // Reads every warehouse, district, order and its lines, and a sample of
  // stock and customer rows, through the index and checks that each row is
  // visible and holds the keys of its entry.
  static void ExpectIndexAgrees(const TpccDatabase& db) {
    namespace o = col::order;
    namespace ol = col::orderline;
    const TpccConfig& cfg = db.config();
    for (int w = 1; w <= cfg.num_warehouses; ++w) {
      const RowId w_row = db.warehouse_idx_[size_t(w - 1)];
      ASSERT_TRUE(db.warehouse.IsVisible(w_row)) << w;
      ASSERT_EQ(db.warehouse.GetInt(w_row, col::warehouse::id), w);
      for (int d = 1; d <= 10; ++d) {
        const RowId d_row = db.district_idx_[db.DistKey(w, d)];
        ASSERT_TRUE(db.district.IsVisible(d_row)) << w << "/" << d;
        ASSERT_EQ(db.district.GetInt(d_row, col::district::id), d);
        ASSERT_EQ(db.district.GetInt(d_row, col::district::w_id), w);
        const auto& orders = db.orders_[db.DistKey(w, d)];
        for (size_t i = 0; i < orders.size(); ++i) {
          const auto& e = orders[i];
          const int64_t o_id = int64_t(i) + 1;
          ASSERT_TRUE(db.order.IsVisible(e.order)) << w << "/" << d;
          ASSERT_EQ(db.order.GetInt(e.order, o::id), o_id) << w << "/" << d;
          ASSERT_EQ(db.order.GetInt(e.order, o::d_id), d);
          ASSERT_EQ(db.order.GetInt(e.order, o::w_id), w);
          ASSERT_EQ(db.order.GetInt(e.order, o::ol_cnt), e.ol_cnt);
          for (int l = 0; l < e.ol_cnt; ++l) {
            const RowId id = db.Line(e, l);
            ASSERT_TRUE(db.orderline.IsVisible(id));
            ASSERT_EQ(db.orderline.GetInt(id, ol::o_id), o_id)
                << w << "/" << d << " line " << l;
            ASSERT_EQ(db.orderline.GetInt(id, ol::d_id), d);
            ASSERT_EQ(db.orderline.GetInt(id, ol::w_id), w);
            ASSERT_EQ(db.orderline.GetInt(id, ol::number), l + 1);
          }
        }
        for (int c = 1; c <= cfg.customers_per_district; c += 7) {
          const RowId id = db.customer_idx_[db.CustKey(w, d, c)];
          ASSERT_TRUE(db.customer.IsVisible(id)) << w << "/" << d << "/" << c;
          ASSERT_EQ(db.customer.GetInt(id, col::customer::id), c);
          ASSERT_EQ(db.customer.GetInt(id, col::customer::d_id), d);
          ASSERT_EQ(db.customer.GetInt(id, col::customer::w_id), w);
        }
      }
      for (int i = 1; i <= cfg.num_items; i += 13) {
        const RowId id = db.stock_idx_[db.StockKey(w, i)];
        ASSERT_TRUE(db.stock.IsVisible(id)) << w << "/" << i;
        ASSERT_EQ(db.stock.GetInt(id, col::stock::i_id), i);
        ASSERT_EQ(db.stock.GetInt(id, col::stock::w_id), w);
      }
    }
  }
};

// Full chunks of orders and order lines freeze, evict and get
// relocated by Delivery while the mix runs; every index entry must still
// name the rows of its key.
TEST_F(TpccTest, IndexAgreesWithRowsThroughFreezeEvictAndRelocation) {
  const std::string dir = ::testing::TempDir() + "tpcc_index_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  {
    TpccDatabase db(SmallConfig());
    db.Load();
    LifecycleConfig lc;
    lc.cold_threshold = 64;
    lc.memory_budget_bytes = 256 << 10;
    db.EnableLifecycle(lc, dir);
    Rng rng(37);
    for (int i = 1; i <= 4000; ++i) {
      db.RunMixedTransaction(rng);
      if (i % 50 == 0) db.LifecycleTick();
    }
    EXPECT_GT(db.lifecycle()->stats().evictions, 0u);
    // Both uncommon paths ran: some order lists its lines explicitly, and
    // Delivery relocated orders and lines out of frozen chunks (each
    // relocation leaves a deleted row behind).
    EXPECT_GT(ScatteredLines(db), 0u);
    EXPECT_GT(db.order.num_rows(), db.order.num_visible());
    EXPECT_GT(db.orderline.num_rows(), db.orderline.num_visible());
    ExpectIndexAgrees(db);
    std::string msg;
    EXPECT_TRUE(db.CheckConsistency(&msg)) << msg;
  }
  std::filesystem::remove_all(dir);
}

// One manager runs the lifecycle of the four append-mostly tables: its
// budget bounds their resident frozen bytes together after every tick (four
// managers with that budget each exceed it), and one spill file holds the
// blocks of all four.
TEST_F(TpccTest, OneLifecycleBudgetBoundsTheFourTablesTogether) {
  constexpr uint64_t kBudget = 256 << 10;
  const std::string dir = ::testing::TempDir() + "tpcc_budget_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  {
    TpccDatabase db(SmallConfig());
    db.Load();
    LifecycleConfig lc;
    lc.cold_threshold = 64;
    lc.memory_budget_bytes = kBudget;
    db.EnableLifecycle(lc, dir);
    ASSERT_EQ(db.lifecycle_managers().size(), 1u);
    Rng rng(43);
    for (int i = 1; i <= 4000; ++i) {
      db.RunMixedTransaction(rng);
      if (i % 50 != 0) continue;
      db.LifecycleTick();
      ASSERT_LE(db.lifecycle()->stats().resident_bytes, kBudget) << i;
    }
    const LifecycleStats s = db.lifecycle()->stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.epochs, 4000u / 50);
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      files.push_back(e.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"tpcc.dbar"});
    std::string msg;
    EXPECT_TRUE(db.CheckConsistency(&msg)) << msg;
  }
  std::filesystem::remove_all(dir);
}

// oltp_tpcc's lifecycle config (a 16 MB budget, cold threshold 256, ticks
// between transactions): cold order and order-line chunks freeze, so
// Delivery's carrier and delivery-date updates relocate frozen rows through
// Table::UpdateRow. The table.relocations counter sees them, and the
// database stays consistent.
TEST_F(TpccTest, DeliveryRelocatesFrozenRowsUnderTheBenchLifecycle) {
  const std::string dir = ::testing::TempDir() + "tpcc_relocate_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  {
    TpccDatabase db(SmallConfig());
    db.Load();
    LifecycleConfig lc;
    lc.memory_budget_bytes = 16ull << 20;
    lc.cold_threshold = 256;
    db.EnableLifecycle(lc, dir);
    obs::Counter* relocations =
        obs::MetricsRegistry::Default().GetCounter("table.relocations");
    const uint64_t before = relocations->Value();
    Rng rng(41);
    for (int i = 1; i <= 20000; ++i) {
      db.RunMixedTransaction(rng);
      if (i % 100 == 0) db.LifecycleTick();
    }
    EXPECT_GT(db.lifecycle()->stats().freezes, 0u);
    EXPECT_GT(relocations->Value(), before);
    ExpectIndexAgrees(db);
    std::string msg;
    EXPECT_TRUE(db.CheckConsistency(&msg)) << msg;
  }
  std::filesystem::remove_all(dir);
}

// Every table frozen, then the whole mix: each update of a warehouse,
// district, customer or stock row relocates it into its table's hot tail
// (paper Section 3), and the index follows the RowId UpdateRow returns.
// An item ordered twice in one NewOrder is relocated by its first line
// and updated in place by the second.
TEST_F(TpccTest, FullMixOnFullyFrozenDatabase) {
  TpccDatabase db(SmallConfig());
  db.Load();
  Rng rng(47);
  for (int i = 0; i < 500; ++i) db.RunMixedTransaction(rng);
  db.FreezeEverything();
  const uint64_t stock_rows = db.stock.num_rows();
  const uint64_t stock_visible = db.stock.num_visible();
  for (int i = 0; i < 3000; ++i) db.RunMixedTransaction(rng);
  EXPECT_GT(db.stock.num_rows(), stock_rows);
  EXPECT_EQ(db.stock.num_visible(), stock_visible);
  ExpectIndexAgrees(db);
  std::string msg;
  EXPECT_TRUE(db.CheckConsistency(&msg)) << msg;
}

}  // namespace datablocks::tpcc
