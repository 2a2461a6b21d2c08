// Section 5.3: TPC-C experiments.
//  (1) Mixed workload (45/43/4/4/4) on fully uncompressed storage vs. a
//      database whose cold neworder records are frozen into Data Blocks.
//  (2) Read-only transactions (OrderStatus + StockLevel) on uncompressed
//      storage vs. a database stored entirely in Data Blocks.
// The uncompressed database's table and primary-key index bytes are printed
// after loading and after the mixed run.

#include <cstdio>
#include <cstdlib>

#include "tpcc/tpcc_db.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;
using namespace datablocks::tpcc;

namespace {

double MixedTps(TpccDatabase& db, int txns, uint64_t seed) {
  Rng rng(seed);
  // Warm up.
  for (int i = 0; i < txns / 10; ++i) db.RunMixedTransaction(rng);
  Timer t;
  for (int i = 0; i < txns; ++i) db.RunMixedTransaction(rng);
  return txns / t.ElapsedSeconds();
}

void PrintBytes(const char* when, const TpccDatabase& db) {
  uint64_t table_bytes = 0;
  for (const Table* t : {&db.item, &db.warehouse, &db.district, &db.customer,
                         &db.history, &db.neworder, &db.order, &db.orderline,
                         &db.stock}) {
    table_bytes += t->MemoryBytes();
  }
  std::printf("%-38s %9.1f MB tables %8.1f MB index\n", when,
              double(table_bytes) / 1e6, double(db.IndexBytes()) / 1e6);
}

double ReadOnlyTps(TpccDatabase& db, int txns, uint64_t seed) {
  Rng rng(seed);
  Timer t;
  for (int i = 0; i < txns; ++i) {
    if (i % 2 == 0)
      db.OrderStatus(rng);
    else
      db.StockLevel(rng);
  }
  return txns / t.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  TpccConfig cfg;
  cfg.num_warehouses = argc > 1 ? atoi(argv[1]) : (quick ? 1 : 5);
  const int txns = argc > 2 ? atoi(argv[2]) : (quick ? 2000 : 200000);

  std::printf("loading TPC-C with %d warehouses (x2 instances)...\n",
              cfg.num_warehouses);
  Timer load;
  TpccDatabase uncompressed(cfg);
  uncompressed.Load();
  TpccDatabase frozen_no(cfg);
  frozen_no.Load();
  std::printf("loaded in %.1f s (%llu order lines each)\n",
              load.ElapsedSeconds(),
              (unsigned long long)uncompressed.orderline.num_rows());
  PrintBytes("after load", uncompressed);
  std::printf("\n");

  std::printf("=== Section 5.3 (1): mixed workload, cold neworders frozen "
              "===\n");
  double tps_hot = MixedTps(uncompressed, txns, 1);
  PrintBytes("uncompressed, after the mixed run", uncompressed);
  frozen_no.FreezeOldNewOrders();
  double tps_frozen = MixedTps(frozen_no, txns, 1);
  std::printf("%-38s %12.0f txn/s\n", "uncompressed storage", tps_hot);
  std::printf("%-38s %12.0f txn/s (%.1f%% overhead)\n",
              "cold neworder records in Data Blocks", tps_frozen,
              100.0 * (tps_hot - tps_frozen) / tps_hot);

  std::printf("\n=== Section 5.3 (2): read-only transactions, full DB in "
              "Data Blocks ===\n");
  TpccDatabase ro_hot(cfg);
  ro_hot.Load();
  TpccDatabase ro_frozen(cfg);
  ro_frozen.Load();
  ro_frozen.FreezeEverything();
  double ro_tps_hot = ReadOnlyTps(ro_hot, txns / 2, 2);
  double ro_tps_frozen = ReadOnlyTps(ro_frozen, txns / 2, 2);
  std::printf("%-38s %12.0f txn/s\n", "uncompressed storage", ro_tps_hot);
  std::printf("%-38s %12.0f txn/s (%.1f%% overhead)\n",
              "entire database in Data Blocks", ro_tps_frozen,
              100.0 * (ro_tps_hot - ro_tps_frozen) / ro_tps_hot);

  uint64_t hot_bytes = ro_hot.customer.MemoryBytes() +
                       ro_hot.orderline.MemoryBytes() +
                       ro_hot.stock.MemoryBytes() +
                       ro_hot.order.MemoryBytes() +
                       ro_hot.history.MemoryBytes() +
                       ro_hot.item.MemoryBytes();
  uint64_t frz_bytes = ro_frozen.customer.MemoryBytes() +
                       ro_frozen.orderline.MemoryBytes() +
                       ro_frozen.stock.MemoryBytes() +
                       ro_frozen.order.MemoryBytes() +
                       ro_frozen.history.MemoryBytes() +
                       ro_frozen.item.MemoryBytes();
  std::printf("\nTPC-C compression: %.1f MB -> %.1f MB (%.2fx)\n",
              double(hot_bytes) / 1e6, double(frz_bytes) / 1e6,
              double(hot_bytes) / double(frz_bytes));

  std::string msg;
  if (!uncompressed.CheckConsistency(&msg) ||
      !frozen_no.CheckConsistency(&msg)) {
    std::printf("CONSISTENCY VIOLATION: %s\n", msg.c_str());
    return 1;
  }
  std::printf("consistency checks passed.\n");
  return 0;
}
