// Hybrid OLTP & OLAP on one database state (paper Figure 1): transactional
// updates hit hot chunks and relocate frozen records, while analytical
// scans run over the same table across both storage forms — with the block
// lifecycle subsystem, ticking as a periodic task on the default worker
// pool, freezing cooled-down chunks in the background and evicting cold
// blocks to an archive under a memory budget. Exits 1 if no background
// tick ran.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "exec/table_scanner.h"
#include "lifecycle/lifecycle_manager.h"
#include "storage/pk_index.h"
#include "util/aligned_buffer.h"
#include "util/date.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace datablocks;

namespace {

int64_t TotalOpenAmount(const Table& orders, ScanMode mode) {
  // OLAP: sum the amounts of all open ('O') orders.
  TableScanner scan(orders, {2},
                    {Predicate::Eq(3, Value::Int('O'))}, mode);
  Batch b;
  int64_t total = 0;
  while (scan.Next(&b))
    for (uint32_t i = 0; i < b.count; ++i) total += b.cols[0].i64[i];
  return total;
}

}  // namespace

int main() {
  Schema schema({{"order_id", TypeId::kInt64},
                 {"customer_id", TypeId::kInt32},
                 {"amount", TypeId::kInt64},
                 {"status", TypeId::kChar1},
                 {"order_date", TypeId::kDate}});
  Table orders("orders", schema, 65536);
  Rng rng(7);

  // Historical (cold) orders...
  const int64_t kHistory = 2'000'000;
  for (int64_t i = 0; i < kHistory; ++i) {
    orders.Insert({Cell::Int(i), Cell::Int(rng.Uniform(1, 100000)),
                   Cell::Int(rng.Uniform(100, 100000)),
                   Cell::Char(rng.Uniform(0, 9) == 0 ? 'O' : 'F'),
                   Cell::Int(MakeDate(2024, 1, 1) + int32_t(i / 5000))});
  }
  uint64_t before = orders.MemoryBytes();
  uint64_t rss_before = ResidentBytes();
  orders.FreezeAll();  // ...get compressed into Data Blocks.
  uint64_t rss_frozen = ResidentBytes();
  // Large data areas are page-backed, so the bytes freezing saves leave
  // the process too, not just the engine's count.
  std::printf(
      "cold history frozen: %.1f MB -> %.1f MB (process RSS %.1f MB -> "
      "%.1f MB)\n",
      double(before) / 1e6, double(orders.MemoryBytes()) / 1e6,
      double(rss_before) / 1e6, double(rss_frozen) / 1e6);
  if (rss_frozen >= rss_before) {
    std::fprintf(stderr, "freezing the history did not lower the RSS\n");
    return 1;
  }

  // The index is a hash map on the heap, outside the engine's byte count:
  // from here on it is most of the gap between RSS and the engine's bytes.
  PkIndex pk(orders, 0);
  int64_t next_id = kHistory;

  // Block lifecycle: periodic ticks on the default worker pool freeze
  // chunks once OLTP traffic cools down on them and keep only half the
  // frozen bytes resident; the rest is evicted to the archive, which the
  // OLAP scan and point reads read in place without installing the blocks
  // again.
  LifecycleConfig lcfg;
  lcfg.cold_threshold = 2;
  lcfg.memory_budget_bytes = orders.FrozenBytes() / 2;
  lcfg.tick_interval = std::chrono::milliseconds(10);
  LifecycleManager lifecycle(&orders, "/tmp/hybrid_orders.dbar", lcfg);
  lifecycle.Start();

  // Interleave OLTP transactions with OLAP queries on the same state.
  Timer oltp_timer;
  int txns = 0;
  for (int round = 0; round < 5; ++round) {
    // A burst of transactions: inserts, point reads, updates of frozen
    // rows. Accesses are skewed to recent orders (as in real OLTP), so old
    // chunks cool down and the lifecycle can evict them without thrashing.
    constexpr int64_t kHotWindow = 200'000;
    for (int i = 0; i < 20000; ++i, ++txns) {
      int64_t pick =
          rng.Uniform(std::max<int64_t>(0, next_id - kHotWindow), next_id - 1);
      switch (rng.Uniform(0, 2)) {
        case 0: {  // new order -> hot tail
          pk.Put(next_id,
                 orders.Insert({Cell::Int(next_id),
                                Cell::Int(rng.Uniform(1, 100000)),
                                Cell::Int(rng.Uniform(100, 100000)),
                                Cell::Char('O'),
                                Cell::Int(MakeDate(2026, 6, 10))}));
          ++next_id;
          break;
        }
        case 1: {  // point read (may decompress a single frozen position)
          if (auto rid = pk.Lookup(pick)) {
            volatile int64_t amount = orders.GetInt(*rid, 2);
            (void)amount;
          }
          break;
        }
        case 2: {  // close an order: frozen rows relocate to hot storage
          if (auto rid = pk.Lookup(pick))
            pk.Put(pick, orders.UpdateRow(*rid, {{3, Cell::Char('F')}}));
          break;
        }
      }
    }
    double tps = txns / oltp_timer.ElapsedSeconds();

    Timer olap_timer;
    int64_t open_frozen = TotalOpenAmount(orders, ScanMode::kDataBlocksPsma);
    double olap_ms = olap_timer.ElapsedMillis();
    LifecycleStats ls = lifecycle.stats();
    std::printf(
        "round %d: %6.0f OLTP txn/s | OLAP open-amount=%.2f in %.1f ms "
        "(%llu rows, %llu visible) | lifecycle: %llu auto-frozen, %llu "
        "evicted, %llu archive reads, %.1f MB resident | engine %.1f MB, "
        "process RSS %.1f MB\n",
        round + 1, tps, double(open_frozen) / 100, olap_ms,
        (unsigned long long)orders.num_rows(),
        (unsigned long long)orders.num_visible(),
        (unsigned long long)ls.freezes,
        (unsigned long long)ls.evictions,
        (unsigned long long)ls.archive_reads,
        double(ls.resident_bytes) / 1e6, double(orders.MemoryBytes()) / 1e6,
        double(ResidentBytes()) / 1e6);
  }
  // The rounds can finish before many 10 ms ticks fired, so wait a bounded
  // time for the first one: if none runs, the background driver is broken.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (lifecycle.stats().epochs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const uint64_t epochs = lifecycle.stats().epochs;
  lifecycle.Stop();
  std::printf("lifecycle ticks in the background: %llu\n",
              (unsigned long long)epochs);
  if (epochs == 0) {
    std::fprintf(stderr, "no background lifecycle tick ran\n");
    return 1;
  }

  // Cross-check: the OLAP answer is identical on every scan path.
  int64_t a = TotalOpenAmount(orders, ScanMode::kJit);
  int64_t b = TotalOpenAmount(orders, ScanMode::kDataBlocksPsma);
  std::printf("JIT scan total == DataBlock scan total: %s\n",
              a == b ? "yes" : "NO (bug!)");
  std::remove("/tmp/hybrid_orders.dbar");
  return a == b ? 0 : 1;
}
