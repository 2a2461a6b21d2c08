// Block lifecycle subsystem: temperature-driven automatic freezing,
// archival eviction under a memory budget, scans and point reads of evicted
// chunks that leave them evicted, and safety of eviction, tombstones and
// archive releases concurrent with readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_scan.h"
#include "lifecycle/lifecycle_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_table_util.h"
#include "tpcc/tpcc_db.h"
#include "util/failpoint.h"

namespace datablocks {
namespace {

Table MakeTable(uint32_t n, uint32_t chunk_capacity) {
  return MakeTestTable(n, chunk_capacity);
}

/// Policy that freezes a full chunk after two epochs without accesses.
LifecycleConfig QuickCooling() {
  LifecycleConfig cfg;
  cfg.cold_threshold = 0;
  cfg.decay_shift = 32;  // clocks reset every epoch
  return cfg;
}

std::string TempArchive(const char* name) {
  return std::string("/tmp/datablocks_lifecycle_") + name + ".dbar";
}

// Full chunks freeze after two cold epochs. Each freeze is timed on its
// trace event and in the lifecycle.freeze_ns histogram.
TEST(Lifecycle, ChunksFreezeAutomaticallyAfterCooling) {
  Table t = MakeTable(1000, 256);  // 3 full chunks + hot tail
  ASSERT_EQ(t.num_chunks(), 4u);
  const std::string path = TempArchive("freeze");
  obs::TraceRing ring;
  obs::Histogram* freeze_ns =
      obs::MetricsRegistry::Default().GetHistogram("lifecycle.freeze_ns");
  const uint64_t observed_before = freeze_ns->count();
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.trace = &ring;
    LifecycleManager mgr(&t, path, cfg);
    // Epoch 1: insert clocks still warm -> nothing freezes.
    mgr.Tick();
    EXPECT_EQ(mgr.stats().freezes, 0u);
    // Two cold epochs -> all full chunks freeze; the tail stays hot.
    mgr.Tick();
    mgr.Tick();
    EXPECT_EQ(mgr.stats().freezes, 3u);
    for (size_t c = 0; c < 3; ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kFrozen) << c;
    EXPECT_EQ(t.chunk_state(3), ChunkState::kHot);
    // A freeze writes nothing: only an eviction does.
    EXPECT_EQ(mgr.stats().archived_blocks, 0u);
    EXPECT_EQ(mgr.archive()->PayloadBytes(), 0u);
  }
  std::remove(path.c_str());

  int freezes = 0;
  for (const obs::TraceEvent& ev : ring.Snapshot()) {
    if (std::string(ev.name) != "freeze") continue;
    ++freezes;
    EXPECT_GT(ev.b, 0) << "freeze of chunk " << ev.a << " carries its ns";
  }
  EXPECT_EQ(freezes, 3);
  EXPECT_EQ(freeze_ns->count() - observed_before, 3u);
}

// A freeze sorted on a column carries each delete flag with its row: block
// row i is deleted iff source row perm[i] was, and so it stays once the
// manager evicts the sorted blocks.
TEST(Lifecycle, SortedFreezeKeepsDeletedRowsDeleted) {
  constexpr uint32_t kRows = 1024, kCap = 256;
  Table t = MakeTable(kRows, kCap);  // 4 full chunks, id == insert index
  struct Row {
    int64_t val;
    std::string name;
    bool operator==(const Row&) const = default;
  };
  std::map<int64_t, Row> visible;
  std::vector<uint32_t> deleted(kRows / kCap, 0);
  for (uint32_t i = 0; i < kRows; ++i) {
    const RowId id = MakeRowId(i / kCap, i % kCap);
    if (i % 5 == 0) {
      t.Delete(id);
      ++deleted[i / kCap];
    } else {
      visible[i] = {t.GetInt(id, 1), std::string(t.GetStringView(id, 2))};
    }
  }
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    ASSERT_TRUE(t.FreezeChunk(c, /*sort_col=*/1)) << c;
    EXPECT_EQ(t.deleted_in_chunk(c), deleted[c]) << c;
    // The block is sorted on val, and exactly the rows whose id was
    // deleted are flagged.
    const DataBlock* block = t.frozen_block(c);
    std::vector<uint64_t> flags;
    ASSERT_TRUE(t.SnapshotDeleteBitmap(c, &flags));
    for (uint32_t r = 0; r < block->num_rows(); ++r) {
      if (r > 0) {
        EXPECT_LE(block->GetInt(1, r - 1), block->GetInt(1, r));
      }
      EXPECT_EQ(BitmapTest(flags.data(), r), block->GetInt(0, r) % 5 == 0)
          << r;
    }
  }
  const std::string path = TempArchive("sorted_deletes");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    ASSERT_EQ(mgr.stats().evictions, kRows / kCap);
    std::map<int64_t, Row> scanned;
    TableScanner scan(t, {0, 1, 2}, {}, ScanMode::kDataBlocks);
    Batch b;
    while (scan.Next(&b)) {
      for (uint32_t i = 0; i < b.count; ++i) {
        scanned[b.cols[0].i64[i]] = {b.cols[1].i32[i],
                                     std::string(b.cols[2].Str(i))};
      }
    }
    EXPECT_TRUE(scanned == visible);
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
      EXPECT_EQ(t.deleted_in_chunk(c), deleted[c]) << c;
    }
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, PointAccessesKeepChunksHot) {
  Table t = MakeTable(512, 256);  // 2 full chunks
  const std::string path = TempArchive("hot");
  {
    LifecycleManager mgr(&t, path, QuickCooling());
    for (int e = 0; e < 6; ++e) {
      // Keep chunk 0 warm with point reads; chunk 1 cools down.
      (void)t.GetInt(MakeRowId(0, 5), 1);
      mgr.Tick();
    }
    EXPECT_EQ(t.chunk_state(0), ChunkState::kHot);
    EXPECT_EQ(t.chunk_state(1), ChunkState::kFrozen);
    // Once the reads stop, chunk 0 freezes too.
    for (int e = 0; e < 3; ++e) mgr.Tick();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, EvictsUnderMemoryBudgetAndReloadsTransparently) {
  Table t = MakeTable(4096, 512);  // 8 full chunks
  ScanResult before = FullScan(t);
  RowId probe = MakeRowId(1, 100);
  int64_t probe_val = t.GetInt(probe, 0);
  std::string probe_str(t.GetStringView(probe, 2));

  const std::string path = TempArchive("evict");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;  // evict every frozen block
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 6; ++e) mgr.Tick();

    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.freezes, 8u);
    EXPECT_GE(s.evictions, 8u);
    EXPECT_EQ(s.resident_bytes, 0u);
    EXPECT_EQ(t.FrozenBytes(), 0u);  // nothing resident
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;

    // A point access on an evicted chunk reads the spine and the pages
    // that hold its row from the archive, one read per column; the chunk
    // stays evicted and nothing is installed.
    const uint64_t reads_before = mgr.stats().archive_reads;
    EXPECT_EQ(t.GetInt(probe, 0), probe_val);
    EXPECT_EQ(t.GetStringView(probe, 2), probe_str);
    EXPECT_EQ(t.chunk_state(1), ChunkState::kEvicted);
    EXPECT_EQ(mgr.stats().archive_reads, reads_before + 2);
    // Nor does a tick install it.
    mgr.Tick();
    EXPECT_EQ(t.chunk_state(1), ChunkState::kEvicted);

    // A full scan over the evicted table matches the never-frozen scan.
    EXPECT_TRUE(FullScan(t) == before);
    EXPECT_TRUE(FullScan(t, ScanMode::kJit) == before);

    // Deletes on evicted chunks do NOT reload the block.
    mgr.Tick();
    const uint64_t reads_before_delete = mgr.stats().archive_reads;
    t.Delete(MakeRowId(2, 3));
    EXPECT_EQ(t.chunk_state(2), ChunkState::kEvicted);
    EXPECT_EQ(mgr.stats().archive_reads, reads_before_delete);
    ScanResult after_delete = FullScan(t);
    EXPECT_EQ(after_delete.count, before.count - 1);
  }
  std::remove(path.c_str());
}

// A destroyed manager reads nothing: its evicted chunks stay evicted and
// reads of them throw (no fetcher), while the hot, frozen and tombstoned
// chunks and every delete bitmap answer as before. The archive file goes.
TEST(Lifecycle, DetachLeavesEvictedChunksEvicted) {
  constexpr uint32_t kCap = 512;
  Table t = MakeTable(5 * kCap, kCap);  // 5 full chunks
  for (size_t c = 0; c < 3; ++c) ASSERT_TRUE(t.FreezeChunk(c));
  for (uint32_t r = 0; r < kCap; ++r) t.Delete(MakeRowId(2, r));
  for (size_t c : {0, 1, 3, 4})
    for (uint32_t r = 0; r < kCap; r += 7) t.Delete(MakeRowId(c, r));
  const std::string path = TempArchive("detach");
  obs::TraceRing ring;
  obs::Counter* bytes_read = obs::MetricsRegistry::Default().GetCounter(
      "lifecycle.archive_bytes_read");
  std::vector<bool> visible;
  std::map<RowId, int64_t> resident;  // visible rows of chunks 3 and 4
  uint64_t num_visible = 0, bytes_before = 0, events_before = 0;
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;  // evict every frozen block
    cfg.trace = &ring;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // evicts 0 and 1, tombstones 2; 3 and 4 stay hot
    ASSERT_EQ(t.chunk_state(0), ChunkState::kEvicted);
    ASSERT_EQ(t.chunk_state(1), ChunkState::kEvicted);
    ASSERT_EQ(t.chunk_state(2), ChunkState::kTombstone);
    ASSERT_TRUE(t.FreezeChunk(3));  // frozen, never archived
    ASSERT_EQ(t.chunk_state(4), ChunkState::kHot);
    // Readable while the manager is attached.
    EXPECT_EQ(t.GetInt(MakeRowId(1, 1), 0), int64_t(kCap + 1));
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      for (uint32_t r = 0; r < kCap; ++r) {
        const RowId id = MakeRowId(c, r);
        visible.push_back(t.IsVisible(id));
        if (c >= 3 && visible.back()) resident[id] = t.GetInt(id, 1);
      }
    }
    num_visible = t.num_visible();
    bytes_before = bytes_read->Value();
    events_before = ring.published();
  }
  // Nothing was read on the way out: no bytes, and no trace event at all.
  EXPECT_EQ(bytes_read->Value(), bytes_before);
  EXPECT_EQ(ring.published(), events_before);
  EXPECT_FALSE(std::filesystem::exists(path));

  EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
  EXPECT_EQ(t.chunk_state(1), ChunkState::kEvicted);
  EXPECT_EQ(t.chunk_state(2), ChunkState::kTombstone);
  EXPECT_EQ(t.chunk_state(3), ChunkState::kFrozen);
  EXPECT_EQ(t.chunk_state(4), ChunkState::kHot);
  for (size_t c = 0; c < 2; ++c) {
    try {
      (void)t.GetValue(MakeRowId(c, 1), 0);
      ADD_FAILURE() << "read of evicted chunk " << c << " returned";
    } catch (const StorageException& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kUnavailable) << c;
    }
  }
  for (ScanMode mode :
       {ScanMode::kJit, ScanMode::kVectorized, ScanMode::kVectorizedSarg,
        ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
    EXPECT_THROW(FullScan(t, mode), StorageException) << ScanModeName(mode);
  }
  for (const auto& [id, val] : resident) EXPECT_EQ(t.GetInt(id, 1), val);
  size_t i = 0;
  for (size_t c = 0; c < t.num_chunks(); ++c)
    for (uint32_t r = 0; r < kCap; ++r, ++i)
      EXPECT_EQ(t.IsVisible(MakeRowId(c, r)), bool(visible[i])) << c << "/" << r;
  EXPECT_EQ(t.num_visible(), num_visible);
}

// Chunks frozen outside the policy (FreezeAll) count against the budget
// and evict like the ones a tick froze.
TEST(Lifecycle, ManuallyFrozenChunksEvictUnderTheBudget) {
  Table t = MakeTable(2048, 512);
  t.FreezeAll();
  const std::string path = TempArchive("manual_freeze");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.freezes, 0u);
    EXPECT_EQ(s.evictions, 4u);
    EXPECT_EQ(s.archived_blocks, 4u);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, EvictionReturnsBlockMemoryToTheOs) {
  // 11 chunks of 1.6 MB blocks: incompressible int64 columns plus a string
  // column whose 2.6 MB hot arenas are freed as the chunks freeze — the
  // shape of TPC-H's comment columns, where freed heap bytes would host the
  // blocks that follow.
  constexpr uint32_t kCap = 65536;
  Table t("wide", Schema({{"a", TypeId::kInt64},
                          {"b", TypeId::kInt64},
                          {"c", TypeId::kInt64},
                          {"s", TypeId::kString}}),
          kCap);
  Rng rng(11);
  std::array<Cell, 4> row;
  uint64_t expected = 0;  // unsigned: the sum wraps
  for (uint32_t i = 0; i < 11 * kCap; ++i) {
    for (int c = 0; c < 3; ++c) row[c] = Cell::Int(int64_t(rng.Next() >> 1));
    const std::string s(40, char('a' + rng.Uniform(0, 25)));
    row[3] = Cell::Str(s);
    expected += uint64_t(row[0].i64());
    t.Insert(row);
  }
  t.FreezeAll();
  const uint64_t frozen = t.FrozenBytes();
  ASSERT_GE(frozen, 16u << 20);

  const std::string path = TempArchive("rss");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;  // evict every frozen block
    LifecycleManager mgr(&t, path, cfg);
    const uint64_t before = ResidentBytes();
    mgr.Tick();
    const uint64_t after = ResidentBytes();
    ASSERT_EQ(t.FrozenBytes(), 0u);
    EXPECT_GE(before - std::min(before, after), frozen * 3 / 4)
        << "RSS " << before << " -> " << after << " for " << frozen
        << " evicted bytes";

    // Scans of the evicted table read into the thread's one spare image:
    // once it has its pages, more scans add none.
    auto scan_sum = [&] {
      TableScanner scan(t, {0}, {}, ScanMode::kDataBlocks);
      Batch b;
      uint64_t sum = 0;
      while (scan.Next(&b)) {
        for (uint32_t i = 0; i < b.count; ++i)
          sum += uint64_t(b.cols[0].i64[i]);
      }
      return sum;
    };
    ASSERT_EQ(scan_sum(), expected);
    const uint64_t warm = ResidentBytes();
    for (int i = 0; i < 4; ++i) ASSERT_EQ(scan_sum(), expected);
    EXPECT_LE(ResidentBytes(), warm + (1 << 20));
  }
  std::remove(path.c_str());
}

TEST(Lifecycle, LruKeepsRecentlyTouchedBlocksResident) {
  Table t = MakeTable(4096, 512);  // 8 chunks
  t.FreezeAll();
  const std::string path = TempArchive("lru");
  {
    LifecycleConfig cfg = QuickCooling();
    // Budget for roughly half the blocks.
    cfg.memory_budget_bytes = t.FrozenBytes() / 2;
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 3; ++e) {
      // Touch chunks 6 and 7 every epoch.
      (void)t.GetInt(MakeRowId(6, 1), 1);
      (void)t.GetInt(MakeRowId(7, 1), 1);
      mgr.Tick();
    }
    // The recently-touched chunks survived; some cold chunk was evicted.
    EXPECT_EQ(t.chunk_state(6), ChunkState::kFrozen);
    EXPECT_EQ(t.chunk_state(7), ChunkState::kFrozen);
    EXPECT_GT(mgr.stats().evictions, 0u);
    EXPECT_LE(mgr.stats().resident_bytes, cfg.memory_budget_bytes);
  }
  std::remove(path.c_str());
}

// Acceptance: on a TPC-C-populated table with deletes and string columns,
// chunks freeze automatically after cooling, evict under a memory budget,
// and a subsequent full-table scan returns results identical to the
// never-evicted table.
TEST(Lifecycle, TpccTablesSurviveFullLifecycleWithIdenticalScans) {
  tpcc::TpccConfig cfg;
  cfg.num_warehouses = 1;
  cfg.num_items = 2000;
  cfg.customers_per_district = 60;
  cfg.orders_per_district = 60;
  cfg.chunk_capacity = 1024;
  tpcc::TpccDatabase db(cfg);
  db.Load();

  // OLTP traffic: creates hot-tail inserts, deletes in neworder (Delivery)
  // and in-place updates on order/orderline.
  Rng rng(123);
  for (int i = 0; i < 400; ++i) db.RunMixedTransaction(rng);

  // Extra deletes on the string-bearing history table so the archived
  // blocks carry both dictionaries and delete bitmaps. (History has no
  // count invariant; deleting order lines would break sum(O_OL_CNT) =
  // |ORDER-LINE|, which CheckConsistency verifies.)
  for (uint32_t r = 0; r < db.history.chunk_rows(0); r += 11)
    db.history.Delete(MakeRowId(0, r));

  // Per-table scans including each table's string column where it has one:
  // orderline.dist_info (9), history.data (7).
  struct Target {
    const Table* table;
    std::vector<uint32_t> cols;
    int str_slot;  // index into cols of a string column, -1 if none
  };
  std::vector<Target> targets = {
      {&db.orderline, {0, 4, 9}, 2},
      {&db.neworder, {0, 1, 2}, -1},
      {&db.order, {0, 3, 6}, -1},
      {&db.history, {0, 6, 7}, 2},
  };
  auto scan_tables = [&] {
    std::vector<ScanResult> out;
    for (const Target& tg : targets) {
      TableScanner scan(*tg.table, tg.cols, {}, ScanMode::kDataBlocks);
      Batch b;
      ScanResult r;
      while (scan.Next(&b)) {
        for (uint32_t i = 0; i < b.count; ++i) {
          ++r.count;
          for (int s = 0; s < 2; ++s) {
            const ColumnVector& cv = b.cols[size_t(s)];
            r.sum += cv.i32.empty() ? (cv.i64.empty() ? 0 : cv.i64[i])
                                    : cv.i32[i];
          }
          if (tg.str_slot >= 0) {
            r.str_hash ^= std::hash<std::string_view>()(
                              b.cols[size_t(tg.str_slot)].Str(i)) +
                          0x9e3779b9 + (r.str_hash << 6) + (r.str_hash >> 2);
          }
        }
      }
      out.push_back(r);
    }
    return out;
  };

  std::vector<ScanResult> before = scan_tables();
  std::string msg;
  ASSERT_TRUE(db.CheckConsistency(&msg)) << msg;

  LifecycleConfig lcfg = QuickCooling();
  lcfg.memory_budget_bytes = 0;  // evict everything that freezes
  db.EnableLifecycle(lcfg, "/tmp");
  // The policy freezes full chunks only: freeze each managed table's
  // partial tail by hand, so every chunk goes on to eviction.
  for (Table* t : {&db.history, &db.neworder, &db.order, &db.orderline})
    t->FreezeChunk(t->num_chunks() - 1);
  for (int e = 0; e < 8; ++e) db.LifecycleTick();

  // The whole lifecycle ran: chunks froze and were evicted.
  const LifecycleStats s = db.lifecycle()->stats();
  EXPECT_GT(s.freezes, 0u);
  EXPECT_GT(s.evictions, 0u);
  for (size_t c = 0; c < db.orderline.num_chunks(); ++c)
    EXPECT_NE(db.orderline.chunk_state(c), ChunkState::kHot) << c;

  // Scans over the frozen+evicted tables are identical.
  std::vector<ScanResult> after = scan_tables();
  for (size_t i = 0; i < before.size(); ++i)
    EXPECT_TRUE(before[i] == after[i]) << "table " << i;

  // OLTP keeps running on the lifecycle-managed database: updates to
  // frozen rows become delete + reinsert, point reads read evicted
  // chunks from the archive, and the TPC-C invariants still hold.
  for (int i = 0; i < 200; ++i) db.RunMixedTransaction(rng);
  for (int e = 0; e < 3; ++e) db.LifecycleTick();
  ASSERT_TRUE(db.CheckConsistency(&msg)) << msg;
}

// Tentpole acceptance: a scan whose predicate excludes every evicted
// block's SMA range performs ZERO archive payload reads — the resident
// BlockSummary answers the pruning question, and the blocks are neither
// opened, reloaded nor promoted in the LRU.
TEST(Lifecycle, SummaryPruningSkipsEvictedBlocksWithoutArchiveReads) {
  Table t = MakeTable(4096, 512);  // 8 full chunks, id == insert index
  const std::string path = TempArchive("summary_prune");
  obs::TraceRing ring;
  obs::Counter* bytes_counter = obs::MetricsRegistry::Default().GetCounter(
      "lifecycle.archive_bytes_read");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;  // evict every frozen block
    cfg.trace = &ring;
    LifecycleManager mgr(&t, path, cfg);
    for (int e = 0; e < 4; ++e) mgr.Tick();
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_NE(t.block_summary(c), nullptr) << c;

    const uint64_t reads_before = mgr.stats().archive_reads;

    // ids are 0..4095; this predicate lies outside every block's SMA range.
    for (ScanMode mode : {ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma,
                          ScanMode::kVectorizedSarg}) {
      TableScanner scan(t, {0, 1}, {Predicate::Gt(0, Value::Int(100000))},
                        mode);
      Batch b;
      uint64_t found = 0;
      while (scan.Next(&b)) found += b.count;
      EXPECT_EQ(found, 0u);
      EXPECT_EQ(scan.chunks_skipped(), t.num_chunks());
      EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks());
    }
    // No payload was fetched, nothing was reloaded, nothing was promoted.
    EXPECT_EQ(mgr.stats().archive_reads, reads_before);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;

    // A predicate inside exactly one block's range reads exactly that
    // block — only its spine and the extents of the scanned columns {0, 1},
    // into the scanner's own image: the chunk is not reinstalled. The other
    // seven stay summary-pruned.
    const uint64_t bytes_before = mgr.stats().archive_bytes_read;
    const uint64_t counter_before = bytes_counter->Value();
    const uint64_t events_before = ring.published();
    TableScanner scan(t, {0, 1},
                      {Predicate::Between(0, Value::Int(1024 + 10),
                                          Value::Int(1024 + 19))},
                      ScanMode::kDataBlocks);
    Batch b;
    uint64_t found = 0;
    while (scan.Next(&b)) found += b.count;
    EXPECT_EQ(found, 10u);
    EXPECT_EQ(scan.chunks_skipped(), t.num_chunks() - 1);
    EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks() - 1);
    EXPECT_EQ(scan.archive_reloads(), 1u);
    const LifecycleStats after = mgr.stats();
    EXPECT_EQ(after.archive_reads, reads_before + 1);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    // Spine + extents of attributes 0 and 1 end where attribute 2's begins.
    const BlockArchive* archive = mgr.archive();
    const std::vector<ArchiveEntry> entries = archive->EntriesSnapshot();
    size_t id = 0;
    while (entries[id].chunk_index != 2) ++id;
    StatusOr<DataBlock> whole = archive->ReadBlock(id);
    ASSERT_TRUE(whole.ok());
    std::vector<uint64_t> begins;
    ASSERT_TRUE(whole->Extents(&begins).ok());
    const uint64_t read = after.archive_bytes_read - bytes_before;
    EXPECT_GT(read, 0u);
    EXPECT_LE(read, begins[2]);
    EXPECT_LT(begins[2], whole->SizeBytes());
    // The process-wide counter and the trace agree: one scan_read of chunk
    // 2 carrying those bytes.
    EXPECT_EQ(bytes_counter->Value() - counter_before, read);
    int scan_reads = 0;
    for (const obs::TraceEvent& ev : ring.Snapshot()) {
      if (ev.seq < events_before) continue;
      if (std::string(ev.name) != "scan_read") continue;
      ++scan_reads;
      EXPECT_EQ(ev.a, 2);
      EXPECT_EQ(uint64_t(ev.b), read);
    }
    EXPECT_EQ(scan_reads, 1);
  }
  std::remove(path.c_str());
}

// Only an eviction makes a chunk's summary: a victim whose append failed
// stays frozen and resident without one, also after its manager detached.
// A second manager then evicts every chunk, each with a summary of its own
// block, and a pruned scan of them reads nothing from the archive. The
// first manager evicts nothing: every append it tries fails (a chunk it
// evicted would stay evicted, unreadable, once it detached).
TEST(Lifecycle, SecondManagerEvictsWithSummariesAfterFailedAppends) {
  Table t = MakeTestTable(2048, 512, /*delete_every=*/0, /*freeze=*/true);
  const std::string first_path = TempArchive("reuse_first");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, first_path, cfg);
    ASSERT_TRUE(fail::FailpointRegistry::Instance().Arm(
        "archive.append.nospace", "always"));
    // Each tick tries one append, the LRU victim's; reading the chunks
    // tried so far makes the next chunk the oldest.
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      mgr.Tick();
      EXPECT_EQ(t.block_summary(c), nullptr) << c;
      for (size_t k = 0; k <= c; ++k) (void)t.GetInt(MakeRowId(k, 0), 0);
    }
    fail::FailpointRegistry::Instance().Disarm("archive.append.nospace");
    ASSERT_EQ(mgr.stats().write_failures, t.num_chunks());
    ASSERT_EQ(mgr.stats().evictions, 0u);
    ASSERT_EQ(mgr.stats().archived_blocks, 0u);
    EXPECT_EQ(mgr.stats().summary_bytes, 0u);
  }
  EXPECT_FALSE(std::filesystem::exists(first_path));
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    ASSERT_EQ(t.chunk_state(c), ChunkState::kFrozen) << c;
    ASSERT_EQ(t.block_summary(c), nullptr) << c;
  }

  const std::string path = TempArchive("reuse_second");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // evict everything
    EXPECT_EQ(mgr.stats().evictions, t.num_chunks());
    EXPECT_GT(mgr.stats().summary_bytes, 0u);
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
      ASSERT_NE(t.block_summary(c), nullptr) << c;
      EXPECT_EQ(t.block_summary(c)->row_count(), t.chunk_rows(c)) << c;
    }
    const uint64_t reads = mgr.stats().archive_reads;
    const uint64_t bytes = mgr.stats().archive_bytes_read;
    TableScanner scan(t, {0}, {Predicate::Gt(0, Value::Int(1 << 20))},
                      ScanMode::kDataBlocks);
    Batch b;
    while (scan.Next(&b)) {
    }
    EXPECT_EQ(scan.evicted_chunks_skipped(), t.num_chunks());
    EXPECT_EQ(mgr.stats().archive_reads, reads);
    EXPECT_EQ(mgr.stats().archive_bytes_read, bytes);
  }
  std::remove(path.c_str());
}

// Ticks alone tombstone fully-deleted frozen chunks, resident and evicted
// alike (their payload dropped from memory), and release the archive
// blocks of the evicted ones in place; a resident one was never written.
// Live evicted blocks stay put and readable.
TEST(Lifecycle, TicksReleaseFullyDeletedBlocks) {
  Table t = MakeTable(4096, 512);  // 8 full chunks
  t.FreezeAll();
  Table ref = MakeTable(4096, 512);
  ref.FreezeAll();
  const std::string path = TempArchive("release");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = (t.FrozenBytes() / 8) * 5 / 2;  // ~2.5 blocks
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // evict the lowest indexes down to 6 and 7
    ASSERT_EQ(mgr.stats().archived_blocks, 6u);
    ASSERT_TRUE(t.is_evicted(0) && t.is_evicted(1));
    ASSERT_EQ(t.chunk_state(7), ChunkState::kFrozen);
    const LifecycleStats before = mgr.stats();

    // Fully delete evicted chunks 0 and 1 and resident chunk 7 (deletes
    // on evicted chunks do not reload).
    const std::vector<size_t> dead = {0, 1, 7};
    auto is_dead = [&](size_t c) {
      return std::find(dead.begin(), dead.end(), c) != dead.end();
    };
    uint64_t dead_bytes = 0;
    for (const ArchiveEntry& e : mgr.archive()->EntriesSnapshot())
      if (is_dead(e.chunk_index)) dead_bytes += e.block_bytes;
    for (size_t c : dead) {
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r) {
        t.Delete(MakeRowId(c, r));
        ref.Delete(MakeRowId(c, r));
      }
    }
    mgr.Tick();
    const LifecycleStats s = mgr.stats();
    for (size_t c : dead)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kTombstone) << c;
    EXPECT_EQ(s.tombstoned, 3u);
    EXPECT_EQ(s.reclaimed_blocks, 2u);  // 0 and 1; 7 was never written
    EXPECT_EQ(s.reclaimed_bytes, dead_bytes);
    EXPECT_EQ(s.archived_blocks, 4u);
    EXPECT_EQ(s.archive_bytes, before.archive_bytes - dead_bytes);
    EXPECT_EQ(s.archive_reads, before.archive_reads);  // nothing read back
    for (const ArchiveEntry& e : mgr.archive()->EntriesSnapshot())
      EXPECT_EQ(e.released, is_dead(e.chunk_index)) << e.chunk_index;

    // The live chunks read the same as a resident table's, the evicted
    // ones from the archive; the tombstones are skipped unopened.
    for (size_t c = 2; c < 6; ++c) EXPECT_TRUE(t.is_evicted(c)) << c;
    EXPECT_TRUE(FullScan(t) == FullScan(ref));
    TableScanner scan(t, {0, 1, 2}, {}, ScanMode::kJit);
    Batch b;
    int64_t count = 0;
    while (scan.Next(&b)) count += b.count;
    EXPECT_EQ(count, int64_t(4096 - 3 * 512));
    EXPECT_EQ(scan.chunks_skipped(), 3u);
    mgr.Tick();  // chunk 6 fits the budget: nothing more is written
    EXPECT_EQ(mgr.stats().archived_blocks, 4u);
    EXPECT_EQ(mgr.stats().reclaimed_blocks, 2u);
    EXPECT_EQ(t.chunk_state(6), ChunkState::kFrozen);
  }
  // The archive is scratch: the manager deletes it.
  EXPECT_FALSE(std::filesystem::exists(path));
}

// The tombstone transition itself: only fully-deleted frozen/evicted
// chunks qualify, and a tombstoned chunk answers scans and visibility
// checks from the delete bitmap alone.
TEST(Lifecycle, TombstoneDropsPayloadOfFullyDeletedChunks) {
  Table t = MakeTable(1024, 512);  // 2 full chunks
  t.FreezeAll();
  const uint64_t frozen_before = t.FrozenBytes();

  EXPECT_FALSE(t.TombstoneChunk(0));  // not fully deleted yet
  for (uint32_t r = 0; r < 512; ++r) t.Delete(MakeRowId(0, r));

  EXPECT_TRUE(t.TombstoneChunk(0));
  EXPECT_EQ(t.chunk_state(0), ChunkState::kTombstone);
  EXPECT_EQ(t.tombstones(), 1u);
  EXPECT_FALSE(t.TombstoneChunk(0));  // terminal: no second transition
  EXPECT_LT(t.FrozenBytes(), frozen_before);
  EXPECT_EQ(t.frozen_block(0), nullptr);

  // Scans skip the tombstone in every mode; chunk 1 is unharmed.
  for (ScanMode mode : {ScanMode::kJit, ScanMode::kVectorized,
                        ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
    TableScanner scan(t, {0, 1, 2}, {}, mode);
    Batch b;
    int64_t count = 0;
    while (scan.Next(&b)) count += b.count;
    EXPECT_EQ(count, 512) << ScanModeName(mode);
    EXPECT_GE(scan.chunks_skipped(), 1u) << ScanModeName(mode);
  }
  // Visibility and repeated deletes keep working off the delete bitmap.
  EXPECT_FALSE(t.IsVisible(MakeRowId(0, 17)));
  t.Delete(MakeRowId(0, 17));  // idempotent no-op
  EXPECT_EQ(t.num_visible(), 512u);
}

/// Deletes every row of chunk `c` except `keep` (UINT32_MAX: every row).
void DeleteChunkRows(Table& t, size_t c, uint32_t keep = UINT32_MAX) {
  for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
    if (r != keep) t.Delete(MakeRowId(c, r));
}

using RowMap = std::map<int64_t, std::pair<int64_t, std::string>>;

/// Every visible row of a MakeTestTable table as `mode` scans it:
/// id -> (val, name).
RowMap ScanRows(const Table& t, ScanMode mode) {
  RowMap rows;
  TableScanner scan(t, {0, 1, 2}, {}, mode);
  Batch b;
  while (scan.Next(&b)) {
    for (uint32_t i = 0; i < b.count; ++i)
      rows[b.cols[0].i64[i]] = {b.cols[1].i32[i],
                                std::string(b.cols[2].Str(i))};
  }
  return rows;
}

// The archive holds only what was evicted: freezing writes nothing, an
// eviction writes its block once (and the chunk reads back as before), a
// chunk fully deleted while resident is tombstoned unwritten, and a failed
// append leaves its victim resident until a later tick evicts it.
TEST(Lifecycle, ArchivesOnlyWhatItEvicts) {
  constexpr uint32_t kCap = 512;
  constexpr size_t kChunks = 8, kKept = 3, kEvicted = kChunks - kKept;
  const std::string path = TempArchive("only_evicted");
  LifecycleConfig evict_all = QuickCooling();
  evict_all.memory_budget_bytes = 0;
  {  // No budget: ticks freeze every full chunk and write nothing.
    Table t = MakeTable(kChunks * kCap, kCap);
    LifecycleManager mgr(&t, path, QuickCooling());
    for (int e = 0; e < 4; ++e) mgr.Tick();
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.freezes, kChunks);
    EXPECT_EQ(s.archived_blocks, 0u);
    EXPECT_EQ(s.archive_bytes, 0u);
    EXPECT_EQ(mgr.archive()->PayloadBytes(), 0u);
  }
  {  // A budget that fits the last kKept blocks: ages tie, so the lowest
     // indexes evict, each written once, just before it left memory.
    Table t = MakeTestTable(kChunks * kCap, kCap, /*delete_every=*/7,
                            /*freeze=*/true);
    uint64_t kept_bytes = 0, evicted_bytes = 0;
    for (size_t c = 0; c < kChunks; ++c)
      (c < kEvicted ? evicted_bytes : kept_bytes) +=
          t.frozen_block(c)->SizeBytes();
    const std::vector<ScanMode> modes = {
        ScanMode::kJit, ScanMode::kVectorized, ScanMode::kVectorizedSarg,
        ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma};
    std::vector<RowMap> scans;
    for (ScanMode mode : modes) scans.push_back(ScanRows(t, mode));
    std::map<std::pair<RowId, uint32_t>, Value> points;
    for (size_t c = 0; c < kEvicted; ++c) {
      for (uint32_t r = 0; r < kCap; r += 5) {
        const RowId id = MakeRowId(c, r);
        if (!t.IsVisible(id)) continue;
        for (uint32_t col = 0; col < 3; ++col)
          points.emplace(std::pair(id, col), t.GetValue(id, col));
      }
    }
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = kept_bytes;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.evictions, kEvicted);
    EXPECT_EQ(s.archived_blocks, kEvicted);
    EXPECT_EQ(s.archive_bytes, evicted_bytes);
    EXPECT_EQ(mgr.archive()->PayloadBytes(), evicted_bytes);
    EXPECT_EQ(s.resident_bytes, kept_bytes);
    for (size_t c = 0; c < kChunks; ++c) {
      EXPECT_EQ(t.chunk_state(c),
                c < kEvicted ? ChunkState::kEvicted : ChunkState::kFrozen)
          << c;
    }
    for (size_t i = 0; i < modes.size(); ++i)
      EXPECT_TRUE(ScanRows(t, modes[i]) == scans[i]) << ScanModeName(modes[i]);
    for (const auto& [at, value] : points) {
      const auto& [id, col] = at;
      EXPECT_TRUE(t.GetValue(id, col) == value)
          << RowIdChunk(id) << "/" << RowIdRow(id) << "/" << col;
    }
    mgr.Tick();  // the resident blocks fit: nothing more is written
    EXPECT_EQ(mgr.archive()->PayloadBytes(), evicted_bytes);
  }
  {  // A chunk fully deleted while resident is tombstoned, never written.
    Table t = MakeTestTable(4 * kCap, kCap, 0, /*freeze=*/true);
    DeleteChunkRows(t, 0);
    LifecycleManager mgr(&t, path, evict_all);
    mgr.Tick();
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kTombstone);
    EXPECT_EQ(s.tombstoned, 1u);
    EXPECT_EQ(s.reclaimed_blocks, 0u);
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_EQ(s.archived_blocks, 3u);
    const std::vector<ArchiveEntry> entries =
        mgr.archive()->EntriesSnapshot();
    EXPECT_EQ(entries.size(), 3u);
    for (const ArchiveEntry& e : entries) EXPECT_NE(e.chunk_index, 0u);
  }
  {  // A failed append leaves its victim resident and readable; the next
     // tick evicts it.
    Table t = MakeTestTable(2 * kCap, kCap, 0, /*freeze=*/true);
    const RowId probe = MakeRowId(0, 9);
    const Value name = t.GetValue(probe, 2);
    LifecycleManager mgr(&t, path, evict_all);
    ASSERT_TRUE(fail::FailpointRegistry::Instance().Arm(
        "archive.append.nospace", "once"));
    mgr.Tick();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
    EXPECT_EQ(t.chunk_state(1), ChunkState::kFrozen);
    EXPECT_EQ(s.write_failures, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.archived_blocks, 0u);
    EXPECT_TRUE(t.GetValue(probe, 2) == name);
    mgr.Tick();
    fail::FailpointRegistry::Instance().Disarm("archive.append.nospace");
    s = mgr.stats();
    EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
    EXPECT_EQ(t.chunk_state(1), ChunkState::kEvicted);
    EXPECT_EQ(s.write_failures, 1u);
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.archived_blocks, 2u);
    EXPECT_TRUE(t.GetValue(probe, 2) == name);
  }
}

/// What FullScan returns over the MakeTable(n, cap) table once chunks
/// [0, dead) are fully deleted, the `victims` chunks after them keep only
/// their row 0, and the highest `gone` of those victims lost row 0 too.
ScanResult VictimScan(uint32_t n, uint32_t cap, size_t dead, size_t victims,
                      size_t gone) {
  Table ref = MakeTable(n, cap);
  ref.FreezeAll();
  for (size_t c = 0; c < dead; ++c) DeleteChunkRows(ref, c);
  for (size_t v = 0; v < victims; ++v)
    DeleteChunkRows(ref, dead + v, v + gone >= victims ? UINT32_MAX : 0);
  return FullScan(ref);
}

/// Scan results on either side of one row's delete: a scan racing it sees
/// the row or does not, and nothing in between.
struct EitherScan {
  ScanResult before, after;
  bool Matches(const ScanResult& r) const { return r == before || r == after; }
};

// Tombstones and archive releases racing scans and point reads: a block
// may be released only once no read of it is in flight. A punched range
// reads as zeros, which fail their page checksums, and a released id reads
// as kNotFound, so a release that came too early fails a read: a scan
// throws, or a point read counts a reload failure. Mid-run, victim chunks
// lose their last live row one after another, and each is tombstoned and
// released right away while point readers keep reading its (deleted) rows
// from the archive and scans may be streaming it. (This is the test the
// TSan CI leg leans on for the tombstone-then-release handshake.)
TEST(Lifecycle, ReleaseConcurrentWithScansIsConsistent) {
  // Chunks [0, kDead) die before the run; the victims after them keep row
  // 0 until mid-run; the last chunk stays live. Every scan touches every
  // chunk in one epoch, so the lowest indexes are evicted first and only
  // the last chunk stays resident.
  constexpr size_t kDead = 5, kVictims = 6;
  Table t = MakeTable(12288, 1024);  // 12 chunks
  t.FreezeAll();
  for (size_t v = 0; v < kVictims; ++v) DeleteChunkRows(t, kDead + v, 0);
  // Victims die highest first while scans run lowest first, so a scan sees
  // the k highest victims gone, for some k.
  std::vector<ScanResult> expect;
  for (size_t k = 0; k <= kVictims; ++k)
    expect.push_back(VictimScan(12288, 1024, kDead, kVictims, k));
  const std::string path = TempArchive("release_stress");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = (t.FrozenBytes() / 12) * 3 / 2;
    cfg.tick_interval = std::chrono::milliseconds(1);
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // evict every frozen chunk but the last
    // The first background tick tombstones these and releases their
    // blocks while the workers are reading.
    for (size_t c = 0; c < kDead; ++c) DeleteChunkRows(t, c);
    ASSERT_TRUE(FullScan(t) == expect[0]);
    mgr.Start();

    std::atomic<bool> failed{false}, victims_done{false};
    auto scan_worker = [&] {
      for (int i = 0; i < 6 || (i < 20000 && !victims_done.load()); ++i) {
        try {
          const ScanResult r = FullScan(t);
          if (std::find(expect.begin(), expect.end(), r) == expect.end())
            failed = true;
        } catch (const StorageException&) {
          failed = true;  // a block read after its release
        }
      }
    };
    // Point reads do not look at the delete bitmap: they read a victim's
    // rows from the archive until it tombstones, and then throw kNotFound.
    // Rows spread over several victims keep the point image missing.
    auto point_worker = [&](uint64_t seed) {
      Rng rng(seed);
      for (int i = 0; i < 2000 || (i < 200000 && !victims_done.load());
           ++i) {
        const size_t chunk = size_t(rng.Uniform(kDead, kDead + kVictims - 1));
        const uint32_t row = uint32_t(rng.Uniform(0, 1023));
        try {
          if (t.GetInt(MakeRowId(chunk, row), 0) !=
              int64_t(chunk) * 1024 + row) {
            failed = true;
          }
        } catch (const StorageException&) {
          // A tombstone; a failed archive read counts a reload failure.
        }
      }
    };
    // Once the first releases are in, each victim's last row goes in turn
    // and a tick tombstones it at once, waiting for the reads that stream
    // it, then releases its block.
    auto victim_worker = [&] {
      while (mgr.stats().reclaimed_blocks == 0 && !failed.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (size_t v = kVictims; v-- > 0;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        t.Delete(MakeRowId(kDead + v, 0));
        mgr.Tick();
      }
      victims_done = true;
    };
    std::vector<std::thread> workers;
    workers.emplace_back(scan_worker);
    workers.emplace_back(scan_worker);
    workers.emplace_back(point_worker, 31);
    workers.emplace_back(point_worker, 32);
    workers.emplace_back(victim_worker);
    for (auto& w : workers) w.join();
    mgr.Stop();

    EXPECT_FALSE(failed.load());
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.reload_failures, 0u);
    EXPECT_EQ(s.quarantined, 0u);
    for (size_t v = 0; v < kVictims; ++v)
      EXPECT_EQ(t.chunk_state(kDead + v), ChunkState::kTombstone) << v;
    EXPECT_EQ(s.tombstoned, kDead + kVictims);
    EXPECT_EQ(s.reclaimed_blocks, kDead + kVictims);
    EXPECT_TRUE(FullScan(t) == expect[kVictims]);
  }
  std::remove(path.c_str());
}

// Scans, parallel scans and point accesses racing a background tick that
// keeps evicting what they touch. Mid-run, the last live row of a victim
// chunk is deleted, so it tombstones while scans may be streaming it.
TEST(Lifecycle, ScansConcurrentWithEvictionReturnConsistentResults) {
  constexpr size_t kVictim = 0;  // scanned first: the LRU victim
  Table t = MakeTable(20480, 1024);  // 20 chunks
  t.FreezeAll();
  DeleteChunkRows(t, kVictim, /*keep=*/0);
  const EitherScan expect{VictimScan(20480, 1024, kVictim, 1, 0),
                          VictimScan(20480, 1024, kVictim, 1, 1)};
  ASSERT_TRUE(FullScan(t) == expect.before);

  const std::string path = TempArchive("stress");
  {
    LifecycleConfig cfg = QuickCooling();
    // Budget for ~3 blocks: most chunks stay evicted, and scans and point
    // accesses read them from the archive while background ticks run on
    // the default pool.
    cfg.memory_budget_bytes = (t.FrozenBytes() / 20) * 3;
    cfg.tick_interval = std::chrono::milliseconds(1);
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // evict down to ~3 resident
    obs::Counter* point_reads =
        obs::MetricsRegistry::Default().GetCounter("lifecycle.point_reads");
    const uint64_t point_reads_before = point_reads->Value();
    mgr.Start();

    std::atomic<bool> failed{false};
    std::atomic<int> scans_done{0};
    // Scans keep going until the victim has tombstoned under them.
    auto scan_worker = [&] {
      for (int i = 0; i < 6 || (i < 5000 && t.chunk_state(kVictim) !=
                                                ChunkState::kTombstone);
           ++i) {
        ScanResult r = FullScan(t);
        if (!expect.Matches(r)) failed = true;
        scans_done.fetch_add(1);
      }
    };
    auto point_worker = [&] {
      Rng rng(17);
      for (int i = 0; i < 3000; ++i) {
        uint64_t chunk = uint64_t(rng.Uniform(kVictim + 1, 19));
        uint32_t row = uint32_t(rng.Uniform(0, 1023));
        RowId id = MakeRowId(chunk, row);
        // The id column stores the global insert index.
        if (t.GetInt(id, 0) != int64_t(chunk) * 1024 + row) failed = true;
        (void)t.GetStringView(id, 2);
      }
    };
    auto parallel_worker = [&] {
      for (int i = 0; i < 3; ++i) {
        struct Agg { int64_t count = 0; };
        auto states = ParallelScan<Agg>(
            t, {1}, {}, ScanMode::kDataBlocks, 4, [] { return Agg{}; },
            [](Agg& a, const Batch& b) { a.count += b.count; });
        int64_t total = 0;
        for (const Agg& a : states) total += a.count;
        if (total != expect.before.count && total != expect.after.count)
          failed = true;
      }
    };
    auto victim_worker = [&] {
      while (scans_done.load() == 0 && !failed.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      t.Delete(MakeRowId(kVictim, 0));
    };

    std::vector<std::thread> workers;
    workers.emplace_back(scan_worker);
    workers.emplace_back(scan_worker);
    workers.emplace_back(point_worker);
    workers.emplace_back(parallel_worker);
    workers.emplace_back(victim_worker);
    for (auto& w : workers) w.join();
    mgr.Stop();
    mgr.Tick();  // no scan left: the victim tombstones now if not before

    EXPECT_FALSE(failed.load());
    EXPECT_GT(scans_done.load(), 0);
    // The churn actually happened: point accesses and scans read evicted
    // chunks from the archive without installing them.
    EXPECT_GT(mgr.stats().evictions, 0u);
    EXPECT_GT(point_reads->Value(), point_reads_before);
    EXPECT_GT(mgr.stats().archive_reads, 0u);
    EXPECT_EQ(t.chunk_state(kVictim), ChunkState::kTombstone);
    EXPECT_TRUE(FullScan(t) == expect.after);
  }
  std::remove(path.c_str());
}


// -- Point reads of evicted chunks ---------------------------------------

/// Every column type the engine stores, with NULLs and the compression
/// schemes that shape a point read: truncated, single-value and raw ints,
/// a date, a char(1), a raw double, dictionary and single-value strings,
/// and nullable ints and strings.
Schema AllTypesSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"small", TypeId::kInt32},
                 {"wide", TypeId::kInt64},
                 {"day", TypeId::kDate},
                 {"flag", TypeId::kChar1},
                 {"score", TypeId::kDouble},
                 {"name", TypeId::kString},
                 {"const_s", TypeId::kString},
                 {"opt_i", TypeId::kInt32, true},
                 {"opt_s", TypeId::kString, true}});
}

Table MakeAllTypesTable(uint32_t n, uint32_t chunk_capacity) {
  Table t("all_types", AllTypesSchema(), chunk_capacity);
  Rng rng(31);
  for (uint32_t i = 0; i < n; ++i) {
    t.Insert({Cell::Int(i),
              Cell::Int(int32_t(rng.Uniform(0, 200))),
              Cell::Int((i % 2 != 0 ? 1 : -1) * ((int64_t(1) << 41) + i)),
              Cell::Int(int32_t(9000 + rng.Uniform(0, 400))),
              Cell::Char("AFNR"[rng.Uniform(0, 3)]),
              Cell::Double(rng.NextDouble() * 1000),
              Cell::Str("name_" + std::to_string(rng.Uniform(0, 60))),
              Cell::Str("constant"),
              rng.Uniform(0, 3) == 0 ? Cell::Null()
                                     : Cell::Int(int32_t(rng.Uniform(0, 90))),
              rng.Uniform(0, 3) == 0
                  ? Cell::Null()
                  : Cell::Str("opt_" + std::to_string(rng.Uniform(0, 25)))});
  }
  t.FreezeAll();
  return t;
}

/// Every value of `t` through GetValue, row-major.
std::vector<Value> AllValues(const Table& t) {
  std::vector<Value> out;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    for (uint32_t r = 0; r < t.chunk_rows(c); ++r) {
      for (uint32_t col = 0; col < t.schema().num_columns(); ++col)
        out.push_back(t.GetValue(MakeRowId(c, r), col));
    }
  }
  return out;
}

// Point reads of an evicted chunk return the resident block's values for
// every column type — through GetValue and the typed getters — read only
// the spine and the pages that hold the rows, and leave the chunk evicted.
TEST(Lifecycle, PointReadsOfEvictedChunksMatchResidentBlocks) {
  Table t = MakeAllTypesTable(2000, 512);  // 3 full chunks + a partial one
  const std::vector<Value> resident = AllValues(t);
  const uint32_t ncols = t.schema().num_columns();
  const std::string path = TempArchive("point_reads");
  obs::TraceRing ring;
  obs::Counter* point_reads =
      obs::MetricsRegistry::Default().GetCounter("lifecycle.point_reads");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.trace = &ring;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    const LifecycleStats before = mgr.stats();
    const uint64_t counter_before = point_reads->Value();

    EXPECT_TRUE(AllValues(t) == resident);
    const LifecycleStats mid = mgr.stats();
    size_t i = 0;
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r) {
        const RowId id = MakeRowId(c, r);
        for (uint32_t col = 0; col < ncols; ++col, ++i) {
          const Value& v = resident[i];
          if (v.is_null()) continue;
          switch (t.schema().type(col)) {
            case TypeId::kString:
              ASSERT_EQ(t.GetStringView(id, col), v.str()) << c << "/" << r;
              break;
            case TypeId::kDouble:
              ASSERT_EQ(t.GetDouble(id, col), v.f64()) << c << "/" << r;
              break;
            default:
              ASSERT_EQ(t.GetInt(id, col), v.i64()) << c << "/" << r;
          }
        }
      }
    }

    // Each pass fetched every chunk's spine once and each page a row
    // needed once, never a page twice: the typed pass, which starts over
    // at chunk 0 after the image moved on, read what the GetValue pass
    // read. No pass read a whole block, nothing was installed, and every
    // read is counted, traced and fetched bytes.
    const LifecycleStats after = mgr.stats();
    const uint64_t reads = after.archive_reads - before.archive_reads;
    EXPECT_EQ(reads, 2 * (mid.archive_reads - before.archive_reads));
    EXPECT_EQ(after.archive_bytes_read - mid.archive_bytes_read,
              mid.archive_bytes_read - before.archive_bytes_read);
    EXPECT_EQ(after.archive_pages_read - mid.archive_pages_read,
              mid.archive_pages_read - before.archive_pages_read);
    EXPECT_EQ(point_reads->Value() - counter_before, reads);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    const BlockArchive* archive = mgr.archive();
    uint64_t block_bytes = 0, block_pages = 0, spines = 0;
    for (size_t b = 0; b < archive->num_blocks(); ++b) {
      StatusOr<DataBlock> whole = archive->ReadBlock(b);
      ASSERT_TRUE(whole.ok());
      std::vector<uint64_t> begins, first;
      ASSERT_TRUE(whole->Extents(&begins).ok());
      DataBlock::FirstPages(begins, &first);
      block_bytes += whole->SizeBytes();
      block_pages += first.back();
      spines += DataBlock::SpineBytes(ncols);
    }
    const uint64_t pass_bytes =
        mid.archive_bytes_read - before.archive_bytes_read;
    const uint64_t pass_pages =
        mid.archive_pages_read - before.archive_pages_read;
    EXPECT_GT(pass_pages, 0u);
    EXPECT_LE(pass_pages, block_pages);
    EXPECT_GT(pass_bytes, spines);
    EXPECT_LE(pass_bytes, spines + pass_pages * DataBlock::kPageBytes);
    EXPECT_LT(pass_bytes, block_bytes);
    int traced = 0;
    for (const obs::TraceEvent& ev : ring.Snapshot()) {
      if (std::string(ev.name) == "point_read") {
        ++traced;
        EXPECT_GT(ev.b, 0);
      }
    }
    EXPECT_EQ(uint64_t(traced), reads);

    // A view of an evicted row survives reads of other columns of the same
    // chunk, which only add pages to the thread's image.
    const RowId probe = MakeRowId(1, 7);
    const std::string_view name = t.GetStringView(probe, 6);
    const std::string copy(name);
    for (uint32_t col = 0; col < ncols; ++col) (void)t.GetValue(probe, col);
    EXPECT_EQ(name, copy);
    // The probe reads changed nothing: every value still matches.
    EXPECT_TRUE(AllValues(t) == resident);
  }
  std::remove(path.c_str());
}

/// Every encoding a point read meets, with extents of many pages: truncated
/// and raw ints, a date, a char(1), a raw double, single-value ints and
/// strings, nullable ints and strings, and dictionary strings of thousands
/// of entries and varied lengths, so codes, NULL words, entries and
/// strings fall on 4 KB page boundaries.
Schema PagedSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"small", TypeId::kInt32},
                 {"wide", TypeId::kInt64},
                 {"day", TypeId::kDate},
                 {"flag", TypeId::kChar1},
                 {"score", TypeId::kDouble},
                 {"konst", TypeId::kInt32},
                 {"const_s", TypeId::kString},
                 {"opt_i", TypeId::kInt32, true},
                 {"opt_s", TypeId::kString, true},
                 {"name", TypeId::kString}});
}

Table MakePagedTable(uint32_t n, uint32_t chunk_capacity) {
  Table t("paged", PagedSchema(), chunk_capacity);
  Rng rng(57);
  for (uint32_t i = 0; i < n; ++i) {
    t.Insert({Cell::Int(i),
              Cell::Int(int32_t(rng.Uniform(-70000, 70000))),
              Cell::Int((i % 2 != 0 ? 1 : -1) * ((int64_t(1) << 41) + i)),
              Cell::Int(int32_t(9000 + rng.Uniform(0, 400))),
              Cell::Char("AFNR"[rng.Uniform(0, 3)]),
              Cell::Double(rng.NextDouble() * 1000),
              Cell::Int(42),
              Cell::Str("constant"),
              rng.Uniform(0, 3) == 0 ? Cell::Null()
                                     : Cell::Int(int32_t(rng.Uniform(0, 90))),
              rng.Uniform(0, 3) == 0
                  ? Cell::Null()
                  : Cell::Str("opt_" + std::to_string(rng.Uniform(0, 25))),
              Cell::Str(std::to_string(rng.Uniform(0, 5000)) + "/" +
                         std::string(size_t(rng.Uniform(0, 120)), 'x'))});
  }
  t.FreezeAll();
  return t;
}

/// Rows of `block` whose point read of `col` touches bytes on both sides
/// of a page boundary of the column's extent, or right at one: a code, a
/// NULL-bitmap word, a dictionary entry or a string. `straddles` counts the
/// strings that cross a boundary.
std::vector<uint32_t> PageBoundaryRows(const DataBlock& block, uint32_t col,
                                       int* straddles) {
  std::vector<uint64_t> begins;
  EXPECT_TRUE(block.Extents(&begins).ok());
  const AttrMeta& m = block.attr(col);
  const uint32_t n = block.num_rows();
  const bool coded = Compression(m.compression) != Compression::kSingleValue;
  std::vector<uint32_t> rows;
  // The first row with each code, for entries and strings.
  std::map<uint64_t, uint32_t> row_of;
  for (uint32_t r = 0; coded && r < n; ++r)
    row_of.emplace(block.ReadCode(col, r), r);
  auto add_code = [&](uint64_t code) {
    if (auto it = row_of.find(code); it != row_of.end())
      rows.push_back(it->second);
  };
  const uint64_t lo = begins[col], hi = begins[col + 1];
  auto page = [lo](uint64_t at) { return (at - lo) / DataBlock::kPageBytes; };
  for (uint64_t b = lo + DataBlock::kPageBytes; b < hi;
       b += DataBlock::kPageBytes) {
    auto within = [b](uint64_t begin, uint64_t bytes) {
      return b >= begin && b < begin + bytes;
    };
    if (coded && within(m.data_offset, uint64_t(n) * m.code_width)) {
      const uint32_t r = uint32_t((b - m.data_offset) / m.code_width);
      rows.push_back(r);
      if (r > 0) rows.push_back(r - 1);
    }
    if (block.has_nulls(col) && within(m.null_offset, BitmapWords(n) * 8)) {
      const uint32_t r = uint32_t((b - m.null_offset) / 8 * 64);
      if (r < n) rows.push_back(r);
      rows.push_back(r - 1);
    }
    // An integer entry is 8 bytes; a string's two offsets are 4 bytes
    // each, so code e - 1 reads the offsets on both sides of b.
    if (coded && Compression(m.compression) == Compression::kDictionary &&
        within(m.dict_offset, m.dict_bytes())) {
      const uint64_t e = (b - m.dict_offset) /
                         (block.type(col) == TypeId::kString ? 4 : 8);
      add_code(e);
      if (e > 0) add_code(e - 1);
    }
  }
  if (block.type(col) == TypeId::kString && coded) {
    for (const auto& [code, r] : row_of) {
      const std::string_view v = block.dict_string(col, uint32_t(code));
      const uint64_t at = uint64_t(v.data() - reinterpret_cast<const char*>(
                                                  block.raw_bytes()));
      if (!v.empty() && page(at) != page(at + v.size() - 1)) {
        rows.push_back(r);
        ++*straddles;
      }
    }
  }
  return rows;
}

/// `v` read from `t` through the getter its type uses, as a Value.
Value TypedRead(const Table& t, RowId id, uint32_t col, const Value& v) {
  if (v.is_null()) return t.GetValue(id, col);
  switch (t.schema().type(col)) {
    case TypeId::kString:
      return Value::Str(std::string(t.GetStringView(id, col)));
    case TypeId::kDouble:
      return Value::Double(t.GetDouble(id, col));
    default:
      return Value::Int(t.GetInt(id, col));
  }
}

// Evicted point reads equal resident ones for every encoding, on random
// rows and on the rows whose code, NULL word, dictionary entry or string
// sits at or straddles a 4 KB page boundary.
TEST(Lifecycle, EvictedPointReadsAcrossPageBoundariesMatchResident) {
  constexpr uint32_t kCap = 8192;
  Table t = MakePagedTable(3 * kCap, kCap);
  const uint32_t ncols = t.schema().num_columns();
  struct Probe {
    RowId id;
    uint32_t col;
    Value v;
  };
  std::vector<Probe> probes;
  int straddles = 0;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    for (uint32_t col = 0; col < ncols; ++col) {
      for (uint32_t r :
           PageBoundaryRows(*t.frozen_block(c), col, &straddles)) {
        const RowId id = MakeRowId(c, r);
        probes.push_back({id, col, t.GetValue(id, col)});
      }
    }
  }
  EXPECT_GT(straddles, 10);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const RowId id = MakeRowId(size_t(rng.Uniform(0, 2)),
                               uint32_t(rng.Uniform(0, kCap - 1)));
    for (uint32_t col = 0; col < ncols; ++col)
      probes.push_back({id, col, t.GetValue(id, col)});
  }
  ASSERT_GT(probes.size(), 3000u);

  const std::string path = TempArchive("page_boundaries");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    for (const Probe& p : probes) {
      const size_t c = RowIdChunk(p.id);
      SCOPED_TRACE(std::to_string(c) + "/" + std::to_string(RowIdRow(p.id)) +
                   " column " + std::to_string(p.col));
      // A read of another chunk first, so the probe starts a fresh image
      // and fetches its own pages.
      (void)t.GetValue(MakeRowId((c + 1) % t.num_chunks(), 0), 0);
      ASSERT_TRUE(t.GetValue(p.id, p.col) == p.v);
      ASSERT_TRUE(TypedRead(t, p.id, p.col, p.v) == p.v);
    }
    // No probe read more than the spine and five pages.
    EXPECT_LE(mgr.stats().archive_bytes_read,
              mgr.stats().archive_reads *
                  (DataBlock::SpineBytes(ncols) + 5 * DataBlock::kPageBytes));
  }
  std::remove(path.c_str());
}

// The archive work of a fixed mix of evicted reads is pinned exactly:
// projected scans fetch the spine and their columns' whole extents on every
// open, point reads fetch the pages of their row, a scan after a point read
// of the same chunk on the same thread reuses none of its pages, and a full
// read fetches the whole block. Each step's payload reads, bytes and pages
// are constants; a change to what any read fetches moves them.
TEST(Lifecycle, EvictedReadWorkIsExact) {
  constexpr uint32_t kCap = 8192;
  Table t = MakePagedTable(2 * kCap + 1000, kCap);
  const std::string path = TempArchive("exact_work");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    for (size_t c = 0; c < t.num_chunks(); ++c)
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    const BlockArchive* a = mgr.archive();
    struct Work {
      uint64_t reads, bytes, pages;
    };
    auto expect_work = [&](const char* step, Work want) {
      SCOPED_TRACE(step);
      EXPECT_EQ(a->payload_reads(), want.reads);
      EXPECT_EQ(a->payload_bytes_read(), want.bytes);
      EXPECT_EQ(a->payload_pages_read(), want.pages);
    };
    auto scan_rows = [&](std::vector<uint32_t> cols,
                         std::vector<Predicate> preds) {
      TableScanner scan(t, std::move(cols), std::move(preds),
                        ScanMode::kDataBlocks);
      Batch b;
      uint64_t rows = 0;
      while (scan.Next(&b)) rows += b.count;
      return rows;
    };
    expect_work("evicted", {0, 0, 0});

    // Projected scans of two column sets.
    EXPECT_EQ(scan_rows({0, 5}, {}), t.num_rows());
    expect_work("scan {0, 5}", {3, 188640, 48});
    EXPECT_GT(scan_rows({10}, {Predicate::IsNotNull(9)}), 0u);
    expect_work("scan {9, 10}", {6, 1459088, 360});

    // Point reads of rows on different pages of chunk 1, two columns each.
    for (uint32_t row : {10u, 3000u, 7000u, 10u}) {
      (void)t.GetValue(MakeRowId(1, row), 0);
      (void)t.GetValue(MakeRowId(1, row), 10);
    }
    expect_work("point reads", {12, 1504960, 371});

    // On this thread: a point read, then a scan of the same chunk's column.
    (void)t.GetValue(MakeRowId(0, 4000), 2);
    expect_work("point read of chunk 0", {13, 1509872, 372});
    {
      TableScanner scan(t, {2}, {}, ScanMode::kDataBlocks);
      Batch b;
      ASSERT_TRUE(scan.Next(&b));
    }
    expect_work("scan of chunk 0", {14, 1588512, 391});

    // A full read.
    ASSERT_TRUE(a->ReadBlock(1).ok());
    expect_work("full read", {15, 2427808, 600});
  }
  std::remove(path.c_str());
}

// A point read of a row in a tombstoned chunk throws StorageException
// naming the table and the chunk; the dropped payload is never touched.
TEST(Lifecycle, PointReadOfTombstonedChunkThrows) {
  Table t = MakeTestTable(128, 64, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("tombstone_read");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    ASSERT_EQ(t.chunk_state(0), ChunkState::kEvicted);
    for (uint32_t r = 0; r < 64; ++r) t.Delete(MakeRowId(0, r));
    mgr.Tick();
    ASSERT_EQ(t.chunk_state(0), ChunkState::kTombstone);
    auto expect_throws = [&](const std::function<void()>& read) {
      try {
        read();
        ADD_FAILURE() << "a point read of a tombstone must throw";
      } catch (const StorageException& e) {
        EXPECT_NE(std::string(e.what()).find("chunk 0 of table 't'"),
                  std::string::npos)
            << e.what();
      }
    };
    const RowId id = MakeRowId(0, 5);
    expect_throws([&] { (void)t.GetInt(id, 0); });
    expect_throws([&] { (void)t.GetValue(id, 1); });
    expect_throws([&] { (void)t.GetStringView(id, 2); });
    expect_throws([&] { (void)t.UpdateRow(id, {{1, Cell::Int(1)}}); });
    EXPECT_FALSE(t.IsVisible(id));
    EXPECT_EQ(t.GetInt(MakeRowId(1, 5), 0), 64 + 5);
  }
  std::remove(path.c_str());
}

// UpdateRow of an evicted row relocates it through the point image: it
// reads only the row's pages (no reload), the chunk stays evicted, and the
// row moves to the hot tail with its other columns intact. A whole-row
// Update (delete + insert) reads nothing at all.
TEST(Lifecycle, UpdateRowOnEvictedRowRelocatesWithoutReload) {
  Table t = MakeTestTable(1024, 256, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("update_evicted");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    const RowId id = MakeRowId(2, 5);
    ASSERT_EQ(t.chunk_state(2), ChunkState::kEvicted);
    const std::string name(t.GetStringView(id, 2));
    const uint64_t reads = mgr.stats().archive_reads;
    const RowId moved = t.UpdateRow(id, {{1, Cell::Int(77)}});
    EXPECT_GT(mgr.stats().archive_reads, reads);
    EXPECT_EQ(t.chunk_state(2), ChunkState::kEvicted);
    EXPECT_FALSE(t.IsVisible(id));
    EXPECT_EQ(t.GetInt(moved, 0), 2 * 256 + 5);
    EXPECT_EQ(t.GetInt(moved, 1), 77);
    EXPECT_EQ(t.GetStringView(moved, 2), name);

    const RowId other = MakeRowId(2, 6);
    const uint64_t before = mgr.stats().archive_reads;
    const std::array<Cell, 3> row = {Cell::Int(2 * 256 + 6), Cell::Int(78),
                                     Cell::Str("moved")};
    t.Delete(other);
    const RowId replaced = t.Insert(row);
    EXPECT_EQ(mgr.stats().archive_reads, before);
    EXPECT_FALSE(t.IsVisible(other));
    EXPECT_EQ(t.GetInt(replaced, 1), 78);
    EXPECT_EQ(t.GetStringView(replaced, 2), "moved");
  }
  std::remove(path.c_str());
}

// A point read whose archive read fails throws StorageException and
// quarantines the chunk; once the fault is gone and the backoff expired,
// the next point read succeeds and heals it.
TEST(Lifecycle, FailedPointReadQuarantinesAndHeals) {
  Table t = MakeTestTable(1024, 256, /*delete_every=*/0, /*freeze=*/true);
  const RowId id = MakeRowId(3, 9);
  const int64_t val = t.GetInt(id, 1);
  const std::string path = TempArchive("point_quarantine");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(1);
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    ASSERT_EQ(t.chunk_state(3), ChunkState::kEvicted);
    ASSERT_TRUE(fail::FailpointRegistry::Instance().Arm("lifecycle.reload",
                                                        "always"));
    try {
      (void)t.GetInt(id, 1);
      ADD_FAILURE() << "a failed point read must throw";
    } catch (const StorageException& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kIoError);
    }
    fail::FailpointRegistry::Instance().Disarm("lifecycle.reload");
    EXPECT_EQ(mgr.quarantined_chunks(), 1u);
    EXPECT_GE(mgr.stats().reload_failures, 1u);
    EXPECT_EQ(t.chunk_state(3), ChunkState::kEvicted);

    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(t.GetInt(id, 1), val);
    EXPECT_EQ(mgr.quarantined_chunks(), 0u);
    EXPECT_EQ(t.chunk_state(3), ChunkState::kEvicted);
  }
  std::remove(path.c_str());
}

// Point readers on several threads race background ticks that archive and
// evict the very chunks they read, tombstone evicted chunks and release
// their archive blocks, and evict again once a writer's inserts freeze.
// (The TSan CI leg repeats this suite.)
TEST(Lifecycle, PointReadsConcurrentWithEvictionAndRelease) {
  constexpr uint32_t kCap = 512;
  constexpr size_t kRead = 12;  // readers use chunks [0, kRead)
  constexpr size_t kNew = 5;    // chunks the writer appends
  Table t = MakeTable(16 * kCap, kCap);
  std::vector<std::pair<int64_t, std::string>> expect;
  for (size_t c = 0; c < kRead; ++c) {
    for (uint32_t r = 0; r < kCap; ++r) {
      const RowId id = MakeRowId(c, r);
      expect.emplace_back(t.GetInt(id, 1), std::string(t.GetStringView(id, 2)));
    }
  }
  t.FreezeAll();
  const std::string path = TempArchive("point_stress");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = (t.FrozenBytes() / 16) * 3 / 2;  // ~1.5 blocks
    cfg.tick_interval = std::chrono::milliseconds(1);
    LifecycleManager mgr(&t, path, cfg);

    std::atomic<bool> failed{false}, writer_done{false};
    auto reader = [&](uint64_t seed) {
      Rng rng(seed);
      for (int i = 0; i < 500 || !writer_done.load(); ++i) {
        const size_t chunk = size_t(rng.Uniform(0, kRead - 1));
        const uint32_t row = uint32_t(rng.Uniform(0, kCap - 1));
        const RowId id = MakeRowId(chunk, row);
        const auto& [val, name] = expect[chunk * kCap + row];
        // GetValue copies the string inside its read section: a
        // GetStringView of a resident row dangles once a tick evicts its
        // chunk.
        if (t.GetInt(id, 0) != int64_t(chunk * kCap + row) ||
            t.GetInt(id, 1) != val ||
            !(t.GetValue(id, 2) == Value::Str(name))) {
          failed = true;
        }
      }
    };
    // The readers start on resident blocks; the first tick archives and
    // evicts all but one, chunks 12..14 among them: no reader touches
    // 12..15, so none is younger than a read chunk, and ties go to the
    // lowest index. Then chunks 12..14 are deleted, tombstone and have
    // their archive blocks released, and kNew chunks of new rows freeze and
    // push the residency over budget again.
    auto writer = [&] {
      for (int i = 0; i < 2000 && mgr.stats().epochs == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      for (size_t c = 12; c < 15; ++c) {
        DeleteChunkRows(t, c);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      Rng rng(44);
      for (uint32_t i = 0; i < kNew * kCap; ++i) {
        t.Insert({Cell::Int(16 * kCap + i),
                  Cell::Int(int32_t(rng.Uniform(0, 1000))),
                  Cell::Str("name_" + std::to_string(rng.Uniform(0, 50)))});
      }
      for (int i = 0; i < 2000 && mgr.stats().freezes < kNew; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      writer_done = true;
    };
    std::vector<std::thread> threads;
    for (uint64_t seed : {41, 42, 43}) threads.emplace_back(reader, seed);
    mgr.Start();
    threads.emplace_back(writer);
    for (auto& th : threads) th.join();
    mgr.Stop();
    mgr.Tick();

    EXPECT_FALSE(failed.load());
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.tombstoned, 3u);
    EXPECT_EQ(s.reclaimed_blocks, 3u);
    EXPECT_EQ(s.freezes, kNew);
    // 16 resident blocks and kNew new ones, about 1 kept.
    EXPECT_GE(s.evictions, 16 + kNew - 2);
    EXPECT_EQ(s.archived_blocks, s.evictions - 3);
    EXPECT_LE(s.resident_bytes, cfg.memory_budget_bytes);
    for (size_t c = 0; c < kRead; ++c) {
      const RowId id = MakeRowId(c, 11);
      EXPECT_EQ(t.GetInt(id, 0), int64_t(c * kCap + 11)) << c;
    }
    // The same deletes and inserts on a table that never left memory.
    Table ref = MakeTable(16 * kCap, kCap);
    for (size_t c = 12; c < 15; ++c) DeleteChunkRows(ref, c);
    Rng rng(44);
    for (uint32_t i = 0; i < kNew * kCap; ++i) {
      ref.Insert({Cell::Int(16 * kCap + i),
                  Cell::Int(int32_t(rng.Uniform(0, 1000))),
                  Cell::Str("name_" + std::to_string(rng.Uniform(0, 50)))});
    }
    EXPECT_TRUE(FullScan(t) == FullScan(ref));
  }
  std::remove(path.c_str());
}


// -- One manager over several tables -------------------------------------

/// Column 1 of every row of `t`, row-major (its chunks must be resident).
std::vector<int64_t> Vals(const Table& t) {
  std::vector<int64_t> out;
  for (size_t c = 0; c < t.num_chunks(); ++c)
    for (uint32_t r = 0; r < t.chunk_rows(c); ++r)
      out.push_back(t.GetInt(MakeRowId(c, r), 1));
  return out;
}

// Two tables share one budget: the block that went the most epochs without
// an access is evicted first, whichever table holds it, and blocks of equal
// age go in table order, then chunk order. Ages are counted in each table's
// own epochs, which need not agree.
TEST(Lifecycle, TwoTablesEvictTheColdestBlockOfEitherFirst) {
  // Each case starts on fresh tables: a block a manager evicted stays
  // evicted after the manager detached.
  auto table = [](uint64_t seed) {
    return MakeTestTable(2048, 512, 0, /*freeze=*/true, seed);
  };
  const std::string path = TempArchive("two_tables_lru");
  LifecycleConfig cfg = QuickCooling();
  cfg.memory_budget_bytes =
      table(7).FrozenBytes() + table(8).FrozenBytes() - 1;  // one goes
  using Evicted = std::vector<std::pair<char, size_t>>;
  auto evicted = [](const Table& a, const Table& b) {
    Evicted out;
    for (size_t c = 0; c < a.num_chunks(); ++c)
      if (a.is_evicted(c)) out.emplace_back('a', c);
    for (size_t c = 0; c < b.num_chunks(); ++c)
      if (b.is_evicted(c)) out.emplace_back('b', c);
    return out;
  };
  {
    // No chunk was read: every age ties, and the first table's chunk 0
    // goes, not the second's.
    Table a = table(7), b = table(8);
    LifecycleManager mgr({&a, &b}, path, cfg);
    mgr.Tick();
    EXPECT_EQ(mgr.stats().evictions, 1u);
    EXPECT_EQ(evicted(a, b), (Evicted{{'a', 0}}));
  }
  {
    Table a = table(7), b = table(8);
    LifecycleManager mgr({&b, &a}, path, cfg);
    mgr.Tick();
    EXPECT_EQ(evicted(a, b), (Evicted{{'b', 0}}));
  }
  {
    // Both tables are at epoch 0. Table a moves on alone to epoch 2; its
    // chunk 3 is read at 1 and its other chunks at 2, every chunk of b at
    // 0.
    Table a = table(7), b = table(8);
    a.AdvanceAccessEpoch();
    (void)a.GetInt(MakeRowId(3, 0), 0);
    a.AdvanceAccessEpoch();
    for (size_t c = 0; c < 3; ++c) (void)a.GetInt(MakeRowId(c, 0), 0);
    for (size_t c = 0; c < 4; ++c) (void)b.GetInt(MakeRowId(c, 0), 0);
    // After the tick a's chunk 3 is two epochs old and every other chunk
    // one: it goes, though b's stamps are the lowest.
    LifecycleManager mgr({&b, &a}, path, cfg);
    mgr.Tick();
    EXPECT_EQ(a.access_epoch(), 3u);
    EXPECT_EQ(b.access_epoch(), 1u);
    EXPECT_EQ(evicted(a, b), (Evicted{{'a', 3}}));
    EXPECT_LE(mgr.stats().resident_bytes, cfg.memory_budget_bytes);
  }
  std::remove(path.c_str());
}

// Chunk 0 of two tables under one manager: both evict into the one archive,
// and each table's scans and point reads return its own rows. A failed read
// quarantines the failing table's chunk only, and tombstoning one table's
// chunk releases that table's block only.
TEST(Lifecycle, TwoTablesKeepTheirOwnChunksInOneArchive) {
  Table a = MakeTestTable(1024, 256, 0, /*freeze=*/true, /*seed=*/7);
  Table b = MakeTestTable(1024, 256, 0, /*freeze=*/true, /*seed=*/8);
  const ScanResult scan_a = FullScan(a), scan_b = FullScan(b);
  ASSERT_FALSE(scan_a == scan_b);
  const std::vector<int64_t> vals_a = Vals(a), vals_b = Vals(b);
  const std::string path = TempArchive("two_tables");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::minutes(1);
    LifecycleManager mgr({&a, &b}, path, cfg);
    mgr.Tick();
    ASSERT_EQ(mgr.stats().archived_blocks, 8u);
    ASSERT_EQ(mgr.archive()->num_blocks(), 8u);
    ASSERT_TRUE(a.is_evicted(0) && b.is_evicted(0));
    EXPECT_EQ(mgr.stats().resident_bytes, 0u);

    // One failed read: a's chunk 0 is quarantined, b's chunk 0 is not.
    ASSERT_TRUE(
        fail::FailpointRegistry::Instance().Arm("lifecycle.reload", "once"));
    EXPECT_THROW((void)a.GetInt(MakeRowId(0, 5), 1), StorageException);
    fail::FailpointRegistry::Instance().Disarm("lifecycle.reload");
    EXPECT_EQ(mgr.quarantined_chunks(), 1u);
    EXPECT_EQ(b.GetInt(MakeRowId(0, 5), 1), vals_b[5]);
    try {
      (void)a.GetInt(MakeRowId(0, 6), 1);
      ADD_FAILURE() << "a's chunk 0 must still be quarantined";
    } catch (const StorageException& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
    }
    EXPECT_EQ(a.GetInt(MakeRowId(1, 5), 1), vals_a[256 + 5]);
    mgr.ResetQuarantine();

    // Each table reads its own rows, by scan and by point read.
    EXPECT_TRUE(FullScan(a) == scan_a);
    EXPECT_TRUE(FullScan(b) == scan_b);
    EXPECT_EQ(mgr.quarantined_chunks(), 0u);
    for (uint32_t i = 0; i < 1024; i += 37) {
      const RowId id = MakeRowId(i / 256, i % 256);
      EXPECT_EQ(a.GetInt(id, 1), vals_a[i]) << i;
      EXPECT_EQ(b.GetInt(id, 1), vals_b[i]) << i;
    }

    // b's chunk 1 dies: its block alone is released, a's chunk 1 reads on.
    DeleteChunkRows(b, 1);
    mgr.Tick();
    EXPECT_EQ(b.chunk_state(1), ChunkState::kTombstone);
    EXPECT_EQ(a.chunk_state(1), ChunkState::kEvicted);
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.tombstoned, 1u);
    EXPECT_EQ(s.reclaimed_blocks, 1u);
    EXPECT_EQ(s.archived_blocks, 7u);
    EXPECT_TRUE(FullScan(a) == scan_a);
    EXPECT_EQ(a.GetInt(MakeRowId(1, 9), 1), vals_a[256 + 9]);
    EXPECT_EQ(FullScan(b).count, 1024 - 256);
    EXPECT_TRUE(Vals(a) == vals_a);
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

/// Appends `n` rows to a MakeTestTable table, ids continuing its own.
void AppendRows(Table& t, uint32_t n, uint64_t seed) {
  Rng rng(seed);
  const int64_t first = int64_t(t.num_rows());
  for (uint32_t i = 0; i < n; ++i) {
    t.Insert({Cell::Int(first + i), Cell::Int(int32_t(rng.Uniform(0, 1000))),
              Cell::Str("name_" + std::to_string(rng.Uniform(0, 50)))});
  }
}

// One started manager over two tables: its periodic ticks evict both
// tables' manually frozen blocks, then freeze and evict the chunks a writer
// appends to both, while scans and point reads run on both. (The TSan CI
// leg repeats this suite.)
TEST(Lifecycle, OneStartedManagerOverTwoTablesWithConcurrentReads) {
  constexpr uint32_t kCap = 512;
  constexpr size_t kChunks = 6, kNew = 3;  // per table
  Table a = MakeTestTable(kChunks * kCap, kCap, 0, /*freeze=*/true, 7);
  Table b = MakeTestTable(kChunks * kCap, kCap, 0, /*freeze=*/true, 8);
  const std::vector<int64_t> vals_a = Vals(a), vals_b = Vals(b);
  const ScanResult scan_a = FullScan(a), scan_b = FullScan(b);
  const std::string path = TempArchive("two_tables_started");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = (a.FrozenBytes() / kChunks) * 3;  // ~3 blocks
    cfg.tick_interval = std::chrono::milliseconds(1);
    LifecycleManager mgr({&a, &b}, path, cfg);

    std::atomic<bool> failed{false}, writer_done{false};
    auto point_reader = [&](uint64_t seed) {
      Rng rng(seed);
      for (int i = 0; i < 500 || !writer_done.load(); ++i) {
        const bool on_a = rng.Uniform(0, 1) == 0;
        const Table& t = on_a ? a : b;
        const std::vector<int64_t>& vals = on_a ? vals_a : vals_b;
        const size_t chunk = size_t(rng.Uniform(0, kChunks - 1));
        const uint32_t row = uint32_t(rng.Uniform(0, kCap - 1));
        const RowId id = MakeRowId(chunk, row);
        if (t.GetInt(id, 0) != int64_t(chunk * kCap + row) ||
            t.GetInt(id, 1) != vals[chunk * kCap + row]) {
          failed = true;
        }
      }
    };
    // Scans see the first kChunks chunks unchanged, whatever the writer
    // has appended so far.
    auto scanner = [&](const Table& t, const ScanResult& want) {
      for (int i = 0; i < 4 || !writer_done.load(); ++i) {
        TableScanner scan(t, {0, 1, 2},
                          {Predicate::Lt(0, Value::Int(kChunks * kCap))},
                          ScanMode::kDataBlocks);
        Batch batch;
        ScanResult r;
        while (scan.Next(&batch)) {
          for (uint32_t k = 0; k < batch.count; ++k) {
            ++r.count;
            r.sum += batch.cols[0].i64[k] + batch.cols[1].i32[k];
            r.str_hash ^= std::hash<std::string_view>()(batch.cols[2].Str(k)) +
                          0x9e3779b9 + (r.str_hash << 6) + (r.str_hash >> 2);
          }
        }
        if (!(r == want)) failed = true;
      }
    };
    auto writer = [&] {
      for (int i = 0; i < 2000 && mgr.stats().epochs == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      AppendRows(a, kNew * kCap, 44);
      AppendRows(b, kNew * kCap, 45);
      for (int i = 0; i < 2000 && mgr.stats().freezes < 2 * kNew; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      writer_done = true;
    };
    std::vector<std::thread> threads;
    threads.emplace_back(point_reader, 51);
    threads.emplace_back(point_reader, 52);
    threads.emplace_back(scanner, std::cref(a), std::cref(scan_a));
    threads.emplace_back(scanner, std::cref(b), std::cref(scan_b));
    mgr.Start();
    threads.emplace_back(writer);
    for (auto& th : threads) th.join();
    mgr.Stop();
    mgr.Tick();

    EXPECT_FALSE(failed.load());
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.freezes, 2 * kNew);
    EXPECT_EQ(s.archived_blocks, s.evictions);  // only evicted blocks
    EXPECT_EQ(s.reload_failures, 0u);
    EXPECT_GE(s.evictions, 2 * (kChunks + kNew) - 4);
    EXPECT_LE(s.resident_bytes, cfg.memory_budget_bytes);
    Table ref_a = MakeTestTable(kChunks * kCap, kCap, 0, false, 7);
    Table ref_b = MakeTestTable(kChunks * kCap, kCap, 0, false, 8);
    AppendRows(ref_a, kNew * kCap, 44);
    AppendRows(ref_b, kNew * kCap, 45);
    EXPECT_TRUE(FullScan(a) == FullScan(ref_a));
    EXPECT_TRUE(FullScan(b) == FullScan(ref_b));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
