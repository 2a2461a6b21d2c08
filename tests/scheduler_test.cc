// Morsel-driven execution engine: worker pool + work stealing, concurrent
// submitters against the pending count, the morsel cursor's exactly-once
// handout, periodic tasks, lifecycle ticks on a private and on the default
// pool, parallel TPC-H result equality on hot, frozen and evicted tables,
// and the parallel-query-vs-eviction/release stress the TSan CI leg leans
// on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_scan.h"
#include "exec/scheduler.h"
#include "lifecycle/lifecycle_manager.h"
#include "test_table_util.h"
#include "tpch/queries.h"
#include "util/cpu.h"

namespace datablocks {
namespace {

/// Spin-waits (with yields) until `pred` holds or ~5s elapsed.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Topology, HardwareThreadsGuardAndShape) {
  // The one hardware_concurrency()==0 guard of the codebase: always >= 1.
  EXPECT_GE(cpu::HardwareThreads(), 1u);
  const cpu::Topology& topo = cpu::HostTopology();
  if (!topo.cpus.empty()) {
    EXPECT_EQ(topo.hardware_threads, unsigned(topo.cpus.size()));
  }
  EXPECT_GE(EffectiveThreads(0), 1u);
  EXPECT_EQ(EffectiveThreads(5), 5u);
}

TEST(Scheduler, TaskGroupRunsEveryTask) {
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  EXPECT_EQ(sched.num_workers(), 3u);
  std::atomic<int> count{0};
  TaskGroup group(&sched);
  for (int i = 0; i < 64; ++i) {
    group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(Scheduler, WorkStealingDrainsABlockedWorkersQueue) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  // Park one worker on a latch; its queued tasks can then only complete by
  // being stolen from the sibling.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  sched.Submit([released] { released.wait(); });
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    sched.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_TRUE(WaitFor([&] { return done.load() == 16; }));
  EXPECT_GE(sched.steals(), 1u);
  release.set_value();
}

TEST(Scheduler, ConcurrentSubmittersNeverUnderflowPending) {
  // Four threads submit no-op tasks to four workers as fast as they can.
  // A task is counted as pending before any worker can claim it, so a
  // worker that pops a task the moment it is published never decrements
  // the count below zero (the pool DB_CHECKs it).
  Scheduler sched(Scheduler::Options{.num_workers = 4, .pin_workers = false});
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 200000;
  std::atomic<int> done{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        sched.Submit(
            [&done] { done.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  // Sanitizer builds run the backlog slowly: a minute, not WaitFor's 5 s.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (done.load() < kSubmitters * kPerSubmitter &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kSubmitters * kPerSubmitter);
}

/// Ids (column 0) each of four slots of a four-worker pool scanned from
/// `t`; `pipeline` receives the scan's profile.
std::vector<std::vector<int64_t>> ScanIdsOnFourSlots(
    const Table& t, obs::PipelineProfile* pipeline) {
  Scheduler sched(Scheduler::Options{.num_workers = 4});
  return ParallelScan<std::vector<int64_t>>(
      t, {0}, {}, ScanMode::kDataBlocks, /*num_threads=*/4,
      [] { return std::vector<int64_t>{}; },
      [](std::vector<int64_t>& ids, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) ids.push_back(b.cols[0].i64[i]);
      },
      TableScanner::kDefaultVectorSize, BestIsa(), &sched, pipeline);
}

TEST(Scheduler, ParallelScanClaimsEveryChunkExactlyOnce) {
  // 100 chunks, every other one frozen, with a short hot tail. Four slots
  // claim concurrently from the one morsel cursor: together they scan
  // every row exactly once, one morsel per chunk.
  const uint32_t rows = 99 * 256 + 100;
  Table t = MakeTestTable(rows, 256);
  ASSERT_EQ(t.num_chunks(), 100u);
  for (size_t c = 0; c < 99; c += 2) ASSERT_TRUE(t.FreezeChunk(c));
  obs::PipelineProfile pipeline("t");
  const auto slots = ScanIdsOnFourSlots(t, &pipeline);
  ASSERT_EQ(slots.size(), 4u);
  std::set<int64_t> all;
  size_t total = 0;
  for (const auto& ids : slots) {
    total += ids.size();
    all.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(total, size_t(rows));     // no row scanned twice
  EXPECT_EQ(all.size(), size_t(rows));  // no row dropped
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), int64_t(rows) - 1);
  EXPECT_EQ(pipeline.totals().morsels, t.num_chunks());
}

TEST(Scheduler, ParallelScanOfAnEmptyTableClaimsNothing) {
  Table t("empty", TestTableSchema(), 256);
  obs::PipelineProfile pipeline("empty");
  const auto slots = ScanIdsOnFourSlots(t, &pipeline);
  ASSERT_EQ(slots.size(), 4u);
  for (const auto& ids : slots) EXPECT_TRUE(ids.empty());
  EXPECT_EQ(t.num_chunks(), 0u);
  EXPECT_EQ(pipeline.totals().morsels, 0u);
}

TEST(Scheduler, ParallelScanWithMoreSlotsThanWorkers) {
  Table t = MakeTestTable(20000, 1024, /*delete_every=*/7, /*freeze=*/true);
  ScanResult expect = FullScan(t);
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  auto states = ParallelScan<ScanResult>(
      t, {0, 1, 2}, {}, ScanMode::kDataBlocks, /*num_threads=*/8,
      [] { return ScanResult{}; },
      [](ScanResult& r, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          ++r.count;
          r.sum += b.cols[0].i64[i] + b.cols[1].i32[i];
        }
      },
      TableScanner::kDefaultVectorSize, BestIsa(), &sched);
  ASSERT_EQ(states.size(), 8u);
  int64_t count = 0, sum = 0;
  for (const ScanResult& s : states) {
    count += s.count;
    sum += s.sum;
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_EQ(sum, expect.sum);
}

TEST(Scheduler, PeriodicTasksFireUntilRemoved) {
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::atomic<int> fired{0};
  uint64_t id = sched.AddPeriodic(
      std::chrono::milliseconds(2),
      [&fired] { fired.fetch_add(1, std::memory_order_relaxed); });
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(WaitFor([&] { return fired.load() >= 3; }));
  sched.RemovePeriodic(id);
  const int after_remove = fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), after_remove);  // never fires again
  sched.RemovePeriodic(id);               // idempotent
}

TEST(Scheduler, LifecycleTicksRunOnTheSharedPool) {
  // Start() is the only background driver: ticks run as a periodic task on
  // the configured pool, or on Scheduler::Default() when none is set.
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  for (Scheduler* configured : {&sched, static_cast<Scheduler*>(nullptr)}) {
    SCOPED_TRACE(configured != nullptr ? "private pool" : "default pool");
    Scheduler& pool =
        configured != nullptr ? *configured : Scheduler::Default();
    Table t = MakeTestTable(1024, 256);
    const std::string path = "/tmp/datablocks_scheduler_lifecycle.dbar";
    {
      LifecycleConfig cfg;
      cfg.cold_threshold = 0;
      cfg.decay_shift = 32;
      cfg.tick_interval = std::chrono::milliseconds(1);
      cfg.scheduler = configured;
      LifecycleManager mgr(&t, path, cfg);
      EXPECT_FALSE(mgr.running());
      const uint64_t tasks_before = pool.tasks_run();
      mgr.Start();
      EXPECT_TRUE(mgr.running());
      // Ticks advance on the pool's workers and the policy still freezes
      // cooled-down chunks.
      EXPECT_TRUE(WaitFor([&] { return mgr.stats().epochs >= 4; }));
      EXPECT_TRUE(WaitFor([&] { return mgr.stats().freezes >= 3; }));
      EXPECT_TRUE(WaitFor([&] { return pool.tasks_run() > tasks_before; }));
      mgr.Stop();
      EXPECT_FALSE(mgr.running());
      const uint64_t epochs = mgr.stats().epochs;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      EXPECT_EQ(mgr.stats().epochs, epochs);  // no tick after Stop
    }
    std::remove(path.c_str());
  }
}

// Every TPC-H query must produce identical results through the parallel
// pipelines (per-worker states merged in slot order) as through the
// sequential reference path — on hot chunks, on Data Blocks, and on Data
// Blocks evicted to their archives, where every block faults back in.
class ParallelTpch : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.chunk_capacity = 4096;  // several morsels per table
    db_ = tpch::MakeTpch(cfg).release();
    frozen_ = tpch::MakeTpch(cfg).release();
    frozen_->FreezeAll();
    evicted_ = tpch::MakeTpch(cfg).release();
    evicted_->FreezeAll();
    // The managers live for the whole suite: they own the fetchers that
    // read evicted blocks from the archive, and the evicted tables depend
    // on them for those blocks for life.
    managers_ = new std::vector<std::unique_ptr<LifecycleManager>>();
    LifecycleConfig lcfg;
    lcfg.memory_budget_bytes = 0;  // evict everything frozen
    for (Table* t : {&evicted_->lineitem, &evicted_->orders}) {
      managers_->push_back(
          std::make_unique<LifecycleManager>(t, ArchivePath(*t), lcfg));
    }
    sched_ = new Scheduler(Scheduler::Options{.num_workers = 3});
  }
  static void TearDownTestSuite() {
    delete managers_;  // detaches, reading nothing: evicted_ stays evicted
    for (const Table* t : {&evicted_->lineitem, &evicted_->orders}) {
      std::remove(ArchivePath(*t).c_str());
    }
    delete db_;
    delete frozen_;
    delete evicted_;
    delete sched_;
    managers_ = nullptr;
    db_ = nullptr;
    frozen_ = nullptr;
    evicted_ = nullptr;
    sched_ = nullptr;
  }
  static std::string ArchivePath(const Table& t) {
    return "/tmp/datablocks_parallel_tpch_" + t.name() + ".dbar";
  }
  /// Evicts every frozen lineitem and orders block again, so the next run
  /// reloads each block it scans from the archive.
  static void EvictAll() {
    for (auto& mgr : *managers_) mgr->Tick();
    for (const Table* t : {&evicted_->lineitem, &evicted_->orders}) {
      for (size_t c = 0; c < t->num_chunks(); ++c) {
        ASSERT_TRUE(t->is_evicted(c)) << t->name() << " chunk " << c;
      }
    }
  }
  static tpch::TpchDatabase* db_;
  static tpch::TpchDatabase* frozen_;
  static tpch::TpchDatabase* evicted_;
  static std::vector<std::unique_ptr<LifecycleManager>>* managers_;
  static Scheduler* sched_;
};

tpch::TpchDatabase* ParallelTpch::db_ = nullptr;
tpch::TpchDatabase* ParallelTpch::frozen_ = nullptr;
tpch::TpchDatabase* ParallelTpch::evicted_ = nullptr;
std::vector<std::unique_ptr<LifecycleManager>>* ParallelTpch::managers_ =
    nullptr;
Scheduler* ParallelTpch::sched_ = nullptr;

TEST_P(ParallelTpch, MatchesSequentialResults) {
  const int q = GetParam();
  struct Config {
    const tpch::TpchDatabase* db;
    ScanMode mode;
    const char* label;
  };
  const Config configs[3] = {
      {db_, ScanMode::kVectorizedSarg, "hot +SARG"},
      {frozen_, ScanMode::kDataBlocksPsma, "frozen +PSMA"},
      {evicted_, ScanMode::kDataBlocksPsma, "evicted +PSMA"},
  };
  for (const Config& c : configs) {
    const bool evicted = c.db == evicted_;
    tpch::ScanOptions seq;
    seq.mode = c.mode;
    if (evicted) EvictAll();
    tpch::QueryResult ref = tpch::RunQuery(q, *c.db, seq);
    for (unsigned threads : {3u, 8u}) {
      tpch::ScanOptions par = seq;
      par.ctx.threads = threads;
      par.ctx.scheduler = sched_;
      if (evicted) EvictAll();
      EXPECT_EQ(tpch::RunQuery(q, *c.db, par).rows, ref.rows)
          << c.label << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelTpch, ::testing::Range(1, 23));

// Parallel queries racing the block lifecycle: scans through the worker
// pool while scheduler-backed ticks freeze, evict, tombstone and release
// archive blocks underneath them. Results must stay exact throughout (a
// block released under a reader fails its checksums, and the query with
// it), and the fully deleted chunks' blocks must all be released.
TEST(Scheduler, ParallelQueriesVsEvictionAndReleaseStress) {
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  Table t = MakeTestTable(12288, 1024);  // 12 chunks
  t.FreezeAll();
  const std::string path = "/tmp/datablocks_scheduler_stress.dbar";
  {
    LifecycleConfig cfg;
    cfg.cold_threshold = 0;
    cfg.decay_shift = 32;
    cfg.memory_budget_bytes = (t.FrozenBytes() / 12) * 3;
    cfg.tick_interval = std::chrono::milliseconds(1);
    cfg.scheduler = &sched;
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();  // evict down to ~3 resident
    // Fully delete 5 of 12 chunks: ticks will tombstone them and release
    // their archive blocks while the parallel scans below are in flight.
    for (size_t c = 0; c < 5; ++c)
      for (uint32_t r = 0; r < t.chunk_rows(c); ++r) t.Delete(MakeRowId(c, r));
    // Sum of the live ids 5 * 1024 .. 12 * 1024 - 1.
    const int64_t expect_sum = (5 * 1024 + 12 * 1024 - 1) * (7 * 1024) / 2;
    mgr.Start();

    std::atomic<bool> failed{false};
    auto parallel_scan_sum = [&] {
      auto states = ParallelScan<int64_t>(
          t, {0, 1}, {}, ScanMode::kDataBlocks, /*num_threads=*/3,
          [] { return int64_t{0}; },
          [](int64_t& sum, const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i) sum += b.cols[0].i64[i];
          },
          TableScanner::kDefaultVectorSize, BestIsa(), &sched);
      int64_t total = 0;
      for (int64_t s : states) total += s;
      return total;
    };
    // The scan slots, the point reader and the lifecycle ticks all share
    // the 3-worker pool (plus this thread and the reader thread).
    std::thread point_reader([&] {
      Rng rng(23);
      for (int i = 0; i < 1500; ++i) {
        uint64_t chunk = uint64_t(rng.Uniform(5, 11));
        uint32_t row = uint32_t(rng.Uniform(0, 1023));
        if (t.GetInt(MakeRowId(chunk, row), 0) !=
            int64_t(chunk) * 1024 + row) {
          failed = true;
        }
      }
    });
    for (int i = 0; i < 8; ++i) {
      if (parallel_scan_sum() != expect_sum) failed = true;
    }
    point_reader.join();
    mgr.Stop();
    EXPECT_FALSE(failed.load());

    // Quiesced now: whatever the racing ticks did not get to tombstone is
    // tombstoned and released by one more tick.
    mgr.Tick();
    LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.tombstoned, 5u);
    EXPECT_EQ(s.reclaimed_blocks, 5u);
    EXPECT_EQ(parallel_scan_sum(), expect_sum);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
