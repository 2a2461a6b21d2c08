// Partitioned aggregation engine: dense partition ownership is
// exactly-once across morsel interleavings, no flush leaves a partition
// lock held, a batch scope releases its partition when it ends (also by
// exception) and never blocks while owning one, straddling batches apply
// every update once, spill buffers are flushed by the time the parallel
// region joins, the single-worker degenerate case applies directly, the sparse
// AggHashTable / partition-wise merge, and the O(rows x slots) -> O(rows)
// dense-state guarantee on the TPC-H dense-keyed queries (asserted
// through the aggregation-state byte counters).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "test_table_util.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace datablocks {
namespace {

TEST(AggState, CountersTrackCurrentAndPeakBytes) {
  aggstate::ResetPeaks();
  const aggstate::Stats before = aggstate::GetStats();
  {
    PartitionedDense<int64_t, int64_t, ApplyAdd> state(1000, 1);
    const aggstate::Stats during = aggstate::GetStats();
    EXPECT_EQ(during.dense_bytes, before.dense_bytes + 1000 * 8);
    EXPECT_GE(during.peak_dense_bytes, before.dense_bytes + 1000 * 8);
  }
  const aggstate::Stats after = aggstate::GetStats();
  EXPECT_EQ(after.dense_bytes, before.dense_bytes);       // released
  EXPECT_GE(after.peak_dense_bytes, 1000 * 8ull);         // peak sticks
  EXPECT_GE(after.peak_total_bytes, after.peak_dense_bytes);
}

TEST(PartitionedDense, SingleSlotAppliesDirectly) {
  PartitionedDense<int32_t, int32_t, ApplyAdd> state(100, 1);
  auto& sink = state.sink(0);
  for (int i = 0; i < 100; ++i) sink.Add(size_t(i % 10), 1);
  // No buffering in the degenerate case: visible without any Flush.
  EXPECT_EQ(sink.pending(), 0u);
  for (int k = 0; k < 10; ++k) EXPECT_EQ(state.dense()[size_t(k)], 10);
  std::vector<int32_t> taken = state.Take();
  EXPECT_EQ(taken[0], 10);
}

TEST(PartitionedDense, RoutesForeignKeysThroughSpillBuffers) {
  // Two slots over [0, 100): lock partitioning is finer than the slots
  // (power-of-two spans, up to kMaxPartitions) and covers the domain.
  PartitionedDense<int32_t, int32_t, ApplyAdd> state(100, 2);
  EXPECT_EQ(state.OwnerOf(0), 0u);
  EXPECT_EQ(state.OwnerOf(99), size_t(state.partitions()) - 1);
  EXPECT_LE(state.partitions(), 64u);
  for (size_t k = 1; k < 100; ++k) {
    EXPECT_LE(state.OwnerOf(k - 1), state.OwnerOf(k));  // contiguous ranges
  }
  auto& sink = state.sink(0);
  sink.Add(75, 7);  // foreign partition: buffered, not yet applied
  EXPECT_EQ(sink.pending(), 1u);
  EXPECT_EQ(state.dense()[75], 0);
  sink.Flush();
  EXPECT_EQ(sink.pending(), 0u);
  EXPECT_EQ(state.dense()[75], 7);
}

TEST(PartitionedDense, AutoFlushesFullSpillBuffers) {
  using State = PartitionedDense<int64_t, int64_t, ApplyAdd>;
  State state(10, 2);
  auto& sink = state.sink(0);
  // Push exactly one full buffer of foreign-partition updates: the last
  // Add crosses kSpillCapacity and must flush without an explicit call.
  for (size_t i = 0; i < State::kSpillCapacity; ++i) sink.Add(9, 1);
  EXPECT_EQ(sink.pending(), 0u);
  EXPECT_EQ(state.dense()[9], int64_t(State::kSpillCapacity));
}

TEST(PartitionedDense, FlushLeavesNoLockHeld) {
  // A tiny domain is ONE partition, so every flush of either slot takes
  // the same lock. A slot that stops after a flush (its scan threw, or it
  // is between morsels) must not keep that lock: the other slot's flush
  // has to go through without waiting for it.
  using State = PartitionedDense<int64_t, int64_t, ApplyAdd>;
  State state(10, 2);
  ASSERT_EQ(state.partitions(), 1u);
  for (size_t i = 0; i < State::kSpillCapacity; ++i) state.sink(0).Add(3, 1);
  ASSERT_EQ(state.sink(0).pending(), 0u);  // auto-flushed, then stopped

  std::atomic<bool> flushed{false};
  std::thread other([&] {
    for (size_t i = 0; i < State::kSpillCapacity; ++i) {
      state.sink(1).Add(7, 1);
    }
    flushed.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flushed.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool flushed_in_time = flushed.load();
  state.sink(0).Flush();  // unblocks the other slot if a lock was kept
  other.join();
  EXPECT_TRUE(flushed_in_time) << "slot 1's flush waited on slot 0's lock";
  EXPECT_EQ(state.dense()[3], int64_t(State::kSpillCapacity));
  EXPECT_EQ(state.dense()[7], int64_t(State::kSpillCapacity));
}

TEST(PartitionedDense, ExactlyOnceAcrossMorselInterleavings) {
  // 4 slots on a 3-worker pool hammer one shared dense vector with updates
  // whose keys sweep every partition from every slot (the domain is large
  // enough for multiple partitions, so mixed buffers take the radix
  // path), far past the spill capacity so mid-scan flushes interleave
  // with concurrent adds.
  const size_t kDomain = 200000;
  const int kPerSlotRounds = 50000;
  const unsigned kSlots = 4;
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  PartitionedDense<int64_t, int64_t, ApplyAdd> state(kDomain, kSlots);
  ASSERT_GT(state.partitions(), 1u);  // scattered keys hit the radix path
  RunOnSlots(
      kSlots,
      [&](unsigned slot) {
        auto& sink = state.sink(slot);
        Rng rng(1234 + slot);
        for (int r = 0; r < kPerSlotRounds; ++r) {
          sink.Add(size_t(rng.Uniform(0, int64_t(kDomain) - 1)), 1);
        }
        sink.Flush();
      },
      &sched);
  // Every update applied exactly once, no matter which worker flushed
  // into which partition when.
  int64_t total = 0;
  for (int64_t v : state.dense()) total += v;
  EXPECT_EQ(total, int64_t(kSlots) * kPerSlotRounds);
}

using Dense = PartitionedDense<int64_t, int64_t, ApplyAdd>;
using BatchScope = Dense::Sink::BatchScope;

/// Waits up to `seconds` for `done`.
bool WaitFor(const std::atomic<bool>& done, int seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done.load();
}

/// Whether a full buffer of `key` updates through `sink`, flushed on
/// another thread, completes within a few seconds (it waits on `key`'s
/// partition lock). Calls `unblock` either way; a flush that stays blocked
/// after that cannot be joined, so the test binary aborts.
template <typename Unblock>
bool SiblingFlushCompletes(Dense::Sink& sink, size_t key, Unblock unblock) {
  std::atomic<bool> flushed{false};
  std::thread other([&] {
    for (size_t i = 0; i < Dense::kSpillCapacity; ++i) sink.Add(key, 1);
    flushed.store(true);
  });
  const bool in_time = WaitFor(flushed, 5);
  unblock();
  if (!WaitFor(flushed, 5)) {
    std::fprintf(stderr, "a sibling's flush stays blocked on a partition "
                         "lock nobody releases\n");
    std::abort();
  }
  other.join();
  return in_time;
}

TEST(PartitionedDense, BatchScopeOwnsOnePartitionUntilItEnds) {
  // One partition, two slots. A scope's first key takes the partition and
  // applies in place; the scope's end releases it, so a sibling's flush
  // into it completes.
  Dense state(10, 2);
  ASSERT_EQ(state.partitions(), 1u);
  Dense::Sink& owner = state.sink(0);
  {
    BatchScope scope(owner);
    owner.Add(3, 1);
    owner.Add(4, 2);
    EXPECT_EQ(owner.pending(), 0u);  // applied in place, not buffered
    EXPECT_EQ(state.dense()[3], 1);
    EXPECT_EQ(state.dense()[4], 2);
  }
  owner.Add(5, 1);  // outside a scope: spill only
  EXPECT_EQ(owner.pending(), 1u);
  EXPECT_TRUE(SiblingFlushCompletes(state.sink(1), 7, [&] { owner.Flush(); }))
      << "a sibling's flush waited on a partition whose scope had ended";
  owner.Flush();
  EXPECT_EQ(state.dense()[5], 1);
  EXPECT_EQ(state.dense()[7], int64_t(Dense::kSpillCapacity));
}

TEST(PartitionedDense, BatchScopeEndingInAnExceptionReleasesItsPartition) {
  Dense state(10, 2);
  Dense::Sink& owner = state.sink(0);
  try {
    BatchScope scope(owner);
    owner.Add(3, 1);
    throw std::runtime_error("produce failed mid-batch");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(SiblingFlushCompletes(state.sink(1), 7, [] {}))
      << "the partition stayed owned after the batch threw";
  EXPECT_EQ(state.dense()[3], 1);
  EXPECT_EQ(state.dense()[7], int64_t(Dense::kSpillCapacity));
}

TEST(PartitionedDense, StraddlingBatchesApplyEveryUpdateOnce) {
  // Two slots' batches straddle the boundary between partitions 0 and 1.
  // The first to reach partition 1 owns it; the other's try_lock fails and
  // it spills. Keys of partition 0 spill in both (one try per batch).
  Dense state(4 * Dense::kMinPartitionSpan, 2);
  ASSERT_GE(state.partitions(), 2u);
  const size_t boundary = Dense::kMinPartitionSpan;
  ASSERT_EQ(state.OwnerOf(boundary - 1) + 1, state.OwnerOf(boundary));
  Dense::Sink& a = state.sink(0);
  Dense::Sink& b = state.sink(1);
  {
    BatchScope scope_a(a);
    BatchScope scope_b(b);
    a.Add(boundary, 1);      // a owns partition 1
    b.Add(boundary + 1, 1);  // b cannot: spills, and spills from now on
    for (size_t k = boundary - 50; k < boundary + 50; ++k) {
      a.Add(k, 1);
      b.Add(k, 1);
    }
    EXPECT_EQ(a.pending(), 50u);   // its partition-0 keys
    EXPECT_EQ(b.pending(), 101u);  // everything
    EXPECT_EQ(state.dense()[boundary], 2);  // a's two, in place
  }
  a.Flush();
  b.Flush();
  for (size_t k = boundary - 50; k < boundary + 50; ++k) {
    const int64_t extra = (k == boundary) + (k == boundary + 1);
    EXPECT_EQ(state.dense()[k], 2 + extra) << k;
  }

  // The same race on threads: every batch straddles the boundary, starting
  // on either side, and every update lands exactly once.
  Dense raced(4 * Dense::kMinPartitionSpan, 2);
  const int kBatches = 2000;
  std::atomic<int> finished{0};
  std::atomic<bool> done{false};
  auto run = [&](unsigned slot) {
    Dense::Sink& sink = raced.sink(slot);
    Rng rng(99 + slot);
    for (int i = 0; i < kBatches; ++i) {
      BatchScope scope(sink);
      const bool up = rng.Uniform(0, 1) == 1;
      for (size_t j = 0; j < 64; ++j) {
        sink.Add(up ? boundary - 32 + j : boundary + 31 - j, 1);
      }
    }
    sink.Flush();
    if (finished.fetch_add(1) == 1) done.store(true);
  };
  std::thread t0(run, 0u), t1(run, 1u);
  if (!WaitFor(done, 20)) {
    std::fprintf(stderr, "straddling batches deadlocked\n");
    std::abort();  // the threads cannot be joined
  }
  t0.join();
  t1.join();
  int64_t total = 0;
  for (size_t k = boundary - 32; k < boundary + 32; ++k) {
    EXPECT_EQ(raced.dense()[k], 2 * kBatches) << k;
    total += raced.dense()[k];
  }
  EXPECT_EQ(total, 2 * kBatches * 64);
}

TEST(PartitionedDense, OwnersFlushingIntoEachOthersPartitionsFinish) {
  // a owns partition 1 and flushes partition-0 updates, while b owns
  // partition 0 and flushes partition-1 updates. A flush that waited for a
  // lock while still owning its own partition would deadlock the pair.
  Dense state(4 * Dense::kMinPartitionSpan, 2);
  const size_t boundary = Dense::kMinPartitionSpan;
  std::atomic<int> owning{0}, finished{0};
  std::atomic<bool> done{false};
  auto run = [&](unsigned slot) {
    Dense::Sink& sink = state.sink(slot);
    const size_t own = slot == 0 ? boundary : 0;
    const size_t other = slot == 0 ? 0 : boundary;
    BatchScope scope(sink);
    sink.Add(own, 1);
    owning.fetch_add(1);
    while (owning.load() < 2) std::this_thread::yield();  // both own one
    for (size_t i = 0; i < 3 * Dense::kSpillCapacity; ++i) {
      sink.Add(other + i % 8, 1);
    }
    if (finished.fetch_add(1) == 1) done.store(true);
  };
  std::thread t0(run, 0u), t1(run, 1u);
  if (!WaitFor(done, 10)) {
    std::fprintf(stderr, "owners flushing into each other's partitions "
                         "deadlocked\n");
    std::abort();  // the threads cannot be joined
  }
  t0.join();
  t1.join();
  state.sink(0).Flush();
  state.sink(1).Flush();
  int64_t total = 0;
  for (int64_t v : state.dense()) total += v;
  EXPECT_EQ(total, 2 * (1 + 3 * int64_t(Dense::kSpillCapacity)));
}

TEST(ParDenseAgg, FlushesBeforeTheParallelRegionJoins) {
  // End-to-end through the morsel driver: per-key sums over a real table
  // must equal the reference result immediately after the call returns —
  // i.e. every spill buffer was flushed before the parallel region
  // joined.
  Table t = MakeTestTable(20000, 1024, /*delete_every=*/7, /*freeze=*/true);
  const size_t kDomain = 64;
  std::vector<int64_t> expect(kDomain, 0);
  {
    TableScanner scan(t, {0, 1}, {}, ScanMode::kDataBlocks);
    Batch b;
    while (scan.Next(&b)) {
      for (uint32_t i = 0; i < b.count; ++i) {
        expect[size_t(b.cols[0].i64[i]) % kDomain] += b.cols[1].i32[i];
      }
    }
  }
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  for (unsigned threads : {1u, 3u, 8u}) {
    tpch::ScanOptions opt;
    opt.mode = ScanMode::kDataBlocks;
    opt.ctx.threads = threads;
    opt.ctx.scheduler = &sched;
    std::vector<int64_t> got = tpch::detail::ParDenseAgg<int64_t, int64_t>(
        t, opt, {0, 1}, {}, kDomain,
        [](auto& sink, const Batch& b) {
          for (uint32_t i = 0; i < b.count; ++i) {
            sink.Add(size_t(b.cols[0].i64[i]) % 64, b.cols[1].i32[i]);
          }
        },
        ApplyAdd{});
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

TEST(ParDenseAgg, ProduceThrowingMidBatchFailsTheQueryInsteadOfHanging) {
  // A domain of one partition: every slot's batches contend for it. One
  // produce call throws while its scope owns the partition; the siblings
  // must still finish, and the exception must leave the join.
  Table t = MakeTestTable(20000, 1024, /*delete_every=*/0, /*freeze=*/true);
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  tpch::ScanOptions opt;
  opt.mode = ScanMode::kDataBlocks;
  opt.ctx.threads = 4;
  opt.ctx.scheduler = &sched;
  std::atomic<int> batches{0};
  EXPECT_THROW(
      (tpch::detail::ParDenseAgg<int64_t, int64_t>(
          t, opt, {0, 1}, {}, 64,
          [&](auto& sink, const Batch& b) {
            for (uint32_t i = 0; i < b.count; ++i) {
              sink.Add(size_t(b.cols[0].i64[i]) % 64, b.cols[1].i32[i]);
            }
            if (batches.fetch_add(1) == 5) {
              throw std::runtime_error("produce failed mid-batch");
            }
          },
          ApplyAdd{})),
      std::runtime_error);
}

TEST(SharedStoreDense, IdempotentStoresFromConcurrentSlots) {
  // Duplicate idempotent stores from racing slots: one shared vector, no
  // replicas, every flagged element set after the join.
  const size_t kDomain = 4096;
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  aggstate::ResetPeaks();
  SharedStoreDense<uint8_t> state(kDomain);
  EXPECT_GE(aggstate::GetStats().dense_bytes, kDomain);
  RunOnSlots(
      4,
      [&](unsigned slot) {
        Rng rng(77 + slot);
        for (int i = 0; i < 20000; ++i) {
          state.Store(size_t(rng.Uniform(0, int64_t(kDomain) - 1)) & ~1ull,
                      1);  // even keys only, from every slot
        }
      },
      &sched);
  std::vector<uint8_t> flags = state.Take();
  for (size_t k = 1; k < kDomain; k += 2) {
    ASSERT_EQ(flags[k], 0) << k;  // odd keys never stored
  }
  int64_t set = 0;
  for (uint8_t f : flags) set += f;
  EXPECT_GT(set, int64_t(kDomain) / 4);  // 80k draws over 2k even slots
}

TEST(ParDenseStore, PackedPayloadsLeaveUnstoredElementsAtInit) {
  // The "absent" contract the TPC-H build sides rely on: concurrent slots
  // store packed 8-byte payloads over a domain with gaps (deleted rows,
  // rows the consume skips, keys past the table), and every element nobody
  // stored still holds `init` after the call returns.
  const uint32_t kRows = 20000;
  const size_t kDomain = kRows + 100;
  const uint64_t kInit = 0x5a5a5a5a5a5a5a5aull;
  auto pack = [](int64_t id, int32_t val) {
    return uint64_t{1} << 63 | uint64_t(uint32_t(val)) << 32 | uint32_t(id);
  };
  Table t = MakeTestTable(kRows, 1024, /*delete_every=*/7, /*freeze=*/true);
  std::vector<uint64_t> expect(kDomain, kInit);
  {
    TableScanner scan(t, {0, 1}, {}, ScanMode::kDataBlocks);
    Batch b;
    while (scan.Next(&b)) {
      for (uint32_t i = 0; i < b.count; ++i) {
        if (b.cols[1].i32[i] % 3 == 0) continue;
        expect[size_t(b.cols[0].i64[i])] =
            pack(b.cols[0].i64[i], b.cols[1].i32[i]);
      }
    }
  }
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  for (unsigned threads : {1u, 4u}) {
    tpch::ScanOptions opt;
    opt.mode = ScanMode::kDataBlocks;
    opt.ctx.threads = threads;
    opt.ctx.scheduler = &sched;
    std::vector<uint64_t> got = tpch::detail::ParDenseStore<uint64_t>(
        t, opt, {0, 1}, {}, kDomain,
        [&pack](auto& sink, const Batch& b) {
          for (uint32_t i = 0; i < b.count; ++i) {
            if (b.cols[1].i32[i] % 3 == 0) continue;
            sink.Store(size_t(b.cols[0].i64[i]),
                       pack(b.cols[0].i64[i], b.cols[1].i32[i]));
          }
        },
        kInit);
    EXPECT_EQ(got, expect) << "threads=" << threads;
    EXPECT_EQ(got[0], kInit);           // deleted row
    EXPECT_EQ(got[kDomain - 1], kInit);  // past the table
  }
}

TEST(AggHashTable, InsertFindGrowForEach) {
  aggstate::ResetPeaks();
  AggHashTable<int64_t> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(42), nullptr);
  for (uint64_t k = 0; k < 10000; ++k) t.Ref(k * 3) += int64_t(k);
  for (uint64_t k = 0; k < 10000; ++k) t.Ref(k * 3) += 1;  // hit, not grow
  EXPECT_EQ(t.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    const int64_t* v = t.Find(k * 3);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, int64_t(k) + 1);
  }
  EXPECT_EQ(t.Find(1), nullptr);  // absent keys between the multiples
  size_t seen = 0;
  int64_t sum = 0;
  t.ForEach([&](uint64_t, const int64_t& v) {
    ++seen;
    sum += v;
  });
  EXPECT_EQ(seen, 10000u);
  EXPECT_EQ(sum, int64_t(9999) * 10000 / 2 + 10000);
  // Growing re-accounted its bytes; moving transfers ownership once.
  EXPECT_GE(aggstate::GetStats().table_bytes, t.capacity_bytes());
  AggHashTable<int64_t> moved = std::move(t);
  EXPECT_EQ(moved.size(), 10000u);
  EXPECT_EQ(*moved.Find(0), 1);
}

TEST(MergeAggTables, PartitionWiseMergeMatchesReference) {
  const unsigned kPartitions = 4;
  Scheduler sched(Scheduler::Options{.num_workers = 2});
  std::vector<PartitionedAggTable<int64_t>> locals;
  std::map<uint64_t, int64_t> reference;
  Rng rng(99);
  for (unsigned w = 0; w < 3; ++w) {
    locals.emplace_back(PartitionedAggTable<int64_t>(kPartitions));
    for (int i = 0; i < 5000; ++i) {
      uint64_t key = uint64_t(rng.Uniform(0, 999));
      int64_t val = rng.Uniform(1, 100);
      locals.back().Ref(key) += val;
      reference[key] += val;
    }
  }
  PartitionedAggTable<int64_t> merged =
      MergeAggTables(locals, ApplyAdd{}, &sched);
  EXPECT_EQ(merged.partitions(), kPartitions);
  std::map<uint64_t, int64_t> got;
  merged.ForEach([&](uint64_t k, const int64_t& v) {
    EXPECT_TRUE(got.emplace(k, v).second) << "duplicate key " << k;
  });
  EXPECT_EQ(got, reference);
  // Spot-check the routing invariant: every entry sits in its partition.
  for (unsigned p = 0; p < kPartitions; ++p) {
    merged.partition(p).ForEach([&](uint64_t k, const int64_t&) {
      EXPECT_EQ(merged.PartitionIndexOf(k), p);
    });
  }
}

// The acceptance guarantee of the engine: the dense-keyed TPC-H queries
// allocate ONE O(rows) dense state total, independent of the thread
// count. With per-slot replicas the dense peak would scale with slots;
// with the partitioned engine it is bit-for-bit equal between the
// sequential and the 4-slot run (spill buffers are accounted separately
// and bounded by slots^2 * kSpillCapacity entries).
TEST(PartitionedAgg, DenseQueryStatePeakIndependentOfThreads) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  cfg.chunk_capacity = 4096;  // several morsels per table
  auto db = tpch::MakeTpch(cfg);
  Scheduler sched(Scheduler::Options{.num_workers = 3});
  for (int q : {13, 15, 18, 21, 22}) {
    tpch::ScanOptions seq;
    seq.mode = ScanMode::kVectorizedSarg;
    aggstate::ResetPeaks();
    tpch::QueryResult ref = tpch::RunQuery(q, *db, seq);
    const uint64_t dense_peak_seq = aggstate::GetStats().peak_dense_bytes;
    EXPECT_GT(dense_peak_seq, 0u) << "Q" << q << " is not dense-keyed?";

    tpch::ScanOptions par = seq;
    par.ctx.threads = 4;
    par.ctx.scheduler = &sched;
    aggstate::ResetPeaks();
    tpch::QueryResult got = tpch::RunQuery(q, *db, par);
    const aggstate::Stats stats = aggstate::GetStats();
    EXPECT_EQ(stats.peak_dense_bytes, dense_peak_seq) << "Q" << q;
    EXPECT_EQ(got.rows, ref.rows) << "Q" << q;
  }
}

}  // namespace
}  // namespace datablocks
