// Appendix E extensions and storage-eviction support: eager aggregation,
// morsel-parallel scans, micro-adaptive flavor choice, block archives.

#include <gtest/gtest.h>

#include <cstdio>

#include "exec/eager_agg.h"
#include "exec/micro_adaptive.h"
#include "exec/parallel_scan.h"
#include "storage/block_archive.h"
#include "util/rng.h"

namespace datablocks {
namespace {

Schema TestSchema() {
  return Schema({{"k", TypeId::kInt32},
                 {"a", TypeId::kInt64},
                 {"b", TypeId::kInt32},
                 {"s", TypeId::kString}});
}

Table MakeTable(uint32_t n, uint32_t chunk_capacity, bool freeze) {
  Table t("t", TestSchema(), chunk_capacity);
  Rng rng(99);
  for (uint32_t i = 0; i < n; ++i) {
    t.Insert({Cell::Int(rng.Uniform(0, 7)),
              Cell::Int(rng.Uniform(0, 100000)),
              Cell::Int(rng.Uniform(0, 100)),
              Cell::Str(rng.Uniform(0, 1) ? "x" : "y")});
  }
  if (freeze) t.FreezeAll();
  return t;
}

struct Reference {
  int64_t count = 0, sum_a = 0, sum_ab = 0;
};

Reference BruteForce(const Table& t, int64_t b_lo, int64_t b_hi) {
  Reference ref;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    for (uint32_t r = 0; r < t.chunk_rows(c); ++r) {
      RowId id = MakeRowId(c, r);
      int64_t b = t.GetInt(id, 2);
      if (b < b_lo || b > b_hi) continue;
      int64_t a = t.GetInt(id, 1);
      ++ref.count;
      ref.sum_a += a;
      ref.sum_ab += a * b;
    }
  }
  return ref;
}

TEST(EagerAgg, MatchesBruteForce) {
  for (bool freeze : {false, true}) {
    Table t = MakeTable(20000, 2048, freeze);
    Reference ref = BruteForce(t, 10, 60);
    EagerAggResult got = EagerAggregate(
        t, 1, 2, {Predicate::Between(2, Value::Int(10), Value::Int(60))},
        freeze ? ScanMode::kDataBlocksPsma : ScanMode::kVectorizedSarg);
    EXPECT_EQ(got.count, ref.count);
    EXPECT_EQ(got.sum_a, ref.sum_a);
    EXPECT_EQ(got.sum_product, ref.sum_ab);
  }
}

TEST(EagerAgg, SingleColumn) {
  Table t = MakeTable(5000, 1024, true);
  Reference ref = BruteForce(t, 0, 100);  // no restriction on b
  EagerAggResult got =
      EagerAggregate(t, 1, UINT32_MAX, {}, ScanMode::kDataBlocks);
  EXPECT_EQ(got.count, ref.count);
  EXPECT_EQ(got.sum_a, ref.sum_a);
  EXPECT_EQ(got.sum_product, ref.sum_a);
}

TEST(EagerAgg, GroupedMatchesGlobal) {
  Table t = MakeTable(20000, 2048, true);
  auto groups = EagerAggregateGrouped(
      t, 0, 8, 1, 2, {Predicate::Le(2, Value::Int(50))},
      ScanMode::kDataBlocksPsma);
  ASSERT_EQ(groups.size(), 8u);
  EagerAggResult total;
  for (const auto& g : groups) total.Merge(g);
  EagerAggResult global = EagerAggregate(
      t, 1, 2, {Predicate::Le(2, Value::Int(50))}, ScanMode::kDataBlocksPsma);
  EXPECT_EQ(total.count, global.count);
  EXPECT_EQ(total.sum_a, global.sum_a);
  EXPECT_EQ(total.sum_product, global.sum_product);
  // Groups must be non-trivial (uniform keys over 8 groups).
  for (const auto& g : groups) EXPECT_GT(g.count, 0);
}

TEST(ParallelScanTest, MatchesSerialAggregation) {
  Table t = MakeTable(50000, 1024, true);
  auto serial = EagerAggregate(
      t, 1, 2, {Predicate::Between(2, Value::Int(5), Value::Int(80))},
      ScanMode::kDataBlocksPsma);
  for (unsigned threads : {1u, 2u, 4u}) {
    auto states = ParallelScan<EagerAggResult>(
        t, {1, 2}, {Predicate::Between(2, Value::Int(5), Value::Int(80))},
        ScanMode::kDataBlocksPsma, threads,
        [] { return EagerAggResult{}; },
        [](EagerAggResult& state, const Batch& b) {
          for (uint32_t i = 0; i < b.count; ++i) {
            ++state.count;
            state.sum_a += b.cols[0].i64[i];
            state.sum_product += b.cols[0].i64[i] * b.cols[1].i32[i];
          }
        });
    EagerAggResult merged;
    for (const auto& s : states) merged.Merge(s);
    EXPECT_EQ(merged.count, serial.count) << threads;
    EXPECT_EQ(merged.sum_a, serial.sum_a) << threads;
    EXPECT_EQ(merged.sum_product, serial.sum_product) << threads;
  }
}

TEST(ParallelScanTest, MixedHotAndFrozen) {
  Table t = MakeTable(30000, 1024, false);
  for (size_t c = 0; c + 1 < t.num_chunks(); c += 2) t.FreezeChunk(c);
  auto states = ParallelScan<int64_t>(
      t, {1}, {}, ScanMode::kDataBlocks, 2, [] { return int64_t{0}; },
      [](int64_t& count, const Batch& b) { count += b.count; });
  int64_t total = states[0] + states[1];
  EXPECT_EQ(total, 30000);
}

TEST(MicroAdaptive, ConvergesToCheapestFlavor) {
  FlavorChooser chooser(3);
  Rng rng(3);
  // Flavor costs: 2.0, 0.5, 1.0 (+noise). The chooser must settle on 1.
  int chosen_best = 0;
  for (int i = 0; i < 2000; ++i) {
    uint32_t f = chooser.Choose();
    double base = f == 0 ? 2.0 : (f == 1 ? 0.5 : 1.0);
    chooser.Report(f, base + rng.NextDouble() * 0.1);
    if (i > 100 && f == 1) ++chosen_best;
  }
  EXPECT_EQ(chooser.Best(), 1u);
  // The vast majority of post-warmup calls pick the winner.
  EXPECT_GT(chosen_best, 1500);
}

TEST(MicroAdaptive, AdaptsWhenCostsShift) {
  FlavorChooser chooser(2, /*explore_fraction=*/0.2);
  for (int i = 0; i < 100; ++i) {
    uint32_t f = chooser.Choose();
    chooser.Report(f, f == 0 ? 1.0 : 3.0);
  }
  EXPECT_EQ(chooser.Best(), 0u);
  // Costs flip; periodic exploration must discover it.
  for (int i = 0; i < 300; ++i) {
    uint32_t f = chooser.Choose();
    chooser.Report(f, f == 0 ? 3.0 : 1.0);
  }
  EXPECT_EQ(chooser.Best(), 1u);
}

TEST(BlockArchiveTest, AppendReadRoundTrip) {
  Table t = MakeTable(10000, 2048, true);
  const std::string path = "/tmp/datablocks_archive_test.bin";
  StatusOr<BlockArchive> archive = BlockArchive::Create(path);
  ASSERT_TRUE(archive.ok());
  for (size_t c = 0; c < t.num_chunks(); ++c)
    ASSERT_TRUE(archive->AppendBlock(*t.frozen_block(c), uint32_t(c)).ok());

  Table reloaded("t2", TestSchema(), 2048);
  for (size_t c = 0; c < t.num_chunks(); ++c)
    reloaded.AppendFrozen(archive->ReadBlock(c).value());
  EXPECT_EQ(reloaded.num_rows(), t.num_rows());
  // Identical point accesses...
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    RowId id = MakeRowId(uint64_t(rng.Uniform(0, int64_t(t.num_chunks()) - 1)),
                         uint32_t(rng.Uniform(0, 2047)));
    if (RowIdRow(id) >= t.chunk_rows(RowIdChunk(id))) continue;
    EXPECT_TRUE(t.GetValue(id, 1) == reloaded.GetValue(id, 1));
    EXPECT_EQ(t.GetStringView(id, 3), reloaded.GetStringView(id, 3));
  }
  // ...and identical scans.
  auto a = EagerAggregate(t, 1, 2, {Predicate::Ge(2, Value::Int(50))},
                          ScanMode::kDataBlocksPsma);
  auto b = EagerAggregate(reloaded, 1, 2,
                          {Predicate::Ge(2, Value::Int(50))},
                          ScanMode::kDataBlocksPsma);
  EXPECT_EQ(a.sum_product, b.sum_product);
  EXPECT_EQ(a.count, b.count);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
