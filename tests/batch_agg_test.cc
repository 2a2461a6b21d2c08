// Batch aggregation kernels (exec/batch_agg.h) against per-row reference
// loops, in the scalar flavour and in every flavour the host runs, on
// seeded adversarial batches: one row and full 8192-row batches, one group
// and more groups than the register slots, values at the 32-bit edges,
// every (discount, tax) pair, runs of one row, a run spanning the whole
// batch and runs crossing batch and partition boundaries. Out-of-range
// group keys abort instead of writing past the caller's arrays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "exec/batch_agg.h"
#include "exec/eager_agg.h"
#include "exec/partitioned_agg.h"
#include "util/rng.h"

namespace datablocks {
namespace {

std::vector<Isa> Flavours() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

constexpr uint32_t kBatchSizes[] = {1, 3, 4, 7, 511, 512, 513, 1023, 1024,
                                    1025, 8192};

// ---------------------------------------------------------------------------
// EagerAggregateGrouped
// ---------------------------------------------------------------------------

TEST(EagerAggregateGroupedDeathTest, OutOfRangeKeyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table t("t", Schema({{"g", TypeId::kInt32}, {"a", TypeId::kInt64}}), 1024);
  for (int i = 0; i < 3000; ++i) {
    t.Insert({Cell::Int(i == 2021 ? 8 : i % 8), Cell::Int(i)});
  }
  // The in-range table aggregates; one key of 8 in an 8-group grid aborts
  // at the range check itself (an unchecked write past the group array can
  // trip an unrelated check later, so the message names the condition).
  EXPECT_DEATH(EagerAggregateGrouped(t, 0, 8, 1, UINT32_MAX, {},
                                     ScanMode::kVectorized),
               "DB_CHECK failed: key >= 0");
  auto groups = EagerAggregateGrouped(t, 0, 9, 1, UINT32_MAX, {},
                                      ScanMode::kVectorized);
  ASSERT_EQ(groups.size(), 9u);
  EXPECT_EQ(groups[8].count, 1);
  EXPECT_EQ(groups[8].sum_a, 2021);
}

// ---------------------------------------------------------------------------
// PricingSums
// ---------------------------------------------------------------------------

struct Grid {
  std::vector<int64_t> sums, counts;
  Grid(uint32_t groups, uint32_t k)
      : sums(size_t(groups) * k), counts(groups) {}
  bool operator==(const Grid& o) const {
    return sums == o.sums && counts == o.counts;
  }
};

struct PricingBatch {
  std::vector<int32_t> qty, disc, tax, rf, ls;
  std::vector<int64_t> price;

  void Add(int32_t q, int64_t p, int32_t d, int32_t t, char r, char l) {
    qty.push_back(q);
    price.push_back(p);
    disc.push_back(d);
    tax.push_back(t);
    rf.push_back(r);
    ls.push_back(l);
  }
  uint32_t size() const { return uint32_t(qty.size()); }
  PricingColumns Columns(uint32_t off = 0) const {
    return {qty.data() + off, price.data() + off, disc.data() + off,
            tax.data() + off, rf.data() + off,    ls.data() + off};
  }
};

/// Q1's per-row loop: the formula PricingSums must reproduce exactly.
Grid ReferencePricing(const PricingBatch& b) {
  Grid g(kFlagGrid, kPricingSums);
  for (uint32_t i = 0; i < b.size(); ++i) {
    const size_t key = size_t(b.rf[i] - 'A') * 26 + size_t(b.ls[i] - 'A');
    int64_t* s = &g.sums[key * kPricingSums];
    const int64_t dp = b.price[i] * (100 - b.disc[i]);
    s[kSumQty] += b.qty[i];
    s[kSumBasePrice] += b.price[i];
    s[kSumDiscPrice] += dp;
    s[kSumCharge] += dp * (100 + b.tax[i]) / 100;
    s[kSumDisc] += b.disc[i];
    ++g.counts[key];
  }
  return g;
}

/// PricingSums over the batch in calls of at most 8192 rows.
Grid KernelPricing(const PricingBatch& b, Isa isa) {
  Grid g(kFlagGrid, kPricingSums);
  for (uint32_t off = 0; off < b.size(); off += 8192) {
    PricingSums(b.Columns(off), std::min(8192u, b.size() - off),
                g.sums.data(), g.counts.data(), isa);
  }
  return g;
}

constexpr char kFlags[][2] = {{'A', 'F'}, {'N', 'O'}, {'R', 'F'},
                              {'N', 'F'}, {'A', 'A'}, {'Z', 'Z'},
                              {'B', 'Q'}, {'Q', 'B'}, {'M', 'M'}};

/// A price from the edges of the exact range (0, 2^24 - 1, and one past it)
/// or a typical TPC-H one.
int64_t EdgePrice(Rng& rng) {
  static constexpr int64_t kEdges[] = {0,           1,          99,
                                       100,         (1 << 24) - 1, 1 << 24,
                                       10494950,    -1};
  if (rng.Uniform(0, 1) == 0) {
    return kEdges[rng.Uniform(0, int64_t(std::size(kEdges)) - 1)];
  }
  return rng.Uniform(90000, 10494950);
}

// Every (discount, tax) pair over the bounds the AVX2 flavour sums in
// registers and past them (negative, 16 and up, 100 and up), with prices at
// the edges: the truncating charge must come out as the per-row formula's.
TEST(PricingSums, EveryDiscountTaxPair) {
  Rng rng(5);
  PricingBatch b;
  for (int32_t disc = -3; disc <= 105; ++disc) {
    for (int32_t tax = -3; tax <= 105; ++tax) {
      for (int rep = 0; rep < 2; ++rep) {
        const auto& flag = kFlags[rng.Uniform(0, 3)];
        b.Add(int32_t(rng.Uniform(1, 50)), EdgePrice(rng), disc, tax, flag[0],
              flag[1]);
      }
    }
  }
  // And every pair inside the register bounds, taxes up to the bound's
  // edge, with in-range prices only, so those chunks take the register
  // path.
  std::vector<int32_t> taxes = {(1 << 24) - 1, (1 << 24) - 2, 1 << 23};
  for (int32_t tax = 0; tax < 256; ++tax) taxes.push_back(tax);
  PricingBatch in_bounds;
  for (int32_t disc = 0; disc < 16; ++disc) {
    for (int32_t tax : taxes) {
      for (int64_t price : {int64_t(0), int64_t(99), int64_t(100),
                            int64_t((1 << 24) - 1),
                            int64_t(rng.Uniform(1, (1 << 24) - 1))}) {
        const auto& flag = kFlags[rng.Uniform(0, 3)];
        in_bounds.Add(int32_t(rng.Uniform(0, 63)), price, disc, tax, flag[0],
                      flag[1]);
      }
    }
  }
  for (Isa isa : Flavours()) {
    EXPECT_TRUE(KernelPricing(b, isa) == ReferencePricing(b)) << IsaName(isa);
    EXPECT_TRUE(KernelPricing(in_bounds, isa) == ReferencePricing(in_bounds))
        << IsaName(isa);
  }
}

// Batches of one group with every value at the largest the register path
// takes (each packed field and the division at their limits), and with
// one value just past it (those chunks go row by row).
TEST(PricingSums, ValuesAtTheRegisterBounds) {
  struct Case {
    int32_t qty;
    int64_t price;
    int32_t disc, tax;
  };
  const Case cases[] = {
      {63, (1 << 24) - 1, 15, (1 << 24) - 1},  // at the bounds
      {64, (1 << 24) - 1, 15, 8},              // quantity past
      {63, (1 << 25) - 1, 15, 8},              // price past
      {63, (1 << 24) - 1, 16, 8},              // discount past
      {63, (1 << 24) - 1, 31, 8},
      {63, (1 << 24) - 1, 15, 1 << 24},  // tax past
      {63, (1 << 24) - 1, 15, (1 << 26) + 5},
      {63, (1 << 24) - 1, 15, (1 << 27) + 9},
  };
  for (const Case& c : cases) {
    // Two chunks of 512 rows: each lane of the one slot gets 128 rows.
    // (More rows of the largest taxes would overflow the int64 sums.)
    PricingBatch b;
    for (uint32_t i = 0; i < 1024; ++i) {
      // Prices step down from the case's so the remainders mod 100 vary.
      b.Add(c.qty, c.price - i % 100, c.disc, c.tax, 'R', 'F');
    }
    // A 13-row batch whose rows 8-11 alone carry the case: they are
    // checked one by one but summed in registers.
    PricingBatch tail;
    for (uint32_t i = 0; i < 13; ++i) {
      const Case& row = i >= 8 && i < 12 ? c : cases[0];
      tail.Add(row.qty, row.price - i, row.disc, row.tax, 'R', 'F');
    }
    for (const PricingBatch* batch : {&b, &tail}) {
      const Grid expect = ReferencePricing(*batch);
      for (Isa isa : Flavours()) {
        EXPECT_TRUE(KernelPricing(*batch, isa) == expect)
            << IsaName(isa) << " rows=" << batch->size() << " qty=" << c.qty
            << " price=" << c.price << " disc=" << c.disc << " tax=" << c.tax;
      }
    }
  }
}

TEST(PricingSums, BatchSizesAndGroupCounts) {
  Rng rng(77);
  for (uint32_t n : kBatchSizes) {
    for (uint32_t groups : {1u, 2u, 4u, 8u, 9u}) {
      PricingBatch b;
      for (uint32_t i = 0; i < n; ++i) {
        const auto& flag = kFlags[rng.Uniform(0, groups - 1)];
        b.Add(int32_t(rng.Uniform(1, 50)), int64_t(rng.Uniform(0, 10494950)),
              int32_t(rng.Uniform(0, 10)), int32_t(rng.Uniform(0, 8)),
              flag[0], flag[1]);
      }
      const Grid expect = ReferencePricing(b);
      for (Isa isa : Flavours()) {
        EXPECT_TRUE(KernelPricing(b, isa) == expect)
            << "n=" << n << " groups=" << groups << " isa=" << IsaName(isa);
      }
    }
  }
}

// Keys of a previous chunk carry over: a chunk whose groups are a subset
// of (or differ from) its predecessor's still sums exactly.
TEST(PricingSums, GroupsChangingBetweenChunks) {
  PricingBatch b;
  for (uint32_t i = 0; i < 4096; ++i) {
    const auto& flag = kFlags[(i / 512) % 2 == 0 ? i % 2 : 2 + i % 7];
    b.Add(int32_t(i % 50), int64_t(i) * 977, int32_t(i % 11), int32_t(i % 9),
          flag[0], flag[1]);
  }
  for (Isa isa : Flavours()) {
    EXPECT_TRUE(KernelPricing(b, isa) == ReferencePricing(b)) << IsaName(isa);
  }
}

TEST(PricingSumsDeathTest, NonLetterFlagAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (Isa isa : Flavours()) {
    for (std::pair<char, char> bad :
         {std::pair<char, char>{'1', 'F'}, {'A', '['}, {'@', 'O'}}) {
      PricingBatch b;
      for (uint32_t i = 0; i < 600; ++i) {
        b.Add(1, 100, 0, 0, i == 333 ? bad.first : 'A',
              i == 333 ? bad.second : 'F');
      }
      Grid g(kFlagGrid, kPricingSums);
      EXPECT_DEATH(PricingSums(b.Columns(), b.size(), g.sums.data(),
                               g.counts.data(), isa),
                   "DB_CHECK failed: key >= 0")
          << IsaName(isa);
    }
  }
}

// ---------------------------------------------------------------------------
// RunSums
// ---------------------------------------------------------------------------

std::vector<std::pair<int64_t, int64_t>> ReferenceRuns(
    const std::vector<int64_t>& keys, const std::vector<int32_t>& vals) {
  std::vector<std::pair<int64_t, int64_t>> runs;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (runs.empty() || i == 0 || keys[i] != keys[i - 1]) {
      runs.push_back({keys[i], 0});
    }
    runs.back().second += vals[i];
  }
  return runs;
}

std::vector<std::pair<int64_t, int64_t>> KernelRuns(
    const std::vector<int64_t>& keys, const std::vector<int32_t>& vals,
    Isa isa) {
  std::vector<int64_t> run_keys(keys.size()), run_sums(keys.size());
  const uint32_t runs = RunSums(keys.data(), vals.data(), uint32_t(keys.size()),
                                run_keys.data(), run_sums.data(), isa);
  std::vector<std::pair<int64_t, int64_t>> out;
  for (uint32_t j = 0; j < runs; ++j) out.push_back({run_keys[j], run_sums[j]});
  return out;
}

int32_t EdgeInt32(Rng& rng) {
  static constexpr int32_t kEdges[] = {0, 1, -1,
                                       std::numeric_limits<int32_t>::max(),
                                       std::numeric_limits<int32_t>::min()};
  if (rng.Uniform(0, 1) == 0) return kEdges[rng.Uniform(0, 4)];
  return int32_t(rng.Uniform(0, 100));
}

TEST(RunSums, MatchesPerRowReference) {
  Rng rng(11);
  for (uint32_t n : kBatchSizes) {
    for (uint32_t max_run : {1u, 2u, 7u, 64u}) {
      std::vector<int64_t> keys;
      std::vector<int32_t> vals;
      int64_t key = int64_t(rng.Uniform(0, 1000)) - 500;
      while (keys.size() < n) {
        const uint64_t len = rng.Uniform(1, max_run);
        for (uint64_t j = 0; j < len && keys.size() < n; ++j) {
          keys.push_back(key);
          vals.push_back(EdgeInt32(rng));
        }
        // Mostly ascending like orderkeys, sometimes back to an old key.
        key = rng.Uniform(0, 9) == 0 ? key - 8 : key + 4;
      }
      const auto expect = ReferenceRuns(keys, vals);
      for (Isa isa : Flavours()) {
        EXPECT_EQ(KernelRuns(keys, vals, isa), expect)
            << "n=" << n << " max_run=" << max_run << " isa=" << IsaName(isa);
      }
    }
  }
}

TEST(RunSums, RunsOfLengthOne) {
  std::vector<int64_t> keys(8192);
  std::vector<int32_t> vals(8192);
  for (uint32_t i = 0; i < 8192; ++i) {
    keys[i] = int64_t(i) * 4 + 4;
    vals[i] = int32_t(i) - 4096;
  }
  for (Isa isa : Flavours()) {
    const auto runs = KernelRuns(keys, vals, isa);
    ASSERT_EQ(runs.size(), 8192u) << IsaName(isa);
    for (uint32_t i = 0; i < 8192; ++i) {
      EXPECT_EQ(runs[i], std::make_pair(keys[i], int64_t(vals[i])));
    }
  }
}

// One run over a whole batch: the int64 sum is exact, and its uint16
// truncation (what Q18's per-order quantity keeps) equals the per-row
// uint16 additions, which wrap many times over.
TEST(RunSums, OneRunSpansTheBatch) {
  for (int32_t v : {50, std::numeric_limits<int32_t>::max(),
                    std::numeric_limits<int32_t>::min()}) {
    std::vector<int64_t> keys(8192, 1234);
    std::vector<int32_t> vals(8192, v);
    uint16_t wrapped = 0;
    for (int32_t x : vals) wrapped = uint16_t(wrapped + uint16_t(x));
    for (Isa isa : Flavours()) {
      const auto runs = KernelRuns(keys, vals, isa);
      ASSERT_EQ(runs.size(), 1u);
      EXPECT_EQ(runs[0].first, 1234);
      EXPECT_EQ(runs[0].second, int64_t(v) * 8192) << IsaName(isa);
      EXPECT_EQ(uint16_t(runs[0].second), wrapped) << IsaName(isa);
    }
  }
}

// Runs split across calls (batch boundaries) and keys on both sides of the
// dense state's partition boundaries: feeding each call's run sums to the
// partitioned sinks of several slots gives the per-row uint16 totals.
TEST(RunSums, RunsCrossBatchAndPartitionBoundaries) {
  using State = PartitionedDense<uint16_t, uint16_t, ApplyAdd>;
  constexpr size_t kDomain = State::kMinPartitionSpan * 4;
  Rng rng(3);
  std::vector<int64_t> keys;
  std::vector<int32_t> vals;
  for (int64_t key = State::kMinPartitionSpan - 40; keys.size() < 20000;) {
    const uint64_t len = rng.Uniform(1, 7);
    for (uint64_t j = 0; j < len; ++j) {
      keys.push_back(key);
      vals.push_back(int32_t(rng.Uniform(1, 50)));
    }
    key = key + 1 == int64_t(State::kMinPartitionSpan) + 40
              ? int64_t(State::kMinPartitionSpan) * 3 - 40
              : key + 1;
    if (key >= int64_t(kDomain)) key = 0;
  }
  std::vector<uint16_t> expect(kDomain);
  for (size_t i = 0; i < keys.size(); ++i) {
    expect[size_t(keys[i])] = uint16_t(expect[size_t(keys[i])] + vals[i]);
  }
  for (Isa isa : Flavours()) {
    for (unsigned slots : {1u, 3u}) {
      State state(kDomain, slots);
      std::vector<int64_t> run_keys(keys.size()), run_sums(keys.size());
      // Batches end at arbitrary rows, also in the middle of a run; each
      // batch goes to the next slot, in its own batch scope.
      size_t off = 0;
      for (unsigned batch = 0; off < keys.size(); ++batch) {
        const size_t n = std::min<size_t>(rng.Uniform(1, 900),
                                          keys.size() - off);
        State::Sink& sink = state.sink(batch % slots);
        State::Sink::BatchScope scope(sink);
        const uint32_t runs =
            RunSums(keys.data() + off, vals.data() + off, uint32_t(n),
                    run_keys.data(), run_sums.data(), isa);
        for (uint32_t j = 0; j < runs; ++j) {
          sink.Add(size_t(run_keys[j]), uint16_t(run_sums[j]));
        }
        off += n;
      }
      for (unsigned s = 0; s < slots; ++s) state.sink(s).Flush();
      EXPECT_EQ(state.dense(), expect)
          << IsaName(isa) << " slots=" << slots;
    }
  }
}

}  // namespace
}  // namespace datablocks
