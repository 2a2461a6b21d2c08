// Cross-ISA property tests: the SSE and AVX2 kernels must match the scalar
// kernel bit-for-bit for every type, operator, selectivity, and alignment.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <type_traits>
#include <vector>

#include "scan/match_finder.h"
#include "util/aligned_buffer.h"
#include "util/cpu.h"

namespace datablocks {
namespace {

template <typename T>
struct KernelInput {
  std::vector<T> data;  // padded
  uint32_t n;
};

template <typename T>
KernelInput<T> MakeInput(uint32_t n, uint64_t seed, T max_value) {
  std::mt19937_64 rng(seed);
  KernelInput<T> in;
  in.n = n;
  in.data.resize(n + kScanPadding);
  const uint64_t span = uint64_t(max_value);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t r = rng();
    in.data[i] = span == UINT64_MAX ? T(r) : T(r % (span + 1));
  }
  return in;
}

template <typename T>
class MatchFinderTypedTest : public ::testing::Test {};

using KernelTypes = ::testing::Types<uint8_t, uint16_t, uint32_t, uint64_t,
                                     int32_t, int64_t>;
TYPED_TEST_SUITE(MatchFinderTypedTest, KernelTypes);

TYPED_TEST(MatchFinderTypedTest, FindBetweenMatchesScalar) {
  using T = TypeParam;
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    uint32_t n = 1 + uint32_t(rng() % 5000);
    auto in = MakeInput<T>(n, rng(), std::numeric_limits<T>::max());
    T lo = T(rng()), hi = T(rng());
    if (lo > hi) std::swap(lo, hi);
    uint32_t from = uint32_t(rng() % n);
    uint32_t to = from + uint32_t(rng() % (n - from + 1));
    std::vector<uint32_t> ref(n + 8), got(n + 8);
    uint32_t nr = FindMatchesBetween<T>(in.data.data(), from, to, lo, hi,
                                        Isa::kScalar, ref.data());
    for (Isa isa : {Isa::kSse, Isa::kAvx2}) {
      uint32_t ng = FindMatchesBetween<T>(in.data.data(), from, to, lo, hi,
                                          isa, got.data());
      ASSERT_EQ(ng, nr) << IsaName(isa);
      for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
    }
  }
}

TYPED_TEST(MatchFinderTypedTest, FindBetweenNarrowDomain) {
  using T = TypeParam;
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t n = 1000 + uint32_t(rng() % 2000);
    auto in = MakeInput<T>(n, rng(), T(50));  // dense duplicates
    T lo = T(rng() % 60), hi = T(lo + rng() % 10);
    std::vector<uint32_t> ref(n + 8), got(n + 8);
    uint32_t nr = FindMatchesBetween<T>(in.data.data(), 0, n, lo, hi,
                                        Isa::kScalar, ref.data());
    for (Isa isa : {Isa::kSse, Isa::kAvx2}) {
      uint32_t ng = FindMatchesBetween<T>(in.data.data(), 0, n, lo, hi, isa,
                                          got.data());
      ASSERT_EQ(ng, nr);
      for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
    }
  }
}

TYPED_TEST(MatchFinderTypedTest, FindNeMatchesScalar) {
  using T = TypeParam;
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t n = 1 + uint32_t(rng() % 3000);
    auto in = MakeInput<T>(n, rng(), T(20));
    T v = T(rng() % 25);
    std::vector<uint32_t> ref(n + 8), got(n + 8);
    uint32_t nr =
        FindMatchesNe<T>(in.data.data(), 0, n, v, Isa::kScalar, ref.data());
    for (Isa isa : {Isa::kSse, Isa::kAvx2}) {
      uint32_t ng =
          FindMatchesNe<T>(in.data.data(), 0, n, v, isa, got.data());
      ASSERT_EQ(ng, nr);
      for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
    }
  }
}

TYPED_TEST(MatchFinderTypedTest, ReduceBetweenMatchesScalar) {
  using T = TypeParam;
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    uint32_t n = 1 + uint32_t(rng() % 4000);
    auto in = MakeInput<T>(n, rng(), std::numeric_limits<T>::max());
    // Build a random position vector (ascending, no duplicates).
    std::vector<uint32_t> pos;
    for (uint32_t i = 0; i < n; ++i)
      if (rng() % 3 != 0) pos.push_back(i);
    pos.resize(pos.size() + 8, 0);  // emit overshoot space
    uint32_t np = uint32_t(pos.size() - 8);
    T lo = T(rng()), hi = T(rng());
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint32_t> ref(np + 8), got(np + 8);
    uint32_t nr = ReduceMatchesBetween<T>(in.data.data(), pos.data(), np, lo,
                                          hi, Isa::kScalar, ref.data());
    uint32_t ng = ReduceMatchesBetween<T>(in.data.data(), pos.data(), np, lo,
                                          hi, Isa::kAvx2, got.data());
    ASSERT_EQ(ng, nr);
    for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
  }
}

TYPED_TEST(MatchFinderTypedTest, ReduceInPlaceAliasing) {
  using T = TypeParam;
  std::mt19937_64 rng(31);
  uint32_t n = 4096;
  auto in = MakeInput<T>(n, rng(), T(100));
  std::vector<uint32_t> pos(n + 8);
  for (uint32_t i = 0; i < n; ++i) pos[i] = i;
  std::vector<uint32_t> expect(n + 8);
  uint32_t nr = ReduceMatchesBetween<T>(in.data.data(), pos.data(), n, T(10),
                                        T(60), Isa::kScalar, expect.data());
  // In-place: out aliases positions.
  uint32_t ng = ReduceMatchesBetween<T>(in.data.data(), pos.data(), n, T(10),
                                        T(60), Isa::kAvx2, pos.data());
  ASSERT_EQ(ng, nr);
  for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(pos[i], expect[i]);
}

TYPED_TEST(MatchFinderTypedTest, ReduceNeMatchesScalar) {
  using T = TypeParam;
  std::mt19937_64 rng(37);
  uint32_t n = 3000;
  auto in = MakeInput<T>(n, rng(), T(5));
  std::vector<uint32_t> pos(n + 8);
  for (uint32_t i = 0; i < n; ++i) pos[i] = i;
  std::vector<uint32_t> ref(n + 8), got(n + 8);
  uint32_t nr = ReduceMatchesNe<T>(in.data.data(), pos.data(), n, T(3),
                                   Isa::kScalar, ref.data());
  uint32_t ng = ReduceMatchesNe<T>(in.data.data(), pos.data(), n, T(3),
                                   Isa::kAvx2, got.data());
  ASSERT_EQ(ng, nr);
  for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
}

/// Positions in `pos` (or [from, to) when pos is null) whose value is one
/// of set[0..k): the reference the IN kernels must equal.
template <typename T>
std::vector<uint32_t> InReference(const std::vector<T>& data, uint32_t from,
                                  uint32_t to, const std::vector<uint32_t>* pos,
                                  const std::vector<T>& set) {
  std::vector<uint32_t> out;
  auto keep = [&](uint32_t p) {
    if (std::find(set.begin(), set.end(), data[p]) != set.end())
      out.push_back(p);
  };
  if (pos == nullptr) {
    for (uint32_t i = from; i < to; ++i) keep(i);
  } else {
    for (uint32_t p : *pos) keep(p);
  }
  return out;
}

/// A value of the narrow test domain: [-20, 20] for signed types (negative
/// values sign-extended), [0, 40] for unsigned ones. `slack` widens it, so
/// set values drawn with slack may be absent from the data.
template <typename T>
T SmallValue(std::mt19937_64& rng, int64_t slack = 0) {
  const int64_t v = int64_t(rng() % uint64_t(41 + 2 * slack)) - slack;
  return std::is_signed_v<T> ? T(v - 20) : T(v < 0 ? 0 : v);
}

TYPED_TEST(MatchFinderTypedTest, FindInMatchesReference) {
  using T = TypeParam;
  std::mt19937_64 rng(53);
  for (int trial = 0; trial < 48; ++trial) {
    const uint32_t n = 1 + uint32_t(rng() % 3000);
    const bool full_range = trial % 4 == 3;
    std::vector<T> data(n + kScanPadding / sizeof(T) + 1);
    for (uint32_t i = 0; i < n; ++i)
      data[i] = full_range ? T(rng()) : SmallValue<T>(rng);
    // Set sizes 1..8; some values absent (slack, or random full-range).
    const uint32_t k = 1 + uint32_t(trial % int(kMaxInKernelSet));
    std::vector<T> set;
    for (uint32_t s = 0; s < k; ++s) {
      set.push_back(full_range ? (s % 2 ? T(rng()) : data[rng() % n])
                               : SmallValue<T>(rng, 4));
    }
    // Ranges with SIMD heads and tails.
    const uint32_t from = trial % 3 == 0 ? 0 : uint32_t(rng() % n);
    const uint32_t to = trial % 3 == 0
                            ? n
                            : from + uint32_t(rng() % (n - from + 1));
    const std::vector<uint32_t> expect = InReference(data, from, to, nullptr,
                                                     set);
    std::vector<uint32_t> got(n + 8);
    for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
      const uint32_t ng = FindMatchesIn<T>(data.data(), from, to, set.data(),
                                           k, isa, got.data());
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.begin() + ng), expect)
          << IsaName(isa) << " k=" << k << " from=" << from << " to=" << to;
    }
  }
}

TYPED_TEST(MatchFinderTypedTest, ReduceInMatchesReference) {
  using T = TypeParam;
  std::mt19937_64 rng(59);
  for (int trial = 0; trial < 48; ++trial) {
    const uint32_t n = 1 + uint32_t(rng() % 3000);
    std::vector<T> data(n + kScanPadding / sizeof(T) + 1);
    for (uint32_t i = 0; i < n; ++i) data[i] = SmallValue<T>(rng);
    const uint32_t k = 1 + uint32_t(trial % int(kMaxInKernelSet));
    std::vector<T> set;
    for (uint32_t s = 0; s < k; ++s) set.push_back(SmallValue<T>(rng, 4));
    std::vector<uint32_t> pos;
    for (uint32_t i = 0; i < n; ++i)
      if (rng() % 3 != 0) pos.push_back(i);
    const uint32_t np = uint32_t(pos.size());
    const std::vector<uint32_t> expect = InReference(data, 0, 0, &pos, set);
    for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
      std::vector<uint32_t> got(np + 8);
      uint32_t ng = ReduceMatchesIn<T>(data.data(), pos.data(), np, set.data(),
                                       k, isa, got.data());
      ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.begin() + ng), expect)
          << IsaName(isa) << " k=" << k;
      // In place: out aliases positions.
      std::vector<uint32_t> inplace(pos);
      inplace.resize(np + 8);
      ng = ReduceMatchesIn<T>(data.data(), inplace.data(), np, set.data(), k,
                              isa, inplace.data());
      ASSERT_EQ(std::vector<uint32_t>(inplace.begin(), inplace.begin() + ng),
                expect)
          << IsaName(isa) << " in place, k=" << k;
    }
  }
}

TYPED_TEST(MatchFinderTypedTest, EmptyRangeAndInvertedBounds) {
  using T = TypeParam;
  auto in = MakeInput<T>(100, 1, T(10));
  std::vector<uint32_t> out(108);
  EXPECT_EQ(FindMatchesBetween<T>(in.data.data(), 50, 50, T(0), T(10),
                                  Isa::kAvx2, out.data()),
            0u);
  EXPECT_EQ(FindMatchesBetween<T>(in.data.data(), 0, 100, T(9), T(3),
                                  Isa::kAvx2, out.data()),
            0u);
}

TYPED_TEST(MatchFinderTypedTest, AllMatchAndNoneMatch) {
  using T = TypeParam;
  uint32_t n = 777;
  auto in = MakeInput<T>(n, 5, T(50));
  std::vector<uint32_t> out(n + 8);
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
    EXPECT_EQ(FindMatchesBetween<T>(in.data.data(), 0, n, T(0), T(50), isa,
                                    out.data()),
              n);
    EXPECT_EQ(FindMatchesBetween<T>(in.data.data(), 0, n, T(60), T(70), isa,
                                    out.data()),
              0u);
  }
}

TEST(MatchFinderSigned, NegativeValues) {
  std::vector<int32_t> data = {-100, -50, -1, 0, 1, 50, 100, -3, 7, -50};
  data.resize(data.size() + 16);
  std::vector<uint32_t> ref(32), got(32);
  uint32_t nr = FindMatchesBetween<int32_t>(data.data(), 0, 10, -50, 1,
                                            Isa::kScalar, ref.data());
  EXPECT_EQ(nr, 6u);  // -50, -1, 0, 1, -3, -50
  for (Isa isa : {Isa::kSse, Isa::kAvx2}) {
    uint32_t ng = FindMatchesBetween<int32_t>(data.data(), 0, 10, -50, 1, isa,
                                              got.data());
    ASSERT_EQ(ng, nr);
    for (uint32_t i = 0; i < nr; ++i) EXPECT_EQ(got[i], ref[i]);
  }
}

TEST(MatchFinderSigned, InSetSignExtendedValues) {
  std::vector<int32_t> d32 = {-1, INT32_MIN, 5, -7, INT32_MAX, 0, -1, 12, -7};
  std::vector<int64_t> d64 = {-1, INT64_MIN, 5, -7, INT64_MAX, 0, -1, 12, -7};
  d32.resize(d32.size() + 16);
  d64.resize(d64.size() + 8);
  const int32_t s32[] = {-7, INT32_MIN, -1};
  const int64_t s64[] = {-7, INT64_MIN, -1};
  const std::vector<uint32_t> expect = {0, 1, 3, 6, 8};
  const uint32_t pos[] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
    std::vector<uint32_t> out(32);
    uint32_t n = FindMatchesIn<int32_t>(d32.data(), 0, 9, s32, 3, isa,
                                        out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + n), expect)
        << IsaName(isa);
    n = ReduceMatchesIn<int32_t>(d32.data(), pos, 9, s32, 3, isa, out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + n), expect)
        << IsaName(isa);
    n = FindMatchesIn<int64_t>(d64.data(), 0, 9, s64, 3, isa, out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + n), expect)
        << IsaName(isa);
    n = ReduceMatchesIn<int64_t>(d64.data(), pos, 9, s64, 3, isa, out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + n), expect)
        << IsaName(isa);
  }
}

TEST(MatchFinderSigned, Int64Extremes) {
  std::vector<int64_t> data = {INT64_MIN, -1, 0, 1, INT64_MAX, 42};
  data.resize(data.size() + 8);
  std::vector<uint32_t> out(16);
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
    EXPECT_EQ(FindMatchesBetween<int64_t>(data.data(), 0, 6, INT64_MIN,
                                          INT64_MAX, isa, out.data()),
              6u)
        << IsaName(isa);
    EXPECT_EQ(FindMatchesBetween<int64_t>(data.data(), 0, 6, 0, 100, isa,
                                          out.data()),
              3u);
  }
}

TEST(MatchFinderUnsigned, FullDomain) {
  std::vector<uint64_t> data = {0, 1, UINT64_MAX, uint64_t(1) << 63, 42};
  data.resize(data.size() + 8);
  std::vector<uint32_t> out(16);
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
    EXPECT_EQ(FindMatchesBetween<uint64_t>(data.data(), 0, 5, 0, UINT64_MAX,
                                           isa, out.data()),
              5u);
    EXPECT_EQ(FindMatchesBetween<uint64_t>(
                  data.data(), 0, 5, uint64_t(1) << 63, UINT64_MAX, isa,
                  out.data()),
              2u);
  }
}

TEST(MatchFinderDouble, ScalarKernels) {
  std::vector<double> data = {0.5, -1.5, 3.25, 100.0, 3.25};
  data.resize(16);
  std::vector<uint32_t> out(16);
  EXPECT_EQ(FindMatchesBetweenF64(data.data(), 0, 5, 0.0, 10.0, out.data()),
            3u);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 4u);
  uint32_t pos[5] = {0, 1, 2, 3, 4};
  EXPECT_EQ(ReduceMatchesBetweenF64(data.data(), pos, 5, 3.0, 4.0, out.data()),
            2u);
  EXPECT_EQ(FindMatchesNeF64(data.data(), 0, 5, 3.25, out.data()), 3u);
}

TEST(MatchFinder, BestIsaIsSupported) {
  // BestIsa is resolved at run time (util/cpu.h); the exact feature->flavor
  // ladder is asserted by CpuFeatures.BestIsaConsistentWithFeatures in
  // simd_dispatch_test.cc. Here we only require that whatever it returns is
  // actually executable on this host.
  EXPECT_TRUE(IsaSupported(BestIsa()));
  if (cpu::ForcedScalar()) {
    EXPECT_EQ(BestIsa(), Isa::kScalar);
  }
}

// Selectivity sweep: verify match counts track the expected selectivity and
// agreement holds at each point (this mirrors the Figure 8/9 parameter grid).
class SelectivitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SelectivitySweep, CountTracksSelectivity) {
  const int sel_pct = GetParam();
  const uint32_t n = 100000;
  auto in = MakeInput<uint32_t>(n, 99, 999);
  uint32_t hi = uint32_t(sel_pct * 10);  // values uniform in [0, 999]
  std::vector<uint32_t> ref(n + 8), got(n + 8);
  uint32_t nr = FindMatchesBetween<uint32_t>(in.data.data(), 0, n, 0,
                                             hi == 0 ? 0 : hi - 1,
                                             Isa::kScalar, ref.data());
  double frac = double(nr) / n;
  EXPECT_NEAR(frac, sel_pct / 100.0, 0.02);
  uint32_t ng = FindMatchesBetween<uint32_t>(in.data.data(), 0, n, 0,
                                             hi == 0 ? 0 : hi - 1, Isa::kAvx2,
                                             got.data());
  ASSERT_EQ(ng, nr);
}

INSTANTIATE_TEST_SUITE_P(Selectivities, SelectivitySweep,
                         ::testing::Values(0, 1, 5, 10, 20, 40, 50, 75, 90,
                                           100));

}  // namespace
}  // namespace datablocks
