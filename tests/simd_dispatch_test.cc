// Runtime SIMD dispatch layer: the kernels selected via util/cpu.h must be
// bit-identical to the scalar fallbacks, and DATABLOCKS_FORCE_SCALAR must
// pin everything to the scalar path. CTest runs this binary twice — once
// as-is and once with DATABLOCKS_FORCE_SCALAR=1 (see CMakeLists.txt) — so
// both sides of the dispatch are exercised on AVX2 hosts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bitpack/bitpacked_column.h"
#include "scan/match_finder.h"
#include "util/aligned_buffer.h"
#include "util/cpu.h"

namespace datablocks {
namespace {

bool EnvForcedScalar() {
  const char* v = std::getenv("DATABLOCKS_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::string(v) != "0";
}

TEST(CpuFeatures, EnvOverrideIsLatched) {
  const cpu::Features& f = cpu::HostFeatures();
  EXPECT_EQ(f.forced_scalar, EnvForcedScalar());
  if (f.forced_scalar) {
    EXPECT_FALSE(f.avx2);
    EXPECT_FALSE(f.bmi2);
    EXPECT_FALSE(f.sse42);
  }
}

TEST(CpuFeatures, BestIsaConsistentWithFeatures) {
  Isa best = BestIsa();
  if (cpu::HasAvx2()) {
    EXPECT_EQ(best, Isa::kAvx2);
  } else if (cpu::HasSse42()) {
    EXPECT_EQ(best, Isa::kSse);
  } else {
    EXPECT_EQ(best, Isa::kScalar);
  }
  EXPECT_TRUE(IsaSupported(best));
  if (cpu::ForcedScalar()) {
    EXPECT_EQ(best, Isa::kScalar);
  }
}

TEST(CpuFeatures, ExpectedSimdLevelIsDetected) {
  // Opt-in guard against a silent detection regression: if every suite ran
  // scalar-vs-scalar (e.g. Detect() started returning all-false), the whole
  // test pyramid would stay green without ever executing a SIMD kernel. CI
  // sets DATABLOCKS_EXPECT_SIMD=avx2 on its non-forced leg (GitHub x86-64
  // runners all have AVX2+BMI2) so that failure mode turns red.
  const char* expect = std::getenv("DATABLOCKS_EXPECT_SIMD");
  if (expect == nullptr || expect[0] == '\0') {
    GTEST_SKIP() << "set DATABLOCKS_EXPECT_SIMD=sse|avx2 to run";
  }
  if (cpu::ForcedScalar()) {
    // Forcing scalar deliberately masks the features this guard asserts, and
    // the combination arises legitimately: CI exports DATABLOCKS_EXPECT_SIMD
    // job-wide while the forced-scalar CTest entry appends
    // DATABLOCKS_FORCE_SCALAR on top of it.
    GTEST_SKIP() << "DATABLOCKS_FORCE_SCALAR overrides DATABLOCKS_EXPECT_SIMD";
  }
  std::string level(expect);
  if (level == "avx2") {
    EXPECT_TRUE(cpu::HasAvx2());
    EXPECT_EQ(BestIsa(), Isa::kAvx2);
  } else if (level == "sse") {
    EXPECT_TRUE(cpu::HasSse42());
    EXPECT_NE(BestIsa(), Isa::kScalar);
  } else {
    FAIL() << "unknown DATABLOCKS_EXPECT_SIMD value: " << level;
  }
}

TEST(CpuFeatures, ClampNeverSelectsUnsupported) {
  EXPECT_TRUE(IsaSupported(Isa::kScalar));
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
    Isa clamped = ClampIsa(isa);
    EXPECT_TRUE(IsaSupported(clamped)) << IsaName(isa);
    // Clamping only ever moves down the ladder.
    EXPECT_LE(uint8_t(clamped), uint8_t(isa));
  }
}

// ---------------------------------------------------------------------------
// BitPackedColumn: the dispatched whole-column kernels against the scalar
// positional accessor, across bit widths (including > 25, where even the
// AVX2 flavor runs its scalar loop) and tail lengths.
// ---------------------------------------------------------------------------

struct PackedInput {
  std::vector<uint32_t> values;
  BitPackedColumn col;
};

PackedInput MakePacked(uint32_t n, uint32_t bits, uint64_t seed) {
  std::mt19937_64 rng(seed);
  PackedInput in;
  uint32_t mask = bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1);
  in.values.resize(n);
  for (auto& v : in.values) v = uint32_t(rng()) & mask;
  in.col = BitPackedColumn::Pack(in.values.data(), n, bits);
  return in;
}

TEST(BitpackDispatch, UnpackAllMatchesGet) {
  for (uint32_t bits : {1u, 7u, 13u, 25u, 26u, 32u}) {
    for (uint32_t n : {0u, 1u, 8u, 1000u, 1013u}) {
      PackedInput in = MakePacked(n, bits, 1000 + bits * 37 + n);
      std::vector<uint32_t> out(n + 8);
      in.col.UnpackAll(out.data());
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], in.values[i]) << "bits=" << bits << " i=" << i;
      }
    }
  }
}

TEST(BitpackDispatch, ScanBetweenMatchesReference) {
  std::mt19937_64 rng(7);
  for (uint32_t bits : {5u, 17u, 25u, 30u}) {
    uint32_t n = 2000 + uint32_t(rng() % 100);
    PackedInput in = MakePacked(n, bits, rng());
    uint32_t mask = bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1);
    uint32_t lo = uint32_t(rng()) & mask;
    uint32_t hi = uint32_t(rng()) & mask;
    if (lo > hi) std::swap(lo, hi);

    std::vector<uint64_t> bitmap((n + 63) / 64, 0);
    in.col.ScanBetween(lo, hi, bitmap.data());
    for (uint32_t i = 0; i < n; ++i) {
      bool expect = in.values[i] >= lo && in.values[i] <= hi;
      bool got = (bitmap[i >> 6] >> (i & 63)) & 1;
      ASSERT_EQ(got, expect) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(BitpackDispatch, ScanPositionsBothModesMatchReference) {
  std::mt19937_64 rng(11);
  for (uint32_t bits : {8u, 20u, 25u, 28u}) {
    uint32_t n = 3000 + uint32_t(rng() % 100);
    PackedInput in = MakePacked(n, bits, rng());
    uint32_t mask = bits == 32 ? 0xFFFFFFFFu : ((1u << bits) - 1);
    uint32_t lo = uint32_t(rng()) & mask;
    uint32_t hi = uint32_t(rng()) & mask;
    if (lo > hi) std::swap(lo, hi);

    std::vector<uint32_t> ref;
    for (uint32_t i = 0; i < n; ++i) {
      if (in.values[i] >= lo && in.values[i] <= hi) ref.push_back(i);
    }
    for (bool table : {true, false}) {
      std::vector<uint32_t> out(n + 8);
      uint32_t cnt = in.col.ScanBetweenPositions(lo, hi, out.data(), table);
      ASSERT_EQ(cnt, ref.size()) << "bits=" << bits << " table=" << table;
      for (uint32_t i = 0; i < cnt; ++i) ASSERT_EQ(out[i], ref[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Match finder: the dispatched (BestIsa) and explicitly-requested flavors
// against the scalar kernel. Under DATABLOCKS_FORCE_SCALAR these all clamp
// to kScalar and the comparison is trivially exact; on SIMD hosts it checks
// bit-identical output.
// ---------------------------------------------------------------------------

template <typename T>
void CheckFindKernels(uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    uint32_t n = 1 + uint32_t(rng() % 4000);
    std::vector<T> data(n + kScanPadding / sizeof(T) + 1);
    for (uint32_t i = 0; i < n; ++i) data[i] = T(rng());
    T lo = T(rng()), hi = T(rng());
    if (lo > hi) std::swap(lo, hi);
    T ne = data[rng() % n];

    std::vector<uint32_t> ref(n + 8), got(n + 8);
    uint32_t nr = FindMatchesBetween<T>(data.data(), 0, n, lo, hi,
                                        Isa::kScalar, ref.data());
    for (Isa isa : {BestIsa(), Isa::kSse, Isa::kAvx2}) {
      uint32_t ng = FindMatchesBetween<T>(data.data(), 0, n, lo, hi, isa,
                                          got.data());
      ASSERT_EQ(ng, nr) << IsaName(isa);
      for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
    }

    nr = FindMatchesNe<T>(data.data(), 0, n, ne, Isa::kScalar, ref.data());
    for (Isa isa : {BestIsa(), Isa::kSse, Isa::kAvx2}) {
      uint32_t ng = FindMatchesNe<T>(data.data(), 0, n, ne, isa, got.data());
      ASSERT_EQ(ng, nr) << IsaName(isa);
      for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
    }

    // Reduce over the positions the Between scan produced.
    std::vector<uint32_t> positions(ref.begin(), ref.begin() + nr);
    std::vector<uint32_t> rref(nr + 8), rgot(nr + 8);
    uint32_t rn = ReduceMatchesNe<T>(data.data(), positions.data(), nr, ne,
                                     Isa::kScalar, rref.data());
    for (Isa isa : {BestIsa(), Isa::kAvx2}) {
      uint32_t rg = ReduceMatchesNe<T>(data.data(), positions.data(), nr, ne,
                                       isa, rgot.data());
      ASSERT_EQ(rg, rn) << IsaName(isa);
      for (uint32_t i = 0; i < rn; ++i) ASSERT_EQ(rgot[i], rref[i]);
    }

    // IN sets of 1..8 values, half of them taken from the data.
    const uint32_t k = 1 + uint32_t(trial % int(kMaxInKernelSet));
    std::vector<T> set;
    for (uint32_t s = 0; s < k; ++s)
      set.push_back(s % 2 ? T(rng()) : data[rng() % n]);
    nr = FindMatchesIn<T>(data.data(), 0, n, set.data(), k, Isa::kScalar,
                          ref.data());
    for (Isa isa : {BestIsa(), Isa::kSse, Isa::kAvx2}) {
      uint32_t ng = FindMatchesIn<T>(data.data(), 0, n, set.data(), k, isa,
                                     got.data());
      ASSERT_EQ(ng, nr) << IsaName(isa);
      for (uint32_t i = 0; i < nr; ++i) ASSERT_EQ(got[i], ref[i]);
    }
    rn = ReduceMatchesIn<T>(data.data(), positions.data(),
                            uint32_t(positions.size()), set.data(), k,
                            Isa::kScalar, rref.data());
    for (Isa isa : {BestIsa(), Isa::kAvx2}) {
      uint32_t rg = ReduceMatchesIn<T>(data.data(), positions.data(),
                                       uint32_t(positions.size()), set.data(),
                                       k, isa, rgot.data());
      ASSERT_EQ(rg, rn) << IsaName(isa);
      for (uint32_t i = 0; i < rn; ++i) ASSERT_EQ(rgot[i], rref[i]);
    }
  }
}

TEST(MatchFinderDispatch, AllWidthsMatchScalar) {
  CheckFindKernels<uint8_t>(101);
  CheckFindKernels<uint16_t>(102);
  CheckFindKernels<uint32_t>(103);
  CheckFindKernels<uint64_t>(104);
  CheckFindKernels<int32_t>(105);
  CheckFindKernels<int64_t>(106);
}

TEST(MatchFinderDispatch, ForcedScalarPinsEveryRequest) {
  if (!cpu::ForcedScalar()) {
    GTEST_SKIP() << "set DATABLOCKS_FORCE_SCALAR=1 to run";
  }
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2}) {
    EXPECT_EQ(ClampIsa(isa), Isa::kScalar) << IsaName(isa);
  }
}

}  // namespace
}  // namespace datablocks
