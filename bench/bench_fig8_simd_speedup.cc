// Figure 8: speedup of SIMD predicate evaluation (l <= A <= r, selectivity
// 20%) over scalar x86 code, by data type width, for x86 / SSE / AVX2; plus
// the IN-list kernel on 8- and 16-bit codes.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "scan/match_finder.h"
#include "util/aligned_buffer.h"
#include "util/timer.h"

#include "bench_common.h"

namespace datablocks {
namespace {

constexpr uint32_t kN = 1u << 22;

template <typename T>
struct Fixture {
  std::vector<T> data;
  std::vector<uint32_t> out;
  T lo, hi;

  Fixture() {
    std::mt19937_64 rng(sizeof(T));
    data.resize(kN + kScanPadding);
    for (uint32_t i = 0; i < kN; ++i) data[i] = T(rng());
    // 20% selectivity on a uniform full-domain distribution.
    lo = T(0);
    hi = T(std::numeric_limits<T>::max() / 5);
    out.resize(kN + 8);
  }
};

template <typename T>
void BM_FindBetween(benchmark::State& state) {
  static Fixture<T> fx;
  Isa isa = Isa(state.range(0));
  if (!IsaSupported(isa)) {
    // The kernels would silently clamp to a lower flavor; skipping keeps the
    // figure honest instead of mislabeling a fallback measurement.
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  uint64_t matches = 0;
  uint64_t cycles = 0;
  for (auto _ : state) {
    uint64_t t0 = ReadTsc();
    uint32_t n = FindMatchesBetween<T>(fx.data.data(), 0, kN, fx.lo, fx.hi,
                                       isa, fx.out.data());
    cycles += ReadTsc() - t0;
    matches += n;
    benchmark::DoNotOptimize(fx.out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * kN);
  state.counters["cycles/elem"] =
      double(cycles) / double(state.iterations()) / kN;
  state.counters["sel%"] =
      100.0 * double(matches) / double(state.iterations()) / kN;
  state.SetLabel(IsaName(isa));
}

BENCHMARK_TEMPLATE(BM_FindBetween, uint8_t)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_TEMPLATE(BM_FindBetween, uint16_t)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_TEMPLATE(BM_FindBetween, uint32_t)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_TEMPLATE(BM_FindBetween, uint64_t)->Arg(0)->Arg(1)->Arg(2);

/// Median seconds of run(isa) over 5 reps (warm-up rep included; the median
/// is robust against one-off stalls).
template <typename Run>
double MeasureMedianSeconds(Isa isa, Run run) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    Timer t;
    uint32_t n = run(isa);
    benchmark::DoNotOptimize(n);
    samples.push_back(t.ElapsedSeconds());
  }
  return BenchMedian(samples);
}

/// One table row: run's speedup over its scalar flavor for SSE and AVX2.
template <typename Run>
void PrintSpeedups(const std::string& record, const std::string& label,
                   Run run) {
  double scalar = MeasureMedianSeconds(Isa::kScalar, run);
  BenchJsonRecord(record, IsaName(Isa::kScalar), scalar * 1e9 / kN,
                  kN / scalar);
  std::printf("%-12s %10.2f", label.c_str(), 1.0);
  for (Isa isa : {Isa::kSse, Isa::kAvx2}) {
    if (IsaSupported(isa)) {
      double secs = MeasureMedianSeconds(isa, run);
      BenchJsonRecord(record, IsaName(isa), secs * 1e9 / kN, kN / secs);
      std::printf(" %10.2f", scalar / secs);
    } else {
      std::printf(" %10s", "n/a");
    }
  }
  std::printf("\n");
}

template <typename T>
void PrintRow(const char* name) {
  Fixture<T> fx;
  PrintSpeedups(std::string("fig8_between_") + name, name, [&](Isa isa) {
    return FindMatchesBetween<T>(fx.data.data(), 0, kN, fx.lo, fx.hi, isa,
                                 fx.out.data());
  });
}

/// An IN list of k values on dictionary codes of a 25-entry domain, the
/// kernel a non-contiguous IN (TPC-H Q12, Q19) runs on a frozen block.
template <typename T>
void PrintInRow(const char* name, uint32_t k) {
  static const T kSet[] = {2, 5, 11, 17};
  std::vector<T> data(kN + kScanPadding);
  std::mt19937_64 rng(sizeof(T) * 100 + k);
  for (uint32_t i = 0; i < kN; ++i) data[i] = T(rng() % 25);
  std::vector<uint32_t> out(kN + 8);
  PrintSpeedups(
      std::string("fig8_in") + std::to_string(k) + "_" + name,
      std::string(name) + " IN" + std::to_string(k), [&](Isa isa) {
        return FindMatchesIn<T>(data.data(), 0, kN, kSet, k, isa, out.data());
      });
}

void PrintSummary() {
  std::printf(
      "\n=== Figure 8: speedup over scalar x86 (between, sel 20%%) ===\n");
  std::printf("%-12s %10s %10s %10s\n", "width", "x86", "SSE", "AVX2");
  PrintRow<uint8_t>("8-bit");
  PrintRow<uint16_t>("16-bit");
  PrintRow<uint32_t>("32-bit");
  PrintRow<uint64_t>("64-bit");
  std::printf(
      "\n=== IN list of 2 or 4 codes out of 25 (sel 8%%, 16%%) ===\n");
  std::printf("%-12s %10s %10s %10s\n", "width", "x86", "SSE", "AVX2");
  PrintInRow<uint8_t>("8-bit", 2);
  PrintInRow<uint8_t>("8-bit", 4);
  PrintInRow<uint16_t>("16-bit", 2);
  PrintInRow<uint16_t>("16-bit", 4);
}

}  // namespace
}  // namespace datablocks

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  BenchJsonMode(&argc, argv, quick);
  std::vector<char*> args = QuickBenchArgs(argc, argv, quick);
  int argn = int(args.size()) - 1;
  benchmark::Initialize(&argn, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  datablocks::PrintSummary();
  return 0;
}
