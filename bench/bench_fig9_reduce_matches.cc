// Figure 9: cost (cycles per element) of applying an *additional*
// restriction ("reduce matches") as a function of the first predicate's
// selectivity; second predicate selectivity fixed at 40%; scalar x86 vs
// AVX2; 8/16/32/64-bit data. Plus reduction by an IN list on 8- and 16-bit
// codes.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <initializer_list>
#include <random>
#include <string>
#include <vector>

#include "scan/match_finder.h"
#include "util/aligned_buffer.h"
#include "util/timer.h"

#include "bench_common.h"

namespace datablocks {
namespace {

constexpr uint32_t kN = 16384;  // "the number of tuples processed at a time
                                // (which is set to 16 K in this experiment)"

template <typename T>
struct Fixture {
  std::vector<T> data;
  std::vector<uint32_t> positions;  // matches of the first predicate
  std::vector<uint32_t> out;
  uint32_t n_pos;
  T lo, hi;  // second predicate, 40% selective

  // Values are uniform in [0, domain).
  explicit Fixture(int first_sel_pct, uint32_t domain = 1000) {
    std::mt19937_64 rng(uint64_t(first_sel_pct) * 31 + sizeof(T));
    data.resize(kN + kScanPadding);
    for (uint32_t i = 0; i < kN; ++i) data[i] = T(rng() % domain);
    positions.reserve(kN + 8);
    // First predicate: keep each position with probability sel (uniformly
    // distributed matches, as in the paper's experiment).
    for (uint32_t i = 0; i < kN; ++i)
      if (int64_t(rng() % 100) < first_sel_pct) positions.push_back(i);
    positions.resize(positions.size() + 8);
    n_pos = uint32_t(positions.size() - 8);
    lo = T(0);
    hi = T(399);  // values uniform in [0,999] -> 40%
    out.resize(kN + 8);
  }
};

template <typename T>
void BM_ReduceMatches(benchmark::State& state) {
  Fixture<T> fx(int(state.range(1)));
  Isa isa = Isa(state.range(0));
  if (!IsaSupported(isa)) {
    // The kernels would silently clamp to a lower flavor; skipping keeps the
    // figure honest instead of mislabeling a fallback measurement.
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  uint64_t cycles = 0;
  for (auto _ : state) {
    uint64_t t0 = ReadTsc();
    uint32_t n = ReduceMatchesBetween<T>(fx.data.data(), fx.positions.data(),
                                         fx.n_pos, fx.lo, fx.hi, isa,
                                         fx.out.data());
    cycles += ReadTsc() - t0;
    benchmark::DoNotOptimize(n);
  }
  // Normalized per *element of the vector*, like the paper's y axis.
  state.counters["cycles/elem"] =
      double(cycles) / double(state.iterations()) / kN;
  state.SetLabel(std::string(IsaName(isa)) + " sel1=" +
                 std::to_string(state.range(1)) + "%");
}

#define ARGS                                                         \
  ->Args({0, 1})->Args({0, 5})->Args({0, 10})->Args({0, 25})         \
      ->Args({0, 50})->Args({0, 75})->Args({0, 100})->Args({2, 1})   \
      ->Args({2, 5})->Args({2, 10})->Args({2, 25})->Args({2, 50})    \
      ->Args({2, 75})->Args({2, 100})

BENCHMARK_TEMPLATE(BM_ReduceMatches, uint8_t) ARGS;
BENCHMARK_TEMPLATE(BM_ReduceMatches, uint16_t) ARGS;
BENCHMARK_TEMPLATE(BM_ReduceMatches, uint32_t) ARGS;
BENCHMARK_TEMPLATE(BM_ReduceMatches, uint64_t) ARGS;

/// One series: cycles/element of reduce(fx, isa) at each first-predicate
/// selectivity, on values uniform in [0, domain).
template <typename T, typename Reduce>
void PrintSeriesOf(const std::string& label, const std::string& record,
                   uint32_t domain, std::initializer_list<Isa> isas,
                   Reduce reduce) {
  std::printf("%s:\n  sel1%%:", label.c_str());
  static const int kSels[] = {1, 5, 10, 25, 50, 75, 100};
  for (int s : kSels) std::printf("%8d", s);
  for (Isa isa : isas) {
    if (!IsaSupported(isa)) {
      std::printf("\n  %-5s: n/a (not supported on this host)", IsaName(isa));
      continue;
    }
    std::printf("\n  %-5s:", IsaName(isa));
    for (int s : kSels) {
      Fixture<T> fx(s, domain);
      uint64_t best = UINT64_MAX;
      std::vector<double> secs;
      for (int rep = 0; rep < 20; ++rep) {
        Timer t;
        uint64_t t0 = ReadTsc();
        uint32_t n = reduce(fx, isa);
        best = std::min(best, ReadTsc() - t0);
        secs.push_back(t.ElapsedSeconds());
        benchmark::DoNotOptimize(n);
      }
      double med = BenchMedian(secs);
      BenchJsonRecord(record + "_sel" + std::to_string(s), IsaName(isa),
                      med * 1e9 / kN, kN / med);
      std::printf("%8.2f", double(best) / kN);
    }
  }
  std::printf("\n");
}

template <typename T>
void PrintSeries(const char* name) {
  PrintSeriesOf<T>(name, std::string("fig9_reduce_") + name, 1000,
                   {Isa::kScalar, Isa::kAvx2}, [](Fixture<T>& fx, Isa isa) {
                     return ReduceMatchesBetween<T>(
                         fx.data.data(), fx.positions.data(), fx.n_pos, fx.lo,
                         fx.hi, isa, fx.out.data());
                   });
}

/// Reduce by an IN list of k codes out of 25. SSE has no reduce flavor: it
/// runs the scalar loop, as for between (Section 4.2).
template <typename T>
void PrintInSeries(const char* name, uint32_t k) {
  static const T kSet[] = {2, 5, 11, 17};
  PrintSeriesOf<T>(std::string(name) + " IN" + std::to_string(k),
                   "fig9_reduce_in" + std::to_string(k) + "_" + name, 25,
                   {Isa::kScalar, Isa::kSse, Isa::kAvx2},
                   [k](Fixture<T>& fx, Isa isa) {
                     return ReduceMatchesIn<T>(fx.data.data(),
                                               fx.positions.data(), fx.n_pos,
                                               kSet, k, isa, fx.out.data());
                   });
}

void PrintSummary() {
  std::printf(
      "\n=== Figure 9: reduce-matches cycles/element vs selectivity of the "
      "first predicate (2nd pred 40%%) ===\n");
  PrintSeries<uint8_t>("8-bit");
  PrintSeries<uint16_t>("16-bit");
  PrintSeries<uint32_t>("32-bit");
  PrintSeries<uint64_t>("64-bit");
  std::printf(
      "\n=== Reduce by an IN list of 2 or 4 codes out of 25 (2nd pred 8%%, "
      "16%%) ===\n");
  PrintInSeries<uint8_t>("8-bit", 2);
  PrintInSeries<uint8_t>("8-bit", 4);
  PrintInSeries<uint16_t>("16-bit", 2);
  PrintInSeries<uint16_t>("16-bit", 4);
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
