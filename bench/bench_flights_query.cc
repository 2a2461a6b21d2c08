// Section 5.2 flights query (Appendix D): carriers and their average
// arrival delay into SFO for 1998-2008, on naturally date-ordered data.
// The paper reports >20x over a JIT scan of uncompressed storage thanks to
// SMA block skipping plus PSMA range narrowing.

#include <cstdio>
#include <cstdlib>

#include "util/timer.h"
#include "workloads/flights.h"

#include "bench_common.h"

using namespace datablocks;
using namespace datablocks::workloads;

namespace {

double Measure(const Table& t, ScanMode mode, size_t* result_size,
               int reps = 3) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    auto result = RunFlightsQuery(t, mode);
    best = std::min(best, timer.ElapsedSeconds());
    *result_size = result.size();
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  FlightsConfig cfg;
  cfg.num_rows =
      argc > 1 ? uint64_t(atoll(argv[1])) : (quick ? 150'000 : 4'000'000);

  std::printf("generating %llu flights (1987-10 .. 2008-04)...\n",
              (unsigned long long)cfg.num_rows);
  auto flights = MakeFlights(cfg);

  size_t nrows = 0;
  double jit = Measure(*flights, ScanMode::kJit, &nrows);
  double vec = Measure(*flights, ScanMode::kVectorizedSarg, &nrows);
  uint64_t hot_bytes = flights->MemoryBytes();
  flights->FreezeAll();

  double decompress_all = Measure(*flights, ScanMode::kVectorized, &nrows);
  double sma = Measure(*flights, ScanMode::kDataBlocks, &nrows);
  double psma = Measure(*flights, ScanMode::kDataBlocksPsma, &nrows);

  // "If workload knowledge exists ..., Data Blocks can be frozen based on a
  // sort criterion to improve accuracy of PSMAs" (Section 3.2): cluster each
  // block on the destination airport. Cross-block date ranges are untouched
  // (freezing sorts within blocks), so SMA skipping still works.
  auto clustered = MakeFlights(cfg);
  clustered->FreezeAll(int(flights_col::dest));
  double sorted_psma = Measure(*clustered, ScanMode::kDataBlocksPsma, &nrows);

  // Count skipped blocks for the report.
  TableScanner probe(*flights, {flights_col::arrdelay},
                     {Predicate::Between(flights_col::year, Value::Int(1998),
                                         Value::Int(2008)),
                      Predicate::Eq(flights_col::dest, Value::Str("SFO"))},
                     ScanMode::kDataBlocksPsma);
  Batch b;
  while (probe.Next(&b)) {
  }

  std::printf("\n=== Section 5.2: flights query (Appendix D) ===\n");
  std::printf("compression: %.1f MB -> %.1f MB (%.2fx); %llu/%zu blocks "
              "skipped by SMAs\n\n",
              double(hot_bytes) / 1e6, double(flights->MemoryBytes()) / 1e6,
              double(hot_bytes) / double(flights->MemoryBytes()),
              (unsigned long long)probe.chunks_skipped(),
              flights->num_chunks());
  std::printf("%-30s %10s %10s\n", "scan", "time", "speedup");
  auto row = [&](const char* name, double secs) {
    std::printf("%-30s %8.1fms %9.1fx\n", name, secs * 1e3, jit / secs);
  };
  row("JIT (uncompressed)", jit);
  row("Vectorized+SARG (uncompr.)", vec);
  row("DecompressAll (blocks)", decompress_all);
  row("Data Blocks +SARG/SMA", sma);
  row("Data Blocks +PSMA", psma);
  row("+SORT(dest) +PSMA", sorted_psma);
  std::printf("\n(%zu carrier groups; paper reports >20x for +PSMA vs JIT)\n",
              nrows);
  return 0;
}
