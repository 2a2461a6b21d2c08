// Flights analytics (paper Section 5.2 / Appendix D): on naturally
// date-ordered data, SMAs skip most blocks outright and PSMAs narrow the
// scan range inside the remaining ones — the paper reports >20x for this
// query vs. a JIT scan of uncompressed data.

#include <cstdio>

#include "util/timer.h"
#include "workloads/flights.h"

using namespace datablocks;
using namespace datablocks::workloads;

int main(int argc, char** argv) {
  FlightsConfig cfg;
  cfg.num_rows = argc > 1 ? uint64_t(atoll(argv[1])) : 4'000'000;

  std::printf("generating %llu flight rows (1987-10 .. 2008-04)...\n",
              (unsigned long long)cfg.num_rows);
  auto flights = MakeFlights(cfg);
  uint64_t hot_bytes = flights->MemoryBytes();

  // Measure the query on hot (uncompressed) storage first.
  Timer t;
  auto ref = RunFlightsQuery(*flights, ScanMode::kJit);
  double jit_ms = t.ElapsedMillis();

  flights->FreezeAll();
  std::printf("compressed %.1f MB -> %.1f MB (%.2fx)\n\n",
              double(hot_bytes) / 1e6, double(flights->MemoryBytes()) / 1e6,
              double(hot_bytes) / double(flights->MemoryBytes()));

  std::printf("%-28s %10s %10s\n", "scan", "time", "speedup");
  std::printf("%-28s %8.1fms %9s\n", "JIT scan (uncompressed)", jit_ms, "1.0x");
  for (ScanMode mode : {ScanMode::kVectorized, ScanMode::kDataBlocks,
                        ScanMode::kDataBlocksPsma}) {
    t.Reset();
    auto result = RunFlightsQuery(*flights, mode);
    double ms = t.ElapsedMillis();
    std::printf("%-28s %8.1fms %8.1fx\n", ScanModeName(mode), ms,
                jit_ms / ms);
    if (result.size() != ref.size()) {
      std::printf("RESULT MISMATCH!\n");
      return 1;
    }
  }

  std::printf("\ncarriers by average arrival delay into SFO, 1998-2008:\n");
  for (const CarrierDelay& cd : ref) {
    std::printf("  %-3s %6.2f min  (%lld flights)\n", cd.carrier.c_str(),
                cd.avg_delay, (long long)cd.count);
  }
  return 0;
}
