// String-predicate scans on frozen Data Blocks: code-space evaluation
// (equality / IN / prefix-LIKE translated to dictionary codes, strings
// materialized lazily from the pinned block dictionary) versus the
// decompress-then-filter reference that eagerly decodes every string.
//
// Four measurements, each across kVectorized (decompress, then filter) /
// kDataBlocks / kDataBlocksPsma:
//   string_eq      point equality on a 1000-value dictionary column (~0.1%)
//   string_in      3-value IN list on the same column (~0.3%)
//   string_prefix  LIKE 'cat_1%' lowered to a code range (~11%)
//   late_mat       1% integer predicate, string column consumed: the coded
//                  path materializes only matching rows
//
// All modes must agree on matched rows and materialized string bytes; the
// bench aborts on divergence, so it doubles as a smoke check.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/table_scanner.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;

namespace {

constexpr uint32_t kCategories = 1000;

Table MakeFrozenTable(uint32_t rows) {
  Schema schema({{"category", TypeId::kString},
                 {"tag", TypeId::kString},
                 {"payload", TypeId::kInt64}});
  Table t("strings", schema, /*chunk_capacity=*/65536);
  Rng rng(17);
  for (uint32_t i = 0; i < rows; ++i) {
    t.Insert({Cell::Str("cat_" + std::to_string(rng.Uniform(0, kCategories))),
              Cell::Str("tag_" + std::to_string(rng.Uniform(0, 32))),
              Cell::Int(int64_t(rng.Uniform(0, 10000)))});
  }
  t.FreezeAll();
  return t;
}

struct ScanResult {
  uint64_t matches = 0;
  uint64_t str_bytes = 0;  // bytes of matched `category` strings
};

/// One full scan: count matches and touch every matched string so the
/// coded path has to materialize exactly the qualifying rows.
ScanResult RunScan(const Table& t, const std::vector<Predicate>& preds,
                   ScanMode mode) {
  TableScanner scan(t, {0, 2}, preds, mode);
  Batch b;
  ScanResult r;
  while (scan.Next(&b)) {
    r.matches += b.count;
    for (uint32_t i = 0; i < b.count; ++i)
      r.str_bytes += b.cols[0].Str(i).size();
  }
  return r;
}

struct ModeSpec {
  const char* label;
  ScanMode mode;
};

constexpr ModeSpec kModes[] = {
    {"decompress", ScanMode::kVectorized},
    {"code-space", ScanMode::kDataBlocks},
    {"code+PSMA", ScanMode::kDataBlocksPsma},
};

void Measure(const char* name, const Table& t,
             const std::vector<Predicate>& preds, int repeats) {
  ScanResult reference;
  bool have_reference = false;
  for (const ModeSpec& m : kModes) {
    std::vector<double> samples;
    ScanResult r;
    for (int rep = 0; rep < repeats; ++rep) {
      Timer timer;
      r = RunScan(t, preds, m.mode);
      samples.push_back(timer.ElapsedSeconds());
    }
    if (!have_reference) {
      reference = r;
      have_reference = true;
      if (r.matches == 0) {
        std::fprintf(stderr, "%s: predicate matched nothing\n", name);
        std::abort();
      }
    } else if (r.matches != reference.matches ||
               r.str_bytes != reference.str_bytes) {
      std::fprintf(stderr, "%s/%s diverged from reference\n", name, m.label);
      std::abort();
    }
    const double secs = BenchMedian(samples);
    const double rows = double(t.num_rows());
    std::printf("%-14s %-11s %9.2f ms  %12.0f rows/s  (%llu matches)\n",
                name, m.label, secs * 1e3, rows / secs,
                (unsigned long long)r.matches);
    BenchJsonRecord(name, m.label, secs * 1e9 / rows, rows / secs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  BenchJsonMode(&argc, argv, quick);
  const uint32_t rows =
      argc > 1 ? uint32_t(atof(argv[1]) * 1e6) : (quick ? 100000 : 2000000);
  const int repeats = quick ? 3 : 7;

  std::printf("building frozen table, %u rows, %u-value dictionary...\n",
              rows, kCategories);
  Table t = MakeFrozenTable(rows);

  std::printf("\n=== string-predicate scan throughput ===\n");
  Measure("string_eq", t,
          {Predicate::Eq(0, Value::Str("cat_500"))}, repeats);
  Measure("string_in", t,
          {Predicate::In(0, {Value::Str("cat_100"), Value::Str("cat_200"),
                             Value::Str("cat_300")})},
          repeats);
  Measure("string_prefix", t,
          {Predicate::Prefix(0, Value::Str("cat_1"))}, repeats);
  Measure("late_mat", t,
          {Predicate::Lt(2, Value::Int(100))}, repeats);

  std::printf(
      "\n(Expected shape: code-space modes beat decompress-then-filter on\n"
      " every selective predicate — they compare u32 codes against a\n"
      " translated code or range and only materialize matching strings;\n"
      " the decompress mode pays full dictionary decode per block first.)\n");
  return 0;
}
