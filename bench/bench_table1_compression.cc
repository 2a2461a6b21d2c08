// Table 1: database sizes uncompressed vs. compressed, for TPC-H, the IMDB
// cast_info relation, and the flights data set. A sub-byte bit-packed size
// estimate stands in for the "Vectorwise compressed" reference column (see
// DESIGN.md substitution 4). Each data set's freeze is timed as well: the
// thread CPU time of FreezeAll, in total and per frozen value. A freeze
// CPU split follows (advisory, nothing pinned): the string columns'
// CollectStats, timed in a pass of its own just before the freeze,
// against the rest of DataBlock::Build, with the costliest string column
// per block. A third table splits each data set's Data Blocks bytes into
// codes, dictionaries (integer values, or a string dictionary's offsets),
// string bytes, PSMA tables and the rest (spines, NULL bitmaps,
// alignment). With --quick at its default scale the run exits non-zero
// unless the TPC-H Data Blocks bytes equal kQuickTpchBytes, so a change to
// the block layout or to scheme choice must update them deliberately.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "datablock/compression.h"
#include "tpch/tpch_db.h"
#include "util/bits.h"
#include "workloads/flights.h"
#include "workloads/imdb.h"

#include "bench_common.h"

using namespace datablocks;

namespace {

/// TPC-H SF 0.01 (default seed) Data Blocks bytes, pinned under --quick.
constexpr uint64_t kQuickTpchBytes = 6991040;

/// A data set's frozen bytes by region, and the bit-packed estimate.
struct Sizes {
  uint64_t blocks = 0, codes = 0, dicts = 0, strings = 0, psma = 0;
  /// Lower-bound estimate of a PFOR/PDICT-style sub-byte encoding: codes
  /// use BitsNeeded() bits instead of whole bytes; dictionaries, string
  /// bytes and NULL bitmaps are kept as they are.
  uint64_t bitpacked = 0;
};

void Measure(const Table& t, Sizes* s) {
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    const DataBlock* b = t.frozen_block(c);
    if (b == nullptr) continue;
    s->blocks += b->SizeBytes();
    s->psma += b->PsmaBytes();
    const uint64_t n = b->num_rows();
    for (uint32_t a = 0; a < b->num_columns(); ++a) {
      const AttrMeta& m = b->attr(a);
      uint64_t strings = 0;
      if (TypeId(m.type) == TypeId::kString) {
        for (uint32_t k = 0; k < m.dict_count; ++k)
          strings += b->dict_string(a, k).size();
      }
      s->dicts += m.dict_bytes();
      s->strings += strings;
      if (m.flags & AttrMeta::kHasNulls) s->bitpacked += BitmapWords(n) * 8;
      switch (Compression(m.compression)) {
        case Compression::kSingleValue:
          continue;
        case Compression::kDictionary:
          s->bitpacked +=
              (n * BitsNeeded(m.dict_count ? m.dict_count - 1 : 0) + 7) / 8 +
              m.dict_bytes() + strings;
          break;
        case Compression::kTruncation:
          s->bitpacked +=
              (n * BitsNeeded(uint64_t(m.max_val) - uint64_t(m.min_val)) +
               7) /
              8;
          break;
        case Compression::kRaw:
          s->bitpacked += n * m.code_width;
          break;
      }
      s->codes += n * m.code_width;
    }
  }
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// A data set's freeze CPU, and the share its string columns' stats take.
struct FreezeCpu {
  double freeze_s = 0;
  double string_stats_s = 0;
  std::string worst_column;  // costliest string column per block
  double worst_ms_per_block = 0;
};

/// Times CollectStats of every string column of `t`'s hot chunks, as
/// DataBlock::Build's first pass runs it (no sort permutation).
void TimeStringStats(const Table& t, FreezeCpu* cpu) {
  const Schema& schema = t.schema();
  for (uint32_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.type(c) != TypeId::kString) continue;
    double column_s = 0;
    size_t blocks = 0;
    for (size_t k = 0; k < t.num_chunks(); ++k) {
      const Chunk* chunk = t.hot_chunk(k);
      if (chunk == nullptr || chunk->size() == 0) continue;
      const double start = ThreadCpuSeconds();
      CollectStats(*chunk, c, nullptr);
      column_s += ThreadCpuSeconds() - start;
      ++blocks;
    }
    cpu->string_stats_s += column_s;
    const double ms_per_block =
        blocks == 0 ? 0.0 : column_s * 1e3 / double(blocks);
    if (ms_per_block > cpu->worst_ms_per_block) {
      cpu->worst_ms_per_block = ms_per_block;
      cpu->worst_column = t.name() + "." + schema.column(c).name;
    }
  }
}

struct Row {
  const char* name;
  Sizes sizes;
  FreezeCpu cpu;
};

/// Freezes the tables, prints their sizes and the freeze's CPU time, in
/// total and per frozen value (rows x attributes), and returns the sizes
/// and the freeze CPU split.
Row Report(const char* name, uint64_t uncompressed, Table* tables[],
           int num_tables) {
  Row row{name, {}, {}};
  Sizes& sizes = row.sizes;
  uint64_t compressed = 0, values = 0;
  double& freeze_s = row.cpu.freeze_s;
  for (int i = 0; i < num_tables; ++i) {
    values += tables[i]->num_rows() * tables[i]->schema().num_columns();
    TimeStringStats(*tables[i], &row.cpu);
    const double start = ThreadCpuSeconds();
    tables[i]->FreezeAll();
    freeze_s += ThreadCpuSeconds() - start;
    compressed += tables[i]->MemoryBytes();
    Measure(*tables[i], &sizes);
  }
  std::printf(
      "%-16s %12.1f MB %12.1f MB %12.1f MB %8.2fx %10.2fx %9.1f ms %8.1f\n",
      name, double(uncompressed) / 1e6, double(compressed) / 1e6,
      double(sizes.bitpacked) / 1e6,
      double(uncompressed) / double(compressed),
      double(compressed) / double(sizes.bitpacked), freeze_s * 1e3,
      values == 0 ? 0.0 : freeze_s * 1e9 / double(values));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  // Takes --json like every bench so it is not read as the scale factor;
  // sizes and freeze times are only printed, so the file holds no results.
  BenchJsonMode(&argc, argv, quick);
  double sf = argc > 1 ? atof(argv[1]) : (quick ? 0.01 : 0.2);

  std::printf("=== Table 1: database sizes (uncompressed vs Data Blocks vs "
              "sub-byte reference) ===\n");
  std::printf("%-16s %15s %15s %15s %9s %11s %12s %8s\n", "data set",
              "uncompressed", "Data Blocks", "bit-packed", "ratio",
              "DB/packed", "freeze CPU", "ns/value");

  std::vector<Row> rows;
  char tpch_name[64];
  std::snprintf(tpch_name, sizeof(tpch_name), "TPC-H SF%.2g", sf);
  {
    tpch::TpchConfig cfg;
    cfg.scale_factor = sf;
    auto db = tpch::MakeTpch(cfg);
    uint64_t hot = db->TotalBytes();
    Table* tables[8] = {&db->region, &db->nation,   &db->supplier,
                        &db->customer, &db->part,   &db->partsupp,
                        &db->orders,  &db->lineitem};
    rows.push_back(Report(tpch_name, hot, tables, 8));
  }
  {
    workloads::ImdbConfig cfg;
    cfg.num_rows = uint64_t(3'600'000 * sf * 5);  // scaled cast_info
    auto t = workloads::MakeCastInfo(cfg);
    uint64_t hot = t->MemoryBytes();
    Table* tables[1] = {t.get()};
    rows.push_back(Report("IMDB cast_info", hot, tables, 1));
  }
  {
    workloads::FlightsConfig cfg;
    cfg.num_rows = uint64_t(10'000'000 * sf);
    auto t = workloads::MakeFlights(cfg);
    uint64_t hot = t->MemoryBytes();
    Table* tables[1] = {t.get()};
    rows.push_back(Report("Flights", hot, tables, 1));
  }
  std::printf(
      "\n(Paper Table 1: HyPer compresses TPC-H ~1.9x, cast_info ~3.6x,\n"
      " flights ~5x; Vectorwise's heavier sub-byte schemes save another\n"
      " ~25%%, which the bit-packed estimate column mirrors.)\n");

  std::printf("\n=== Freeze CPU split (advisory) ===\n");
  std::printf("%-16s %12s %14s %12s  %s\n", "data set", "freeze ms",
              "string stats", "rest ms", "costliest string column");
  for (const Row& r : rows) {
    const FreezeCpu& c = r.cpu;
    std::printf("%-16s %12.1f %11.1f ms %12.1f  %s", r.name,
                c.freeze_s * 1e3, c.string_stats_s * 1e3,
                (c.freeze_s - c.string_stats_s) * 1e3,
                c.worst_column.empty() ? "-" : c.worst_column.c_str());
    if (!c.worst_column.empty()) {
      std::printf(" (%.2f ms per block)", c.worst_ms_per_block);
    }
    std::printf("\n");
  }

  std::printf("\n=== Data Blocks bytes by region (MB) ===\n");
  std::printf("%-16s %12s %12s %12s %12s %12s %12s\n", "data set", "total",
              "codes", "dictionary", "strings", "PSMA", "other");
  for (const Row& r : rows) {
    const Sizes& z = r.sizes;
    std::printf("%-16s %12.2f %12.2f %12.2f %12.2f %12.2f %12.2f\n", r.name,
                double(z.blocks) / 1e6, double(z.codes) / 1e6,
                double(z.dicts) / 1e6, double(z.strings) / 1e6,
                double(z.psma) / 1e6,
                double(z.blocks - z.codes - z.dicts - z.strings - z.psma) /
                    1e6);
  }
  if (quick && argc <= 1 && rows[0].sizes.blocks != kQuickTpchBytes) {
    std::fprintf(stderr,
                 "TPC-H SF 0.01 Data Blocks take %llu bytes; --quick pins "
                 "%llu\n",
                 (unsigned long long)rows[0].sizes.blocks,
                 (unsigned long long)kQuickTpchBytes);
    return 1;
  }
  return 0;
}
