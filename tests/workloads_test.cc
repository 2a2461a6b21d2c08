// Flights / IMDB generators: the data shapes that drive the paper's
// compression (Table 1, Figure 10) and SMA/PSMA (Section 5.2) results.

#include <gtest/gtest.h>

#include "workloads/flights.h"
#include "workloads/imdb.h"

namespace datablocks::workloads {
namespace {

TEST(Flights, NaturalDateOrdering) {
  FlightsConfig cfg;
  cfg.num_rows = 100000;
  cfg.chunk_capacity = 8192;
  auto flights = MakeFlights(cfg);
  EXPECT_EQ(flights->num_rows(), cfg.num_rows);
  int32_t prev = INT32_MIN;
  for (size_t c = 0; c < flights->num_chunks(); ++c) {
    for (uint32_t r = 0; r < flights->chunk_rows(c); ++r) {
      int32_t date = int32_t(
          flights->GetInt(MakeRowId(c, r), flights_col::flightdate));
      ASSERT_GE(date, prev);
      prev = date;
    }
  }
}

TEST(Flights, QueryAgreesAcrossModesAndSkipsBlocks) {
  FlightsConfig cfg;
  cfg.num_rows = 200000;
  cfg.chunk_capacity = 8192;
  auto flights = MakeFlights(cfg);
  auto ref = RunFlightsQuery(*flights, ScanMode::kJit);
  ASSERT_FALSE(ref.empty());
  flights->FreezeAll();
  for (ScanMode mode : {ScanMode::kJit, ScanMode::kVectorized,
                        ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
    auto got = RunFlightsQuery(*flights, mode);
    ASSERT_EQ(got.size(), ref.size()) << ScanModeName(mode);
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].carrier, ref[i].carrier);
      EXPECT_EQ(got[i].count, ref[i].count);
      EXPECT_DOUBLE_EQ(got[i].avg_delay, ref[i].avg_delay);
    }
  }
  // The date ordering must make SMAs skip the pre-1998 blocks.
  TableScanner scan(*flights, {flights_col::arrdelay},
                    {Predicate::Between(flights_col::year, Value::Int(1998),
                                        Value::Int(2008)),
                     Predicate::Eq(flights_col::dest, Value::Str("SFO"))},
                    ScanMode::kDataBlocks);
  Batch b;
  while (scan.Next(&b)) {
  }
  EXPECT_GT(scan.chunks_skipped(), 0u);
}

TEST(Flights, CompressionRatio) {
  FlightsConfig cfg;
  cfg.num_rows = 150000;
  auto flights = MakeFlights(cfg);
  uint64_t hot = flights->MemoryBytes();
  flights->FreezeAll();
  double ratio = double(hot) / double(flights->MemoryBytes());
  // The paper reports ~5x for the flights data set (Figure 10); the
  // synthetic stand-in must land in the same regime.
  EXPECT_GT(ratio, 2.5);
}

TEST(Imdb, ShapesAndNullDensity) {
  ImdbConfig cfg;
  cfg.num_rows = 100000;
  auto t = MakeCastInfo(cfg);
  EXPECT_EQ(t->num_rows(), cfg.num_rows);
  namespace ci = cast_info_col;
  uint64_t role_nulls = 0, note_nulls = 0;
  for (size_t c = 0; c < t->num_chunks(); ++c) {
    const Chunk* chunk = t->hot_chunk(c);
    for (uint32_t r = 0; r < chunk->size(); ++r) {
      role_nulls += chunk->IsNull(ci::person_role_id, r);
      note_nulls += chunk->IsNull(ci::note, r);
    }
  }
  EXPECT_NEAR(double(role_nulls) / double(cfg.num_rows), 0.6, 0.05);
  EXPECT_NEAR(double(note_nulls) / double(cfg.num_rows), 0.8, 0.05);
}

TEST(Imdb, CompressionRatio) {
  ImdbConfig cfg;
  cfg.num_rows = 200000;
  auto t = MakeCastInfo(cfg);
  uint64_t hot = t->MemoryBytes();
  t->FreezeAll();
  double ratio = double(hot) / double(t->MemoryBytes());
  // Paper Table 1: cast_info compresses ~3.6x in HyPer.
  EXPECT_GT(ratio, 2.0);
}

TEST(Imdb, IdColumnIsMonotone) {
  ImdbConfig cfg;
  cfg.num_rows = 50000;
  cfg.chunk_capacity = 8192;  // several blocks so skipping is observable
  auto t = MakeCastInfo(cfg);
  t->FreezeAll();
  // Monotone id -> disjoint SMA ranges -> equality probes skip blocks.
  TableScanner scan(*t, {cast_info_col::id},
                    {Predicate::Eq(cast_info_col::id, Value::Int(31337))},
                    ScanMode::kDataBlocks);
  Batch b;
  uint64_t rows = 0;
  while (scan.Next(&b)) rows += b.count;
  EXPECT_EQ(rows, 1u);
  EXPECT_GT(scan.chunks_skipped(), 0u);
}

}  // namespace
}  // namespace datablocks::workloads
