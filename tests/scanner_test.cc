// The central integration property of the system (Figure 6): every ScanMode
// must return the identical result set for any table state (hot, frozen,
// mixed), any predicate set, any vector size, and any ISA.

#include <gtest/gtest.h>

#include <numeric>

#include "exec/table_scanner.h"
#include "util/rng.h"

namespace datablocks {
namespace {

constexpr ScanMode kAllModes[] = {
    ScanMode::kJit, ScanMode::kVectorized, ScanMode::kVectorizedSarg,
    ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma};

Schema WideSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"grp", TypeId::kInt32},
                 {"val", TypeId::kInt64},
                 {"name", TypeId::kString},
                 {"score", TypeId::kDouble},
                 {"flag", TypeId::kChar1},
                 {"opt", TypeId::kInt32, /*nullable=*/true},
                 {"when", TypeId::kDate}});
}

void FillRandom(Table* t, uint32_t n, uint64_t seed) {
  Rng rng(seed);
  static const char* names[6] = {"alpha", "beta",  "gamma",
                                 "delta", "omega", "zeta"};
  for (uint32_t i = 0; i < n; ++i) {
    t->Insert({Cell::Int(i),
               Cell::Int(rng.Uniform(0, 15)),
               Cell::Int(rng.Uniform(-1000000, 1000000)),
               Cell::Str(names[rng.Uniform(0, 5)]),
               Cell::Double(rng.NextDouble() * 100),
               Cell::Char(char('A' + rng.Uniform(0, 3))),
               rng.Uniform(0, 4) == 0 ? Cell::Null()
                                      : Cell::Int(rng.Uniform(0, 100)),
               Cell::Int(int32_t(9000 + rng.Uniform(0, 2000)))});
  }
}

/// Canonical digest of a scan result for comparison across modes.
std::string Digest(const Table& t, const std::vector<uint32_t>& cols,
                   const std::vector<Predicate>& preds, ScanMode mode,
                   uint32_t vector_size = 1024, Isa isa = BestIsa()) {
  TableScanner scan(t, cols, preds, mode, vector_size, isa);
  Batch b;
  std::string digest;
  uint64_t rows = 0;
  while (scan.Next(&b)) {
    for (uint32_t i = 0; i < b.count; ++i) {
      ++rows;
      for (size_t c = 0; c < cols.size(); ++c) {
        const ColumnVector& cv = b.cols[c];
        if (cv.IsNull(i)) {
          digest += "N|";
          continue;
        }
        switch (cv.type) {
          case TypeId::kInt32:
          case TypeId::kDate:
          case TypeId::kChar1:
            digest += std::to_string(cv.i32[i]);
            break;
          case TypeId::kInt64:
            digest += std::to_string(cv.i64[i]);
            break;
          case TypeId::kDouble:
            digest += std::to_string(cv.f64[i]);
            break;
          case TypeId::kString:
            digest += cv.Str(i);
            break;
        }
        digest += '|';
      }
      digest += '\n';
    }
  }
  digest += "rows=" + std::to_string(rows);
  return digest;
}

void ExpectAllModesAgree(const Table& t, const std::vector<uint32_t>& cols,
                         const std::vector<Predicate>& preds,
                         const char* label) {
  std::string ref = Digest(t, cols, preds, ScanMode::kJit);
  for (ScanMode mode : kAllModes) {
    EXPECT_EQ(Digest(t, cols, preds, mode), ref)
        << label << " mode=" << ScanModeName(mode);
  }
}

class ScannerProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScannerProperty, AllModesAgreeOnMixedStorage) {
  const int seed = GetParam();
  Table t("t", WideSchema(), 512);
  FillRandom(&t, 3000, uint64_t(seed) * 7919 + 1);
  Rng rng(uint64_t(seed) + 99);
  // Delete a sprinkling of rows.
  for (int i = 0; i < 100; ++i)
    t.Delete(MakeRowId(uint64_t(rng.Uniform(0, 4)), uint32_t(rng.Uniform(0, 511))));
  // Freeze a prefix, keep a hot tail.
  t.FreezeChunk(0);
  t.FreezeChunk(1);
  t.FreezeChunk(2);

  std::vector<uint32_t> all_cols = {0, 1, 2, 3, 4, 5, 6, 7};
  ExpectAllModesAgree(t, all_cols, {}, "no-predicate");
  ExpectAllModesAgree(
      t, all_cols, {Predicate::Between(1, Value::Int(3), Value::Int(9))},
      "int-range");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::Eq(3, Value::Str("gamma")),
                       Predicate::Ge(2, Value::Int(-300000))},
                      "string+int");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::Between(7, Value::Int(9500),
                                          Value::Int(10100)),
                       Predicate::Eq(5, Value::Int('B'))},
                      "date+char");
  ExpectAllModesAgree(t, all_cols, {Predicate::IsNull(6)}, "is-null");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::IsNotNull(6),
                       Predicate::Le(6, Value::Int(50))},
                      "not-null+range");
  ExpectAllModesAgree(t, all_cols, {Predicate::Gt(4, Value::Double(55.5))},
                      "double");
  ExpectAllModesAgree(t, all_cols, {Predicate::Ne(1, Value::Int(7))}, "ne");
  ExpectAllModesAgree(t, {2, 0},
                      {Predicate::Eq(0, Value::Int(1234))},
                      "point-ish");
  ExpectAllModesAgree(t, {3}, {Predicate::Lt(3, Value::Str("c"))},
                      "string-range");

  // IN lists on every column kind. The int64 list spans the whole domain,
  // so its sorted codes are not one run.
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::In(1, {Value::Int(3), Value::Int(7),
                                         Value::Int(11), Value::Int(100)})},
                      "in-int32");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::In(0, {Value::Int(5), Value::Int(600),
                                         Value::Int(2999), Value::Int(-1)})},
                      "in-int64");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::In(0, {Value::Int(INT64_MIN), Value::Int(7),
                                         Value::Int(INT64_MAX)})},
                      "in-int64-extremes");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::In(5, {Value::Char('A'), Value::Char('C')})},
                      "in-char");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::In(3, {Value::Str("beta"), Value::Str("omega"),
                                         Value::Str("nope")})},
                      "in-string");
  // Stored doubles from a frozen and a hot chunk.
  std::vector<double> scores;
  {
    TableScanner scan(t, {4}, {}, ScanMode::kJit);
    Batch b;
    while (scan.Next(&b)) scores.insert(scores.end(), b.cols[0].f64.begin(),
                                        b.cols[0].f64.begin() + b.count);
  }
  ASSERT_GT(scores.size(), 2000u);
  const double frozen_score = scores[700], hot_score = scores[2000];
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::In(4, {Value::Double(frozen_score),
                                         Value::Double(hot_score),
                                         Value::Double(-1.0)})},
                      "in-double");
  ExpectAllModesAgree(t, all_cols, {Predicate::In(6, {Value::Int(0),
                                                      Value::Int(5),
                                                      Value::Int(50)})},
                      "in-nullable-with-0");

  ExpectAllModesAgree(t, all_cols, {Predicate::Prefix(3, Value::Str("ga"))},
                      "prefix");
  ExpectAllModesAgree(t, all_cols, {Predicate::Prefix(3, Value::Str("zz"))},
                      "prefix-none");

  // Constants outside the int32 domain on int32 and date columns.
  const int64_t big = int64_t(1) << 40;
  ExpectAllModesAgree(t, all_cols, {Predicate::Ne(1, Value::Int(big))},
                      "ne-beyond-int32");
  ExpectAllModesAgree(t, all_cols, {Predicate::Lt(1, Value::Int(-big))},
                      "lt-below-int32");
  ExpectAllModesAgree(t, all_cols, {Predicate::Gt(7, Value::Int(-big))},
                      "gt-below-int32-date");
  ExpectAllModesAgree(t, all_cols, {Predicate::Lt(7, Value::Int(big))},
                      "lt-beyond-int32-date");
  ExpectAllModesAgree(t, all_cols, {Predicate::Gt(7, Value::Int(big))},
                      "gt-beyond-int32-date");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::Lt(0, Value::Int(INT64_MIN))},
                      "lt-int64-min");
  ExpectAllModesAgree(t, all_cols,
                      {Predicate::Gt(2, Value::Int(INT64_MAX))},
                      "gt-int64-max");

  // Strict and non-strict double bounds at a stored value.
  for (double v : {frozen_score, hot_score}) {
    ExpectAllModesAgree(t, all_cols, {Predicate::Lt(4, Value::Double(v))},
                        "double-lt-stored");
    ExpectAllModesAgree(t, all_cols, {Predicate::Ge(4, Value::Double(v))},
                        "double-ge-stored");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScannerProperty, ::testing::Range(0, 6));

TEST(Scanner, VectorSizeDoesNotChangeResults) {
  Table t("t", WideSchema(), 1000);
  FillRandom(&t, 5000, 77);
  t.FreezeAll();
  std::vector<uint32_t> cols = {0, 1, 3};
  std::vector<Predicate> preds = {
      Predicate::Between(1, Value::Int(2), Value::Int(11))};
  std::string ref =
      Digest(t, cols, preds, ScanMode::kDataBlocksPsma, 256);
  for (uint32_t vs : {64u, 512u, 1024u, 8192u, 65536u}) {
    EXPECT_EQ(Digest(t, cols, preds, ScanMode::kDataBlocksPsma, vs), ref)
        << vs;
  }
}

TEST(Scanner, IsaDoesNotChangeResults) {
  Table t("t", WideSchema(), 1000);
  FillRandom(&t, 4000, 13);
  t.FreezeAll();
  std::vector<uint32_t> cols = {0, 2, 5};
  std::vector<Predicate> preds = {
      Predicate::Between(2, Value::Int(-500000), Value::Int(0)),
      Predicate::Eq(5, Value::Int('A'))};
  std::string ref = Digest(t, cols, preds, ScanMode::kDataBlocks, 1024,
                           Isa::kScalar);
  for (Isa isa : {Isa::kSse, Isa::kAvx2}) {
    EXPECT_EQ(Digest(t, cols, preds, ScanMode::kDataBlocks, 1024, isa), ref);
  }
}

TEST(Scanner, SmaSkipsBlocks) {
  // id is monotone; freezing gives disjoint [min,max] per block, so an
  // equality predicate must skip all blocks but one.
  Table t("t", WideSchema(), 500);
  FillRandom(&t, 5000, 3);
  t.FreezeAll();
  TableScanner scan(t, {0}, {Predicate::Eq(0, Value::Int(2600))},
                    ScanMode::kDataBlocks);
  Batch b;
  uint64_t rows = 0;
  while (scan.Next(&b)) rows += b.count;
  EXPECT_EQ(rows, 1u);
  EXPECT_EQ(scan.chunks_skipped(), 9u);  // 10 blocks, 1 contains the key
}

TEST(Scanner, UnsatisfiablePredicateScansNothing) {
  Table t("t", WideSchema(), 500);
  FillRandom(&t, 1000, 5);
  t.FreezeAll();
  TableScanner scan(t, {0}, {Predicate::Lt(1, Value::Int(-5))},
                    ScanMode::kDataBlocks);
  Batch b;
  EXPECT_FALSE(scan.Next(&b));
  EXPECT_EQ(scan.chunks_skipped(), 2u);
}

TEST(Scanner, ResetRestartsScan) {
  Table t("t", WideSchema(), 500);
  FillRandom(&t, 1200, 8);
  TableScanner scan(t, {0}, {}, ScanMode::kVectorizedSarg, 100);
  Batch b;
  uint64_t first = 0, second = 0;
  while (scan.Next(&b)) first += b.count;
  scan.Reset();
  while (scan.Next(&b)) second += b.count;
  EXPECT_EQ(first, 1200u);
  EXPECT_EQ(second, first);
}

TEST(Scanner, EmptyTable) {
  Table t("t", WideSchema(), 128);
  for (ScanMode mode : kAllModes) {
    TableScanner scan(t, {0, 1}, {}, mode);
    Batch b;
    EXPECT_FALSE(scan.Next(&b)) << ScanModeName(mode);
  }
}

TEST(Scanner, FullyDeletedChunk) {
  Table t("t", WideSchema(), 64);
  FillRandom(&t, 128, 4);
  for (uint32_t r = 0; r < 64; ++r) t.Delete(MakeRowId(0, r));
  t.FreezeAll();
  for (ScanMode mode : kAllModes) {
    TableScanner scan(t, {0}, {}, mode);
    Batch b;
    uint64_t rows = 0;
    while (scan.Next(&b)) rows += b.count;
    EXPECT_EQ(rows, 64u) << ScanModeName(mode);
  }
}

TEST(Scanner, MatchAllFastPathEqualsFiltered) {
  // A predicate implied by the SMA triggers the no-positions fast path;
  // its output must equal the positions path.
  Table t("t", WideSchema(), 512);
  FillRandom(&t, 512, 6);
  t.FreezeAll();
  std::string a = Digest(t, {0, 3}, {Predicate::Ge(1, Value::Int(-100))},
                         ScanMode::kDataBlocks);
  std::string b = Digest(t, {0, 3}, {}, ScanMode::kDataBlocks);
  EXPECT_EQ(a, b);
}

TEST(Scanner, ProducesVectorAtATime) {
  Table t("t", WideSchema(), 4096);
  FillRandom(&t, 4096, 10);
  t.FreezeAll();
  TableScanner scan(t, {0}, {}, ScanMode::kDataBlocks, 256);
  Batch b;
  uint32_t batches = 0;
  while (scan.Next(&b)) {
    EXPECT_LE(b.count, 256u);
    ++batches;
  }
  EXPECT_EQ(batches, 16u);
}

}  // namespace
}  // namespace datablocks
