// Data Block format invariants: freeze -> point-access roundtrip identity
// for every type / distribution / compression scheme, SMA exactness,
// serialization, and layout self-containedness.

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "datablock/data_block.h"
#include "util/rng.h"

namespace datablocks {
namespace {

struct Distribution {
  const char* name;
  std::function<Value(Rng&, uint32_t)> gen;
  TypeId type;
  bool nullable;
};

class RoundTrip : public ::testing::TestWithParam<int> {};

Value GenFor(int kind, Rng& rng, uint32_t i) {
  switch (kind) {
    case 0: return Value::Int(rng.Uniform(0, 100));                  // trunc1
    case 1: return Value::Int(1000000 + rng.Uniform(0, 50000));     // trunc2
    case 2: return Value::Int(rng.Uniform(INT64_MIN / 2, INT64_MAX / 2));
    case 3: return Value::Int(rng.Uniform(0, 1) ? 1 : 99999999999ll);  // dict
    case 4: return Value::Int(42);                                   // single
    case 5: return Value::Int(int64_t(i));                           // sorted
    case 6: return Value::Double(rng.NextDouble() * 1000 - 500);
    case 7: return Value::Str(std::string("val") + std::to_string(rng.Uniform(0, 9)));
    case 8: return Value::Str(rng.RandomString(0, 40));
    case 9: return rng.Uniform(0, 3) == 0 ? Value::Null()
                                          : Value::Int(rng.Uniform(0, 500));
    default: return Value::Null();
  }
}

TypeId TypeFor(int kind) {
  switch (kind) {
    case 6: return TypeId::kDouble;
    case 7:
    case 8: return TypeId::kString;
    default: return TypeId::kInt64;
  }
}

TEST_P(RoundTrip, FreezeThenPointAccessIsIdentity) {
  const int kind = GetParam();
  Schema schema({{"c", TypeFor(kind), /*nullable=*/kind == 9}});
  const uint32_t n = 3000;
  Chunk chunk(&schema, n);
  Rng rng(uint64_t(kind) * 977 + 3);
  std::vector<Value> expect;
  for (uint32_t i = 0; i < n; ++i) {
    Value v = GenFor(kind, rng, i);
    expect.push_back(v);
    chunk.Append({v.cell()});
  }
  DataBlock block = DataBlock::Build(chunk);
  ASSERT_EQ(block.num_rows(), n);
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(block.GetValue(0, i) == expect[i])
        << "row " << i << ": " << block.GetValue(0, i).ToString() << " vs "
        << expect[i].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, RoundTrip,
                         ::testing::Range(0, 10));

TEST(DataBlock, SmaIsExact) {
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kDouble}});
  Chunk chunk(&schema, 1000);
  Rng rng(5);
  int64_t mn = INT64_MAX, mx = INT64_MIN;
  double dmn = 1e300, dmx = -1e300;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-100000, 100000);
    double d = rng.NextDouble() * 2000 - 1000;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    dmn = std::min(dmn, d);
    dmx = std::max(dmx, d);
    chunk.Append({Cell::Int(v), Cell::Double(d)});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_EQ(block.sma_min_int(0), mn);
  EXPECT_EQ(block.sma_max_int(0), mx);
  EXPECT_EQ(block.sma_min_double(1), dmn);
  EXPECT_EQ(block.sma_max_double(1), dmx);
}

TEST(DataBlock, SchemesMatchDistributions) {
  Schema schema({{"single", TypeId::kInt64},
                 {"trunc", TypeId::kInt64},
                 {"dict", TypeId::kInt64},
                 {"str", TypeId::kString}});
  Chunk chunk(&schema, 500);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    chunk.Append({Cell::Int(7), Cell::Int(1000 + rng.Uniform(0, 200)),
                  Cell::Int(rng.Uniform(0, 1) ? -5000000000ll : 8000000000ll),
                  Cell::Str(rng.Uniform(0, 1) ? "x" : "y")});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_EQ(block.compression(0), Compression::kSingleValue);
  EXPECT_EQ(block.compression(1), Compression::kTruncation);
  EXPECT_EQ(block.attr(1).code_width, 1);
  EXPECT_EQ(block.compression(2), Compression::kDictionary);
  EXPECT_EQ(block.compression(3), Compression::kDictionary);
  EXPECT_EQ(block.attr(3).dict_count, 2u);
}

TEST(DataBlock, OrderedStringDictionary) {
  Schema schema({{"s", TypeId::kString}});
  Chunk chunk(&schema, 6);
  for (const char* s : {"pear", "apple", "mango", "apple", "zebra", "fig"}) {
    chunk.Append({Cell::Str(s)});
  }
  DataBlock block = DataBlock::Build(chunk);
  ASSERT_EQ(block.attr(0).dict_count, 5u);
  // Order-preserving: dict codes sorted lexicographically.
  for (uint32_t i = 1; i < 5; ++i)
    EXPECT_LT(block.dict_string(0, i - 1), block.dict_string(0, i));
  EXPECT_EQ(block.GetStringView(0, 0), "pear");
  EXPECT_EQ(block.GetStringView(0, 4), "zebra");
}

TEST(DataBlock, OrderedIntDictionary) {
  Schema schema({{"v", TypeId::kInt64}});
  Chunk chunk(&schema, 400);
  Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    chunk.Append({Cell::Int((rng.Uniform(0, 3)) * 1000000000000ll)});
  }
  DataBlock block = DataBlock::Build(chunk);
  ASSERT_EQ(block.compression(0), Compression::kDictionary);
  const int64_t* dict = block.int_dict(0);
  for (uint32_t i = 1; i < block.attr(0).dict_count; ++i)
    EXPECT_LT(dict[i - 1], dict[i]);
}

TEST(DataBlock, SortPermutationClusters) {
  Schema schema({{"k", TypeId::kInt32}, {"p", TypeId::kInt32}});
  Chunk chunk(&schema, 1000);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    chunk.Append({Cell::Int(rng.Uniform(0, 9999)), Cell::Int(i)});
  }
  std::vector<uint32_t> perm(1000);
  for (uint32_t i = 0; i < 1000; ++i) perm[i] = i;
  const int32_t* keys =
      reinterpret_cast<const int32_t*>(chunk.column_data(0));
  std::stable_sort(perm.begin(), perm.end(),
                   [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
  DataBlock block = DataBlock::Build(chunk, perm.data());
  for (uint32_t i = 1; i < 1000; ++i)
    EXPECT_LE(block.GetInt(0, i - 1), block.GetInt(0, i));
  // Row payloads follow the permutation.
  for (uint32_t i = 0; i < 1000; ++i)
    EXPECT_EQ(block.GetInt(1, i), int64_t(perm[i]));
}

TEST(DataBlock, NullBitmapAndAllNull) {
  Schema schema({{"a", TypeId::kInt64, true}, {"b", TypeId::kString, true}});
  Chunk chunk(&schema, 100);
  for (int i = 0; i < 100; ++i) {
    chunk.Append({i % 3 == 0 ? Cell::Null() : Cell::Int(i),
                  Cell::Null()});
  }
  DataBlock block = DataBlock::Build(chunk);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(block.IsNull(0, i), i % 3 == 0);
    EXPECT_TRUE(block.IsNull(1, i));
  }
  EXPECT_TRUE(block.all_null(1));
  EXPECT_EQ(block.compression(1), Compression::kSingleValue);
}

TEST(DataBlock, RawBytesRoundTrip) {
  Schema schema({{"a", TypeId::kInt64},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDouble},
                 {"n", TypeId::kInt32, true}});
  Chunk chunk(&schema, 500);
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    chunk.Append(
        {Cell::Int(rng.Uniform(0, 1000)), Cell::Str(rng.RandomString(1, 20)),
         Cell::Double(rng.NextDouble()),
         rng.Uniform(0, 4) == 0 ? Cell::Null() : Cell::Int(rng.Uniform(0, 9))});
  }
  DataBlock block = DataBlock::Build(chunk);
  // The flat block is its own serialization: copy the bytes out and into an
  // image, which checks them as an archive read does.
  std::vector<uint8_t> bytes(block.raw_bytes(),
                             block.raw_bytes() + block.SizeBytes());
  auto load = [&bytes](uint64_t n, BlockImage* image) {
    uint8_t* buf = image->Reset(n);
    if (n > 0) std::memcpy(buf, bytes.data(), n);
    if (Status s = image->AdoptSpine(); !s.ok()) return s;
    return image->block().Validate(ColumnSet::All());
  };
  BlockImage image;
  ASSERT_TRUE(load(bytes.size(), &image).ok());
  const DataBlock& copy = image.block();
  ASSERT_EQ(copy.num_rows(), block.num_rows());
  ASSERT_EQ(copy.num_columns(), block.num_columns());
  for (uint32_t c = 0; c < block.num_columns(); ++c) {
    EXPECT_EQ(copy.compression(c), block.compression(c));
    for (uint32_t r = 0; r < block.num_rows(); ++r)
      EXPECT_TRUE(copy.GetValue(c, r) == block.GetValue(c, r));
  }
  // A truncated copy is corruption, not an abort.
  for (uint64_t cut : {uint64_t{0}, uint64_t{16}, uint64_t(bytes.size() / 2),
                       uint64_t(bytes.size() - 1)}) {
    BlockImage cut_image;
    EXPECT_EQ(load(cut, &cut_image).code(), StatusCode::kCorruption)
        << "cut=" << cut;
  }
}

TEST(DataBlock, PsmaPresenceRules) {
  Schema schema({{"i", TypeId::kInt64},
                 {"d", TypeId::kDouble},
                 {"c", TypeId::kInt64}});
  Chunk chunk(&schema, 100);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    chunk.Append({Cell::Int(rng.Uniform(0, 1000)),
                  Cell::Double(rng.NextDouble()), Cell::Int(5)});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_NE(block.psma(0), nullptr);   // integers get a PSMA
  EXPECT_EQ(block.psma(1), nullptr);   // doubles do not
  EXPECT_EQ(block.psma(2), nullptr);   // single-value does not
}

TEST(DataBlock, PsmaFootprintMatchesPaper) {
  // "typical memory footprints are 2 KB, 4 KB and 8 KB for values of type
  // 1-, 2- or 4-byte integers" (Section 3.2).
  Schema schema({{"a", TypeId::kInt64}});
  Chunk chunk(&schema, 1000);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    chunk.Append({Cell::Int(rng.Uniform(0, 200))});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_EQ(block.attr(0).psma_entries * sizeof(PsmaEntry), 2048u);  // 2 KB
}

TEST(DataBlock, CompressionShrinksTypicalData) {
  Schema schema({{"id", TypeId::kInt64},
                 {"cat", TypeId::kString},
                 {"qty", TypeId::kInt32}});
  const uint32_t n = 10000;
  Chunk chunk(&schema, n);
  Rng rng(7);
  for (uint32_t i = 0; i < n; ++i) {
    chunk.Append({Cell::Int(int64_t(i) + 5000000),
                  Cell::Str(rng.Uniform(0, 1) ? "AAA" : "BBB"),
                  Cell::Int(rng.Uniform(1, 50))});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_LT(block.SizeBytes(), chunk.MemoryBytes() / 2);
}

TEST(DataBlock, Int32FullRangeRaw) {
  // Raw storage of full-range int32 (positive + negative).
  Schema schema({{"v", TypeId::kInt32}});
  Chunk chunk(&schema, 4);
  for (int64_t v : {int64_t(INT32_MIN), int64_t(-1), int64_t(0),
                    int64_t(INT32_MAX)}) {
    chunk.Append({Cell::Int(v)});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_EQ(block.GetInt(0, 0), INT32_MIN);
  EXPECT_EQ(block.GetInt(0, 3), INT32_MAX);
}

}  // namespace
}  // namespace datablocks
