// Block scan logic: predicate translation into the compressed domain, SMA
// skipping, dictionary-miss pruning, PSMA narrowing soundness,
// find-matches vs. brute force on randomized blocks and in every predicate
// order, IN sets on hot chunks and frozen blocks, and range and positional
// unpacking vs. point access for every scheme and code width, with every
// appended slot written.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "datablock/block_scan.h"
#include "datablock/block_summary.h"
#include "exec/table_scanner.h"
#include "storage/table.h"
#include "util/date.h"
#include "util/rng.h"

namespace datablocks {
namespace {

DataBlock MakeIntBlock(const std::vector<int64_t>& values, TypeId type,
                       Schema* schema) {
  *schema = Schema({{"c", type}});
  Chunk chunk(schema, uint32_t(values.size()));
  for (int64_t v : values) {
    chunk.Append({Cell::Int(v)});
  }
  return DataBlock::Build(chunk);
}

TEST(Translate, SmaSkipsOutOfRangeBlocks) {
  Schema schema;
  DataBlock block = MakeIntBlock({100, 200, 300}, TypeId::kInt64, &schema);
  auto prep = PrepareBlockScan(block, {Predicate::Gt(0, Value::Int(500))},
                               false);
  EXPECT_TRUE(prep.skip);
  prep = PrepareBlockScan(block, {Predicate::Lt(0, Value::Int(100))}, false);
  EXPECT_TRUE(prep.skip);
  prep = PrepareBlockScan(block, {Predicate::Eq(0, Value::Int(150))}, false);
  EXPECT_FALSE(prep.skip);  // inside [min,max]; kernel must run
}

TEST(Translate, ImpliedPredicateBecomesMatchAll) {
  Schema schema;
  DataBlock block = MakeIntBlock({100, 200, 300}, TypeId::kInt64, &schema);
  auto prep = PrepareBlockScan(block, {Predicate::Ge(0, Value::Int(50))},
                               false);
  EXPECT_FALSE(prep.skip);
  EXPECT_TRUE(prep.MatchAll());
}

TEST(Translate, DictionaryMissSkipsBlock) {
  Schema schema;
  // Dictionary-compressed column without the probed value inside [min,max].
  std::vector<int64_t> v;
  for (int i = 0; i < 300; ++i)
    v.push_back(i % 2 ? 0 : 1000000000000ll);
  DataBlock block = MakeIntBlock(v, TypeId::kInt64, &schema);
  ASSERT_EQ(block.compression(0), Compression::kDictionary);
  auto prep =
      PrepareBlockScan(block, {Predicate::Eq(0, Value::Int(500))}, false);
  EXPECT_TRUE(prep.skip);  // binary search miss (Section 3.4)
}

TEST(Translate, StringDictionaryMiss) {
  Schema schema({{"s", TypeId::kString}});
  Chunk chunk(&schema, 10);
  for (int i = 0; i < 10; ++i) {
    chunk.Append({Cell::Str(i % 2 ? "alpha" : "omega")});
  }
  DataBlock block = DataBlock::Build(chunk);
  auto prep = PrepareBlockScan(
      block, {Predicate::Eq(0, Value::Str("beta"))}, false);
  EXPECT_TRUE(prep.skip);
  prep = PrepareBlockScan(block, {Predicate::Eq(0, Value::Str("alpha"))},
                          false);
  EXPECT_FALSE(prep.skip);
}

TEST(Translate, SingleValueEvaluatesToAllOrNone) {
  Schema schema;
  DataBlock block =
      MakeIntBlock(std::vector<int64_t>(50, 7), TypeId::kInt64, &schema);
  ASSERT_EQ(block.compression(0), Compression::kSingleValue);
  auto all = PrepareBlockScan(block, {Predicate::Eq(0, Value::Int(7))}, false);
  EXPECT_TRUE(all.MatchAll());
  auto none =
      PrepareBlockScan(block, {Predicate::Eq(0, Value::Int(8))}, false);
  EXPECT_TRUE(none.skip);
}

TEST(Translate, PsmaNarrowsSortedBlock) {
  Schema schema;
  std::vector<int64_t> v;
  for (int i = 0; i < 10000; ++i) v.push_back(i / 10);  // sorted, clustered
  DataBlock block = MakeIntBlock(v, TypeId::kInt64, &schema);
  auto with = PrepareBlockScan(
      block, {Predicate::Between(0, Value::Int(500), Value::Int(502))}, true);
  auto without = PrepareBlockScan(
      block, {Predicate::Between(0, Value::Int(500), Value::Int(502))},
      false);
  EXPECT_EQ(without.range_end - without.range_begin, 10000u);
  // Deltas 500..502 are 2-byte values, so they share a PSMA slot with all
  // deltas having the same most significant byte (256..511): the narrowed
  // range is the rows holding values 256..511 — 2560 rows, a 4x cut.
  EXPECT_EQ(with.range_begin, 2560u);
  EXPECT_EQ(with.range_end, 5120u);

  // Deltas below 256 map to exact slots: a probe there narrows to exactly
  // the matching rows.
  auto exact = PrepareBlockScan(
      block, {Predicate::Between(0, Value::Int(100), Value::Int(101))}, true);
  EXPECT_EQ(exact.range_begin, 1000u);
  EXPECT_EQ(exact.range_end, 1020u);
}

/// The randomized block of BlockScanRandom: one column per storage kind,
/// plus the values it holds for brute-force reference evaluation.
struct RandomBlock {
  std::vector<int64_t> a, b;
  std::vector<std::string> s;
  std::vector<double> d;
  DataBlock block;
};

RandomBlock MakeRandomBlock(int seed, uint32_t n, Rng* rng) {
  Schema schema({{"a", TypeId::kInt64},
                 {"b", TypeId::kInt32},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDouble}});
  Chunk chunk(&schema, n);
  RandomBlock rb;
  for (uint32_t i = 0; i < n; ++i) {
    rb.a.push_back(rng->Uniform(-500, 500) * (seed % 2 ? 1000000000ll : 1));
    rb.b.push_back(rng->Uniform(0, 50));
    rb.s.push_back(std::string("k") + std::to_string(rng->Uniform(0, 20)));
    rb.d.push_back(rng->NextDouble() * 100);
    chunk.Append({Cell::Int(rb.a[i]), Cell::Int(rb.b[i]),
                  Cell::Str(rb.s[i]), Cell::Double(rb.d[i])});
  }
  rb.block = DataBlock::Build(chunk);
  return rb;
}

// Randomized: FindMatchesInBlock must equal a brute-force evaluation for all
// op/type/compression combinations.
class BlockScanRandom : public ::testing::TestWithParam<int> {};

TEST_P(BlockScanRandom, MatchesBruteForce) {
  const int seed = GetParam();
  Rng rng(uint64_t(seed) * 1337 + 11);
  const uint32_t n = 2000;
  const RandomBlock rb = MakeRandomBlock(seed, n, &rng);
  const std::vector<int64_t>& a = rb.a;
  const std::vector<int64_t>& b = rb.b;
  const std::vector<std::string>& s = rb.s;
  const std::vector<double>& d = rb.d;
  const DataBlock& block = rb.block;

  struct Case {
    std::vector<Predicate> preds;
    std::function<bool(uint32_t)> ref;
  };
  int64_t alo = rng.Uniform(-400, 0) * (seed % 2 ? 1000000000ll : 1);
  int64_t ahi = rng.Uniform(0, 400) * (seed % 2 ? 1000000000ll : 1);
  std::vector<Case> cases;
  cases.push_back({{Predicate::Between(0, Value::Int(alo), Value::Int(ahi))},
                   [&](uint32_t i) { return a[i] >= alo && a[i] <= ahi; }});
  cases.push_back({{Predicate::Le(1, Value::Int(25))},
                   [&](uint32_t i) { return b[i] <= 25; }});
  cases.push_back({{Predicate::Ne(1, Value::Int(7))},
                   [&](uint32_t i) { return b[i] != 7; }});
  cases.push_back({{Predicate::Eq(2, Value::Str("k5"))},
                   [&](uint32_t i) { return s[i] == "k5"; }});
  cases.push_back(
      {{Predicate::Between(2, Value::Str("k2"), Value::Str("k5"))},
       [&](uint32_t i) { return s[i] >= "k2" && s[i] <= "k5"; }});
  cases.push_back({{Predicate::Gt(3, Value::Double(40.0))},
                   [&](uint32_t i) { return d[i] > 40.0; }});
  cases.push_back(
      {{Predicate::Between(0, Value::Int(alo), Value::Int(ahi)),
        Predicate::Le(1, Value::Int(30)), Predicate::Gt(3, Value::Double(20))},
       [&](uint32_t i) {
         return a[i] >= alo && a[i] <= ahi && b[i] <= 30 && d[i] > 20;
       }});

  for (const Case& c : cases) {
    for (bool use_psma : {false, true}) {
      auto prep = PrepareBlockScan(block, c.preds, use_psma);
      std::vector<uint32_t> got;
      if (!prep.skip) {
        std::vector<uint32_t> buf(n + 8);
        uint32_t cnt =
            FindMatchesInBlock(block, prep, prep.range_begin, prep.range_end,
                               BestIsa(), buf.data());
        got.assign(buf.begin(), buf.begin() + cnt);
      }
      std::vector<uint32_t> expect;
      for (uint32_t i = 0; i < n; ++i)
        if (c.ref(i)) expect.push_back(i);
      ASSERT_EQ(got, expect) << "psma=" << use_psma;
    }
  }
}

/// Brute-force meaning of a predicate on row i of a RandomBlock, written
/// out independently of the engine's comparison code.
bool RefEval(const RandomBlock& rb, const Predicate& p, uint32_t i) {
  if (p.op == CompareOp::kIsNull) return false;  // no column holds NULLs
  if (p.op == CompareOp::kIsNotNull) return true;
  auto eval = [&p](const auto& v, auto get) {
    switch (p.op) {
      case CompareOp::kEq: return v == get(p.lo);
      case CompareOp::kNe: return v != get(p.lo);
      case CompareOp::kLt: return v < get(p.lo);
      case CompareOp::kLe: return v <= get(p.lo);
      case CompareOp::kGt: return v > get(p.lo);
      case CompareOp::kGe: return v >= get(p.lo);
      case CompareOp::kBetween: return v >= get(p.lo) && v <= get(p.hi);
      case CompareOp::kIn:
        for (const Value& c : p.list)
          if (v == get(c)) return true;
        return false;
      default:  // kPrefix
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>,
                                     std::string>) {
          return v.compare(0, p.lo.str().size(), p.lo.str()) == 0;
        }
        ADD_FAILURE() << "prefix on a numeric column";
        return false;
    }
  };
  auto i64 = [](const Value& c) { return c.i64(); };
  switch (p.col) {
    case 0: return eval(rb.a[i], i64);
    case 1: return eval(rb.b[i], i64);
    case 2: return eval(rb.s[i], [](const Value& c) { return c.str(); });
    default: return eval(rb.d[i], [](const Value& c) { return c.f64(); });
  }
}

// The summary-skip promise: a PrepareSummaryScan skip is a PrepareBlockScan
// skip, and a block skip leaves no matching row behind. The predicates sit
// on and around each column's SMA edges, including string prefixes of the
// block minimum, which match rows even though the minimum's prefix is no
// greater than the pattern.
TEST_P(BlockScanRandom, SummarySkipImpliesBlockSkip) {
  const int seed = GetParam();
  Rng rng(uint64_t(seed) * 1337 + 11);
  const uint32_t n = 2000;
  const RandomBlock rb = MakeRandomBlock(seed, n, &rng);
  const auto [amin, amax] = std::minmax_element(rb.a.begin(), rb.a.end());
  const auto [smin, smax] = std::minmax_element(rb.s.begin(), rb.s.end());
  const auto [dmin, dmax] = std::minmax_element(rb.d.begin(), rb.d.end());
  auto I = [](int64_t v) { return Value::Int(v); };
  auto S = [](std::string v) { return Value::Str(std::move(v)); };
  auto D = [](double v) { return Value::Double(v); };

  std::vector<std::vector<Predicate>> cases = {
      {Predicate::Gt(0, I(*amax))},
      {Predicate::Ge(0, I(*amax))},
      {Predicate::Lt(0, I(*amin))},
      {Predicate::Le(0, I(*amin))},
      {Predicate::Lt(0, I(INT64_MIN))},
      {Predicate::Gt(0, I(INT64_MAX))},
      {Predicate::Ne(0, I(*amin))},
      {Predicate::Eq(0, I(rb.a[17]))},
      {Predicate::In(0, {I(*amin - 1), I(*amax + 1)})},
      {Predicate::Between(1, I(60), I(70))},
      {Predicate::Between(1, I(10), I(5))},
      {Predicate::Eq(1, I(51))},
      {Predicate::In(1, {I(-1), I(51), I(99)})},
      {Predicate::In(1, {I(-1), I(7)})},
      {Predicate::Ne(1, I(7))},
      {Predicate::Eq(2, S("a"))},
      {Predicate::Eq(2, S(*smax + "0"))},
      {Predicate::Eq(2, S("k05"))},  // inside [min, max], not stored
      {Predicate::In(2, {S("k05"), S("k55")})},
      {Predicate::Ne(2, S("k5"))},
      {Predicate::Lt(2, S(*smin))},
      {Predicate::Le(2, S(*smin))},
      {Predicate::Gt(2, S(*smax))},
      {Predicate::Ge(2, S(*smax))},
      {Predicate::Between(2, S("l"), S("m"))},
      {Predicate::Between(2, S("k5"), S("k1"))},
      {Predicate::In(2, {S("a"), S("z")})},
      {Predicate::In(2, {S("a"), S(*smin)})},
      {Predicate::Prefix(2, S(smin->substr(0, 2)))},
      {Predicate::Prefix(2, S(*smin))},
      {Predicate::Prefix(2, S("k"))},
      {Predicate::Prefix(2, S("k3"))},
      {Predicate::Prefix(2, S("a"))},
      {Predicate::Prefix(2, S("z"))},
      {Predicate::Gt(3, D(*dmax))},
      {Predicate::Ge(3, D(*dmax))},
      {Predicate::Lt(3, D(*dmin))},
      {Predicate::Le(3, D(*dmin))},
      {Predicate::Gt(3, D(100.0))},
      {Predicate::In(3, {D(-1.0), D(200.0)})},
      {Predicate::Eq(3, D(rb.d[5]))},
      {Predicate::IsNull(0)},
      {Predicate::IsNotNull(2)},
      {Predicate::Eq(1, I(3)), Predicate::Gt(0, I(*amax))},
  };
  // PSMA-only skips: equalities just above the minimum land in exact
  // PSMA slots, and some of these values are missing from the block.
  for (int64_t k = 1; k <= 6; ++k) {
    cases.push_back({Predicate::Eq(0, I(*amin + k))});
    cases.push_back({Predicate::Between(0, I(*amin + k), I(*amin + k + 1))});
  }

  int summary_skips = 0, block_only_skips = 0, scans = 0;
  const BlockSummary summary = BlockSummary::Extract(rb.block);
  for (const std::vector<Predicate>& preds : cases) {
    for (bool use_psma : {false, true}) {
      const bool summary_skip =
          PrepareSummaryScan(summary, preds, use_psma).skip;
      const bool block_skip = PrepareBlockScan(rb.block, preds, use_psma).skip;
      uint32_t matches = 0;
      for (uint32_t i = 0; i < n; ++i) {
        bool all = true;
        for (const Predicate& p : preds) all = all && RefEval(rb, p, i);
        matches += all;
      }
      const std::string label = "case " +
                                std::to_string(&preds - cases.data()) +
                                " psma=" + std::to_string(use_psma);
      if (summary_skip) {
        EXPECT_TRUE(block_skip) << label;
      }
      if (block_skip) {
        EXPECT_EQ(matches, 0u) << label;
      }
      summary_skips += summary_skip;
      block_only_skips += block_skip && !summary_skip;
      scans += !block_skip;
    }
  }
  // Both outcomes occur, so the implications above are exercised.
  EXPECT_GT(summary_skips, 0);
  EXPECT_GT(block_only_skips, 0);
  EXPECT_GT(scans, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockScanRandom, ::testing::Range(0, 8));

TEST(BlockScan, NullsExcludedFromValuePredicates) {
  Schema schema({{"x", TypeId::kInt64, true}});
  Chunk chunk(&schema, 100);
  for (int i = 0; i < 100; ++i) {
    chunk.Append({i % 4 == 0 ? Cell::Null() : Cell::Int(i % 10)});
  }
  DataBlock block = DataBlock::Build(chunk);
  // NULL payload is code 0 == value min; predicate >= min must not match
  // NULL rows.
  auto prep =
      PrepareBlockScan(block, {Predicate::Ge(0, Value::Int(0))}, false);
  ASSERT_FALSE(prep.skip);
  std::vector<uint32_t> buf(108);
  uint32_t cnt = FindMatchesInBlock(block, prep, 0, 100, BestIsa(),
                                    buf.data());
  EXPECT_EQ(cnt, 75u);
  for (uint32_t j = 0; j < cnt; ++j) EXPECT_NE(buf[j] % 4, 0u);
}

TEST(BlockScan, IsNullAndIsNotNull) {
  Schema schema({{"x", TypeId::kInt64, true}});
  Chunk chunk(&schema, 60);
  for (int i = 0; i < 60; ++i) {
    chunk.Append({i % 3 == 0 ? Cell::Null() : Cell::Int(i)});
  }
  DataBlock block = DataBlock::Build(chunk);
  std::vector<uint32_t> buf(68);
  auto prep = PrepareBlockScan(block, {Predicate::IsNull(0)}, false);
  EXPECT_EQ(FindMatchesInBlock(block, prep, 0, 60, BestIsa(), buf.data()),
            20u);
  prep = PrepareBlockScan(block, {Predicate::IsNotNull(0)}, false);
  EXPECT_EQ(FindMatchesInBlock(block, prep, 0, 60, BestIsa(), buf.data()),
            40u);
}

TEST(BlockScan, UnpackColumnMatchesPointAccess) {
  Schema schema({{"a", TypeId::kInt32},
                 {"s", TypeId::kString},
                 {"d", TypeId::kDouble}});
  Chunk chunk(&schema, 500);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    chunk.Append({Cell::Int(rng.Uniform(0, 1000)),
                  Cell::Str(rng.RandomString(1, 8)),
                  Cell::Double(rng.NextDouble())});
  }
  DataBlock block = DataBlock::Build(chunk);
  std::vector<uint32_t> pos = {0, 7, 13, 42, 99, 400, 499};
  ColumnVector a, s, d;
  a.Init(TypeId::kInt32);
  s.Init(TypeId::kString);
  d.Init(TypeId::kDouble);
  UnpackColumn(block, 0, pos.data(), uint32_t(pos.size()), &a);
  UnpackColumn(block, 1, pos.data(), uint32_t(pos.size()), &s);
  UnpackColumn(block, 2, pos.data(), uint32_t(pos.size()), &d);
  for (size_t j = 0; j < pos.size(); ++j) {
    EXPECT_EQ(int64_t(a.i32[j]), block.GetInt(0, pos[j]));
    EXPECT_EQ(s.str[j], block.GetStringView(1, pos[j]));
    EXPECT_EQ(d.f64[j], block.GetDouble(2, pos[j]));
  }
}

using Gen = std::function<Value(Rng&, uint32_t row)>;

/// One column of the unpack property's blocks: the generator of its values
/// and the scheme and code width the builder must choose for them.
struct UnpackSpec {
  const char* name;
  TypeId type;
  Compression scheme;
  uint8_t width;
  Gen gen;
};

/// base + scale * Uniform(lo, hi).
Gen Ints(int64_t lo, int64_t hi, int64_t scale = 1, int64_t base = 0) {
  return [=](Rng& r, uint32_t) {
    return Value::Int(base + scale * r.Uniform(lo, hi));
  };
}
Gen Strs(std::string prefix, int64_t hi) {
  return [=](Rng& r, uint32_t) {
    return Value::Str(prefix + std::to_string(r.Uniform(0, hi)));
  };
}
Gen Doubles() {
  return [](Rng& r, uint32_t) { return Value::Double(r.NextDouble()); };
}
Gen Same(Value v) {
  return [=](Rng&, uint32_t) { return v; };
}
/// NULL one time in `one_in`, else `gen`.
Gen OrNull(int one_in, Gen gen) {
  return [=](Rng& r, uint32_t row) {
    return r.Uniform(0, one_in - 1) == 0 ? Value::Null() : gen(r, row);
  };
}

constexpr int64_t kE16 = 10000000000000000ll;

/// Every scheme and code width the builder produces on blocks of a few
/// thousand rows, NULLs included. "trunc8" is built raw and re-labelled
/// truncated (with min 0 the codes are the values): the builder never
/// picks truncation at a type's native width.
std::vector<UnpackSpec> SmallUnpackSpecs() {
  using C = Compression;
  using T = TypeId;
  return {
      {"single", T::kInt64, C::kSingleValue, 0, Same(Value::Int(7))},
      {"trunc1", T::kInt64, C::kTruncation, 1, Ints(0, 200, 1, kE16)},
      {"trunc2", T::kInt32, C::kTruncation, 2, Ints(-30000, 30000)},
      {"trunc4", T::kInt64, C::kTruncation, 4, Ints(0, 3000000000ll)},
      {"raw64", T::kInt64, C::kRaw, 8, Ints(-400 * kE16, 400 * kE16)},
      {"trunc8", T::kInt64, C::kTruncation, 8, Ints(0, 900 * kE16)},
      {"dict1", T::kInt64, C::kDictionary, 1, Ints(-4, 5, kE16)},
      {"dict2", T::kInt64, C::kDictionary, 2, Ints(0, 299, kE16)},
      {"raw32", T::kInt32, C::kRaw, 4, Ints(INT32_MIN, INT32_MAX)},
      {"rawdate", T::kDate, C::kRaw, 4, Ints(INT32_MIN, INT32_MAX)},
      {"rawchar1", T::kChar1, C::kRaw, 4, Ints(0, UINT32_MAX)},
      {"double", T::kDouble, C::kRaw, 8, Doubles()},
      {"single_double", T::kDouble, C::kSingleValue, 0,
       Same(Value::Double(2.5))},
      {"str1", T::kString, C::kDictionary, 1, Strs("k", 20)},
      {"str2", T::kString, C::kDictionary, 2, Strs("s", 999)},
      {"single_str", T::kString, C::kSingleValue, 0, Same(Value::Str("x"))},
      {"null_int", T::kInt32, C::kTruncation, 1, OrNull(4, Ints(0, 100))},
      {"null_str", T::kString, C::kDictionary, 1, OrNull(3, Strs("n", 5))},
      {"null_double", T::kDouble, C::kRaw, 8, OrNull(5, Doubles())},
      {"all_null_int", T::kInt64, C::kSingleValue, 0, Same(Value::Null())},
      {"all_null_str", T::kString, C::kSingleValue, 0, Same(Value::Null())},
  };
}

/// Four-byte dictionary codes need more than 65536 distinct values, and an
/// integer dictionary that wide beats raw storage only past twice as many
/// rows.
std::vector<UnpackSpec> WideDictSpecs() {
  return {
      {"dict4", TypeId::kInt64, Compression::kDictionary, 4,
       [](Rng&, uint32_t row) {
         return Value::Int((row % 66000) * (kE16 / 10000));
       }},
      {"str4", TypeId::kString, Compression::kDictionary, 4,
       [](Rng&, uint32_t row) {
         return Value::Str(std::to_string(row % 66000) + "v");
       }},
  };
}

DataBlock BuildUnpackBlock(const std::vector<UnpackSpec>& specs, uint32_t n,
                           Rng* rng) {
  std::vector<ColumnDef> defs;
  for (const UnpackSpec& spec : specs) {
    defs.push_back({spec.name, spec.type, /*nullable=*/true});
  }
  Schema schema(defs);
  Chunk chunk(&schema, n);
  std::vector<Value> row(specs.size());
  for (uint32_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < specs.size(); ++c) row[c] = specs[c].gen(*rng, r);
    chunk.Append(CellsOf(row));
  }
  DataBlock block = DataBlock::Build(chunk);
  // Re-label "trunc8" (built raw, min 0 needed) as truncated.
  for (uint32_t c = 0; c < specs.size(); ++c) {
    if (std::string_view(specs[c].name) != "trunc8") continue;
    BlockImage image;
    uint8_t* bytes = image.Reset(block.SizeBytes());
    std::memcpy(bytes, block.raw_bytes(), block.SizeBytes());
    AttrMeta m = block.attr(c);
    m.compression = uint8_t(Compression::kTruncation);
    m.min_val = 0;
    const uint8_t* at = reinterpret_cast<const uint8_t*>(&block.attr(c));
    std::memcpy(bytes + (at - block.raw_bytes()), &m, sizeof(m));
    EXPECT_TRUE(image.AdoptSpine().ok());
    EXPECT_TRUE(image.block().Validate(ColumnSet::All()).ok());
    block = image.TakeBlock();
  }
  return block;
}

/// Element i of `cv` must be (column, row) rows[i] of `block`, read by
/// point access, NULL flags included.
using RowsOf = std::vector<std::pair<uint32_t, uint32_t>>;

void ExpectPointAccess(const DataBlock& block, const ColumnVector& cv,
                       const RowsOf& rows) {
  ASSERT_EQ(cv.size(), rows.size());
  ASSERT_TRUE(cv.null_mask.empty() || cv.null_mask.size() == rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto [c, r] = rows[i];
    const bool null = block.IsNull(c, r);
    ASSERT_EQ(cv.IsNull(uint32_t(i)), null) << "col " << c << " row " << r;
    if (null) continue;
    switch (cv.type) {
      case TypeId::kInt32:
      case TypeId::kDate:
      case TypeId::kChar1:
        ASSERT_EQ(cv.i32[i], int32_t(block.GetInt(c, r))) << "col " << c;
        break;
      case TypeId::kInt64:
        ASSERT_EQ(cv.i64[i], block.GetInt(c, r)) << "col " << c;
        break;
      case TypeId::kDouble:
        ASSERT_EQ(cv.f64[i], block.GetDouble(c, r)) << "col " << c;
        break;
      case TypeId::kString:
        ASSERT_EQ(cv.Str(uint32_t(i)), block.GetStringView(c, r))
            << "col " << c;
        break;
    }
  }
}

void ExpectSameVector(const ColumnVector& a, const ColumnVector& b) {
  EXPECT_EQ(a.i32, b.i32);
  EXPECT_EQ(a.i64, b.i64);
  EXPECT_EQ(a.f64, b.f64);
  EXPECT_EQ(a.str, b.str);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.dict_block, b.dict_block);
  EXPECT_EQ(a.dict_col, b.dict_col);
  EXPECT_EQ(a.null_mask, b.null_mask);
}

/// For random ranges of every column, appended after a random prefix (of
/// the same column, or of another column of its type, so NULL masks get
/// backfilled and extended): range unpack == positional unpack == point
/// access, and likewise for string codes. Random sorted positions must
/// match point access too.
void CheckUnpackProperty(const DataBlock& block,
                         const std::vector<UnpackSpec>& specs, Rng* rng,
                         int cases) {
  const uint32_t n = block.num_rows();
  for (uint32_t col = 0; col < specs.size(); ++col) {
    SCOPED_TRACE(specs[col].name);
    const AttrMeta& m = block.attr(col);
    ASSERT_EQ(Compression(m.compression), specs[col].scheme);
    ASSERT_EQ(m.code_width, specs[col].width);
    const bool codes = specs[col].type == TypeId::kString && m.dict_count > 0;
    std::vector<uint32_t> same_type;
    for (uint32_t c = 0; c < specs.size(); ++c) {
      if (specs[c].type == specs[col].type) same_type.push_back(c);
    }
    for (int k = 0; k < cases; ++k) {
      uint32_t from = uint32_t(rng->Uniform(0, n));
      uint32_t to = uint32_t(rng->Uniform(from, n));
      if (k == 0) from = 0, to = n;
      const uint32_t prefix = k % 3 == 0 ? 0 : uint32_t(rng->Uniform(0, 100));
      for (bool coded : {false, true}) {
        if (coded && !codes) continue;
        // Coded prefixes must come from the same column: one vector decodes
        // through one dictionary.
        const uint32_t donor =
            coded ? col
                  : same_type[size_t(
                        rng->Uniform(0, int64_t(same_type.size()) - 1))];
        RowsOf rows;
        ColumnVector by_range, by_pos;
        by_range.Init(specs[col].type);
        by_pos.Init(specs[col].type);
        std::vector<uint32_t> pos;
        for (uint32_t r = 0; r < prefix; ++r) {
          pos.push_back(r);
          rows.push_back({donor, r});
        }
        auto range = coded ? UnpackColumnCodesRange : UnpackColumnRange;
        auto at = coded ? UnpackColumnCodes : UnpackColumn;
        range(block, donor, 0, prefix, &by_range);
        at(block, donor, pos.data(), prefix, &by_pos);
        pos.clear();
        for (uint32_t r = from; r < to; ++r) {
          pos.push_back(r);
          rows.push_back({col, r});
        }
        range(block, col, from, to, &by_range);
        at(block, col, pos.data(), uint32_t(pos.size()), &by_pos);
        ExpectSameVector(by_range, by_pos);
        ExpectPointAccess(block, by_range, rows);

        // Scattered positions (what a selective predicate leaves).
        pos.clear();
        rows.clear();
        for (uint32_t r = from; r < to; r += uint32_t(rng->Uniform(1, 9))) {
          pos.push_back(r);
          rows.push_back({col, r});
        }
        ColumnVector scattered;
        scattered.Init(specs[col].type);
        at(block, col, pos.data(), uint32_t(pos.size()), &scattered);
        ExpectPointAccess(block, scattered, rows);
      }
    }
  }
}

TEST(BlockScan, UnpackRangeEqualsUnpackPositions) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::vector<UnpackSpec> specs = SmallUnpackSpecs();
    const DataBlock block =
        BuildUnpackBlock(specs, uint32_t(rng.Uniform(1500, 4000)), &rng);
    CheckUnpackProperty(block, specs, &rng, 12);
  }
  Rng rng(5);
  const std::vector<UnpackSpec> wide = WideDictSpecs();
  const DataBlock block = BuildUnpackBlock(wide, 140000, &rng);
  CheckUnpackProperty(block, wide, &rng, 3);
}

/// Fills the capacity of cv's numeric and code vectors with 0xAB bytes,
/// then clears them: resize() does not zero-fill, so a slot an unpack
/// leaves unwritten would keep the poison.
void Poison(ColumnVector* cv, size_t cap) {
  auto fill = [cap](auto& v) {
    v.resize(cap);
    std::memset(static_cast<void*>(v.data()), 0xAB, cap * sizeof(v[0]));
  };
  fill(cv->i32);
  fill(cv->i64);
  fill(cv->f64);
  fill(cv->codes);
  cv->Clear();
}

template <typename V>
size_t PoisonedSlots(const V& v) {
  size_t bad = 0;
  for (const auto& x : v) {
    const auto* b = reinterpret_cast<const uint8_t*>(&x);
    bad += std::all_of(b, b + sizeof(x), [](uint8_t c) { return c == 0xAB; });
  }
  return bad;
}

/// Every unpack writes every slot it appends, NULL rows included: single
/// value, truncation 1/2/4/8, dictionary, raw, double, nullable and all-NULL
/// columns, by positions and by range, values and string codes, into an
/// empty vector and appended to a non-empty one.
TEST(BlockScan, UnpackLeavesNoSlotUnwritten) {
  Rng rng(9);
  const std::vector<UnpackSpec> specs = SmallUnpackSpecs();
  const DataBlock block = BuildUnpackBlock(specs, 2000, &rng);
  const uint32_t n = block.num_rows();
  for (uint32_t col = 0; col < specs.size(); ++col) {
    SCOPED_TRACE(specs[col].name);
    const bool has_codes =
        specs[col].type == TypeId::kString && block.attr(col).dict_count > 0;
    for (bool coded : {false, true}) {
      if (coded && !has_codes) continue;
      for (bool by_range : {false, true}) {
        for (uint32_t prefix : {0u, 37u}) {
          // Unpacks rows [from, to), or every third row of them.
          auto unpack = [&](uint32_t from, uint32_t to, ColumnVector* cv,
                            RowsOf* rows) {
            std::vector<uint32_t> pos;
            for (uint32_t r = from; r < to; r += by_range ? 1 : 3) {
              pos.push_back(r);
              rows->push_back({col, r});
            }
            if (by_range) {
              (coded ? UnpackColumnCodesRange : UnpackColumnRange)(
                  block, col, from, to, cv);
            } else {
              (coded ? UnpackColumnCodes : UnpackColumn)(
                  block, col, pos.data(), uint32_t(pos.size()), cv);
            }
          };
          ColumnVector cv;
          cv.Init(specs[col].type);
          Poison(&cv, 2 * n);
          RowsOf rows;
          unpack(0, prefix, &cv, &rows);
          unpack(prefix + 5, n, &cv, &rows);
          SCOPED_TRACE(std::string(coded ? "codes" : "values") +
                       (by_range ? " range" : " positions") + " prefix " +
                       std::to_string(prefix));
          // Checked first: a poisoned code would decode out of bounds.
          ASSERT_EQ(PoisonedSlots(cv.i32) + PoisonedSlots(cv.i64) +
                        PoisonedSlots(cv.f64) + PoisonedSlots(cv.codes),
                    0u);
          ExpectPointAccess(block, cv, rows);
        }
      }
    }
  }
}

TEST(BlockScan, DateColumnsTranslate) {
  Schema schema({{"d", TypeId::kDate}});
  Chunk chunk(&schema, 365);
  for (int i = 0; i < 365; ++i) {
    chunk.Append({Cell::Int(MakeDate(1994, 1, 1) + i)});
  }
  DataBlock block = DataBlock::Build(chunk);
  EXPECT_EQ(block.compression(0), Compression::kTruncation);
  auto prep = PrepareBlockScan(
      block,
      {Predicate::Between(0, Value::Int(MakeDate(1994, 3, 1)),
                          Value::Int(MakeDate(1994, 3, 31)))},
      true);
  ASSERT_FALSE(prep.skip);
  std::vector<uint32_t> buf(373);
  uint32_t cnt = FindMatchesInBlock(block, prep, prep.range_begin,
                                    prep.range_end, BestIsa(), buf.data());
  EXPECT_EQ(cnt, 31u);
}

/// A nullable block with a dictionary, a truncated and a raw integer
/// column and a string column, plus the values each row holds.
struct MixedBlock {
  std::vector<Value> dict, trunc, raw, str;
  DataBlock block;
};

MixedBlock MakeMixedBlock(uint32_t n, Rng* rng) {
  Schema schema({{"dict", TypeId::kInt64, true},
                 {"trunc", TypeId::kInt32, true},
                 {"raw", TypeId::kInt32, true},
                 {"str", TypeId::kString, true}});
  const Gen gens[] = {OrNull(9, Ints(-6, 6, kE16)), OrNull(7, Ints(-50, 49)),
                      OrNull(8, Ints(INT32_MIN, INT32_MAX)),
                      OrNull(6, Strs("v", 11))};
  Chunk chunk(&schema, n);
  MixedBlock mb;
  std::vector<Value>* cols[] = {&mb.dict, &mb.trunc, &mb.raw, &mb.str};
  std::vector<Value> row(4);
  for (uint32_t r = 0; r < n; ++r) {
    for (int c = 0; c < 4; ++c) cols[c]->push_back(row[c] = gens[c](*rng, r));
    chunk.Append(CellsOf(row));
  }
  mb.block = DataBlock::Build(chunk);
  return mb;
}

/// Restriction order never changes a block's matches: for random mixes of
/// Eq, In, Between and Ne on dictionary, truncated, raw and string columns
/// (NULLs included, IN sets below and above the kernels' size limit), every
/// permutation of the predicate list equals per-row evaluation.
TEST(BlockScan, EveryPredicateOrderMatchesRowEvaluation) {
  int kernel_sets = 0, searched_sets = 0;
  for (uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    SCOPED_TRACE(seed);
    Rng rng(seed * 101);
    const uint32_t n = uint32_t(rng.Uniform(1500, 3000));
    const MixedBlock mb = MakeMixedBlock(n, &rng);
    const std::vector<Value>* vals[] = {&mb.dict, &mb.trunc, &mb.raw,
                                        &mb.str};
    ASSERT_EQ(mb.block.compression(0), Compression::kDictionary);
    ASSERT_EQ(mb.block.compression(1), Compression::kTruncation);
    ASSERT_EQ(mb.block.compression(2), Compression::kRaw);
    ASSERT_EQ(mb.block.compression(3), Compression::kDictionary);
    // A stored value of column c (NULL rows skipped), or an absent one.
    auto some = [&](uint32_t c) {
      for (;;) {
        const Value& v = (*vals[c])[size_t(rng.Uniform(0, n - 1))];
        if (!v.is_null()) return v;
      }
    };
    auto absent = [&](uint32_t c) {
      return c == 3 ? Value::Str("w") : Value::Int(c == 1 ? 77 : 13);
    };
    auto list = [&](uint32_t c, int k) {
      std::vector<Value> l;
      for (int i = 0; i < k; ++i) l.push_back(i == 1 ? absent(c) : some(c));
      return l;
    };
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<Predicate> preds;
      const int count = int(rng.Uniform(2, 4));
      for (int i = 0; i < count; ++i) {
        const uint32_t c = uint32_t(rng.Uniform(0, 3));
        switch (rng.Uniform(0, 3)) {
          case 0: preds.push_back(Predicate::Eq(c, some(c))); break;
          case 1:
            preds.push_back(
                Predicate::In(c, list(c, int(rng.Uniform(2, 11)))));
            break;
          case 2: preds.push_back(Predicate::Ne(c, some(c))); break;
          default: {
            Value lo = some(c), hi = some(c);
            if (c == 3 ? hi.str() < lo.str() : hi.i64() < lo.i64())
              std::swap(lo, hi);
            preds.push_back(Predicate::Between(c, lo, hi));
          }
        }
      }
      std::vector<uint32_t> expect;
      for (uint32_t r = 0; r < n; ++r) {
        bool keep = true;
        for (const Predicate& p : preds) {
          const Value& v = (*vals[p.col])[r];
          keep = keep && !v.is_null() &&
                 (p.col == 3 ? EvalString(p, v.str()) : EvalInt(p, v.i64()));
        }
        if (keep) expect.push_back(r);
      }
      std::vector<size_t> order(preds.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      do {
        std::vector<Predicate> permuted;
        for (size_t i : order) permuted.push_back(preds[i]);
        for (bool use_psma : {false, true}) {
          const BlockScanPrep prep =
              PrepareBlockScan(mb.block, permuted, use_psma);
          for (const BlockPred& bp : prep.preds) {
            if (bp.kind != BlockPred::Kind::kInSet) continue;
            (bp.in_codes.size() <= kMaxInKernelSet ? kernel_sets
                                                   : searched_sets)++;
          }
          std::vector<uint32_t> got;
          if (!prep.skip) {
            std::vector<uint32_t> buf(n + 8);
            got.assign(buf.begin(),
                       buf.begin() + FindMatchesInBlock(
                                         mb.block, prep, prep.range_begin,
                                         prep.range_end, BestIsa(),
                                         buf.data()));
          }
          ASSERT_EQ(got, expect) << "trial " << trial << " psma " << use_psma;
        }
      } while (std::next_permutation(order.begin(), order.end()));
    }
  }
  // Both IN paths ran: the kernels and the binary search.
  EXPECT_GT(kernel_sets, 0);
  EXPECT_GT(searched_sets, 0);
}

/// The block evaluates its restrictions most selective first, by estimates
/// from its own metadata; equal estimates keep the query order.
TEST(Translate, PredicatesRunMostSelectiveFirst) {
  Schema schema({{"qty", TypeId::kInt32},
                 {"mode", TypeId::kString},
                 {"kind", TypeId::kString}});
  Chunk chunk(&schema, 1000);
  for (int i = 0; i < 1000; ++i) {
    chunk.Append({Cell::Int(1 + i % 50),
                  Cell::Str("m" + std::to_string(10 + i % 25)),
                  Cell::Str("k" + std::to_string(10 + i % 25))});
  }
  const DataBlock block = DataBlock::Build(chunk);
  ASSERT_EQ(block.compression(0), Compression::kTruncation);
  ASSERT_EQ(block.attr(1).dict_count, 25u);
  // qty <= 40 covers 80% of [1, 50]; the equality keeps 1 of 25 codes.
  const Predicate range = Predicate::Le(0, Value::Int(40));
  const Predicate mode = Predicate::Eq(1, Value::Str("m17"));
  const Predicate kind = Predicate::Eq(2, Value::Str("k17"));
  auto cols = [&](const std::vector<Predicate>& preds) {
    std::vector<uint32_t> out;
    for (const BlockPred& bp : PrepareBlockScan(block, preds, false).preds)
      out.push_back(bp.col);
    return out;
  };
  EXPECT_EQ(cols({range, mode}), (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(cols({mode, range}), (std::vector<uint32_t>{1, 0}));
  // Equal estimates: query order.
  EXPECT_EQ(cols({range, kind, mode}), (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_EQ(cols({mode, range, kind}), (std::vector<uint32_t>{1, 2, 0}));
}

/// Rows a kDataBlocks scan of column 0 of `t` returns.
std::vector<int32_t> ScanInts(const Table& t,
                              const std::vector<Predicate>& preds) {
  TableScanner scan(t, {0}, preds, ScanMode::kDataBlocks);
  Batch b;
  std::vector<int32_t> out;
  while (scan.Next(&b)) {
    out.insert(out.end(), b.cols[0].i32.begin(),
               b.cols[0].i32.begin() + b.count);
  }
  return out;
}

/// A non-contiguous IN on a raw int32 column returns the same rows from a
/// hot chunk (lowered against the type's full domain) and from the frozen
/// block, for sets the kernels take and for larger ones.
TEST(BlockScan, RawInSetSameHotAndFrozen) {
  Table t("t", Schema({{"v", TypeId::kInt32, true}}), 4096);
  Rng rng(17);
  std::vector<int64_t> stored;
  for (int i = 0; i < 4000; ++i) {
    if (i % 11 == 0) {
      t.Insert({Cell::Null()});
      continue;
    }
    // Repeat some values so each set member hits several rows.
    const int64_t v = i % 5 == 0 && stored.size() > 7
                          ? stored[size_t(i % 7)]
                          : rng.Uniform(INT32_MIN, INT32_MAX);
    stored.push_back(v);
    t.Insert({Cell::Int(v)});
  }
  std::vector<std::vector<Predicate>> cases;
  std::vector<std::vector<int32_t>> expect;
  for (int k : {2, 5, 8, 12}) {
    std::vector<Value> set = {Value::Int(-3)};  // absent
    for (int i = 1; i < k; ++i) set.push_back(Value::Int(stored[size_t(i)]));
    expect.emplace_back();
    for (int64_t v : stored) {
      if (std::any_of(set.begin(), set.end(),
                      [&](const Value& c) { return c.i64() == v; }))
        expect.back().push_back(int32_t(v));
    }
    cases.push_back({Predicate::In(0, std::move(set))});
  }
  for (size_t c = 0; c < cases.size(); ++c)
    EXPECT_EQ(ScanInts(t, cases[c]), expect[c]) << "hot, case " << c;
  t.FreezeAll();
  ASSERT_NE(t.frozen_block(0), nullptr);
  ASSERT_EQ(t.frozen_block(0)->compression(0), Compression::kRaw);
  for (size_t c = 0; c < cases.size(); ++c)
    EXPECT_EQ(ScanInts(t, cases[c]), expect[c]) << "frozen, case " << c;
}

TEST(FilterPositions, ByBitmap) {
  std::vector<uint64_t> bitmap(2, 0);
  BitmapSet(bitmap.data(), 3);
  BitmapSet(bitmap.data(), 70);
  std::vector<uint32_t> pos = {1, 3, 5, 70, 100};
  std::vector<uint32_t> out(5);
  uint32_t n = FilterPositionsByBitmap(pos.data(), 5, bitmap.data(), false,
                                       out.data());
  ASSERT_EQ(n, 3u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 5u);
  EXPECT_EQ(out[2], 100u);
  n = FilterPositionsByBitmap(pos.data(), 5, bitmap.data(), true, out.data());
  ASSERT_EQ(n, 2u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 70u);
  // Null bitmap: everything kept when keeping clear bits.
  n = FilterPositionsByBitmap(pos.data(), 5, nullptr, false, out.data());
  EXPECT_EQ(n, 5u);
}

}  // namespace
}  // namespace datablocks
