// Compression scheme selection (Section 3.3): the chosen scheme must be the
// space-optimal byte-aligned one for the block's value distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "datablock/compression.h"
#include "datablock/data_block.h"
#include "storage/chunk.h"
#include "util/rng.h"

namespace datablocks {
namespace {

Chunk MakeIntChunk(const std::vector<int64_t>& values, TypeId type,
                   Schema* schema) {
  *schema = Schema({{"c", type}});
  Chunk chunk(schema, uint32_t(values.size()));
  for (int64_t v : values) {
    chunk.Append({Cell::Int(v)});
  }
  return chunk;
}

TEST(CodeWidth, RoundsToLegalWidths) {
  EXPECT_EQ(CodeWidthFor(0), 1u);
  EXPECT_EQ(CodeWidthFor(255), 1u);
  EXPECT_EQ(CodeWidthFor(256), 2u);
  EXPECT_EQ(CodeWidthFor(65535), 2u);
  EXPECT_EQ(CodeWidthFor(65536), 4u);       // 3 bytes round up to 4
  EXPECT_EQ(CodeWidthFor(UINT32_MAX), 4u);
  EXPECT_EQ(CodeWidthFor(uint64_t(UINT32_MAX) + 1), 8u);
}

TEST(Stats, MinMaxDistinct) {
  Schema schema;
  Chunk chunk = MakeIntChunk({5, 1, 9, 5, 1}, TypeId::kInt64, &schema);
  ColumnStats s = CollectStats(chunk, 0, nullptr);
  EXPECT_EQ(s.min_i, 1);
  EXPECT_EQ(s.max_i, 9);
  EXPECT_FALSE(s.all_equal);
  EXPECT_FALSE(s.has_nulls);
  ASSERT_TRUE(s.dict_tracked);
  EXPECT_EQ(s.dict_i.size(), 3u);
  EXPECT_TRUE(std::is_sorted(s.dict_i.begin(), s.dict_i.end()));
}

TEST(Stats, PermutationRespected) {
  Schema schema;
  Chunk chunk = MakeIntChunk({3, 1, 2}, TypeId::kInt32, &schema);
  uint32_t perm[3] = {1, 2, 0};
  ColumnStats s = CollectStats(chunk, 0, perm);
  EXPECT_EQ(s.min_i, 1);
  EXPECT_EQ(s.max_i, 3);
}

TEST(Choose, SingleValueForConstantColumn) {
  Schema schema;
  Chunk chunk = MakeIntChunk(std::vector<int64_t>(100, 42), TypeId::kInt64,
                             &schema);
  ColumnStats s = CollectStats(chunk, 0, nullptr);
  EXPECT_TRUE(s.all_equal);
  CompressionChoice c = ChooseCompression(TypeId::kInt64, s);
  EXPECT_EQ(c.scheme, Compression::kSingleValue);
  EXPECT_EQ(c.data_bytes, 0u);
}

TEST(Choose, TruncationForDenseRange) {
  Schema schema;
  std::vector<int64_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(1000000 + i % 200);
  Chunk chunk = MakeIntChunk(v, TypeId::kInt64, &schema);
  CompressionChoice c =
      ChooseCompression(TypeId::kInt64, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.scheme, Compression::kTruncation);
  EXPECT_EQ(c.code_width, 1u);  // span 199 fits a byte
  EXPECT_EQ(c.data_bytes, 1000u);
}

TEST(Choose, DictionaryBeatsTruncationForSparseDomain) {
  Schema schema;
  // Two distinct, widely separated values: truncation needs 4 bytes,
  // dictionary needs 1 byte + 16 bytes of dictionary.
  std::vector<int64_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 2 == 0 ? 0 : 100000000);
  Chunk chunk = MakeIntChunk(v, TypeId::kInt64, &schema);
  CompressionChoice c =
      ChooseCompression(TypeId::kInt64, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.scheme, Compression::kDictionary);
  EXPECT_EQ(c.code_width, 1u);
  EXPECT_EQ(c.dict_bytes, 16u);
}

TEST(Choose, RawWhenNothingHelps) {
  Schema schema;
  // Values spanning (almost) the full int64 domain with all-distinct values:
  // neither truncation (8-byte codes) nor dictionary (distinct == n) wins.
  std::vector<int64_t> v;
  for (int i = 0; i < 1000; ++i)
    v.push_back(int64_t(i) * 92233720368547ll - 4611686018427387ll);
  Chunk chunk = MakeIntChunk(v, TypeId::kInt64, &schema);
  CompressionChoice c =
      ChooseCompression(TypeId::kInt64, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.scheme, Compression::kRaw);
  EXPECT_EQ(c.code_width, 8u);
}

TEST(Choose, TruncationShrinksInt32) {
  Schema schema;
  std::vector<int64_t> v;
  for (int i = 0; i < 1000; ++i) v.push_back(500000 + (i * 37) % 60000);
  Chunk chunk = MakeIntChunk(v, TypeId::kInt32, &schema);
  CompressionChoice c =
      ChooseCompression(TypeId::kInt32, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.scheme, Compression::kTruncation);
  EXPECT_EQ(c.code_width, 2u);
}

TEST(Choose, StringsAlwaysDictionary) {
  Schema schema({{"s", TypeId::kString}});
  Chunk chunk(&schema, 100);
  for (int i = 0; i < 100; ++i) {
    chunk.Append({Cell::Str(i % 3 == 0 ? "aa" : "bb")});
  }
  ColumnStats s = CollectStats(chunk, 0, nullptr);
  CompressionChoice c = ChooseCompression(TypeId::kString, s);
  EXPECT_EQ(c.scheme, Compression::kDictionary);
  EXPECT_EQ(c.code_width, 1u);
  EXPECT_EQ(c.dict_bytes, 3 * sizeof(uint32_t));  // two entries and the end
  EXPECT_EQ(c.string_bytes, 4u);  // "aa" + "bb"
}

TEST(Choose, ConstantStringIsSingleValue) {
  Schema schema({{"s", TypeId::kString}});
  Chunk chunk(&schema, 50);
  for (int i = 0; i < 50; ++i) {
    chunk.Append({Cell::Str("constant")});
  }
  CompressionChoice c =
      ChooseCompression(TypeId::kString, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.scheme, Compression::kSingleValue);
  EXPECT_EQ(c.string_bytes, 8u);
}

TEST(Choose, DoublesStayRaw) {
  Schema schema({{"d", TypeId::kDouble}});
  Chunk chunk(&schema, 10);
  for (int i = 0; i < 10; ++i) {
    chunk.Append({Cell::Double(i * 1.5)});
  }
  CompressionChoice c =
      ChooseCompression(TypeId::kDouble, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.scheme, Compression::kRaw);
  EXPECT_EQ(c.code_width, 8u);
}

TEST(Choose, AllNullIsSingleValue) {
  Schema schema({{"x", TypeId::kInt32, /*nullable=*/true}});
  Chunk chunk(&schema, 20);
  for (int i = 0; i < 20; ++i) {
    chunk.Append({Cell::Null()});
  }
  ColumnStats s = CollectStats(chunk, 0, nullptr);
  EXPECT_TRUE(s.all_null);
  CompressionChoice c = ChooseCompression(TypeId::kInt32, s);
  EXPECT_EQ(c.scheme, Compression::kSingleValue);
}

TEST(Choose, NullsDisableSingleValueButKeepCompression) {
  Schema schema({{"x", TypeId::kInt32, /*nullable=*/true}});
  Chunk chunk(&schema, 20);
  for (int i = 0; i < 20; ++i) {
    chunk.Append({i == 7 ? Cell::Null() : Cell::Int(5)});
  }
  ColumnStats s = CollectStats(chunk, 0, nullptr);
  EXPECT_TRUE(s.has_nulls);
  EXPECT_FALSE(s.all_null);
  CompressionChoice c = ChooseCompression(TypeId::kInt32, s);
  EXPECT_NE(c.scheme, Compression::kSingleValue);
}

TEST(Choose, Char1CompressesToOneByte) {
  Schema schema;
  std::vector<int64_t> v;
  for (int i = 0; i < 300; ++i) v.push_back('A' + i % 3);
  Chunk chunk = MakeIntChunk(v, TypeId::kChar1, &schema);
  CompressionChoice c =
      ChooseCompression(TypeId::kChar1, CollectStats(chunk, 0, nullptr));
  EXPECT_EQ(c.code_width, 1u);
}

// -- Property tests: CollectStats and ChooseCompression against a
//    brute-force std::set reference. ---------------------------------------

/// One column of `type` built from `values` (Value::Null() for NULL).
struct Column {
  Schema schema;
  Chunk chunk;

  Column(TypeId type, const std::vector<Value>& values)
      : schema({{"c", type, /*nullable=*/true}}),
        chunk(&schema, uint32_t(values.size())) {
    for (const Value& v : values) {
      chunk.Append({v.cell()});
    }
  }
};

/// What CollectStats must report, computed with ordered std containers
/// over the output positions.
struct Reference {
  bool has_nulls = false;
  std::set<int64_t> ints;
  std::set<std::string> strings;  // std::string orders bytes as unsigned
  std::vector<const std::string*> per_position;  // nullptr under NULL
  double min_d = 0, max_d = 0;
  bool doubles_equal = true;
  uint32_t non_null = 0;
};

Reference BuildReference(const std::vector<Value>& values,
                         const uint32_t* perm) {
  Reference ref;
  for (uint32_t i = 0; i < values.size(); ++i) {
    const Value& v = values[perm ? perm[i] : i];
    if (v.is_null()) {
      ref.has_nulls = true;
      continue;
    }
    if (v.kind() == Value::Kind::kString) {
      ref.strings.insert(v.str());
    } else if (v.kind() == Value::Kind::kDouble) {
      if (ref.non_null == 0) {
        ref.min_d = ref.max_d = v.f64();
      } else {
        ref.doubles_equal &= v.f64() == ref.min_d && v.f64() == ref.max_d;
        ref.min_d = std::min(ref.min_d, v.f64());
        ref.max_d = std::max(ref.max_d, v.f64());
      }
    } else {
      ref.ints.insert(v.i64());
    }
    ++ref.non_null;
  }
  for (uint32_t i = 0; i < values.size(); ++i) {
    const Value& v = values[perm ? perm[i] : i];
    ref.per_position.push_back(v.kind() == Value::Kind::kString
                                   ? &*ref.strings.find(v.str())
                                   : nullptr);
  }
  return ref;
}

/// The cost model spelled out: the cheapest of the allowed schemes, ties
/// going to truncation, then raw, then dictionary.
CompressionChoice ReferenceChoice(TypeId type, const Reference& ref,
                                  uint64_t n) {
  CompressionChoice c;
  const bool all_null = ref.non_null == 0;
  const size_t distinct =
      type == TypeId::kString ? ref.strings.size() : ref.ints.size();
  const bool all_equal = type == TypeId::kDouble ? ref.doubles_equal
                                                 : distinct <= 1;
  if (all_null || (all_equal && !ref.has_nulls)) {
    c.scheme = Compression::kSingleValue;
    if (type == TypeId::kString && !all_null) {
      c.dict_bytes = 2 * 4;  // one string's two offsets
      c.string_bytes = ref.strings.begin()->size();
    }
    return c;
  }
  if (type == TypeId::kString) {
    c.scheme = Compression::kDictionary;
    c.code_width = CodeWidthFor(distinct - 1);
    c.data_bytes = n * c.code_width;
    c.dict_bytes = (distinct + 1) * 4;
    for (const std::string& v : ref.strings) c.string_bytes += v.size();
    return c;
  }
  const uint32_t native = TypeWidth(type);
  if (type == TypeId::kDouble) {
    c.scheme = Compression::kRaw;
    c.code_width = native;
    c.data_bytes = n * native;
    return c;
  }
  struct Option {
    Compression scheme;
    uint32_t width;
    uint64_t cost;
  };
  std::vector<Option> options;
  const uint32_t trunc_w = CodeWidthFor(uint64_t(*ref.ints.rbegin()) -
                                        uint64_t(*ref.ints.begin()));
  if (trunc_w < native) {
    options.push_back({Compression::kTruncation, trunc_w, n * trunc_w});
  }
  options.push_back({Compression::kRaw, native, n * native});
  if (distinct <= n / 2 + 2) {
    const uint32_t w = CodeWidthFor(distinct - 1);
    options.push_back({Compression::kDictionary, w, n * w + distinct * 8});
  }
  Option best = options[0];
  for (const Option& o : options) {
    if (o.cost < best.cost) best = o;
  }
  c.scheme = best.scheme;
  c.code_width = best.width;
  c.data_bytes = n * best.width;
  if (best.scheme == Compression::kDictionary) c.dict_bytes = distinct * 8;
  return c;
}

void CheckColumn(TypeId type, const std::vector<Value>& values,
                 const uint32_t* perm, const std::string& what) {
  SCOPED_TRACE(what + (perm ? " (permuted)" : ""));
  Column col(type, values);
  const uint32_t n = uint32_t(values.size());
  const ColumnStats s = CollectStats(col.chunk, 0, perm);
  const Reference ref = BuildReference(values, perm);

  EXPECT_EQ(s.n, n);
  EXPECT_EQ(s.has_nulls, ref.has_nulls);
  EXPECT_EQ(s.all_null, ref.non_null == 0);
  if (type == TypeId::kString) {
    EXPECT_EQ(s.all_equal, ref.strings.size() <= 1);
    EXPECT_TRUE(s.dict_tracked);
    ASSERT_EQ(s.dict_s.size(), ref.strings.size());
    uint64_t bytes = 0;
    auto it = ref.strings.begin();
    for (size_t k = 0; k < s.dict_s.size(); ++k, ++it) {
      ASSERT_EQ(s.dict_s[k], *it) << "entry " << k;
      bytes += it->size();
    }
    EXPECT_EQ(s.distinct_string_bytes, bytes);
    ASSERT_EQ(s.codes.size(), n);
    for (uint32_t i = 0; i < n; ++i) {
      const std::string* v = ref.per_position[i];
      const uint32_t want =
          v == nullptr ? 0
                       : uint32_t(std::distance(ref.strings.begin(),
                                                ref.strings.find(*v)));
      ASSERT_EQ(s.codes[i], want) << "position " << i;
    }
  } else if (type == TypeId::kDouble) {
    EXPECT_EQ(s.all_equal, ref.doubles_equal);
    if (ref.non_null > 0) {
      EXPECT_EQ(s.min_d, ref.min_d);
      EXPECT_EQ(s.max_d, ref.max_d);
    }
  } else {
    EXPECT_EQ(s.all_equal, ref.ints.size() <= 1);
    if (!ref.ints.empty()) {
      EXPECT_EQ(s.min_i, *ref.ints.begin());
      EXPECT_EQ(s.max_i, *ref.ints.rbegin());
    } else {
      EXPECT_EQ(s.min_i, 0);
      EXPECT_EQ(s.max_i, 0);
    }
    const bool tracked = ref.ints.size() <= n / 2 + 2;
    EXPECT_EQ(s.dict_tracked, tracked);
    if (tracked) {
      EXPECT_TRUE(std::equal(s.dict_i.begin(), s.dict_i.end(),
                             ref.ints.begin(), ref.ints.end()));
    } else {
      EXPECT_TRUE(s.dict_i.empty());
    }
    if (tracked && !s.dict_i.empty()) {
      const IntDictCoder code_of(s.dict_i);
      for (uint32_t k = 0; k < s.dict_i.size(); ++k) {
        ASSERT_EQ(code_of(s.dict_i[k]), k);
      }
    }
  }

  const CompressionChoice got = ChooseCompression(type, s);
  const CompressionChoice want = ReferenceChoice(type, ref, n);
  EXPECT_EQ(got.scheme, want.scheme);
  EXPECT_EQ(got.code_width, want.code_width);
  EXPECT_EQ(got.data_bytes, want.data_bytes);
  EXPECT_EQ(got.dict_bytes, want.dict_bytes);
  EXPECT_EQ(got.string_bytes, want.string_bytes);
}

/// Checks `values` as given and through a seeded random permutation.
void CheckBothOrders(TypeId type, const std::vector<Value>& values,
                     const std::string& what, uint64_t seed = 1) {
  CheckColumn(type, values, nullptr, what);
  std::vector<uint32_t> perm(values.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(seed));
  CheckColumn(type, values, perm.data(), what);
}

std::vector<Value> Ints(const std::vector<int64_t>& v) {
  std::vector<Value> out;
  for (int64_t x : v) out.push_back(Value::Int(x));
  return out;
}

/// `n` values with exactly `distinct` distinct ones, spaced `step` apart
/// from `base` (every one present, the rest repeated at random).
std::vector<int64_t> WithDistinct(uint32_t n, uint32_t distinct, int64_t base,
                                  int64_t step, Rng& rng) {
  std::vector<int64_t> v;
  for (uint32_t i = 0; i < n; ++i) {
    const int64_t k = i < distinct ? i : rng.Uniform(0, distinct - 1);
    v.push_back(base + k * step);
  }
  return v;
}

TEST(StatsProperty, RandomColumnsOfEveryType) {
  Rng rng(2024);
  const TypeId types[] = {TypeId::kInt32, TypeId::kInt64, TypeId::kDouble,
                          TypeId::kString, TypeId::kDate, TypeId::kChar1};
  for (int iter = 0; iter < 240; ++iter) {
    const TypeId type = types[iter % 6];
    const uint32_t n = uint32_t(rng.Uniform(1, 1500));
    const int null_pct = int(rng.Uniform(0, 3)) * 10;  // 0, 10, 20, 30
    // Domain: tiny, about n/2, wide but sparse, or the full width.
    const int shape = int(rng.Uniform(0, 3));
    std::vector<Value> values;
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.Uniform(0, 99) < null_pct) {
        values.push_back(Value::Null());
        continue;
      }
      const int64_t k = shape == 0   ? rng.Uniform(0, 5)
                        : shape == 1 ? rng.Uniform(0, n / 2)
                        : shape == 2 ? rng.Uniform(0, 50) * 1000003
                                     : rng.Uniform(INT64_MIN, INT64_MAX);
      switch (type) {
        case TypeId::kInt32:
          values.push_back(Value::Int(shape == 3 ? int32_t(k) : k - 7));
          break;
        case TypeId::kDate:
          values.push_back(Value::Int(int32_t(k % 100000)));
          break;
        case TypeId::kChar1:
          values.push_back(Value::Int(uint8_t(k)));
          break;
        case TypeId::kInt64:
          values.push_back(Value::Int(k - 3));
          break;
        case TypeId::kDouble:
          values.push_back(Value::Double(double(k % 1000) / 8));
          break;
        case TypeId::kString: {
          std::string s = std::to_string(k);
          if (k % 3 == 0) s = std::string("common/prefix/of/length/") + s;
          if (k % 7 == 0) s.push_back('\0');
          values.push_back(Value::Str(s));
          break;
        }
      }
    }
    CheckBothOrders(type, values, "iteration " + std::to_string(iter), iter);
  }
}

TEST(StatsProperty, AllNullAndSingleValueColumns) {
  for (TypeId type : {TypeId::kInt32, TypeId::kInt64, TypeId::kDouble,
                      TypeId::kString, TypeId::kDate, TypeId::kChar1}) {
    const std::string name = TypeName(type);
    CheckBothOrders(type, std::vector<Value>(37, Value::Null()),
                    name + " all NULL");
    const Value one = type == TypeId::kString   ? Value::Str("only")
                      : type == TypeId::kDouble ? Value::Double(-1.25)
                                                : Value::Int(65);
    std::vector<Value> single(37, one);
    CheckBothOrders(type, single, name + " single value");
    single[5] = Value::Null();
    CheckBothOrders(type, single, name + " single value and a NULL");
  }
}

TEST(StatsProperty, DistinctCountsAroundTheTrackingCap) {
  Rng rng(11);
  const uint32_t n = 1000;
  const uint32_t cap = n / 2 + 2;
  for (uint32_t distinct : {cap - 1, cap, cap + 1}) {
    for (int64_t step : {int64_t(1), int64_t(1000003)}) {  // bitmap, hash set
      for (TypeId type : {TypeId::kInt32, TypeId::kInt64}) {
        CheckBothOrders(type, Ints(WithDistinct(n, distinct, -400, step, rng)),
                        "distinct " + std::to_string(distinct) + " step " +
                            std::to_string(step));
      }
    }
  }
}

TEST(StatsProperty, SpansOnBothSidesOfTheBitmapSwitch) {
  // The bitmap takes spans below 16 bits per value; check the values just
  // below, at and above that span, with a few distinct values and with
  // every value distinct.
  Rng rng(12);
  const uint32_t n = 512;
  for (int64_t span : {int64_t(16) * n - 2, int64_t(16) * n - 1,
                       int64_t(16) * n, int64_t(16) * n + 1}) {
    for (uint32_t distinct : {3u, 200u, n}) {
      std::vector<int64_t> v = WithDistinct(n, distinct, -5000, 1, rng);
      v[0] = -5000;
      v[1] = -5000 + span;
      CheckBothOrders(TypeId::kInt64, Ints(v),
                      "span " + std::to_string(span) + " distinct " +
                          std::to_string(distinct));
    }
  }
}

TEST(StatsProperty, ExtremeAndNegativeIntegers) {
  Rng rng(13);
  std::vector<Value> v;
  for (int i = 0; i < 300; ++i) {
    const int64_t pick[] = {INT64_MIN, INT64_MAX, INT64_MIN + 1, -1, 0,
                            rng.Uniform(-50, 50)};
    v.push_back(i % 17 == 0 ? Value::Null() : Value::Int(pick[i % 6]));
  }
  CheckBothOrders(TypeId::kInt64, v, "int64 extremes, few distinct");
  for (auto& x : v) {
    if (!x.is_null()) x = Value::Int(rng.Uniform(INT64_MIN, INT64_MAX));
  }
  v[0] = Value::Int(INT64_MIN);
  v[1] = Value::Int(INT64_MAX);
  CheckBothOrders(TypeId::kInt64, v, "int64 full span, all distinct");
  std::vector<Value> i32;
  for (int i = 0; i < 300; ++i) {
    const int64_t pick[] = {INT32_MIN, INT32_MAX, -7, rng.Uniform(-9, 9)};
    i32.push_back(Value::Int(pick[i % 4]));
  }
  CheckBothOrders(TypeId::kInt32, i32, "int32 extremes");
  CheckBothOrders(TypeId::kDate, Ints({-719162, 0, 2932896, -1, 18000}),
                  "dates around the epoch");
}

TEST(StatsProperty, Char1Columns) {
  std::vector<int64_t> v;
  for (int i = 0; i < 400; ++i) v.push_back(i % 5 == 0 ? 0xff : 'A' + i % 3);
  CheckBothOrders(TypeId::kChar1, Ints(v), "char1 with a high byte");
  std::vector<int64_t> all;
  for (int i = 0; i < 256; ++i) all.push_back(i);
  CheckBothOrders(TypeId::kChar1, Ints(all), "every char1 value");
}

TEST(StatsProperty, AwkwardStrings) {
  using namespace std::string_literals;
  const std::string high8(8, '\xff');
  const std::vector<std::string> samples = {
      ""s,           "a"s,          "ab"s,
      "a\0"s,        "a\0\0"s,      "a\0b"s,
      "\0"s,         "\0\0"s,       "\x80"s,
      "\xff"s,       "\xff\xfe"s,   "\x7f"s,
      "abcdefgh"s,   "abcdefgh\0"s, "abcdefg"s,
      "abcdefghi"s,  "abcdefgh\x80"s, "abcdefgh"s + high8,
      "abcdefgh"s + high8 + "\0"s};
  std::vector<Value> v;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::string& s : samples) v.push_back(Value::Str(s));
    v.push_back(Value::Null());
  }
  CheckBothOrders(TypeId::kString, v, "prefixes, NULs and high bytes");
}

TEST(StatsProperty, StringTieRunsLongerThanThePrefixWindow) {
  // Hundreds of values that agree on their first 8, 16, 40 and 1000 bytes,
  // so the prefix sort has to go through many windows, plus values that end
  // exactly at a window edge or continue with NUL bytes.
  Rng rng(14);
  const std::string stems[] = {"",
                               "same8byt",
                               "same8bytes_and16",
                               std::string(40, 'x'),
                               std::string(39, 'x'),
                               std::string(1000, 'y')};
  std::vector<Value> v;
  for (int i = 0; i < 3000; ++i) {
    std::string s = stems[rng.Uniform(0, 5)];
    switch (rng.Uniform(0, 3)) {
      case 0: s += std::to_string(rng.Uniform(0, 999)); break;
      case 1: s += std::string(size_t(rng.Uniform(0, 3)), '\0'); break;
      case 2: s += char(rng.Uniform(0, 255)); break;
      default: break;
    }
    v.push_back(i % 101 == 0 ? Value::Null() : Value::Str(s));
  }
  CheckBothOrders(TypeId::kString, v, "long tie runs");
}

}  // namespace
}  // namespace datablocks
