// Byte identity of frozen Data Blocks: an FNV-1a digest over the raw bytes
// of every block the freeze path produces for a fixed set of data sets.
// The constants were recorded before DataBlock::Build's statistics and
// encode passes were rewritten, and re-recorded once when each string
// dictionary became one offset array (every byte total fell); any change
// to scheme choice, dictionaries, codes, PSMAs, NULL bitmaps or layout
// changes a digest. The data sets
// together cover every reachable scheme x code width, NULL bitmaps, all-NULL
// attributes and permuted (sorted) freezes, which the test checks as well.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>

#include "datablock/data_block.h"
#include "storage/table.h"
#include "tpcc/tpcc_db.h"
#include "tpch/tpch_db.h"
#include "util/rng.h"
#include "workloads/flights.h"
#include "workloads/imdb.h"

namespace datablocks {
namespace {

// (type, scheme, code width) of one frozen attribute.
using Shape = std::tuple<TypeId, Compression, uint32_t>;

struct Digest {
  uint64_t fnv = 0xcbf29ce484222325ull;
  uint64_t blocks = 0;
  uint64_t bytes = 0;
};

struct Coverage {
  std::set<Shape> shapes;
  bool null_bitmap = false;
  bool all_null = false;
};

void Absorb(const Table& t, Digest* d, Coverage* cov) {
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    const DataBlock* b = t.frozen_block(c);
    ASSERT_NE(b, nullptr) << t.name() << " chunk " << c << " is not frozen";
    const uint8_t* p = b->raw_bytes();
    for (uint64_t i = 0; i < b->SizeBytes(); ++i) {
      d->fnv = (d->fnv ^ p[i]) * 0x100000001b3ull;
    }
    ++d->blocks;
    d->bytes += b->SizeBytes();
    for (uint32_t a = 0; a < b->num_columns(); ++a) {
      const AttrMeta& m = b->attr(a);
      cov->shapes.insert({b->type(a), b->compression(a), m.code_width});
      cov->null_bitmap |= b->has_nulls(a);
      cov->all_null |= b->all_null(a);
    }
  }
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void ExpectDigest(const char* what, const Digest& d, uint64_t want_fnv,
                  uint64_t want_blocks, uint64_t want_bytes) {
  EXPECT_EQ(Hex(d.fnv), Hex(want_fnv)) << what;
  EXPECT_EQ(d.blocks, want_blocks) << what;
  EXPECT_EQ(d.bytes, want_bytes) << what;
}

/// A table of the shapes the generated workloads do not reach: 64-bit
/// extremes, negative dictionaries, a three-byte truncation span, all-NULL
/// attributes and strings with empty values, shared prefixes, embedded NUL
/// bytes and bytes >= 0x80. Two chunks, the second one partial.
std::unique_ptr<Table> MakeEdgeTable() {
  Schema schema({{"extreme", TypeId::kInt64},
                 {"neg_dict", TypeId::kInt64, /*nullable=*/true},
                 {"few_wide", TypeId::kInt64},
                 {"wide_trunc", TypeId::kInt64},
                 {"narrow", TypeId::kInt64},
                 {"sparse", TypeId::kInt32},
                 {"none_i", TypeId::kInt32, /*nullable=*/true},
                 {"none_s", TypeId::kString, /*nullable=*/true},
                 {"flag", TypeId::kChar1},
                 {"const_flag", TypeId::kChar1},
                 {"price", TypeId::kDouble, /*nullable=*/true},
                 {"const_price", TypeId::kDouble},
                 {"text", TypeId::kString, /*nullable=*/true},
                 {"day", TypeId::kDate}});
  auto t = std::make_unique<Table>("edge", std::move(schema), 4096);
  Rng rng(7);
  const std::string pieces[] = {"", "a", "ab", std::string("a\0b", 3),
                                "\xff\xfe", "\x80", "abc", "abd"};
  for (uint32_t i = 0; i < 6000; ++i) {
    const int64_t extreme = i % 8 == 0   ? INT64_MIN
                            : i % 8 == 1 ? INT64_MAX
                                         : rng.Uniform(INT64_MIN, INT64_MAX);
    std::string text = pieces[rng.Uniform(0, 7)];
    text += pieces[rng.Uniform(0, 7)];
    if (rng.Uniform(0, 2) == 0) text += std::to_string(rng.Uniform(0, 400));
    t->Insert({Cell::Int(extreme),
               i % 11 == 0 ? Cell::Null()
                           : Cell::Int(-(int64_t(rng.Uniform(0, 299)) << 33)),
               Cell::Int(rng.Uniform(-100, 99) * (int64_t(1) << 40)),
               Cell::Int(rng.Uniform(0, 1 << 20)),
               Cell::Int(rng.Uniform(100, 200)),
               Cell::Int(rng.Uniform(0, 599) * 100003),
               Cell::Null(),
               Cell::Null(),
               Cell::Int("NRA"[rng.Uniform(0, 2)]),
               Cell::Int('F'),
               i % 5 == 0 ? Cell::Null() : Cell::Double(rng.NextDouble() - 0.5),
               Cell::Double(2.5),
               i % 13 == 0 ? Cell::Null() : Cell::Str(text),
               Cell::Int(9000 + 97 * rng.Uniform(0, 9))});
  }
  return t;
}

TEST(FreezeGolden, BlockBytesMatchRecordedDigests) {
  Coverage cov;
  {
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.seed = 1;
    auto db = tpch::MakeTpch(cfg);
    Digest d;
    for (Table* t : {&db->region, &db->nation, &db->supplier, &db->customer,
                     &db->part, &db->partsupp, &db->orders, &db->lineitem}) {
      t->FreezeAll();
      Absorb(*t, &d, &cov);
    }
    ExpectDigest("TPC-H SF 0.01", d, 0xeaa76f9559d9949aull, 8, 7028288);
  }
  tpcc::TpccConfig tpcc_cfg;
  tpcc_cfg.num_warehouses = 1;
  tpcc_cfg.num_items = 5000;
  tpcc_cfg.customers_per_district = 300;
  tpcc_cfg.orders_per_district = 300;
  tpcc_cfg.chunk_capacity = 4096;
  {
    tpcc::TpccDatabase db(tpcc_cfg);
    db.Load();
    Digest d;
    for (Table* t : {&db.item, &db.warehouse, &db.district, &db.customer,
                     &db.history, &db.neworder, &db.order, &db.orderline,
                     &db.stock}) {
      t->FreezeAll();
      Absorb(*t, &d, &cov);
    }
    ExpectDigest("TPC-C", d, 0x15f6a36955df1da4ull, 18, 3048608);
  }
  {
    // Sorted freezes: customer on its last name (string ties), orderline on
    // its item id (an int column beside a NULL-bearing delivery date).
    tpcc::TpccDatabase db(tpcc_cfg);
    db.Load();
    Digest d;
    db.customer.FreezeAll(int(tpcc::col::customer::last));
    Absorb(db.customer, &d, &cov);
    db.orderline.FreezeAll(int(tpcc::col::orderline::i_id));
    Absorb(db.orderline, &d, &cov);
    ExpectDigest("TPC-C sorted", d, 0x259c7978680b8231ull, 9, 2055136);
  }
  {
    workloads::ImdbConfig cfg;
    cfg.num_rows = 180'000;
    auto t = workloads::MakeCastInfo(cfg);
    t->FreezeAll();
    Digest d;
    Absorb(*t, &d, &cov);
    ExpectDigest("IMDB cast_info", d, 0xbd2bc4e123556a01ull, 3, 3216000);
  }
  {
    workloads::FlightsConfig cfg;
    cfg.num_rows = 100'000;
    auto t = workloads::MakeFlights(cfg);
    t->FreezeAll();
    Digest d;
    Absorb(*t, &d, &cov);
    ExpectDigest("Flights", d, 0x533fdab1bd88ba36ull, 2, 2407072);
  }
  {
    auto t = MakeEdgeTable();
    t->FreezeAll();
    Digest d;
    Absorb(*t, &d, &cov);
    ExpectDigest("edge", d, 0x2525254cbd724585ull, 2, 312608);
  }

  using enum TypeId;
  using enum Compression;
  const Shape required[] = {
      {kInt32, kSingleValue, 0}, {kInt32, kTruncation, 1},
      {kInt32, kTruncation, 2},  {kInt32, kDictionary, 1},
      {kInt32, kDictionary, 2},  {kInt32, kRaw, 4},
      {kInt64, kSingleValue, 0}, {kInt64, kTruncation, 1},
      {kInt64, kTruncation, 2},  {kInt64, kTruncation, 4},
      {kInt64, kDictionary, 1},  {kInt64, kDictionary, 2},
      {kInt64, kRaw, 8},         {kDouble, kSingleValue, 0},
      {kDouble, kRaw, 8},        {kString, kSingleValue, 0},
      {kString, kDictionary, 1}, {kString, kDictionary, 2},
      {kDate, kSingleValue, 0},  {kDate, kTruncation, 1},
      {kDate, kTruncation, 2},   {kDate, kDictionary, 1},
      {kChar1, kSingleValue, 0}, {kChar1, kTruncation, 1}};
  for (const Shape& s : required) {
    EXPECT_EQ(cov.shapes.count(s), 1u)
        << "no block has type " << int(std::get<0>(s)) << " as "
        << CompressionName(std::get<1>(s)) << " width " << std::get<2>(s);
  }
  EXPECT_TRUE(cov.null_bitmap);
  EXPECT_TRUE(cov.all_null);
}

}  // namespace
}  // namespace datablocks
