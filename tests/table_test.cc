// Table semantics: insert/delete/update visibility, freeze behaviour,
// RowId stability, point accesses across hot and frozen chunks, PK index,
// and the string arena behind hot string columns.

#include <gtest/gtest.h>

#include "storage/pk_index.h"
#include "storage/string_arena.h"
#include "storage/table.h"
#include "util/rng.h"

namespace datablocks {
namespace {

Schema TestSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"val", TypeId::kInt32},
                 {"name", TypeId::kString}});
}

std::vector<Value> Row(int64_t id, int32_t val, const std::string& name) {
  return {Value::Int(id), Value::Int(val), Value::Str(name)};
}

TEST(StringArena, GrowthAcrossThePageThresholdKeepsEveryString) {
  StringArena arena;
  std::vector<std::string> strings;
  std::vector<StringRef> refs;
  Rng rng(3);
  // From the heap into page-backed storage, then through several doublings
  // of the mapping.
  while (arena.size_bytes() < 8 * kPageBackedBytes) {
    std::string s(size_t(rng.Uniform(0, 300)), '\0');
    for (char& ch : s) ch = char(rng.Uniform(0, 255));
    refs.push_back(arena.Add(s));
    strings.push_back(std::move(s));
  }
  for (size_t i = 0; i < strings.size(); ++i)
    ASSERT_EQ(arena.Get(refs[i]), strings[i]) << i;

  StringArena moved(std::move(arena));
  EXPECT_EQ(arena.size_bytes(), 0u);
  for (size_t i = 0; i < strings.size(); ++i)
    ASSERT_EQ(moved.Get(refs[i]), strings[i]) << i;
  StringArena assigned;
  assigned.Add("gone");
  assigned = std::move(moved);
  EXPECT_EQ(moved.size_bytes(), 0u);
  for (size_t i = 0; i < strings.size(); ++i)
    ASSERT_EQ(assigned.Get(refs[i]), strings[i]) << i;
  // A moved-from arena starts over.
  EXPECT_EQ(arena.Add("x").offset, 0u);
  EXPECT_EQ(arena.Get(StringRef{0, 1}), "x");
}

TEST(Table, InsertAndPointAccess) {
  Table t("t", TestSchema(), 64);
  std::vector<RowId> ids;
  for (int i = 0; i < 200; ++i)
    ids.push_back(t.Insert(Row(i, i * 2, "n" + std::to_string(i))));
  EXPECT_EQ(t.num_rows(), 200u);
  EXPECT_EQ(t.num_chunks(), 4u);  // 200 rows / 64 per chunk
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(t.GetInt(ids[size_t(i)], 0), i);
    EXPECT_EQ(t.GetInt(ids[size_t(i)], 1), i * 2);
    EXPECT_EQ(t.GetStringView(ids[size_t(i)], 2), "n" + std::to_string(i));
  }
}

TEST(Table, DeleteHidesRow) {
  Table t("t", TestSchema(), 64);
  RowId a = t.Insert(Row(1, 10, "a"));
  RowId b = t.Insert(Row(2, 20, "b"));
  EXPECT_TRUE(t.IsVisible(a));
  t.Delete(a);
  EXPECT_FALSE(t.IsVisible(a));
  EXPECT_TRUE(t.IsVisible(b));
  EXPECT_EQ(t.num_visible(), 1u);
  t.Delete(a);  // idempotent
  EXPECT_EQ(t.num_visible(), 1u);
}

TEST(Table, UpdateIsDeletePlusInsert) {
  Table t("t", TestSchema(), 64);
  RowId a = t.Insert(Row(1, 10, "a"));
  RowId a2 = t.Update(a, Row(1, 11, "a'"));
  EXPECT_NE(a, a2);
  EXPECT_FALSE(t.IsVisible(a));
  EXPECT_TRUE(t.IsVisible(a2));
  EXPECT_EQ(t.GetInt(a2, 1), 11);
  EXPECT_EQ(t.num_visible(), 1u);
}

TEST(Table, UpdateInPlaceOnHotRows) {
  Table t("t", TestSchema(), 64);
  RowId a = t.Insert(Row(1, 10, "a"));
  t.UpdateInPlace(a, 1, Value::Int(99));
  EXPECT_EQ(t.GetInt(a, 1), 99);
  t.UpdateInPlace(a, 2, Value::Str("changed"));
  EXPECT_EQ(t.GetStringView(a, 2), "changed");
}

TEST(Table, FreezePreservesRowIdsAndValues) {
  Table t("t", TestSchema(), 128);
  std::vector<RowId> ids;
  for (int i = 0; i < 300; ++i)
    ids.push_back(t.Insert(Row(i, i, "s" + std::to_string(i % 7))));
  t.FreezeChunk(0);
  t.FreezeChunk(1);
  EXPECT_TRUE(t.is_frozen(0));
  EXPECT_TRUE(t.is_frozen(1));
  EXPECT_FALSE(t.is_frozen(2));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(t.GetInt(ids[size_t(i)], 0), i) << i;
    EXPECT_EQ(t.GetStringView(ids[size_t(i)], 2), "s" + std::to_string(i % 7));
  }
}

TEST(Table, DeleteCarriesOverIntoFreeze) {
  Table t("t", TestSchema(), 64);
  std::vector<RowId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(t.Insert(Row(i, i, "x")));
  t.Delete(ids[5]);
  t.Delete(ids[60]);
  t.FreezeChunk(0);
  EXPECT_FALSE(t.IsVisible(ids[5]));
  EXPECT_FALSE(t.IsVisible(ids[60]));
  EXPECT_TRUE(t.IsVisible(ids[6]));
  EXPECT_EQ(t.num_visible(), 62u);
}

TEST(Table, DeleteOnFrozenRows) {
  Table t("t", TestSchema(), 64);
  std::vector<RowId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(t.Insert(Row(i, i, "x")));
  t.FreezeChunk(0);
  t.Delete(ids[10]);
  EXPECT_FALSE(t.IsVisible(ids[10]));
  EXPECT_EQ(t.deleted_in_chunk(0), 1u);
  // Update of a frozen row relocates it to the hot tail (Section 3).
  RowId moved = t.Update(ids[20], Row(20, 999, "moved"));
  EXPECT_FALSE(t.IsVisible(ids[20]));
  EXPECT_FALSE(t.is_frozen(RowIdChunk(moved)));
  EXPECT_EQ(t.GetInt(moved, 1), 999);
}

TEST(Table, FreezeAllIncludesPartialTail) {
  Table t("t", TestSchema(), 64);
  for (int i = 0; i < 100; ++i) t.Insert(Row(i, i, "x"));
  t.FreezeAll();
  EXPECT_TRUE(t.is_frozen(0));
  EXPECT_TRUE(t.is_frozen(1));
  EXPECT_EQ(t.frozen_block(1)->num_rows(), 36u);
  // Inserts after freezing start a new hot chunk.
  RowId a = t.Insert(Row(1000, 1, "new"));
  EXPECT_FALSE(t.is_frozen(RowIdChunk(a)));
  EXPECT_EQ(t.num_chunks(), 3u);
}

TEST(Table, FreezeWithSortClustersBlock) {
  Table t("t", TestSchema(), 256);
  Rng rng(17);
  for (int i = 0; i < 256; ++i)
    t.Insert(Row(rng.Uniform(0, 100000), i, "x"));
  t.FreezeChunk(0, /*sort_col=*/0);
  const DataBlock* block = t.frozen_block(0);
  for (uint32_t i = 1; i < block->num_rows(); ++i)
    EXPECT_LE(block->GetInt(0, i - 1), block->GetInt(0, i));
}

TEST(Table, FreezeWithStringSortClustersBlock) {
  Table t("t", TestSchema(), 256);
  Rng rng(23);
  for (int i = 0; i < 256; ++i)
    t.Insert(Row(i, i, "k" + std::to_string(rng.Uniform(0, 30))));
  t.FreezeChunk(0, /*sort_col=*/2);
  const DataBlock* block = t.frozen_block(0);
  for (uint32_t i = 1; i < block->num_rows(); ++i)
    EXPECT_LE(block->GetStringView(2, i - 1), block->GetStringView(2, i));
  // Row payloads stay attached to their keys.
  int64_t sum = 0;
  for (uint32_t i = 0; i < block->num_rows(); ++i) sum += block->GetInt(0, i);
  EXPECT_EQ(sum, 255 * 256 / 2);
}

TEST(Table, CompressionReducesMemory) {
  Table t("t", TestSchema(), 4096);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i)
    t.Insert(Row(1000000 + i, int32_t(rng.Uniform(0, 100)),
                 rng.Uniform(0, 1) ? "AAAA" : "BBBB"));
  uint64_t hot = t.MemoryBytes();
  t.FreezeAll();
  uint64_t frozen = t.MemoryBytes();
  EXPECT_LT(frozen, hot / 2);
  EXPECT_EQ(t.HotBytes(), 0u);
}

TEST(PkIndexTest, LookupAcrossHotAndFrozen) {
  Table t("t", TestSchema(), 64);
  for (int i = 0; i < 200; ++i) t.Insert(Row(i * 10, i, "v"));
  t.FreezeChunk(0);
  t.FreezeChunk(1);
  PkIndex idx(t, 0);
  EXPECT_EQ(idx.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    auto rid = idx.Lookup(i * 10);
    ASSERT_TRUE(rid.has_value());
    EXPECT_EQ(t.GetInt(*rid, 1), i);
  }
  EXPECT_FALSE(idx.Lookup(5).has_value());
}

TEST(PkIndexTest, SkipsDeletedRows) {
  Table t("t", TestSchema(), 64);
  RowId a = t.Insert(Row(1, 1, "a"));
  t.Insert(Row(2, 2, "b"));
  t.Delete(a);
  PkIndex idx(t, 0);
  EXPECT_FALSE(idx.Lookup(1).has_value());
  EXPECT_TRUE(idx.Lookup(2).has_value());
}

TEST(PkIndexTest, IncrementalMaintenance) {
  Table t("t", TestSchema(), 64);
  PkIndex idx(t, 0);
  RowId a = t.Insert(Row(7, 1, "a"));
  idx.Put(7, a);
  EXPECT_TRUE(idx.Lookup(7).has_value());
  t.Delete(a);
  idx.Erase(7);
  EXPECT_FALSE(idx.Lookup(7).has_value());
}

TEST(Table, RowIdEncoding) {
  RowId id = MakeRowId(12345, 678);
  EXPECT_EQ(RowIdChunk(id), 12345u);
  EXPECT_EQ(RowIdRow(id), 678u);
}

TEST(Table, NullableColumnsThroughFreeze) {
  Schema schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt32, true}});
  Table t("t", schema, 64);
  std::vector<RowId> ids;
  for (int i = 0; i < 64; ++i) {
    std::vector<Value> row = {Value::Int(i), i % 2 ? Value::Null()
                                                   : Value::Int(i)};
    ids.push_back(t.Insert(row));
  }
  t.FreezeAll();
  for (int i = 0; i < 64; ++i) {
    Value v = t.GetValue(ids[size_t(i)], 1);
    EXPECT_EQ(v.is_null(), i % 2 == 1);
  }
}

}  // namespace
}  // namespace datablocks
