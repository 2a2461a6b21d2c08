// Table semantics: insert/delete/update visibility, freeze behaviour,
// RowId stability, point accesses across hot and frozen chunks, PK index,
// the string arena behind hot string columns, and read sections: point
// accesses racing freeze, evict and tombstone, the grace period that keeps
// what a section or a scan saw allocated, scans and whole-block readers
// racing eviction, readmission and tombstones, hot deletes racing scans and
// visibility checks, and the Prefetch contract.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

#include "exec/table_scanner.h"
#include "obs/metrics.h"
#include "storage/block_archive.h"
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

/// A TestSchema row; the name cell borrows `name`.
std::array<Cell, 3> Row(int64_t id, int32_t val, std::string_view name) {
  return {Cell::Int(id), Cell::Int(val), Cell::Str(name)};
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
  t.UpdateInPlace(a, {{1, Cell::Int(99)}});
  EXPECT_EQ(t.GetInt(a, 1), 99);
  t.UpdateInPlace(a, {{2, Cell::Str("changed")}, {0, Cell::Int(2)}});
  EXPECT_EQ(t.GetStringView(a, 2), "changed");
  EXPECT_EQ(t.GetInt(a, 0), 2);
  // A string copied within its chunk survives the arena growing under it.
  const RowId b = t.Insert(Row(3, 30, std::string(300, 'b')));
  for (int i = 0; i < 20; ++i) {
    t.UpdateInPlace(a, {{2, Cell::Str(t.GetStringView(b, 2))}});
    t.UpdateInPlace(b, {{2, Cell::Str(t.GetStringView(a, 2))}});
  }
  EXPECT_EQ(t.GetStringView(a, 2), std::string(300, 'b'));
  EXPECT_EQ(t.GetStringView(b, 2), std::string(300, 'b'));
}

TEST(Table, FreezePreservesRowIdsAndValues) {
  Table t("t", TestSchema(), 128);
  std::vector<RowId> ids;
  for (int i = 0; i < 300; ++i)
    ids.push_back(t.Insert(Row(i, i, "s" + std::to_string(i % 7))));
  t.FreezeChunk(0);
  t.FreezeChunk(1);
  EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  EXPECT_EQ(t.chunk_state(1), ChunkState::kFrozen);
  EXPECT_EQ(t.chunk_state(2), ChunkState::kHot);
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
  EXPECT_EQ(t.chunk_state(RowIdChunk(moved)), ChunkState::kHot);
  EXPECT_EQ(t.GetInt(moved, 1), 999);
}

TEST(Table, FreezeAllIncludesPartialTail) {
  Table t("t", TestSchema(), 64);
  for (int i = 0; i < 100; ++i) t.Insert(Row(i, i, "x"));
  t.FreezeAll();
  EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  EXPECT_EQ(t.chunk_state(1), ChunkState::kFrozen);
  EXPECT_EQ(t.frozen_block(1)->num_rows(), 36u);
  // Inserts after freezing start a new hot chunk.
  RowId a = t.Insert(Row(1000, 1, "new"));
  EXPECT_EQ(t.chunk_state(RowIdChunk(a)), ChunkState::kHot);
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
    ids.push_back(
        t.Insert({Cell::Int(i), i % 2 ? Cell::Null() : Cell::Int(i)}));
  }
  t.FreezeAll();
  for (int i = 0; i < 64; ++i) {
    Value v = t.GetValue(ids[size_t(i)], 1);
    EXPECT_EQ(v.is_null(), i % 2 == 1);
  }
}

// A write checks each cell's kind against its column type in every build
// type: a mismatch would otherwise store 0 or an empty string.
TEST(TableDeathTest, MismatchedCellKindAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table t("t", Schema({{"i64", TypeId::kInt64}, {"i32", TypeId::kInt32}}),
          64);
  const RowId id = t.Insert({Cell::Int(1), Cell::Int(2)});
  EXPECT_DEATH(t.Insert({Cell::Double(1.5), Cell::Int(2)}), "DB_CHECK failed");
  EXPECT_DEATH(t.Insert({Cell::Int(1), Cell::Str("2")}), "DB_CHECK failed");
  EXPECT_DEATH(t.Insert({Cell::Int(1), Cell::Null()}), "DB_CHECK failed");
  EXPECT_DEATH(t.Insert({Cell::Int(1)}), "DB_CHECK failed");
  EXPECT_DEATH(t.UpdateInPlace(id, {{0, Cell::Double(1.5)}}),
               "DB_CHECK failed");
  EXPECT_DEATH(t.UpdateRow(id, {{1, Cell::Str("2")}}), "DB_CHECK failed");
  EXPECT_EQ(t.GetInt(id, 0), 1);
  EXPECT_EQ(t.GetInt(id, 1), 2);
}

// -- Read sections ------------------------------------------------------

/// Archives a table's frozen chunks to a temporary file and serves the
/// table's evicted reads from it, counting every fetcher call.
class CountingFetcher {
 public:
  explicit CountingFetcher(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("datablocks_table_test_" + name + "_" +
                std::to_string(::getpid()) + ".dbar"))
                  .string()) {
    StatusOr<BlockArchive> created = BlockArchive::Create(path_);
    DB_CHECK(created.ok());
    archive_ = std::move(*created);
  }
  ~CountingFetcher() { std::remove(path_.c_str()); }

  void Install(Table& t) {
    t.SetBlockFetcher([this](size_t chunk, const BlockRead& read) -> Status {
      calls_.fetch_add(1, std::memory_order_relaxed);
      size_t id;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = ids_.find(chunk);
        if (it == ids_.end()) return Status::NotFound("chunk not archived");
        id = it->second;
      }
      StatusOr<uint64_t> bytes = archive_.Read(id, read);
      return bytes.ok() ? Status::Ok() : bytes.status();
    });
  }

  /// Archives frozen chunk `c` once; false if it is not frozen.
  bool Archive(const Table& t, size_t c) {
    if (archived(c)) return true;
    Table::ReadSection section;
    const DataBlock* block = t.frozen_block(c);
    if (block == nullptr) return false;
    StatusOr<size_t> id = archive_.AppendBlock(*block, uint32_t(c));
    DB_CHECK(id.ok());
    std::lock_guard<std::mutex> lock(mu_);
    ids_[c] = *id;
    return true;
  }
  bool archived(size_t c) const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.count(c) != 0;
  }
  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::string path_;
  BlockArchive archive_;
  mutable std::mutex mu_;
  std::unordered_map<size_t, size_t> ids_;  // chunk -> archive block id
  std::atomic<uint64_t> calls_{0};
};

/// Runs `stop`, then joins `thread`, when the scope ends — also when an
/// assertion returns early or an exception escapes, which would otherwise
/// leave the thread joinable and end the program.
struct StopAndJoin {
  std::function<void()> stop;
  std::thread& thread;
  ~StopAndJoin() {
    stop();
    if (thread.joinable()) thread.join();
  }
};

std::string LongName(int i) {
  return "row " + std::to_string(i) + std::string(200, char('a' + i % 26));
}

// One thread runs point reads, in-place updates, deletes and inserts in
// read sections of 1 to 64 accesses and checks every answer against a
// model; a second thread freezes, archives, evicts and tombstones the same
// chunks the whole time. Run under TSan in CI.
TEST(ReadSection, PointAccessesRaceFreezeEvictAndTombstone) {
  CountingFetcher fetcher("race");
  Table t("t", TestSchema(), 64);
  fetcher.Install(t);
  struct Model {
    int64_t key;
    int32_t val;
    std::string name;
  };
  std::map<RowId, Model> live;  // visible rows, by RowId (oldest first)
  int64_t next_key = 0;
  auto insert = [&](int32_t val, const std::string& name) {
    const int64_t key = next_key++;
    const RowId id = t.Insert(Row(key, val, name));
    live[id] = Model{key, val, name};
  };
  for (int i = 0; i < 256; ++i) insert(i, LongName(i));

  std::atomic<bool> done{false};
  std::atomic<int> rounds{0};
  std::thread lifecycle([&] {
    Rng rng(31);
    while (!done.load(std::memory_order_acquire)) {
      const int round = rounds.load(std::memory_order_relaxed);
      const size_t n = t.num_chunks();
      for (size_t c = 0; c < n; ++c) {
        // The partial tail only every fourth round, so that tails fill.
        if (t.chunk_state(c) == ChunkState::kHot &&
            (t.chunk_full(c) || round % 4 == 3)) {
          t.FreezeChunk(c);
        }
        if (t.chunk_state(c) == ChunkState::kFrozen && fetcher.Archive(t, c) &&
            (round == 0 || rng.Uniform(0, 2) == 0)) {
          t.EvictChunk(c);
        }
        t.TombstoneChunk(c);  // refused unless fully deleted
      }
      rounds.fetch_add(1, std::memory_order_release);
    }
  });
  StopAndJoin stop_lifecycle{[&] { done.store(true); }, lifecycle};
  // Start once the first round has frozen and evicted the loaded chunks.
  while (rounds.load(std::memory_order_acquire) == 0)
    std::this_thread::yield();

  Rng rng(29);
  auto pick = [&] {
    auto it = live.begin();
    std::advance(it, rng.Uniform(0, int64_t(live.size()) - 1));
    return it;
  };
  int mismatches = 0;
  auto expect = [&](bool ok, const char* what, RowId id) {
    if (ok) return;
    if (++mismatches <= 5)
      ADD_FAILURE() << what << " of row " << id << " (chunk "
                    << RowIdChunk(id) << ", "
                    << ChunkStateName(t.chunk_state(RowIdChunk(id))) << ")";
  };
  // Every transition waits for the section in flight, so the two threads
  // interleave at section boundaries for the whole run.
  for (int section_no = 0; section_no < 1500; ++section_no) {
    Table::ReadSection section;
    const int64_t len = rng.Uniform(1, 64);
    for (int64_t k = 0; k < len; ++k) {
      // Reads, updates, deletes and inserts at 5:2:1:1, plus one more
      // delete or insert that keeps about 256 rows live.
      int64_t op = live.empty() ? 8 : rng.Uniform(0, 9);
      if (op == 9) op = live.size() > 256 ? 7 : 8;
      if (op <= 4) {
        const auto [id, m] = *pick();
        expect(t.IsVisible(id), "visibility", id);
        expect(t.GetInt(id, 0) == m.key, "key", id);
        expect(t.GetInt(id, 1) == m.val, "val", id);
        expect(t.GetStringView(id, 2) == m.name, "name", id);
      } else if (op <= 6) {
        // An in-place update, or the relocation of a row that is no
        // longer hot (paper Section 3).
        auto it = pick();
        Model m = it->second;
        const bool string_col = op == 6;
        if (string_col)
          m.name = LongName(int(rng.Uniform(0, 1000)));
        else
          m.val = int32_t(rng.Uniform(0, 1 << 30));
        const Cell v = string_col ? Cell::Str(m.name) : Cell::Int(m.val);
        const RowId moved =
            t.UpdateRow(it->first, {{string_col ? 2u : 1u, v}});
        if (moved == it->first) {
          it->second = m;
        } else {
          live.erase(it);
          live[moved] = m;
        }
      } else if (op == 7) {
        // Mostly the oldest rows, so that whole chunks become deletable.
        auto it = rng.Uniform(0, 1) == 0 ? live.begin() : pick();
        const RowId id = it->first;
        t.Delete(id);
        expect(!t.IsVisible(id), "delete", id);
        live.erase(it);
      } else {
        insert(int32_t(next_key), LongName(int(next_key)));
      }
    }
  }
  stop_lifecycle.stop();
  lifecycle.join();

  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(t.num_visible(), live.size());
  for (const auto& [id, m] : live) {
    ASSERT_TRUE(t.IsVisible(id)) << id;
    ASSERT_EQ(t.GetInt(id, 1), m.val) << id;
    ASSERT_EQ(t.GetStringView(id, 2), m.name) << id;
  }
  EXPECT_GT(t.evictions(), 0u);
  EXPECT_GT(fetcher.calls(), 0u);
  std::printf("%d lifecycle rounds, %zu chunks, %llu evictions, %llu "
              "tombstones, %llu fetches\n",
              rounds.load(), t.num_chunks(),
              static_cast<unsigned long long>(t.evictions()),
              static_cast<unsigned long long>(t.tombstones()),
              static_cast<unsigned long long>(fetcher.calls()));
}

/// Waits up to `limit` for `done`; false on timeout.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds limit =
                            std::chrono::milliseconds(5000)) {
  const auto end = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > end) return false;
    std::this_thread::yield();
  }
  return true;
}

constexpr auto kGrace = std::chrono::milliseconds(50);

enum class Change { kFreeze, kEvict, kTombstone };

// A freeze, eviction or tombstone on another thread publishes its state
// and then waits for the reader that holds chunk 0: a read section with a
// string_view of one of its rows, or a TableScanner partway through it.
// The view stays readable, the scan's result is unchanged, and the changer
// returns only once the section closes or the scanner moves past the
// chunk. Under ASan a hot chunk or block freed early is a use-after-free;
// without it, the early return fails the test.
void CheckBlockOutlivesSection(Change change, bool scanner) {
  const char* names[] = {"freeze", "evict", "tombstone"};
  CountingFetcher fetcher(std::string("grace_") + names[int(change)] +
                          (scanner ? "_scan" : ""));
  Table t("t", TestSchema(), 64);
  fetcher.Install(t);
  std::vector<RowId> ids;  // chunk 0, and chunk 1 for the scan to move to
  for (int i = 0; i < 128; ++i)
    ids.push_back(t.Insert(Row(i, i, LongName(i))));
  if (change != Change::kFreeze) {
    ASSERT_TRUE(t.FreezeChunk(0));
    ASSERT_TRUE(fetcher.Archive(t, 0));
  }
  // A tombstone needs chunk 0 fully deleted. Frozen rows stay readable in
  // a section, and a scan keeps the delete bitmap it opened the chunk with.
  auto delete_chunk0 = [&] {
    for (int i = 0; i < 64; ++i) t.Delete(ids[size_t(i)]);
  };
  if (change == Change::kTombstone && !scanner) delete_chunk0();
  const ChunkState published = change == Change::kFreeze ? ChunkState::kFreezing
                               : change == Change::kEvict ? ChunkState::kEvicted
                                                          : ChunkState::kTombstone;

  std::atomic<bool> returned{false};
  std::thread changer;
  StopAndJoin join_changer{[] {}, changer};  // after the reader let go
  auto start_changer = [&] {
    changer = std::thread([&] {
      EXPECT_TRUE(change == Change::kFreeze  ? t.FreezeChunk(0)
                  : change == Change::kEvict ? t.EvictChunk(0)
                                             : t.TombstoneChunk(0));
      returned.store(true);
    });
    // The new state is published before the grace period starts.
    EXPECT_TRUE(WaitFor([&] { return t.chunk_state(0) == published; }));
    std::this_thread::sleep_for(kGrace);
    EXPECT_FALSE(returned.load());
  };
  if (!scanner) {
    Table::ReadSection section;
    const std::string_view view = t.GetStringView(ids[7], 2);
    start_changer();
    EXPECT_EQ(view, LongName(7));
  } else {
    TableScanner scan(t, {1, 2}, {}, ScanMode::kDataBlocks,
                      /*vector_size=*/16);
    Batch b;
    int64_t rows = 0, sum = 0;
    int wrong_names = 0;
    auto consume = [&] {
      for (uint32_t i = 0; i < b.count; ++i) {
        const int32_t v = b.cols[0].i32[i];
        sum += v;
        wrong_names += b.cols[1].Str(i) != LongName(v);
      }
      rows += b.count;
    };
    ASSERT_TRUE(scan.Next(&b));  // chunk 0's first vector
    consume();
    if (change == Change::kTombstone) delete_chunk0();
    start_changer();
    for (int v = 1; v < 4; ++v) {  // the rest of chunk 0
      ASSERT_TRUE(scan.Next(&b));
      consume();
      EXPECT_FALSE(returned.load()) << "vector " << v;
    }
    while (scan.Next(&b)) consume();
    EXPECT_EQ(rows, 128);
    EXPECT_EQ(sum, 127 * 128 / 2);
    EXPECT_EQ(wrong_names, 0);
  }
  changer.join();
  EXPECT_TRUE(returned.load());
  if (change == Change::kFreeze) {
    EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
    EXPECT_EQ(t.hot_chunk(0), nullptr);
  } else {
    EXPECT_EQ(t.chunk_state(0), published);
    EXPECT_EQ(t.frozen_block(0), nullptr);
  }
}

TEST(ReadSection, EvictionWaitsForTheSectionThatReadTheBlock) {
  CheckBlockOutlivesSection(Change::kEvict, /*scanner=*/false);
}

TEST(ReadSection, TombstoneWaitsForTheSectionThatReadTheBlock) {
  CheckBlockOutlivesSection(Change::kTombstone, /*scanner=*/false);
}

TEST(ReadSection, FreezeWaitsForTheScanThatHoldsTheChunk) {
  CheckBlockOutlivesSection(Change::kFreeze, /*scanner=*/true);
}

TEST(ReadSection, EvictionWaitsForTheScanThatHoldsTheChunk) {
  CheckBlockOutlivesSection(Change::kEvict, /*scanner=*/true);
}

TEST(ReadSection, TombstoneWaitsForTheScanThatHoldsTheChunk) {
  CheckBlockOutlivesSection(Change::kTombstone, /*scanner=*/true);
}

// Scans, whole-block readers and point readers race a changer that evicts
// every chunk and tombstones the fully deleted chunks 6 and 7, in every
// round: every scan sum is exact, and every whole-block pass, one section
// per chunk, reads each chunk that is frozen or evicted at its turn, byte
// for byte. A chunk never comes back from the archive, so each round
// starts over on a fresh table whose chunks are all frozen. Run under TSan
// in CI; under ASan, a block freed while a scan or a whole-block reader
// still reads it is a use-after-free.
TEST(ReadSection, ScansAndBlockReadersRaceEvictAndTombstone) {
  constexpr size_t kChunks = 8, kLive = 6;  // chunks 6 and 7 fully deleted
  int64_t expected = 0;
  for (int i = 0; i < int(kLive) * 64; ++i) expected += i;
  auto block_sum = [](const DataBlock& block) {
    return BlockArchive::Checksum(block.raw_bytes(), block.SizeBytes());
  };
  constexpr int kRounds = 200;
  Rng rng(5);
  for (int r = 0; r < kRounds; ++r) {
    CountingFetcher fetcher("scan_race");
    Table t("t", TestSchema(), 64);
    fetcher.Install(t);
    std::vector<RowId> ids;
    for (int i = 0; i < int(kChunks) * 64; ++i)
      ids.push_back(t.Insert(Row(i, i, "b")));
    std::vector<uint64_t> sums;
    for (size_t c = 0; c < kChunks; ++c) {
      ASSERT_TRUE(t.FreezeChunk(c));
      ASSERT_TRUE(fetcher.Archive(t, c));
      sums.push_back(block_sum(*t.frozen_block(c)));
    }
    for (size_t i = kLive * 64; i < ids.size(); ++i) t.Delete(ids[i]);
    // One pass of whole-block reads, one section per chunk: the chunks
    // that yielded their block.
    auto read_blocks = [&] {
      std::set<uint32_t> chunks;
      BlockImage image;
      for (uint32_t c = 0; c < kChunks; ++c) {
        Table::ReadSection section;
        const DataBlock* block =
            t.OpenForScan(c, ColumnSet::All(), &image).block;
        if (block == nullptr) continue;
        EXPECT_EQ(block_sum(*block), sums[c]) << "chunk " << c;
        chunks.insert(c);
      }
      return chunks;
    };

    // The changer evicts the chunks in a random order and tombstones 6 and
    // 7 after a random number of the evictions.
    std::vector<size_t> order(kChunks);
    std::iota(order.begin(), order.end(), size_t(0));
    for (size_t k = kChunks - 1; k > 0; --k)
      std::swap(order[k], order[size_t(rng.Uniform(0, int64_t(k)))]);
    const size_t tombstone_at = size_t(rng.Uniform(0, kChunks));
    std::atomic<bool> done{false}, stop{false};
    std::atomic<uint64_t> evictions{0};
    std::thread changer([&] {
      for (size_t k = 0; k <= kChunks; ++k) {
        if (k == tombstone_at) {
          t.TombstoneChunk(6);
          t.TombstoneChunk(7);
        }
        if (k < kChunks && t.EvictChunk(order[k])) evictions.fetch_add(1);
        std::this_thread::yield();
      }
      done.store(true);
    });
    StopAndJoin join_changer{[] {}, changer};
    // Point reads in read sections stretch each eviction's grace period.
    std::thread reader([&, seed = uint64_t(r)] {
      Rng reads(seed);
      while (!stop.load()) {
        Table::ReadSection section;
        const int i = int(reads.Uniform(0, int64_t(kLive) * 64 - 1));
        EXPECT_EQ(t.GetInt(ids[size_t(i)], 1), i);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
    StopAndJoin join_reader{[&] { stop.store(true); }, reader};

    auto tombstoned = [&](size_t c) {
      return t.chunk_state(c) == ChunkState::kTombstone;
    };
    // Scan until the changer is done, so the scans overlap all of its
    // transitions, however fast each one runs.
    int scans = 0;
    do {
      const ScanMode mode =
          scans++ % 2 == 0 ? ScanMode::kDataBlocks : ScanMode::kJit;
      TableScanner scan(t, {1}, {}, mode, /*vector_size=*/16);
      Batch b;
      int64_t sum = 0;
      while (scan.Next(&b)) {
        for (uint32_t i = 0; i < b.count; ++i) sum += b.cols[0].i32[i];
      }
      ASSERT_EQ(sum, expected) << "round " << r;

      // Chunks 0-5 are frozen or evicted throughout; 6 and 7 until their
      // tombstone, which is terminal.
      const bool gone_before[] = {tombstoned(6), tombstoned(7)};
      const std::set<uint32_t> chunks = read_blocks();
      const bool gone_after[] = {tombstoned(6), tombstoned(7)};
      for (uint32_t c = 0; c < kLive; ++c)
        ASSERT_EQ(chunks.count(c), 1u) << "round " << r << " chunk " << c;
      for (uint32_t c = kLive; c < kChunks; ++c) {
        if (gone_before[c - kLive]) {
          ASSERT_EQ(chunks.count(c), 0u) << "round " << r << " chunk " << c;
        }
        if (!gone_after[c - kLive]) {
          ASSERT_EQ(chunks.count(c), 1u) << "round " << r << " chunk " << c;
        }
      }
    } while (!done.load());
    changer.join();
    stop.store(true);
    reader.join();

    // Every live chunk ended evicted, and both fully deleted chunks as
    // tombstones that yield no block.
    ASSERT_GE(evictions.load(), kLive) << "round " << r;
    for (size_t c = 0; c < kLive; ++c)
      ASSERT_EQ(t.chunk_state(c), ChunkState::kEvicted) << "round " << r;
    ASSERT_EQ(t.tombstones(), 2u) << "round " << r;
    ASSERT_EQ(read_blocks().size(), kLive) << "round " << r;
  }
}

// Every transition the API allows moves a chunk's state forward, and every
// transition it refuses leaves the state alone. A watcher thread samples
// each chunk's state the whole time and never sees one go back; a read
// section held across a freeze makes kFreezing observable.
TEST(TableLifecycle, ChunkStatesOnlyMoveForward) {
  CountingFetcher fetcher("forward");
  Table t("t", TestSchema(), 64);
  fetcher.Install(t);
  for (int i = 0; i < 3 * 64; ++i) t.Insert(Row(i, i, "f"));  // chunks 0-2
  constexpr size_t kMaxChunks = 4;
  auto bit = [](ChunkState s) { return uint8_t(1u << int(s)); };
  std::array<std::atomic<uint8_t>, kMaxChunks> seen{};  // states sampled
  std::atomic<bool> stop{false}, went_back{false};
  std::thread watcher([&] {
    std::array<ChunkState, kMaxChunks> last{};  // kHot
    while (!stop.load()) {
      const size_t n = t.num_chunks();
      for (size_t c = 0; c < n; ++c) {
        const ChunkState st = t.chunk_state(c);
        if (st < last[c]) went_back.store(true);
        last[c] = st;
        seen[c].fetch_or(bit(st));
      }
    }
  });
  StopAndJoin join_watcher{[&] { stop.store(true); }, watcher};
  // Waits until the watcher sampled state `s` of chunk `c`; the test
  // holds each state until then.
  auto wait_seen = [&](size_t c, ChunkState s) {
    while ((seen[c].load() & bit(s)) == 0) std::this_thread::yield();
  };
  auto delete_chunk = [&](size_t c) {
    for (uint32_t r = 0; r < t.chunk_rows(c); ++r) t.Delete(MakeRowId(c, r));
  };

  // Chunk 0: hot -> freezing -> frozen -> evicted -> tombstone.
  wait_seen(0, ChunkState::kHot);
  std::atomic<bool> in_section{false}, release{false}, froze{false};
  std::thread holder([&] {
    Table::ReadSection section;
    in_section.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!in_section.load()) std::this_thread::yield();
  std::thread freezer([&] { froze.store(t.FreezeChunk(0)); });
  wait_seen(0, ChunkState::kFreezing);  // the freeze waits for `holder`
  release.store(true);
  holder.join();
  freezer.join();
  ASSERT_TRUE(froze.load());
  wait_seen(0, ChunkState::kFrozen);
  EXPECT_FALSE(t.FreezeChunk(0));
  EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  ASSERT_TRUE(t.EvictChunk(0));
  wait_seen(0, ChunkState::kEvicted);
  EXPECT_FALSE(t.EvictChunk(0));
  EXPECT_FALSE(t.FreezeChunk(0));
  EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
  delete_chunk(0);
  ASSERT_TRUE(t.TombstoneChunk(0));
  wait_seen(0, ChunkState::kTombstone);
  EXPECT_FALSE(t.EvictChunk(0));
  EXPECT_FALSE(t.FreezeChunk(0));
  EXPECT_FALSE(t.TombstoneChunk(0));
  EXPECT_EQ(t.chunk_state(0), ChunkState::kTombstone);

  // Chunk 1: a fully deleted hot chunk is no tombstone; frozen, it becomes
  // one without being evicted.
  delete_chunk(1);
  EXPECT_FALSE(t.TombstoneChunk(1));
  EXPECT_FALSE(t.EvictChunk(1));
  EXPECT_EQ(t.chunk_state(1), ChunkState::kHot);
  ASSERT_TRUE(t.FreezeChunk(1));
  wait_seen(1, ChunkState::kFrozen);
  ASSERT_TRUE(t.TombstoneChunk(1));
  wait_seen(1, ChunkState::kTombstone);

  // Chunk 3: AppendFrozen publishes a chunk that is frozen from the start,
  // and it evicts like any other.
  Chunk hot(&t.schema(), 64);
  for (int i = 0; i < 64; ++i) hot.Append(Row(i, i, "a"));
  t.AppendFrozen(DataBlock::Build(hot));
  ASSERT_EQ(t.num_chunks(), kMaxChunks);
  wait_seen(3, ChunkState::kFrozen);
  ASSERT_TRUE(t.EvictChunk(3));
  wait_seen(3, ChunkState::kEvicted);
  EXPECT_FALSE(t.EvictChunk(3));
  EXPECT_EQ(t.chunk_state(3), ChunkState::kEvicted);

  stop.store(true);
  watcher.join();
  EXPECT_FALSE(went_back.load());
  EXPECT_EQ(seen[2].load(), bit(ChunkState::kHot));  // never moved
  EXPECT_EQ(seen[3].load() & bit(ChunkState::kHot), 0);
}

// The writer deletes hot rows, the first delete of every chunk included,
// while a second thread scans the same chunks in every mode and checks
// IsVisible and deleted_in_chunk. Every delete sets its bit in the chunk
// slot's bitmap atomically, and a scan copies the bitmap once per chunk:
// each scan returns between the visible rows at its end and at its start,
// and never a row whose delete returned before it began.
TEST(ReadSection, HotDeletesRaceScansAndVisibilityChecks) {
  constexpr uint32_t kCap = 256, kChunks = 6;
  constexpr int64_t kRows = int64_t(kCap) * kChunks;
  Table t("t", TestSchema(), kCap);
  for (int64_t i = 0; i < kRows; ++i) t.Insert(Row(i, int32_t(i), "h"));
  // Round robin over the chunks, so the first six deletes are each chunk's
  // first; every fourth row stays.
  std::vector<RowId> order;
  std::vector<int64_t> delete_index(kRows, kRows);  // by key; kRows: kept
  for (uint32_t r = 0; r < kCap; ++r) {
    for (uint32_t c = 0; c < kChunks; ++c) {
      if (r % 4 == 3) continue;
      delete_index[c * kCap + r] = int64_t(order.size());
      order.push_back(MakeRowId(c, r));
    }
  }
  const int64_t kDeletes = int64_t(order.size());
  for (uint32_t c = 0; c < kChunks; ++c)
    ASSERT_EQ(t.chunk_state(c), ChunkState::kHot);

  // Deletes [0, done) have returned, deletes [0, started) have begun.
  std::atomic<int64_t> started{0}, done{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (scans.load() == 0 && !stop.load()) std::this_thread::yield();
    for (int64_t k = 0; k < kDeletes && !stop.load(); ++k) {
      started.store(k + 1);
      t.Delete(order[size_t(k)]);
      done.store(k + 1);
      if (k % 4 == 3)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  StopAndJoin join_writer{[&] { stop.store(true); }, writer};

  const ScanMode kModes[] = {ScanMode::kJit, ScanMode::kVectorized,
                             ScanMode::kVectorizedSarg, ScanMode::kDataBlocks,
                             ScanMode::kDataBlocksPsma};
  const Predicate every_row =
      Predicate::Between(1, Value::Int(0), Value::Int(kRows));
  std::vector<uint32_t> last_deleted(kChunks, 0);
  uint64_t overlapping = 0;
  for (uint64_t s = 0; done.load() < kDeletes || s < 2 * std::size(kModes);
       ++s) {
    const ScanMode mode = kModes[s % std::size(kModes)];
    std::vector<Predicate> preds;
    if ((s / std::size(kModes)) % 2 == 1) preds.push_back(every_row);
    const int64_t before = done.load();
    TableScanner scan(t, {0}, preds, mode, /*vector_size=*/64);
    Batch b;
    int64_t count = 0;
    std::set<int64_t> keys;
    while (scan.Next(&b)) {
      for (uint32_t i = 0; i < b.count; ++i) {
        const int64_t key = b.cols[0].i64[i];
        ASSERT_GE(delete_index[size_t(key)], before)
            << ScanModeName(mode) << " returned key " << key;
        keys.insert(key);
      }
      count += b.count;
    }
    const int64_t after = started.load();
    ASSERT_EQ(keys.size(), size_t(count)) << ScanModeName(mode);
    ASSERT_LE(count, kRows - before) << ScanModeName(mode);
    ASSERT_GE(count, kRows - after) << ScanModeName(mode);
    if (before != after) ++overlapping;
    scans.fetch_add(1);

    for (uint32_t c = 0; c < kChunks; ++c) {
      const uint32_t n = t.deleted_in_chunk(c);
      ASSERT_GE(n, last_deleted[c]) << "chunk " << c;
      last_deleted[c] = n;
    }
    const int64_t returned = done.load();
    for (int64_t k = s % 7; k < returned; k += 7)
      ASSERT_FALSE(t.IsVisible(order[size_t(k)])) << k;
    for (uint32_t c = 0; c < kChunks; ++c)
      ASSERT_TRUE(t.IsVisible(MakeRowId(c, 3 + 4 * (s % (kCap / 4)))));
  }
  writer.join();
  EXPECT_GT(overlapping, 0u);
  EXPECT_EQ(t.num_visible(), uint64_t(kRows - kDeletes));
  for (uint32_t c = 0; c < kChunks; ++c)
    EXPECT_EQ(t.deleted_in_chunk(c), kCap / 4 * 3) << c;
}

// A freeze compresses only after the sections that saw the chunk hot have
// closed, and frees the hot chunk only after the sections that read it
// while kFreezing have closed too.
TEST(ReadSection, FreezeWaitsForSectionsOnBothSidesOfKFreezing) {
  Table t("t", TestSchema(), 64);
  std::vector<RowId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(t.Insert(Row(i, i, LongName(i))));

  // A section opened before the freeze holds it at kFreezing.
  std::atomic<int> holder_phase{0};  // 1: section open, 2: close it
  std::thread holder([&] {
    Table::ReadSection section;
    holder_phase.store(1);
    while (holder_phase.load() != 2) std::this_thread::yield();
  });
  StopAndJoin join_holder{[&] { holder_phase.store(2); }, holder};
  ASSERT_TRUE(WaitFor([&] { return holder_phase.load() == 1; }));
  std::atomic<bool> returned{false};
  std::thread freezer([&] {
    EXPECT_TRUE(t.FreezeChunk(0));
    returned.store(true);
  });
  // The freezer finishes only once the holder has closed its section.
  StopAndJoin join_freezer{[&] { holder_phase.store(2); }, freezer};
  EXPECT_TRUE(
      WaitFor([&] { return t.chunk_state(0) == ChunkState::kFreezing; }));
  std::this_thread::sleep_for(kGrace);
  EXPECT_EQ(t.chunk_state(0), ChunkState::kFreezing);  // not compressed yet
  {
    // Opened at kFreezing: reads the intact hot chunk. Once the holder
    // closes, the freezer installs the block, but keeps the hot chunk
    // until this section closes too.
    Table::ReadSection section;
    const std::string_view view = t.GetStringView(ids[7], 2);
    // A write relocates the row, copied from the intact hot chunk.
    const RowId moved = t.UpdateRow(ids[8], {{1, Cell::Int(-1)}});
    EXPECT_NE(moved, ids[8]);
    EXPECT_FALSE(t.IsVisible(ids[8]));
    EXPECT_EQ(t.GetInt(moved, 1), -1);
    EXPECT_EQ(t.GetStringView(moved, 2), LongName(8));
    holder_phase.store(2);
    // The freezer's first grace period may have started after this
    // section opened, and then waits for it: only check when it did not.
    if (WaitFor([&] { return t.chunk_state(0) == ChunkState::kFrozen; },
                std::chrono::milliseconds(1000))) {
      std::this_thread::sleep_for(kGrace);
      EXPECT_FALSE(returned.load());
    }
    EXPECT_EQ(view, LongName(7));
  }
  holder.join();
  freezer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(t.hot_chunk(0), nullptr);
  EXPECT_EQ(t.GetStringView(ids[7], 2), LongName(7));
  EXPECT_EQ(t.GetInt(ids[8], 1), 8);
}

// Prefetch is a hint: on hot, frozen, evicted and tombstoned chunks it
// leaves the clock and the recency stamp alone, reads nothing from the
// archive and never throws.
TEST(Table, PrefetchLeavesClockRecencyAndArchiveAlone) {
  CountingFetcher fetcher("prefetch");
  Table t("t", TestSchema(), 64);
  fetcher.Install(t);
  std::vector<RowId> ids;
  for (int i = 0; i < 4 * 64; ++i) ids.push_back(t.Insert(Row(i, i, "p")));
  for (size_t c = 1; c < 4; ++c) {
    ASSERT_TRUE(t.FreezeChunk(c));
    ASSERT_TRUE(fetcher.Archive(t, c));
  }
  ASSERT_TRUE(t.EvictChunk(2));
  for (int i = 3 * 64; i < 4 * 64; ++i) t.Delete(ids[size_t(i)]);
  ASSERT_TRUE(t.TombstoneChunk(3));
  const ChunkState states[] = {ChunkState::kHot, ChunkState::kFrozen,
                               ChunkState::kEvicted, ChunkState::kTombstone};
  for (size_t c = 0; c < 4; ++c) ASSERT_EQ(t.chunk_state(c), states[c]);
  t.AdvanceAccessEpoch();  // a touch would now restamp every chunk

  std::vector<uint32_t> clocks, stamps;
  for (size_t c = 0; c < 4; ++c) {
    clocks.push_back(t.chunk_clock(c));
    stamps.push_back(t.chunk_last_access(c));
  }
  const uint64_t calls = fetcher.calls();
  auto prefetch_all = [&] {
    for (RowId id : ids) {
      EXPECT_NO_THROW(t.Prefetch(id, {0, 1, 2, 3}));  // 3 is out of range
    }
    EXPECT_NO_THROW(t.Prefetch(MakeRowId(0, 1000), {0}));  // past the rows
    EXPECT_NO_THROW(t.Prefetch(MakeRowId(99, 0), {0}));    // past the chunks
  };
  prefetch_all();
  {
    Table::ReadSection section;
    prefetch_all();
  }
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(t.chunk_state(c), states[c]) << c;
    EXPECT_EQ(t.chunk_clock(c), clocks[c]) << c;
    EXPECT_EQ(t.chunk_last_access(c), stamps[c]) << c;
  }
  EXPECT_EQ(fetcher.calls(), calls);
}

// A scan that opens a chunk while it is kFreezing reads its hot chunk to
// the end, also once the freezer has installed the block mid-chunk (and
// hot_chunk() would answer nullptr): every row exactly once.
TEST(ReadSection, ScanOpenedWhileFreezingReadsTheHotChunkToItsEnd) {
  Table t("t", TestSchema(), 256);
  for (int i = 0; i < 256; ++i) t.Insert(Row(i, i, LongName(i)));

  // A section opened before the freeze holds it at kFreezing.
  std::atomic<int> holder_phase{0};  // 1: section open, 2: close it
  std::thread holder([&] {
    Table::ReadSection section;
    holder_phase.store(1);
    while (holder_phase.load() != 2) std::this_thread::yield();
  });
  StopAndJoin join_holder{[&] { holder_phase.store(2); }, holder};
  ASSERT_TRUE(WaitFor([&] { return holder_phase.load() == 1; }));
  std::thread freezer([&] { EXPECT_TRUE(t.FreezeChunk(0)); });
  StopAndJoin join_freezer{[&] { holder_phase.store(2); }, freezer};
  ASSERT_TRUE(
      WaitFor([&] { return t.chunk_state(0) == ChunkState::kFreezing; }));

  TableScanner scan(t, {0, 2}, {}, ScanMode::kDataBlocks, /*vector_size=*/64);
  Batch b;
  std::vector<int> seen(256, 0);
  int wrong_names = 0;
  auto consume = [&] {
    for (uint32_t i = 0; i < b.count; ++i) {
      const int64_t key = b.cols[0].i64[i];
      ++seen[size_t(key)];
      wrong_names += b.cols[1].Str(i) != LongName(int(key));
    }
  };
  ASSERT_TRUE(scan.Next(&b));  // opened at kFreezing
  consume();
  holder_phase.store(2);
  ASSERT_TRUE(
      WaitFor([&] { return t.chunk_state(0) == ChunkState::kFrozen; }));
  while (scan.Next(&b)) consume();
  for (int i = 0; i < 256; ++i) EXPECT_EQ(seen[size_t(i)], 1) << i;
  EXPECT_EQ(wrong_names, 0);
  holder.join();
  freezer.join();
  EXPECT_EQ(t.hot_chunk(0), nullptr);
}

// A move carries the lifetime counters with the slots they count.
TEST(Table, MoveKeepsTheTombstoneCount) {
  Table t("t", TestSchema(), 64);
  std::vector<RowId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(t.Insert(Row(i, i, "m")));
  ASSERT_TRUE(t.FreezeChunk(0));
  for (RowId id : ids) t.Delete(id);
  ASSERT_TRUE(t.TombstoneChunk(0));
  Table moved(std::move(t));
  EXPECT_EQ(moved.chunk_state(0), ChunkState::kTombstone);
  EXPECT_EQ(moved.tombstones(), 1u);
}

// Synchronize and the lifecycle transitions wait for every open section,
// the caller's own included: inside a section they abort instead of
// deadlocking. OpenForScan is only legal inside one, and a whole scan,
// whose chunks open sections of their own, runs inside an outer section.
TEST(ReadSectionDeathTest, SynchronizeAndTransitionsAbortInsideASection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Table t("t", TestSchema(), 64);
  t.Insert(Row(1, 1, "x"));
  BlockImage image;
  EXPECT_DEATH(
      {
        Table::ReadSection section;
        Table::Synchronize();
      },
      "DB_CHECK failed");
  EXPECT_DEATH(
      {
        Table::ReadSection outer;
        Table::ReadSection nested;
        t.FreezeChunk(0);
      },
      "DB_CHECK failed");
  // Lifecycle transitions check on entry, also when they would return
  // false: the chunk is hot, so it can be neither evicted nor tombstoned.
  EXPECT_DEATH(
      {
        Table::ReadSection section;
        t.EvictChunk(0);
      },
      "DB_CHECK failed");
  EXPECT_DEATH(
      {
        Table::ReadSection section;
        t.TombstoneChunk(0);
      },
      "DB_CHECK failed");
  EXPECT_DEATH(t.OpenForScan(0, ColumnSet::All(), &image), "DB_CHECK failed");
  {
    Table::ReadSection outer;
    TableScanner scan(t, {0}, {}, ScanMode::kDataBlocks);
    Batch b;
    int64_t rows = 0;
    while (scan.Next(&b)) rows += b.count;
    EXPECT_EQ(rows, 1);
  }
  // Closed sections leave the thread free to synchronize and freeze.
  Table::Synchronize();
  EXPECT_TRUE(t.FreezeChunk(0));
}

// One nullable column of every TypeId, through insert, in-place update,
// freeze, and UpdateRow relocations out of a resident frozen block and out
// of an evicted one read through the point image. After every step each
// live row reads back as the model says; NULLs, empty strings and strings
// longer than 15 bytes included.
TEST(TableWrites, EveryTypeRoundTripsThroughUpdateFreezeAndRelocation) {
  const std::vector<TypeId> types = {TypeId::kInt32,  TypeId::kInt64,
                                     TypeId::kDouble, TypeId::kString,
                                     TypeId::kDate,   TypeId::kChar1};
  std::vector<ColumnDef> defs;
  for (TypeId type : types)
    defs.push_back({TypeName(type), type, /*nullable=*/true});
  Table t("t", Schema(defs), 64);
  CountingFetcher fetcher("round_trip");
  fetcher.Install(t);
  Rng rng(41);
  auto gen = [&rng](TypeId type) -> Value {
    if (rng.Uniform(0, 5) == 0) return Value::Null();
    switch (type) {
      case TypeId::kInt32:
        return Value::Int(rng.Uniform(INT32_MIN, INT32_MAX));
      case TypeId::kInt64:
        return Value::Int(rng.Uniform(INT64_MIN / 2, INT64_MAX / 2));
      case TypeId::kDouble:
        return Value::Double(rng.NextDouble() * 1e6 - 5e5);
      case TypeId::kString: {
        const int64_t shape = rng.Uniform(0, 2);  // empty, short, long
        return Value::Str(shape == 0   ? ""
                          : shape == 1 ? rng.RandomString(1, 15)
                                       : rng.RandomString(16, 60));
      }
      case TypeId::kDate:
        return Value::Int(rng.Uniform(0, 20000));
      case TypeId::kChar1:
        return Value::Char(char(rng.Uniform('A', 'Z')));
    }
    return Value::Null();
  };
  auto gen_row = [&] {
    std::vector<Value> row;
    for (TypeId type : types) row.push_back(gen(type));
    return row;
  };
  std::map<RowId, std::vector<Value>> model;
  auto check = [&](const char* step) {
    ASSERT_EQ(t.num_visible(), model.size()) << step;
    for (const auto& [id, row] : model) {
      ASSERT_TRUE(t.IsVisible(id)) << step;
      for (uint32_t c = 0; c < row.size(); ++c) {
        const Value got = t.GetValue(id, c);
        ASSERT_TRUE(got == row[c] && got.is_null() == row[c].is_null())
            << step << ": row " << id << " column " << c << " is "
            << got.ToString() << ", want " << row[c].ToString();
      }
    }
  };
  // Changes of one to three random columns, as Values and as cells.
  auto gen_changes = [&](std::vector<Value>* row,
                         std::vector<CellUpdate>* changes) {
    std::set<uint32_t> cols;
    const int64_t n = rng.Uniform(1, 3);
    for (int64_t k = 0; k < n; ++k) {
      const uint32_t c = uint32_t(rng.Uniform(0, int64_t(types.size()) - 1));
      (*row)[c] = gen(types[c]);
      cols.insert(c);
    }
    changes->clear();
    for (uint32_t c : cols) changes->push_back({c, (*row)[c].cell()});
  };
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  const uint64_t inserts0 = metrics.GetCounter("table.inserts")->Value();
  const uint64_t inplace0 =
      metrics.GetCounter("table.inplace_updates")->Value();
  const uint64_t moves0 = metrics.GetCounter("table.relocations")->Value();

  for (int i = 0; i < 192; ++i) {
    std::vector<Value> row = gen_row();
    model[t.Insert(CellsOf(row))] = std::move(row);
  }
  check("insert");

  std::vector<CellUpdate> changes;
  int in_place = 0;
  for (auto& [id, row] : model) {
    if (rng.Uniform(0, 1) == 0) continue;
    gen_changes(&row, &changes);
    if (in_place++ % 2 == 0) {
      t.UpdateInPlace(id, changes);
    } else {
      ASSERT_EQ(t.UpdateRow(id, changes), id);  // hot: stays in place
    }
  }
  check("in-place update");

  ASSERT_TRUE(t.FreezeChunk(0));
  ASSERT_TRUE(t.FreezeChunk(1));
  check("freeze");
  // Evicted only now, so that the relocations below are the first reads of
  // it: they fetch its pages.
  ASSERT_TRUE(fetcher.Archive(t, 1));
  ASSERT_TRUE(t.EvictChunk(1));

  // Relocate every other row of the evicted chunk, then of the frozen one
  // (the check reads the rest of the evicted chunk into the point image).
  int moved = 0;
  for (size_t chunk : {size_t(1), size_t(0)}) {
    const uint64_t calls = fetcher.calls();
    std::vector<RowId> ids;
    for (const auto& [id, row] : model)
      if (RowIdChunk(id) == chunk && RowIdRow(id) % 2 == 0) ids.push_back(id);
    for (RowId id : ids) {
      std::vector<Value> row = model.at(id);
      gen_changes(&row, &changes);
      const RowId fresh = t.UpdateRow(id, changes);
      ASSERT_NE(fresh, id);
      ASSERT_FALSE(t.IsVisible(id));
      model.erase(id);
      model[fresh] = std::move(row);
      ++moved;
    }
    EXPECT_EQ(fetcher.calls() > calls, chunk == 1);
    check(chunk == 0 ? "relocation from a frozen block"
                     : "relocation from an evicted block");
  }
  EXPECT_EQ(t.chunk_state(0), ChunkState::kFrozen);
  EXPECT_EQ(t.chunk_state(1), ChunkState::kEvicted);

  // Each relocation inserted its row once more.
  EXPECT_EQ(metrics.GetCounter("table.inserts")->Value() - inserts0,
            uint64_t(192 + moved));
  EXPECT_EQ(metrics.GetCounter("table.inplace_updates")->Value() - inplace0,
            uint64_t(in_place));
  EXPECT_EQ(metrics.GetCounter("table.relocations")->Value() - moves0,
            uint64_t(moved));

  t.FreezeAll();
  check("freeze of the relocated rows");
}

}  // namespace
}  // namespace datablocks
