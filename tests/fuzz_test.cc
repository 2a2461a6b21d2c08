// Model-based randomized testing: a Table is driven through random
// interleavings of inserts, deletes, updates, row updates (in place while
// the row is hot, else relocations out of its frozen chunk) and chunk
// freezes while a simple in-memory model tracks the expected visible rows.
// After every operation each chunk's delete count and bitmap, and after
// every phase point accesses and full scans under every ScanMode, must
// agree with the model exactly.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <set>

#include "exec/table_scanner.h"
#include "util/rng.h"

namespace datablocks {
namespace {

struct ModelRow {
  int64_t key;
  int64_t val;
  std::string tag;
  std::optional<int64_t> opt;
};

class FuzzModel {
 public:
  explicit FuzzModel(uint64_t seed)
      : rng_(seed),
        schema_({{"key", TypeId::kInt64},
                 {"val", TypeId::kInt64},
                 {"tag", TypeId::kString},
                 {"opt", TypeId::kInt32, /*nullable=*/true}}),
        table_("fuzz", schema_, 256) {}

  void RandomOp() {
    switch (rng_.Uniform(0, 9)) {
      case 0:
      case 1:
      case 2:
      case 3:
        Insert();
        break;
      case 4:
      case 5:
        DeleteRandom();
        break;
      case 6:
        UpdateRandom();
        break;
      case 7:
        UpdateRowRandom();
        break;
      case 8:
        FreezeOneChunk();
        break;
      case 9:
        for (int i = 0; i < 50; ++i) Insert();
        break;
    }
  }

  void Verify() {
    // Point accesses.
    for (const auto& [id, row] : live_) {
      ASSERT_TRUE(table_.IsVisible(id));
      EXPECT_EQ(table_.GetInt(id, 0), row.key);
      EXPECT_EQ(table_.GetInt(id, 1), row.val);
      EXPECT_EQ(table_.GetStringView(id, 2), row.tag);
      Value v = table_.GetValue(id, 3);
      if (row.opt.has_value()) {
        EXPECT_EQ(v.i64(), *row.opt);
      } else {
        EXPECT_TRUE(v.is_null());
      }
    }
    EXPECT_EQ(table_.num_visible(), live_.size());

    // Scans under every mode: multiset of (key, val) pairs must match.
    std::multimap<int64_t, int64_t> expect;
    for (const auto& [id, row] : live_) expect.emplace(row.key, row.val);
    for (ScanMode mode :
         {ScanMode::kJit, ScanMode::kVectorized, ScanMode::kVectorizedSarg,
          ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
      std::multimap<int64_t, int64_t> got;
      TableScanner scan(table_, {0, 1}, {}, mode, 128);
      Batch b;
      while (scan.Next(&b)) {
        for (uint32_t i = 0; i < b.count; ++i)
          got.emplace(b.cols[0].i64[i], b.cols[1].i64[i]);
      }
      ASSERT_EQ(got, expect) << ScanModeName(mode);
    }

    // A selective scan must agree with a model-side filter.
    int64_t lo = rng_.Uniform(0, 500), hi = lo + rng_.Uniform(0, 300);
    uint64_t expect_count = 0;
    for (const auto& [id, row] : live_)
      expect_count += (row.val >= lo && row.val <= hi);
    TableScanner scan(table_, {1},
                      {Predicate::Between(1, Value::Int(lo), Value::Int(hi))},
                      ScanMode::kDataBlocksPsma, 128);
    Batch b;
    uint64_t got_count = 0;
    while (scan.Next(&b)) got_count += b.count;
    EXPECT_EQ(got_count, expect_count);
  }

  /// Each chunk's delete state against the model, in whatever state the
  /// chunk is: its count, and a snapshot that flags exactly the rows the
  /// model deleted (none past the chunk's rows) or is refused when there
  /// are none.
  void VerifyDeletes() {
    const size_t chunks = table_.num_chunks();
    std::vector<std::vector<uint64_t>> expect(chunks);
    std::vector<uint32_t> count(chunks, 0);
    for (size_t c = 0; c < chunks; ++c)
      expect[c].assign(BitmapWords(table_.chunk_rows(c)), 0);
    for (const RowId id : dead_) {
      BitmapSet(expect[RowIdChunk(id)].data(), RowIdRow(id));
      ++count[RowIdChunk(id)];
    }
    for (size_t c = 0; c < chunks; ++c) {
      const char* state = ChunkStateName(table_.chunk_state(c));
      EXPECT_EQ(table_.deleted_in_chunk(c), count[c]) << c << " " << state;
      std::vector<uint64_t> got;
      ASSERT_EQ(table_.SnapshotDeleteBitmap(c, &got), count[c] != 0)
          << c << " " << state;
      if (count[c] != 0) {
        EXPECT_EQ(got, expect[c]) << c << " " << state;
      }
    }
  }

 private:
  void Insert() {
    ModelRow row;
    row.key = next_key_++;
    row.val = rng_.Uniform(0, 999);
    row.tag = "t" + std::to_string(rng_.Uniform(0, 20));
    if (rng_.Uniform(0, 3) == 0) {
      row.opt = std::nullopt;
    } else {
      row.opt = rng_.Uniform(0, 100);
    }
    RowId id = table_.Insert(Cells(row));
    live_[id] = row;
  }

  RowId PickLive() {
    auto it = live_.begin();
    std::advance(it, rng_.Uniform(0, int64_t(live_.size()) - 1));
    return it->first;
  }

  void DeleteRandom() {
    if (live_.empty()) return;
    RowId id = PickLive();
    table_.Delete(id);
    live_.erase(id);
    dead_.insert(id);
  }

  void UpdateRandom() {
    if (live_.empty()) return;
    RowId id = PickLive();
    ModelRow row = live_[id];
    row.val = rng_.Uniform(0, 999);
    row.tag = "u" + std::to_string(rng_.Uniform(0, 20));
    table_.Delete(id);
    RowId fresh = table_.Insert(Cells(row));
    live_.erase(id);
    dead_.insert(id);
    live_[fresh] = row;
  }

  /// Hot rows are updated in place, frozen ones relocated.
  void UpdateRowRandom() {
    if (live_.empty()) return;
    RowId id = PickLive();
    ModelRow row = live_[id];
    row.val = rng_.Uniform(0, 999);
    if (rng_.Uniform(0, 1) == 0)
      row.opt = std::nullopt;
    else
      row.tag = "r" + std::to_string(rng_.Uniform(0, 20));
    const RowId moved = table_.UpdateRow(
        id, {{1, Cell::Int(row.val)},
             {2, Cell::Str(row.tag)},
             {3, row.opt ? Cell::Int(*row.opt) : Cell::Null()}});
    // kHot alone updates in place: UpdateRow relocates a kFreezing row too.
    EXPECT_EQ(moved == id,
              table_.chunk_state(RowIdChunk(id)) == ChunkState::kHot);
    if (moved != id) dead_.insert(id);
    live_.erase(id);
    live_[moved] = row;
  }

  /// The row as cells, borrowing its tag.
  static std::array<Cell, 4> Cells(const ModelRow& row) {
    return {Cell::Int(row.key), Cell::Int(row.val), Cell::Str(row.tag),
            row.opt ? Cell::Int(*row.opt) : Cell::Null()};
  }

  void FreezeOneChunk() {
    for (size_t c = 0; c + 1 < table_.num_chunks(); ++c) {
      if (table_.chunk_state(c) == ChunkState::kHot &&
          table_.chunk_rows(c) == 256) {
        table_.FreezeChunk(c);
        return;
      }
    }
  }

  Rng rng_;
  Schema schema_;
  Table table_;
  std::map<RowId, ModelRow> live_;
  std::set<RowId> dead_;  // deleted, replaced or relocated away
  int64_t next_key_ = 0;
};

class TableFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TableFuzz, RandomOperationsMatchModel) {
  FuzzModel model(uint64_t(GetParam()) * 7919 + 13);
  for (int phase = 0; phase < 8; ++phase) {
    for (int op = 0; op < 200; ++op) {
      model.RandomOp();
      model.VerifyDeletes();
      if (::testing::Test::HasFailure()) return;
    }
    model.Verify();
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace datablocks
