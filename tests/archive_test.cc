// BlockArchive format: versioned indexed archives with per-block random
// access, per-attribute checksums, projected reads of a column subset,
// delete-bitmap persistence and resident block summaries readable without
// payload IO — round trips of blocks containing string dictionaries and
// delete bitmaps, compaction, and the fault model: every corruption
// (bit-flipped payload, bitmap or tail, swapped stripes, truncated block,
// truncated or unfinished index, bad header, older format version,
// malformed layout, summary or deletion count behind valid checksums)
// surfaces as a typed Status, never as a process abort.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "storage/block_archive.h"
#include "test_table_util.h"
#include "util/rng.h"
#include "util/status.h"

namespace datablocks {
namespace {

Table MakeTable(uint32_t n, uint32_t chunk_capacity, uint32_t delete_every) {
  return MakeTestTable(n, chunk_capacity, delete_every, /*freeze=*/true);
}

/// XORs one byte at `offset` of `path` with `mask`.
void FlipByte(const std::string& path, uint64_t offset, char mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(std::streamoff(offset));
  char byte;
  f.read(&byte, 1);
  byte ^= mask;
  f.seekp(std::streamoff(offset));
  f.write(&byte, 1);
}

uint64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return uint64_t(f.tellg());
}

void Truncate(const std::string& path, uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  ASSERT_LE(size, file.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), std::streamsize(size));
}

TEST(BlockArchive, RandomAccessRoundTripWithStringsAndDeletes) {
  Table t = MakeTable(10000, 1024, /*delete_every=*/7);
  ASSERT_GT(t.num_visible(), 0u);
  const std::string path = "/tmp/datablocks_archive_rt.dbar";

  StatusOr<size_t> written = BlockArchive::Save(t, path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, t.num_chunks());

  StatusOr<BlockArchive> opened = BlockArchive::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  BlockArchive& archive = *opened;
  ASSERT_EQ(archive.num_blocks(), *written);

  // Random access: read blocks out of order, verify entries line up.
  for (size_t i = archive.num_blocks(); i-- > 0;) {
    std::vector<uint64_t> bitmap;
    StatusOr<DataBlock> block = archive.ReadBlock(i, &bitmap);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block->num_rows(), t.chunk_rows(i));
    EXPECT_EQ(archive.entry(i).chunk_index, uint32_t(i));
    EXPECT_EQ(archive.entry(i).deleted_count, t.deleted_in_chunk(i));
    if (t.deleted_in_chunk(i) > 0) {
      ASSERT_FALSE(bitmap.empty());
      uint32_t set = 0;
      for (uint64_t w : bitmap) set += uint32_t(std::popcount(w));
      EXPECT_EQ(set, t.deleted_in_chunk(i));
    }
    // String dictionary round trip: point access into the reloaded block.
    EXPECT_EQ(block->GetStringView(2, 0),
              t.GetStringView(MakeRowId(i, 0), 2));
  }

  // Restore preserves deletes and strings: scans are identical.
  StatusOr<Table> restored =
      BlockArchive::Restore("t2", TestTableSchema(), path, 1024);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_rows(), t.num_rows());
  EXPECT_EQ(restored->num_visible(), t.num_visible());
  EXPECT_TRUE(FullScan(t) == FullScan(*restored));
  std::remove(path.c_str());
}

TEST(BlockArchiveFaults, BitFlippedPayloadFailsThatBlockOnly) {
  Table t = MakeTable(2000, 1024, 0);
  const std::string path = "/tmp/datablocks_archive_corrupt.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());

  // Flip one payload byte past the block header of block 0. The index is
  // intact, so Open succeeds; only reads of the damaged block fail.
  uint64_t offset0;
  {
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    offset0 = a->entry(0).offset;
  }
  FlipByte(path, offset0 + 256, 0x40);

  StatusOr<BlockArchive> corrupted = BlockArchive::Open(path);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
  StatusOr<DataBlock> bad = corrupted->ReadBlock(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
      << bad.status().ToString();
  // Other blocks still read fine.
  StatusOr<DataBlock> ok = corrupted->ReadBlock(1);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), t.chunk_rows(1));
  std::remove(path.c_str());
}

TEST(BlockArchiveFaults, RejectsForeignShortAndWrongVersionFiles) {
  const std::string path = "/tmp/datablocks_archive_bad.dbar";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "this is not an archive at all, not even close.............";
  }
  StatusOr<BlockArchive> foreign = BlockArchive::Open(path);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), StatusCode::kCorruption);
  EXPECT_NE(foreign.status().message().find("magic"), std::string::npos);

  // Too short to even hold a header.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << "tiny";
  }
  StatusOr<BlockArchive> tiny = BlockArchive::Open(path);
  ASSERT_FALSE(tiny.ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kCorruption);

  // Valid archive stamped with an unknown version: rejected up front with a
  // diagnostic, not misparsed.
  Table t = MakeTable(1500, 1024, 0);
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    uint32_t bad_version = BlockArchive::kVersion + 1;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&bad_version), 4);
  }
  StatusOr<BlockArchive> wrong = BlockArchive::Open(path);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kCorruption);
  EXPECT_NE(wrong.status().message().find("version"), std::string::npos);

  // A nonexistent path is kNotFound, not corruption.
  StatusOr<BlockArchive> missing =
      BlockArchive::Open("/tmp/datablocks_archive_does_not_exist.dbar");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  std::remove(path.c_str());
}

/// FileHeader::index_offset of the archive at `path`.
uint64_t IndexOffset(const std::string& path) {
  uint64_t index_offset = 0;
  std::ifstream f(path, std::ios::binary);
  f.seekg(16);
  f.read(reinterpret_cast<char*>(&index_offset), sizeof(index_offset));
  return index_offset;
}

TEST(BlockArchiveFaults, TornArchiveIsCorruption) {
  // A torn or unfinished file is never repaired: Save publishes by rename,
  // and an eviction archive is never reopened, so Open refuses it whole.
  const Table t = MakeTable(4096, 1024, /*delete_every=*/6);
  const std::string path = "/tmp/datablocks_archive_torn.dbar";
  struct Case {
    const char* what;
    std::function<void()> make;
  };
  auto save = [&] { ASSERT_TRUE(BlockArchive::Save(t, path).ok()); };
  const std::vector<Case> cases = {
      {"truncated mid-block",
       [&] {
         save();
         StatusOr<BlockArchive> a = BlockArchive::Open(path);
         ASSERT_TRUE(a.ok());
         const ArchiveEntry last = a->entry(a->num_blocks() - 1);
         Truncate(path, last.offset + last.block_bytes / 2);
       }},
      {"truncated mid-index",
       [&] {
         save();
         const uint64_t index_offset = IndexOffset(path);
         ASSERT_LT(index_offset, FileSize(path));
         Truncate(path, index_offset + (FileSize(path) - index_offset) / 2);
       }},
      {"index byte flipped",
       [&] {
         save();
         FlipByte(path, IndexOffset(path) + 8, 0x01);
       }},
      {"never finished",
       [&] {
         StatusOr<BlockArchive> created = BlockArchive::Create(path);
         ASSERT_TRUE(created.ok());
         for (size_t c = 0; c < t.num_chunks(); ++c) {
           ASSERT_TRUE(created
                           ->AppendBlock(*t.frozen_block(c), uint32_t(c),
                                         t.delete_bitmap(c))
                           .ok());
         }
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    c.make();
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kCorruption);
    EXPECT_NE(a.status().message().find(path), std::string::npos)
        << a.status().ToString();
    StatusOr<Table> restored =
        BlockArchive::Restore("torn", TestTableSchema(), path, 1024);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

/// Rewrites index entry `id` of the archive at `path` with `mutate` applied
/// and the index checksum recomputed, so only the entry checks stand
/// between the edited record and a reader.
void RewriteEntry(const std::string& path, size_t id,
                  const std::function<void(ArchiveEntry&)>& mutate) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  const uint64_t index_offset = IndexOffset(path);
  const uint64_t at = index_offset + id * sizeof(ArchiveEntry);
  ArchiveEntry e;
  std::memcpy(&e, file.data() + at, sizeof(e));
  mutate(e);
  std::memcpy(file.data() + at, &e, sizeof(e));
  const uint64_t sum = BlockArchive::Checksum(file.data() + index_offset,
                                              file.size() - 8 - index_offset);
  std::memcpy(file.data() + file.size() - 8, &sum, 8);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(file.data(), std::streamsize(file.size()));
}

TEST(BlockArchiveFaults, DeletedCountMustMatchItsBitmap) {
  const std::string path = "/tmp/datablocks_archive_deleted_count.dbar";
  auto expect_open_refuses = [&](const char* what) {
    SCOPED_TRACE(what);
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kCorruption);
    EXPECT_NE(a.status().message().find("deletion count"), std::string::npos)
        << a.status().ToString();
    EXPECT_EQ(BlockArchive::Restore("d", TestTableSchema(), path, 1024)
                  .status()
                  .code(),
              StatusCode::kCorruption);
  };

  // No bitmap stored, yet the entry claims deletions.
  Table clean = MakeTable(1024, 1024, 0);
  {
    StatusOr<BlockArchive> created = BlockArchive::Create(path);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(created->AppendBlock(*clean.frozen_block(0), 0).ok());
    ASSERT_TRUE(created->Finish().ok());
  }
  RewriteEntry(path, 0, [](ArchiveEntry& e) { e.deleted_count = 5; });
  expect_open_refuses("deletions without a bitmap");

  // 147 of 1024 rows deleted: more deletions than rows, and a bitmap of
  // the wrong length, are refused at Open.
  Table t = MakeTable(1024, 1024, /*delete_every=*/7);
  ASSERT_EQ(t.deleted_in_chunk(0), 147u);
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  RewriteEntry(path, 0, [](ArchiveEntry& e) { e.deleted_count = 1025; });
  expect_open_refuses("more deletions than rows");
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  RewriteEntry(path, 0, [](ArchiveEntry& e) { e.bitmap_words -= 1; });
  expect_open_refuses("bitmap shorter than the block");

  // A plausible count that disagrees with the verified bitmap passes Open
  // and fails the full read, so Restore never installs it.
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  RewriteEntry(path, 0, [](ArchiveEntry& e) { e.deleted_count += 5; });
  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  DataBlock image;
  EXPECT_TRUE(a->ReadBlock(0, ColumnSet({0}), &image).ok());
  StatusOr<DataBlock> full = a->ReadBlock(0);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
  EXPECT_NE(full.status().message().find("delete bitmap"), std::string::npos)
      << full.status().ToString();
  StatusOr<Table> restored =
      BlockArchive::Restore("d", TestTableSchema(), path, 1024);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BlockArchiveV3, SummariesRestorableWithoutPayloadReads) {
  Table t = MakeTable(4096, 1024, /*delete_every=*/5);
  const std::string path = "/tmp/datablocks_archive_summary.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());

  StatusOr<BlockArchive> opened = BlockArchive::Open(path);
  ASSERT_TRUE(opened.ok());
  BlockArchive& archive = *opened;
  EXPECT_EQ(archive.payload_reads(), 0u);  // Open touches only the index
  for (size_t i = 0; i < archive.num_blocks(); ++i) {
    const BlockSummary* s = archive.summary(i);
    ASSERT_NE(s, nullptr) << i;
    EXPECT_EQ(s->row_count(), t.chunk_rows(i));
    EXPECT_EQ(archive.entry(i).row_count, t.chunk_rows(i));
    // SMA values survive: the id column stores the global insert index, so
    // chunk i covers [i * 1024, i * 1024 + rows).
    EXPECT_EQ(s->col(0).min_val, int64_t(i) * 1024);
    EXPECT_EQ(s->col(0).max_val, int64_t(i) * 1024 + t.chunk_rows(i) - 1);
    // String SMA: dictionary first/last entry, no payload needed.
    EXPECT_FALSE(s->col(2).min_str.empty());
    EXPECT_LE(s->col(2).min_str, s->col(2).max_str);
  }
  EXPECT_EQ(archive.payload_reads(), 0u);  // summaries alone cost no reads

  // Summary-only pruning agrees with the payload: a predicate outside every
  // SMA range skips, one inside chunk 1's range does not.
  SummaryScanPrep out = PrepareSummaryScan(
      *archive.summary(1), {Predicate::Gt(0, Value::Int(1 << 20))}, true);
  EXPECT_TRUE(out.skip);
  SummaryScanPrep in = PrepareSummaryScan(
      *archive.summary(1), {Predicate::Eq(0, Value::Int(1030))}, true);
  EXPECT_FALSE(in.skip);

  // Restore installs the archived summaries on the rebuilt table.
  StatusOr<Table> restored =
      BlockArchive::Restore("t3", TestTableSchema(), path, 1024);
  ASSERT_TRUE(restored.ok());
  for (size_t c = 0; c < restored->num_chunks(); ++c)
    EXPECT_NE(restored->block_summary(c), nullptr) << c;
  EXPECT_TRUE(FullScan(t) == FullScan(*restored));
  std::remove(path.c_str());
}

TEST(BlockArchiveV3, CompactionDropsDeadBlocksAndPreservesLiveOnes) {
  Table t = MakeTable(4096, 1024, /*delete_every=*/9);
  const std::string path = "/tmp/datablocks_archive_compact.dbar";
  const std::string compacted_path = path + ".out";

  // Build an archive with a superseded entry: chunk 0 appended twice (the
  // later append supersedes the earlier one), everything else once.
  {
    StatusOr<BlockArchive> created = BlockArchive::Create(path);
    ASSERT_TRUE(created.ok());
    BlockArchive& archive = *created;
    ASSERT_TRUE(
        archive.AppendBlock(*t.frozen_block(0), 0, t.delete_bitmap(0)).ok());
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      BlockSummary s = BlockSummary::Extract(*t.frozen_block(c));
      ASSERT_TRUE(archive
                      .AppendBlock(*t.frozen_block(c), uint32_t(c),
                                   t.delete_bitmap(c), &s)
                      .ok());
    }
    ASSERT_TRUE(archive.Finish().ok());
  }

  StatusOr<BlockArchive> opened = BlockArchive::Open(path);
  ASSERT_TRUE(opened.ok());
  BlockArchive& src = *opened;
  ASSERT_EQ(src.num_blocks(), t.num_chunks() + 1);
  // Liveness: latest entry per chunk -> the duplicate first entry is dead.
  std::vector<bool> live(src.num_blocks(), true);
  live[0] = false;
  std::vector<size_t> id_map;
  const uint64_t bytes_before = src.PayloadBytes();
  StatusOr<BlockArchive> compacted =
      BlockArchive::Compact(src, live, compacted_path, &id_map);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  ASSERT_TRUE(compacted->Finish().ok());

  EXPECT_EQ(compacted->num_blocks(), t.num_chunks());
  EXPECT_LT(compacted->PayloadBytes(), bytes_before);
  EXPECT_EQ(id_map[0], SIZE_MAX);
  for (size_t i = 1; i < id_map.size(); ++i) EXPECT_EQ(id_map[i], i - 1);

  // The rewritten archive round-trips: checksums verified on every read,
  // summaries and bitmaps carried over.
  StatusOr<BlockArchive> reopened = BlockArchive::Open(compacted_path);
  ASSERT_TRUE(reopened.ok());
  for (size_t i = 0; i < reopened->num_blocks(); ++i) {
    std::vector<uint64_t> bitmap;
    StatusOr<DataBlock> block = reopened->ReadBlock(i, &bitmap);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(block->num_rows(), t.chunk_rows(i));
    EXPECT_EQ(reopened->entry(i).deleted_count, t.deleted_in_chunk(i));
    ASSERT_NE(reopened->summary(i), nullptr);
    EXPECT_EQ(reopened->summary(i)->row_count(), t.chunk_rows(i));
  }
  StatusOr<Table> restored =
      BlockArchive::Restore("tc", TestTableSchema(), compacted_path, 1024);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(FullScan(t) == FullScan(*restored));

  std::remove(path.c_str());
  std::remove(compacted_path.c_str());
}

TEST(BlockArchiveFaults, OlderFormatVersionIsRejected) {
  static_assert(BlockArchive::kMinVersion == BlockArchive::kVersion);
  Table t = MakeTable(1500, 1024, /*delete_every=*/4);
  const std::string path = "/tmp/datablocks_archive_v6.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  // Stamp the previous format version on an otherwise valid archive: v6
  // kept one checksum per extent before the payload, so it must be
  // refused up front, not misread.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    uint32_t v6 = 6;
    f.seekp(4);
    f.write(reinterpret_cast<const char*>(&v6), 4);
  }
  StatusOr<BlockArchive> old = BlockArchive::Open(path);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kCorruption);
  EXPECT_NE(old.status().message().find("unsupported archive version 6"),
            std::string::npos)
      << old.status().ToString();
  std::remove(path.c_str());
}

/// Payload checksum coverage: one archive, then one mutation per case of
/// block 1's stored bytes. Every mutation must fail that block's read with
/// kCorruption, and leave the blocks around it readable.
class ArchiveChecksumCoverage : public ::testing::Test {
 protected:
  static constexpr uint32_t kRows = 1100;  // bitmap: 18 words, 16-byte tail

  void SetUp() override {
    table_ = std::make_unique<Table>(MakeTable(3 * kRows, kRows, 3));
    ASSERT_TRUE(BlockArchive::Save(*table_, path_).ok());
    StatusOr<BlockArchive> a = BlockArchive::Open(path_);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a->num_blocks(), 3u);
    entry_ = a->entry(1);
    ASSERT_GT(entry_.bitmap_words, 8u);
    ASSERT_NE(entry_.bitmap_words % 8, 0u);  // the bitmap hash has a tail
    std::ifstream in(path_, std::ios::binary);
    pristine_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the archive as saved, with `mutate` applied to its bytes.
  void WriteMutated(const std::function<void(std::vector<char>&)>& mutate) {
    std::vector<char> file = pristine_;
    mutate(file);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(file.data(), std::streamsize(file.size()));
  }

  void ExpectBlock1Corrupt(const std::string& what) {
    SCOPED_TRACE(what);
    StatusOr<BlockArchive> a = BlockArchive::Open(path_);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_TRUE(a->ReadBlock(0).ok());
    StatusOr<DataBlock> bad = a->ReadBlock(1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
        << bad.status().ToString();
    EXPECT_TRUE(a->ReadBlock(2).ok());
  }

  void Check(const std::string& what,
             const std::function<void(std::vector<char>&)>& mutate) {
    WriteMutated(mutate);
    ExpectBlock1Corrupt(what);
  }

  const std::string path_ = "/tmp/datablocks_archive_coverage.dbar";
  std::unique_ptr<Table> table_;
  ArchiveEntry entry_{};
  std::vector<char> pristine_;
};

TEST_F(ArchiveChecksumCoverage, BitFlipInEveryLane) {
  // Stripe 5 of the block: word k of each 64-byte stripe feeds lane k.
  for (uint64_t lane = 0; lane < 8; ++lane) {
    const uint64_t at = entry_.offset + 5 * 64 + lane * 8 + 3;
    Check("lane " + std::to_string(lane),
          [at](std::vector<char>& f) { f[at] ^= 0x10; });
  }
}

TEST_F(ArchiveChecksumCoverage, BitFlipInTailUnder64Bytes) {
  // The bitmap's last word sits past its last full stripe.
  const uint64_t at = entry_.offset + entry_.block_bytes +
                      entry_.bitmap_words * 8 - 1;
  Check("bitmap tail", [at](std::vector<char>& f) { f[at] ^= 0x01; });
}

TEST_F(ArchiveChecksumCoverage, BitFlipInBitmap) {
  const uint64_t at = entry_.offset + entry_.block_bytes + 9;
  Check("bitmap", [at](std::vector<char>& f) { f[at] ^= 0x04; });
}

TEST_F(ArchiveChecksumCoverage, SwappedStripes) {
  // Two stripes of the payload trade places: every word keeps its lane,
  // only the order within the lanes changes.
  const uint64_t a = entry_.offset + 2 * 64;
  const uint64_t b = entry_.offset + (entry_.block_bytes / 64 - 1) * 64;
  ASSERT_NE(std::memcmp(pristine_.data() + a, pristine_.data() + b, 64), 0);
  Check("swapped stripes", [a, b](std::vector<char>& f) {
    std::swap_ranges(f.begin() + a, f.begin() + a + 64, f.begin() + b);
  });
}

TEST(BlockArchive, ReloadedBlockScanPaddingIsZero) {
  Table t = MakeTable(2048, 1024, 0);
  const std::string path = "/tmp/datablocks_archive_padding.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  ASSERT_TRUE(a.ok());
  // Leaves non-zero bytes where the next allocation of `size` bytes most
  // likely lands, so a padding that is not zeroed explicitly shows up.
  auto dirty_heap = [](uint64_t size) {
    AlignedBuffer junk(size);
    std::memset(junk.data(), 0xAB, size + kScanPadding);
  };
  auto expect_zero_padding = [](const DataBlock& block) {
    const uint8_t* end = block.raw_bytes() + block.SizeBytes();
    for (uint64_t k = 0; k < kScanPadding; ++k) EXPECT_EQ(end[k], 0) << k;
  };
  for (size_t i = 0; i < a->num_blocks(); ++i) {
    dirty_heap(a->entry(i).block_bytes);
    StatusOr<DataBlock> block = a->ReadBlock(i);
    ASSERT_TRUE(block.ok());
    expect_zero_padding(*block);
  }
  // The same holds for the other direct-fill user, FromBytes.
  const DataBlock& src = *t.frozen_block(0);
  dirty_heap(src.SizeBytes());
  StatusOr<DataBlock> copy = DataBlock::FromBytes(src.raw_bytes(),
                                                  src.SizeBytes());
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  expect_zero_padding(*copy);
  std::remove(path.c_str());
}

TEST(BlockArchive, AppendAndReadInterleaved) {
  // The lifecycle manager reads earlier blocks while later freezes still
  // append — the archive must serve both on the same open file.
  Table t = MakeTable(8192, 1024, 3);
  const std::string path = "/tmp/datablocks_archive_interleave.dbar";
  StatusOr<BlockArchive> created = BlockArchive::Create(path);
  ASSERT_TRUE(created.ok());
  BlockArchive& archive = *created;
  std::vector<size_t> ids;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    StatusOr<size_t> id = archive.AppendBlock(*t.frozen_block(c), uint32_t(c));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    // Immediately read back an earlier block between appends.
    StatusOr<DataBlock> back = archive.ReadBlock(ids[ids.size() / 2]);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->num_rows(), t.chunk_rows(ids.size() / 2));
  }
  ASSERT_TRUE(archive.Finish().ok());
  StatusOr<BlockArchive> reopened = BlockArchive::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_blocks(), t.num_chunks());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Projected reads (format v6): the spine plus a column subset
// ---------------------------------------------------------------------------

/// One column of every storage shape a block can give it: truncated and
/// dictionary integers, raw doubles, dictionary strings, nullable columns
/// with some NULLs, an all-NULL column and single-value columns.
Schema WideSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"small", TypeId::kInt32},
                 {"price", TypeId::kDouble},
                 {"name", TypeId::kString},
                 {"opt", TypeId::kInt32, true},
                 {"none", TypeId::kInt64, true},
                 {"konst", TypeId::kInt32},
                 {"tag", TypeId::kString, true},
                 {"kstr", TypeId::kString},
                 {"day", TypeId::kDate}});
}
constexpr uint32_t kWideCols = 10;

Table MakeWideTable(uint32_t n, uint32_t chunk_capacity, bool psma,
                    uint64_t seed) {
  Table t("wide", WideSchema(), chunk_capacity);
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) {
    const bool null_opt = rng.Uniform(0, 4) == 0;
    const bool null_tag = rng.Uniform(0, 3) == 0;
    std::vector<Value> row = {
        Value::Int(int64_t(i) * 3),
        Value::Int(rng.Uniform(0, 9)),
        Value::Double(double(rng.Uniform(0, 100000)) / 100.0),
        Value::Str("name_" + std::to_string(rng.Uniform(0, 300))),
        null_opt ? Value::Null() : Value::Int(rng.Uniform(-50, 50)),
        Value::Null(),
        Value::Int(42),
        null_tag ? Value::Null()
                 : Value::Str(std::string(1, char('a' + rng.Uniform(0, 5)))),
        Value::Str("same"),
        Value::Int(9000 + rng.Uniform(0, 365))};
    t.Insert(row);
  }
  t.FreezeAll(/*sort_col=*/-1, psma);
  return t;
}

/// Order-sensitive fingerprint of a scan's output: every value and NULL
/// flag of every produced row.
uint64_t ScanFingerprint(const Table& t, const std::vector<uint32_t>& cols,
                         const std::vector<Predicate>& preds, ScanMode mode) {
  TableScanner scan(t, cols, preds, mode);
  Batch b;
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  while (scan.Next(&b)) {
    for (uint32_t i = 0; i < b.count; ++i) {
      for (size_t k = 0; k < cols.size(); ++k) {
        const ColumnVector& cv = b.cols[k];
        const bool null = cv.IsNull(i);
        mix(null);
        if (null) continue;
        switch (t.schema().type(cols[k])) {
          case TypeId::kInt64: mix(uint64_t(cv.i64[i])); break;
          case TypeId::kDouble: mix(std::bit_cast<uint64_t>(cv.f64[i])); break;
          case TypeId::kString:
            mix(std::hash<std::string_view>()(cv.Str(i)));
            break;
          default: mix(uint64_t(int64_t(cv.i32[i]))); break;
        }
      }
    }
  }
  return h;
}

/// A random predicate on column `col` of the wide schema.
Predicate RandomPredicate(uint32_t col, Rng& rng) {
  switch (col) {
    case 0: {
      const int64_t lo = rng.Uniform(0, 9000);
      return Predicate::Between(0, Value::Int(lo),
                                Value::Int(lo + rng.Uniform(0, 3000)));
    }
    case 1: return Predicate::Lt(1, Value::Int(rng.Uniform(0, 10)));
    case 2:
      return Predicate::Gt(2, Value::Double(double(rng.Uniform(0, 1000))));
    case 3:
      return Predicate::Eq(3, Value::Str("name_" +
                                         std::to_string(rng.Uniform(0, 300))));
    case 4:
      return rng.Uniform(0, 1) == 0 ? Predicate::IsNull(4)
                                    : Predicate::Ge(4, Value::Int(0));
    case 5: return Predicate::IsNull(5);
    case 6: return Predicate::Eq(6, Value::Int(42));
    case 7: return Predicate::In(7, {Value::Str("a"), Value::Str("c")});
    case 8: return Predicate::Prefix(8, Value::Str("sa"));
    default: return Predicate::Le(9, Value::Int(9000 + rng.Uniform(0, 365)));
  }
}

TEST(BlockArchiveV6, ProjectedReadsScanLikeFullReloads) {
  for (bool psma : {true, false}) {
    SCOPED_TRACE(psma ? "PSMA on" : "PSMA off");
    Table src = MakeWideTable(3 * 1500 + 700, 1500, psma, /*seed=*/11);
    const std::string path = "/tmp/datablocks_archive_projected.dbar";
    ASSERT_TRUE(BlockArchive::Save(src, path).ok());
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_EQ(a->num_blocks(), 4u);

    Table full("full", WideSchema(), 1500);
    for (size_t id = 0; id < a->num_blocks(); ++id) {
      StatusOr<DataBlock> block = a->ReadBlock(id);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      full.AppendFrozen(std::move(*block));
    }

    Rng rng(psma ? 101 : 202);
    DataBlock reused;  // one image refilled across blocks, as a scan does
    for (int round = 0; round < 24; ++round) {
      std::vector<uint32_t> out, pred_cols;
      for (uint32_t c = 0; c < kWideCols; ++c) {
        if (rng.Uniform(0, 2) == 0) out.push_back(c);
        if (rng.Uniform(0, 4) == 0) pred_cols.push_back(c);
      }
      std::vector<Predicate> preds;
      for (uint32_t c : pred_cols) preds.push_back(RandomPredicate(c, rng));
      std::vector<uint32_t> cols = out;
      cols.insert(cols.end(), pred_cols.begin(), pred_cols.end());
      const ColumnSet set(cols);
      SCOPED_TRACE("round " + std::to_string(round));

      Table projected("projected", WideSchema(), 1500);
      const uint64_t bytes_before = a->payload_bytes_read();
      uint64_t bytes = 0;
      for (size_t id = 0; id < a->num_blocks(); ++id) {
        StatusOr<uint64_t> got = a->ReadBlock(id, set, &reused);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        bytes += *got;
        // The reused image holds the spine and the requested extents
        // byte for byte as the full reload does.
        const DataBlock& whole = *full.frozen_block(id);
        std::vector<uint64_t> begins;
        ASSERT_TRUE(whole.Extents(&begins).ok());
        EXPECT_EQ(std::memcmp(reused.raw_bytes(), whole.raw_bytes(),
                              DataBlock::SpineBytes(kWideCols)),
                  0);
        uint64_t expect_bytes = DataBlock::SpineBytes(kWideCols);
        for (uint32_t i = 0; i < set.size(kWideCols); ++i) {
          const uint32_t c = set.at(i);
          EXPECT_EQ(std::memcmp(reused.raw_bytes() + begins[c],
                                whole.raw_bytes() + begins[c],
                                begins[c + 1] - begins[c]),
                    0)
              << "attribute " << c;
          expect_bytes += begins[c + 1] - begins[c];
        }
        EXPECT_EQ(*got, expect_bytes);
        // A fresh image per block for the scan comparison below.
        DataBlock image;
        ASSERT_TRUE(a->ReadBlock(id, set, &image).ok());
        bytes += expect_bytes;
        projected.AppendFrozen(std::move(image));
      }
      EXPECT_EQ(a->payload_bytes_read() - bytes_before, bytes);

      for (ScanMode mode :
           {ScanMode::kJit, ScanMode::kVectorized, ScanMode::kVectorizedSarg,
            ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
        EXPECT_EQ(ScanFingerprint(projected, out, preds, mode),
                  ScanFingerprint(full, out, preds, mode))
            << ScanModeName(mode);
      }
    }
    EXPECT_EQ(ScanFingerprint(full, {0, 3, 4, 7}, {}, ScanMode::kDataBlocks),
              ScanFingerprint(src, {0, 3, 4, 7}, {}, ScanMode::kDataBlocks));
    std::remove(path.c_str());
  }
}

/// Attribute extents of block `id` of the archive at `path`, from a clean
/// full read.
std::vector<uint64_t> BlockExtents(const std::string& path, size_t id) {
  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  EXPECT_TRUE(a.ok());
  StatusOr<DataBlock> block = a->ReadBlock(id);
  EXPECT_TRUE(block.ok());
  std::vector<uint64_t> begins;
  EXPECT_TRUE(block->Extents(&begins).ok());
  return begins;
}

TEST(BlockArchiveV6, FlipInUnrequestedExtentFailsOnlyReadsThatNeedIt) {
  Table t = MakeWideTable(3000, 1500, /*psma=*/true, /*seed=*/5);
  const std::string path = "/tmp/datablocks_archive_extent_flip.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  const std::vector<uint64_t> begins = BlockExtents(path, 1);
  uint64_t offset;
  {
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    offset = a->entry(1).offset;
  }
  // Damage the string column's extent (attribute 3).
  ASSERT_GT(begins[4], begins[3] + 16);
  FlipByte(path, offset + begins[3] + 9, 0x20);

  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  ASSERT_TRUE(a.ok());
  DataBlock image;
  StatusOr<uint64_t> projected = a->ReadBlock(1, ColumnSet({0, 1, 2}), &image);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_EQ(image.num_rows(), t.chunk_rows(1));
  EXPECT_EQ(image.GetInt(0, 7), t.GetInt(MakeRowId(1, 7), 0));

  StatusOr<uint64_t> needs_it = a->ReadBlock(1, ColumnSet({3}), &image);
  ASSERT_FALSE(needs_it.ok());
  EXPECT_EQ(needs_it.status().code(), StatusCode::kCorruption);
  EXPECT_NE(needs_it.status().message().find("attribute 3"), std::string::npos)
      << needs_it.status().ToString();
  StatusOr<DataBlock> full = a->ReadBlock(1);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
  EXPECT_NE(full.status().message().find("checksum"), std::string::npos);
  EXPECT_TRUE(a->ReadBlock(0).ok());
  std::remove(path.c_str());
}

TEST(BlockArchiveV6, FlipInSpineOrRequestedExtentIsCorruption) {
  Table t = MakeWideTable(3000, 1500, /*psma=*/true, /*seed=*/6);
  const std::string path = "/tmp/datablocks_archive_spine_flip.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  const std::vector<uint64_t> begins = BlockExtents(path, 0);
  uint64_t offset;
  {
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    offset = a->entry(0).offset;
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> pristine((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  auto restore = [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(pristine.data(), std::streamsize(pristine.size()));
  };
  // Spine: the header and an AttrMeta of an attribute nobody requests.
  for (uint64_t at : {uint64_t(4), DataBlock::SpineBytes(9) + 20}) {
    restore();
    FlipByte(path, offset + at, 0x01);
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    DataBlock image;
    StatusOr<uint64_t> r = a->ReadBlock(0, ColumnSet({1}), &image);
    ASSERT_FALSE(r.ok()) << "spine byte " << at;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("spine"), std::string::npos)
        << r.status().ToString();
  }
  // A requested extent, first and last byte.
  for (uint64_t at : {begins[2], begins[3] - 1}) {
    restore();
    FlipByte(path, offset + at, 0x80);
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    DataBlock image;
    StatusOr<uint64_t> r = a->ReadBlock(0, ColumnSet({0, 2}), &image);
    ASSERT_FALSE(r.ok()) << "extent byte " << at;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("attribute 2"), std::string::npos)
        << r.status().ToString();
    EXPECT_TRUE(a->ReadBlock(0, ColumnSet({0, 1}), &image).ok());
  }
  std::remove(path.c_str());
}

/// Writes `block` — possibly malformed — as the only block of a fresh
/// archive at `path`. The writer computes every checksum over the bytes as
/// given, so only the structural checks stand between them and a reader.
void ArchiveAsIs(const DataBlock& block, const std::string& path) {
  StatusOr<BlockArchive> created = BlockArchive::Create(path);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(created->AppendBlock(block, 0).ok());
  ASSERT_TRUE(created->Finish().ok());
}

TEST(BlockArchiveV6, MalformedLayoutBehindValidChecksumsIsCorruption) {
  Table t = MakeWideTable(1500, 1500, /*psma=*/true, /*seed=*/8);
  const DataBlock& good = *t.frozen_block(0);
  std::vector<uint64_t> begins;
  ASSERT_TRUE(good.Extents(&begins).ok());
  const uint64_t total = good.SizeBytes();
  const std::string path = "/tmp/datablocks_archive_malformed.dbar";

  struct Case {
    const char* what;
    uint32_t col;
    std::function<void(AttrMeta&)> mutate;
  };
  const std::vector<Case> cases = {
      {"codes moved into the next extent", 0,
       [&](AttrMeta& m) { m.data_offset = begins[2] + 32; }},
      {"codes moved past the block", 2,
       [&](AttrMeta& m) { m.data_offset = total + 4096; }},
      {"offset that wraps around", 2,
       [](AttrMeta& m) { m.data_offset = UINT64_MAX - 16; }},
      {"dictionary moved outside", 3,
       [&](AttrMeta& m) { m.dict_offset = begins[7]; }},
      {"string area moved outside", 3,
       [&](AttrMeta& m) { m.string_offset = total - 8; }},
      {"dictionary shrunk below its codes", 3,
       [](AttrMeta& m) { m.dict_count = 1; }},
      {"NULL bitmap moved past the block", 4,
       [&](AttrMeta& m) { m.null_offset = total - 8; }},
      {"misaligned codes", 0, [](AttrMeta& m) { m.data_offset += 4; }},
      {"bad code width", 1, [](AttrMeta& m) { m.code_width = 3; }},
      {"unknown scheme", 6, [](AttrMeta& m) { m.compression = 9; }},
      {"raw values narrower than their type", 0,
       [](AttrMeta& m) { m.compression = uint8_t(Compression::kRaw); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    DataBlock bad;
    bad.ResizeForFill(total);
    std::memcpy(bad.fill_bytes(), good.raw_bytes(), total);
    AttrMeta meta;
    uint8_t* at = bad.fill_bytes() + sizeof(BlockHeader) +
                  uint64_t(c.col) * sizeof(AttrMeta);
    std::memcpy(&meta, at, sizeof(meta));
    c.mutate(meta);
    std::memcpy(at, &meta, sizeof(meta));

    EXPECT_EQ(DataBlock::FromBytes(bad.raw_bytes(), total).status().code(),
              StatusCode::kCorruption);
    ArchiveAsIs(bad, path);
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    DataBlock image;
    StatusOr<uint64_t> projected = a->ReadBlock(0, ColumnSet({c.col}), &image);
    ASSERT_FALSE(projected.ok());
    EXPECT_EQ(projected.status().code(), StatusCode::kCorruption);
    StatusOr<DataBlock> full = a->ReadBlock(0);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Point reads (format v7): the spine plus the pages that hold one row
// ---------------------------------------------------------------------------

/// (col, row) of block `id` read through a fresh partial image: its value,
/// or the Status of the failed read. `bytes` receives the bytes read.
StatusOr<Value> ReadRowValue(const BlockArchive& a, size_t id, uint32_t col,
                             uint32_t row, uint64_t* bytes = nullptr) {
  PartialBlock image;
  StatusOr<uint64_t> got = a.ReadRow(id, col, row, &image);
  if (!got.ok()) return got.status();
  if (bytes != nullptr) *bytes = *got;
  return image.block().GetValue(col, row);
}

/// Offset of row `row`'s code of attribute `col` in `block`.
uint64_t CodeOffset(const DataBlock& block, uint32_t col, uint32_t row) {
  return block.attr(col).data_offset +
         uint64_t(row) * block.attr(col).code_width;
}

TEST(BlockArchiveV7, PointReadsFetchOnlyTheRowsPages) {
  constexpr uint32_t kRows = 12000;
  Table t = MakeWideTable(kRows, kRows, /*psma=*/true, /*seed=*/21);
  const DataBlock& whole = *t.frozen_block(0);
  const std::string path = "/tmp/datablocks_archive_rows.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  std::vector<uint64_t> begins;
  ASSERT_TRUE(whole.Extents(&begins).ok());

  // A fresh image per read: the spine plus at most the pages of the NULL
  // word, the code, the dictionary entry and a string that straddles a
  // page boundary.
  const uint64_t cap = DataBlock::SpineBytes(kWideCols) +
                       5 * DataBlock::kPageBytes;
  Rng rng(3);
  std::vector<uint32_t> rows = {0, 1, 2047, 2048, 4095, 4096, kRows - 1};
  for (int i = 0; i < 40; ++i)
    rows.push_back(uint32_t(rng.Uniform(0, kRows - 1)));
  for (uint32_t row : rows) {
    for (uint32_t col = 0; col < kWideCols; ++col) {
      uint64_t bytes = 0;
      StatusOr<Value> v = ReadRowValue(*a, 0, col, row, &bytes);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      EXPECT_TRUE(*v == whole.GetValue(col, row)) << col << "/" << row;
      EXPECT_LE(bytes, cap) << col << "/" << row;
    }
  }
  // The id codes span several pages, of which a read fetched one.
  ASSERT_GT(begins[1] - begins[0], 4 * DataBlock::kPageBytes);

  // One image across reads gains pages: a row it serves reads nothing,
  // and no page is fetched twice.
  PartialBlock image;
  const uint64_t pages_before = a->payload_pages_read();
  for (uint32_t row : rows) {
    for (uint32_t col = 0; col < kWideCols; ++col) {
      if (image.Serves(col, row)) {
        EXPECT_TRUE(image.block().GetValue(col, row) ==
                    whole.GetValue(col, row));
        continue;
      }
      StatusOr<uint64_t> got = a->ReadRow(0, col, row, &image);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_GT(*got, 0u);
      ASSERT_TRUE(image.Serves(col, row));
      EXPECT_TRUE(image.block().GetValue(col, row) ==
                  whole.GetValue(col, row));
    }
  }
  std::vector<uint64_t> first;
  DataBlock::FirstPages(begins, &first);
  EXPECT_LE(a->payload_pages_read() - pages_before, first.back());
  uint64_t present = 0;
  for (uint64_t p = 0; p < first.back(); ++p) present += image.HasPage(p);
  EXPECT_EQ(a->payload_pages_read() - pages_before, present);
  std::remove(path.c_str());
}

TEST(BlockArchiveV7, FlippedPageFailsOnlyRowsOnThatPage) {
  constexpr uint32_t kRows = 12000;
  Table t = MakeWideTable(kRows, kRows, /*psma=*/true, /*seed=*/22);
  const DataBlock& whole = *t.frozen_block(0);
  const std::string path = "/tmp/datablocks_archive_page_flip.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  std::vector<uint64_t> begins;
  ASSERT_TRUE(whole.Extents(&begins).ok());
  // Attribute 2 holds raw doubles, 8 bytes a row: rows 2000 and 10 sit on
  // different pages of its extent.
  constexpr uint32_t kCol = 2, kBad = 2000, kGood = 10;
  const uint64_t bad_at = CodeOffset(whole, kCol, kBad);
  ASSERT_NE((bad_at - begins[kCol]) / DataBlock::kPageBytes,
            (CodeOffset(whole, kCol, kGood) - begins[kCol]) /
                DataBlock::kPageBytes);
  uint64_t offset;
  {
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    offset = a->entry(0).offset;
  }
  FlipByte(path, offset + bad_at + 3, 0x10);

  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  StatusOr<Value> bad = ReadRowValue(*a, 0, kCol, kBad);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("attribute 2 page"),
            std::string::npos)
      << bad.status().ToString();
  StatusOr<Value> good = ReadRowValue(*a, 0, kCol, kGood);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(*good == whole.GetValue(kCol, kGood));
  // The other columns of the bad row are on other pages.
  StatusOr<Value> other = ReadRowValue(*a, 0, 0, kBad);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_TRUE(*other == whole.GetValue(0, kBad));
  // A scan of the column reads every page of it, so it fails.
  DataBlock image;
  StatusOr<uint64_t> scan = a->ReadBlock(0, ColumnSet({kCol}), &image);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(a->ReadBlock(0, ColumnSet({0, 3}), &image).ok());
  std::remove(path.c_str());
}

TEST(BlockArchiveV7, CorruptChecksumTableIsCorruption) {
  Table t = MakeWideTable(2 * 6000, 6000, /*psma=*/true, /*seed=*/23);
  const std::string path = "/tmp/datablocks_archive_page_table.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  ArchiveEntry e;
  {
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok());
    e = a->entry(0);
  }
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> pristine((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  // Block 0's table follows its payload and bitmap: a flip in its head
  // (an extent start) and one among its page checksums.
  const uint64_t table_at = e.offset + e.block_bytes + e.bitmap_words * 8;
  const uint64_t head = (2 + uint64_t(kWideCols)) * 8;
  for (uint64_t at : {table_at + 2 * 8 + 1, table_at + head + 5 * 8 + 2}) {
    SCOPED_TRACE(at - table_at);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), std::streamsize(pristine.size()));
    }
    FlipByte(path, at, 0x08);
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    StatusOr<Value> row = ReadRowValue(*a, 0, 1, 7);
    ASSERT_FALSE(row.ok());
    EXPECT_EQ(row.status().code(), StatusCode::kCorruption);
    EXPECT_NE(row.status().message().find("checksum table"),
              std::string::npos)
        << row.status().ToString();
    EXPECT_EQ(a->ReadBlock(0).status().code(), StatusCode::kCorruption);
    StatusOr<Value> other = ReadRowValue(*a, 1, 1, 7);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    EXPECT_TRUE(*other == t.GetValue(MakeRowId(1, 7), 1));
  }
  std::remove(path.c_str());
}

TEST(BlockArchiveV7, MalformedRowBehindValidChecksumsIsCorruption) {
  constexpr uint32_t kRows = 6000;
  Table t = MakeWideTable(kRows, kRows, /*psma=*/true, /*seed=*/24);
  const DataBlock& good = *t.frozen_block(0);
  const uint64_t total = good.SizeBytes();
  constexpr uint32_t kName = 3;  // dictionary strings
  const AttrMeta& m = good.attr(kName);
  ASSERT_EQ(Compression(m.compression), Compression::kDictionary);
  ASSERT_GE(m.code_width, 2);
  const std::string path = "/tmp/datablocks_archive_bad_row.dbar";
  constexpr uint32_t kBad = 100, kNeighbour = 101;

  /// `good` with `mutate` applied to its bytes, archived as is: every
  /// checksum is valid, only the row check stands in the way.
  auto archive_mutated = [&](const std::function<void(uint8_t*)>& mutate) {
    DataBlock bad;
    bad.ResizeForFill(total);
    std::memcpy(bad.fill_bytes(), good.raw_bytes(), total);
    mutate(bad.fill_bytes());
    ArchiveAsIs(bad, path);
  };
  auto expect_bad_row = [&](const char* why) {
    SCOPED_TRACE(why);
    StatusOr<BlockArchive> a = BlockArchive::Open(path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    StatusOr<Value> bad = ReadRowValue(*a, 0, kName, kBad);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
    EXPECT_NE(bad.status().message().find(why), std::string::npos)
        << bad.status().ToString();
    // The neighbour's code sits on the same page, which is intact.
    PartialBlock image;
    StatusOr<uint64_t> read = a->ReadRow(0, kName, kNeighbour, &image);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(image.block().GetStringView(kName, kNeighbour),
              good.GetStringView(kName, kNeighbour));
    // The image holds the bad row's code page, yet it does not serve it,
    // and a read through it fails the same way.
    EXPECT_FALSE(image.Serves(kName, kBad));
    StatusOr<uint64_t> again = a->ReadRow(0, kName, kBad, &image);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kCorruption);
    // A full read runs Validate over every code and entry.
    EXPECT_EQ(a->ReadBlock(0).status().code(), StatusCode::kCorruption);
  };

  // A code at dict_count.
  archive_mutated([&](uint8_t* buf) {
    const uint64_t code = m.dict_count;
    std::memcpy(buf + CodeOffset(good, kName, kBad), &code, m.code_width);
  });
  expect_bad_row("dictionary code out of range");
  // An entry whose string runs past the extent.
  archive_mutated([&](uint8_t* buf) {
    const uint64_t code = good.ReadCode(kName, kBad);
    StringDictRef ref;
    uint8_t* at = buf + m.dict_offset + code * sizeof(StringDictRef);
    std::memcpy(&ref, at, sizeof(ref));
    ref.length = 0x7fffffff;
    std::memcpy(at, &ref, sizeof(ref));
  });
  ASSERT_NE(good.ReadCode(kName, kBad), good.ReadCode(kName, kNeighbour));
  expect_bad_row("dictionary string outside the extent");
  std::remove(path.c_str());
}

TEST(BlockSummaryBlob, MalformedBlobsAreCorruption) {
  Table t = MakeWideTable(1500, 1500, /*psma=*/true, /*seed=*/9);
  std::vector<uint8_t> blob;
  BlockSummary::Extract(*t.frozen_block(0)).AppendTo(&blob);
  ASSERT_TRUE(BlockSummary::FromBytes(blob.data(), blob.size()).ok());
  // Every truncation, a byte too many, an absurd column count and an
  // absurd string length.
  for (uint64_t n = 0; n < blob.size(); n += 7) {
    EXPECT_EQ(BlockSummary::FromBytes(blob.data(), n).status().code(),
              StatusCode::kCorruption)
        << n;
  }
  std::vector<uint8_t> longer = blob;
  longer.push_back(0);
  EXPECT_FALSE(BlockSummary::FromBytes(longer.data(), longer.size()).ok());
  std::vector<uint8_t> ncols = blob;
  std::memset(ncols.data() + 4, 0xff, 4);
  EXPECT_FALSE(BlockSummary::FromBytes(ncols.data(), ncols.size()).ok());
  std::vector<uint8_t> strlen = blob;
  std::memset(strlen.data() + 8 + 24, 0xff, 4);  // column 0's min_str length
  EXPECT_FALSE(BlockSummary::FromBytes(strlen.data(), strlen.size()).ok());
}

TEST(BlockSummaryBlob, OpenRefusesMalformedSummaryBehindValidIndexChecksum) {
  Table t = MakeTable(2048, 1024, 0);
  const std::string path = "/tmp/datablocks_archive_bad_summary.dbar";
  ASSERT_TRUE(BlockArchive::Save(t, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  uint64_t index_offset;
  uint32_t blocks;
  std::memcpy(&blocks, file.data() + 8, 4);
  std::memcpy(&index_offset, file.data() + 16, 8);
  const uint64_t blob_at =
      index_offset + uint64_t(blocks) * sizeof(ArchiveEntry) + 8;
  ArchiveEntry e0;
  std::memcpy(&e0, file.data() + index_offset, sizeof(e0));
  ASSERT_GT(e0.summary_bytes, 8u);
  // Block 0's summary claims 2^32-1 columns; the index checksum is
  // recomputed, so only the summary parser can catch it.
  std::memset(file.data() + blob_at + e0.summary_offset + 4, 0xff, 4);
  const uint64_t sum = BlockArchive::Checksum(file.data() + index_offset,
                                              file.size() - 8 - index_offset);
  std::memcpy(file.data() + file.size() - 8, &sum, 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(file.data(), std::streamsize(file.size()));
  }
  StatusOr<BlockArchive> a = BlockArchive::Open(path);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kCorruption);
  EXPECT_NE(a.status().message().find("summary"), std::string::npos)
      << a.status().ToString();

  // A well-formed summary of some other block is refused the same way.
  {
    StatusOr<BlockArchive> created = BlockArchive::Create(path);
    ASSERT_TRUE(created.ok());
    BlockSummary other = BlockSummary::Extract(*t.frozen_block(0));
    Table small = MakeTable(100, 1024, 0);
    ASSERT_TRUE(
        created->AppendBlock(*small.frozen_block(0), 0, nullptr, &other).ok());
    ASSERT_TRUE(created->Finish().ok());
  }
  StatusOr<BlockArchive> b = BlockArchive::Open(path);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
