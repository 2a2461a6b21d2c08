// BlockArchive, the eviction spill file: per-block random access, per-page
// checksums, projected reads of a column subset and point reads of one
// row — round trips of blocks containing string dictionaries, a file that
// holds nothing but block bytes, release of a block in place, and the
// fault model: every corruption of the live file (bit-flipped payload,
// tail or spine, swapped stripes, truncated block, malformed layout or row
// behind valid checksums) surfaces as a typed Status, never as a process
// abort. Each case damages the file through a second descriptor and reads
// it through the same BlockArchive that wrote it.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
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

/// XORs one byte at `offset` of `path` with `mask`, in place.
void FlipByte(const std::string& path, uint64_t offset, char mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(std::streamoff(offset));
  char byte;
  f.read(&byte, 1);
  byte ^= mask;
  f.seekp(std::streamoff(offset));
  f.write(&byte, 1);
}

std::vector<char> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

/// Overwrites `path` with `bytes` in place (same file, same length).
void WriteInPlace(const std::string& path, const std::vector<char>& bytes) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.write(bytes.data(), std::streamsize(bytes.size()));
}

/// A spill file at `path` holding every chunk of `t`, block id = chunk.
BlockArchive SpillAll(const Table& t, const std::string& path) {
  StatusOr<BlockArchive> a = BlockArchive::Create(path);
  EXPECT_TRUE(a.ok()) << a.status().ToString();
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    StatusOr<size_t> id = a->AppendBlock(*t.frozen_block(c), uint32_t(c));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, c);
  }
  return std::move(*a);
}

bool SameBytes(const DataBlock& a, const DataBlock& b) {
  return a.SizeBytes() == b.SizeBytes() &&
         std::memcmp(a.raw_bytes(), b.raw_bytes(), a.SizeBytes()) == 0;
}

/// A scan's read of `columns` of block `id` of `a` into `image`.
StatusOr<uint64_t> ScanRead(const BlockArchive& a, size_t id,
                            const ColumnSet& columns, BlockImage* image) {
  return a.Read(id, BlockRead::Scan(columns, image));
}

/// A point read of row `row`, attribute `col` of block `id` into `image`.
StatusOr<uint64_t> PointRead(const BlockArchive& a, size_t id, uint32_t col,
                             uint32_t row, BlockImage* image) {
  return a.Read(id, BlockRead::Point(col, row, image));
}

TEST(BlockArchive, RandomAccessRoundTripWithStrings) {
  Table t = MakeTable(10000, 1024, /*delete_every=*/0);
  const std::string path = "/tmp/datablocks_archive_rt.dbar";
  BlockArchive archive = SpillAll(t, path);
  ASSERT_EQ(archive.num_blocks(), t.num_chunks());

  // The file is the blocks back to back and nothing else: no header,
  // checksum table or index.
  uint64_t block_bytes = 0;
  for (size_t c = 0; c < t.num_chunks(); ++c)
    block_bytes += t.frozen_block(c)->SizeBytes();
  EXPECT_EQ(archive.PayloadBytes(), block_bytes);
  EXPECT_EQ(std::filesystem::file_size(path), archive.PayloadBytes());

  // Random access: read blocks out of order, verify entries line up.
  const std::vector<ArchiveEntry> entries = archive.EntriesSnapshot();
  for (size_t i = archive.num_blocks(); i-- > 0;) {
    StatusOr<DataBlock> block = archive.ReadBlock(i);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_TRUE(SameBytes(*block, *t.frozen_block(i))) << i;
    EXPECT_EQ(entries[i].chunk_index, uint32_t(i));
    EXPECT_EQ(entries[i].row_count, t.chunk_rows(i));
    // String dictionary round trip: point access into the reloaded block.
    EXPECT_EQ(block->GetStringView(2, 0),
              t.GetStringView(MakeRowId(i, 0), 2));
  }

  // A table of the reloaded blocks scans as the original does.
  Table reloaded("t2", TestTableSchema(), 1024);
  for (size_t i = 0; i < archive.num_blocks(); ++i)
    reloaded.AppendFrozen(archive.ReadBlock(i).value());
  EXPECT_EQ(reloaded.num_rows(), t.num_rows());
  EXPECT_TRUE(FullScan(t) == FullScan(reloaded));
  std::remove(path.c_str());
}

TEST(BlockArchiveFaults, BitFlippedPayloadFailsThatBlockOnly) {
  Table t = MakeTable(2000, 1024, 0);
  const std::string path = "/tmp/datablocks_archive_corrupt.dbar";
  BlockArchive archive = SpillAll(t, path);

  // Flip one payload byte past the block header of block 0: only reads of
  // the damaged block fail.
  FlipByte(path, archive.EntriesSnapshot()[0].offset + 256, 0x40);
  StatusOr<DataBlock> bad = archive.ReadBlock(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
      << bad.status().ToString();
  // Other blocks still read fine.
  StatusOr<DataBlock> ok = archive.ReadBlock(1);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_rows(), t.chunk_rows(1));
  std::remove(path.c_str());
}

TEST(BlockArchiveFaults, TruncatedBlockIsCorruption) {
  // A file cut short behind the archive's back: the last block's read runs
  // into the end of the file, the blocks before it stay readable.
  const Table t = MakeTable(4096, 1024, 0);
  const std::string path = "/tmp/datablocks_archive_torn.dbar";
  BlockArchive archive = SpillAll(t, path);
  const ArchiveEntry last = archive.EntriesSnapshot().back();
  std::filesystem::resize_file(path, last.offset + last.block_bytes / 2);
  StatusOr<DataBlock> torn = archive.ReadBlock(archive.num_blocks() - 1);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
  EXPECT_NE(torn.status().message().find("end of file"), std::string::npos)
      << torn.status().ToString();
  for (size_t i = 0; i + 1 < archive.num_blocks(); ++i)
    EXPECT_TRUE(archive.ReadBlock(i).ok()) << i;
  std::remove(path.c_str());
}

// Releasing a block frees its file pages in place: the block becomes
// unreadable, its neighbours (which share its boundary pages) read back
// byte for byte with clean checksums, ids and offsets do not move, and the
// file keeps taking appends.
TEST(BlockArchive, ReleaseFreesOnlyThatBlock) {
  const Table t = MakeTable(3 * 8192, 8192, 0);
  const std::string path = "/tmp/datablocks_archive_release.dbar";
  BlockArchive archive = SpillAll(t, path);
  ASSERT_EQ(archive.num_blocks(), 3u);
  const std::vector<ArchiveEntry> before = archive.EntriesSnapshot();
  // Block 1 spans several filesystem pages, and its ends fall inside
  // pages it shares with blocks 0 and 2.
  ASSERT_GT(before[1].block_bytes, 4 * 4096u);
  struct stat st_before;
  ASSERT_EQ(::stat(path.c_str(), &st_before), 0);

  ASSERT_TRUE(archive.Release(1).ok());
  StatusOr<DataBlock> dead = archive.ReadBlock(1);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kNotFound);
  BlockImage image;
  StatusOr<uint64_t> row = PointRead(archive, 1, 0, 0, &image);
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(archive.Release(1).code(), StatusCode::kNotFound);

  for (size_t id : {size_t{0}, size_t{2}}) {
    StatusOr<DataBlock> block = archive.ReadBlock(id);
    ASSERT_TRUE(block.ok()) << id << ": " << block.status().ToString();
    EXPECT_TRUE(SameBytes(*block, *t.frozen_block(id))) << id;
  }
  const std::vector<ArchiveEntry> after = archive.EntriesSnapshot();
  for (size_t id = 0; id < 3; ++id) {
    EXPECT_EQ(after[id].offset, before[id].offset) << id;
    EXPECT_EQ(after[id].released, id == 1) << id;
  }
  // The file keeps its size; its allocated blocks fall.
  struct stat st_after;
  ASSERT_EQ(::stat(path.c_str(), &st_after), 0);
  EXPECT_EQ(uint64_t(st_after.st_size), archive.PayloadBytes());
  EXPECT_LT(st_after.st_blocks, st_before.st_blocks);

  StatusOr<size_t> id = archive.AppendBlock(*t.frozen_block(1), 1);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 3u);
  StatusOr<DataBlock> again = archive.ReadBlock(3);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(SameBytes(*again, *t.frozen_block(1)));
  std::remove(path.c_str());
}

/// Payload checksum coverage: one live archive of three blocks, then one
/// mutation per case of block 1's bytes in the file. Every mutation must
/// fail that block's read with kCorruption, and leave the blocks around it
/// readable.
class ArchiveChecksumCoverage : public ::testing::Test {
 protected:
  static constexpr uint32_t kRows = 1100;

  void SetUp() override {
    table_ = std::make_unique<Table>(MakeTable(3 * kRows, kRows, 0));
    archive_ = std::make_unique<BlockArchive>(SpillAll(*table_, path_));
    ASSERT_EQ(archive_->num_blocks(), 3u);
    entry_ = archive_->EntriesSnapshot()[1];
    pristine_ = ReadFile(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void Check(const std::string& what,
             const std::function<void(std::vector<char>&)>& mutate) {
    SCOPED_TRACE(what);
    std::vector<char> file = pristine_;
    mutate(file);
    WriteInPlace(path_, file);
    EXPECT_TRUE(archive_->ReadBlock(0).ok());
    StatusOr<DataBlock> bad = archive_->ReadBlock(1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
        << bad.status().ToString();
    EXPECT_TRUE(archive_->ReadBlock(2).ok());
    WriteInPlace(path_, pristine_);
    EXPECT_TRUE(archive_->ReadBlock(1).ok());
  }

  const std::string path_ = "/tmp/datablocks_archive_coverage.dbar";
  std::unique_ptr<Table> table_;
  std::unique_ptr<BlockArchive> archive_;
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
  // The last byte of a checksummed region whose length is not a multiple
  // of 64: it sits past the region's last full stripe.
  const DataBlock& block = *table_->frozen_block(1);
  std::vector<uint64_t> begins;
  ASSERT_TRUE(block.Extents(&begins).ok());
  std::vector<uint64_t> ends = {begins[0]};  // the spine's end
  for (size_t c = 0; c + 1 < begins.size(); ++c) {
    if (begins[c + 1] > begins[c]) ends.push_back(begins[c + 1]);
  }
  uint64_t region_end = 0;
  for (size_t i = 0; i < ends.size() && region_end == 0; ++i) {
    const uint64_t begin = i == 0 ? 0 : ends[i - 1];
    // An extent's last page starts a whole number of pages in.
    const uint64_t last = i == 0 ? ends[0]
                                 : (ends[i] - begin) % DataBlock::kPageBytes;
    if (last % 64 != 0) region_end = ends[i];
  }
  ASSERT_NE(region_end, 0u);
  const uint64_t at = entry_.offset + region_end - 1;
  Check("tail", [at](std::vector<char>& f) { f[at] ^= 0x01; });
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
  BlockArchive a = SpillAll(t, path);
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
  const std::vector<ArchiveEntry> entries = a.EntriesSnapshot();
  for (size_t i = 0; i < a.num_blocks(); ++i) {
    dirty_heap(entries[i].block_bytes);
    StatusOr<DataBlock> block = a.ReadBlock(i);
    ASSERT_TRUE(block.ok());
    expect_zero_padding(*block);
  }
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
  EXPECT_EQ(std::filesystem::file_size(path), archive.PayloadBytes());
  // Finish seals the file: appends are refused, reads go on.
  ASSERT_TRUE(archive.Finish().ok());
  StatusOr<size_t> late = archive.AppendBlock(*t.frozen_block(0), 0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(archive.num_blocks(), t.num_chunks());
  for (size_t i = 0; i < archive.num_blocks(); ++i)
    EXPECT_TRUE(archive.ReadBlock(i).ok()) << i;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Projected reads: the spine plus a column subset
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

Table MakeWideTable(uint32_t n, uint32_t chunk_capacity, uint64_t seed) {
  Table t("wide", WideSchema(), chunk_capacity);
  Rng rng(seed);
  for (uint32_t i = 0; i < n; ++i) {
    const bool null_opt = rng.Uniform(0, 4) == 0;
    const bool null_tag = rng.Uniform(0, 3) == 0;
    t.Insert({Cell::Int(int64_t(i) * 3),
              Cell::Int(rng.Uniform(0, 9)),
              Cell::Double(double(rng.Uniform(0, 100000)) / 100.0),
              Cell::Str("name_" + std::to_string(rng.Uniform(0, 300))),
              null_opt ? Cell::Null() : Cell::Int(rng.Uniform(-50, 50)),
              Cell::Null(),
              Cell::Int(42),
              null_tag
                  ? Cell::Null()
                  : Cell::Str(std::string(1, char('a' + rng.Uniform(0, 5)))),
              Cell::Str("same"),
              Cell::Int(9000 + rng.Uniform(0, 365))});
  }
  t.FreezeAll();
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

TEST(BlockArchiveProjected, ProjectedReadsScanLikeFullReloads) {
  Table src = MakeWideTable(3 * 1500 + 700, 1500, /*seed=*/11);
  const std::string path = "/tmp/datablocks_archive_projected.dbar";
  BlockArchive a = SpillAll(src, path);
  ASSERT_EQ(a.num_blocks(), 4u);

  Table full("full", WideSchema(), 1500);
  for (size_t id = 0; id < a.num_blocks(); ++id) {
    StatusOr<DataBlock> block = a.ReadBlock(id);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    full.AppendFrozen(std::move(*block));
  }

  Rng rng(101);
  BlockImage reused;  // one image refilled across blocks, as a scan does
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
    const uint64_t bytes_before = a.payload_bytes_read();
    uint64_t bytes = 0;
    for (size_t id = 0; id < a.num_blocks(); ++id) {
      reused.Clear();
      StatusOr<uint64_t> got = ScanRead(a, id, set, &reused);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      bytes += *got;
      // The reused image holds the spine and the requested extents
      // byte for byte as the full reload does.
      const DataBlock& whole = *full.frozen_block(id);
      std::vector<uint64_t> begins;
      ASSERT_TRUE(whole.Extents(&begins).ok());
      EXPECT_EQ(std::memcmp(reused.block().raw_bytes(), whole.raw_bytes(),
                            DataBlock::SpineBytes(kWideCols)),
                0);
      uint64_t expect_bytes = DataBlock::SpineBytes(kWideCols);
      for (uint32_t i = 0; i < set.size(kWideCols); ++i) {
        const uint32_t c = set.at(i);
        EXPECT_EQ(std::memcmp(reused.block().raw_bytes() + begins[c],
                              whole.raw_bytes() + begins[c],
                              begins[c + 1] - begins[c]),
                  0)
            << "attribute " << c;
        expect_bytes += begins[c + 1] - begins[c];
      }
      EXPECT_EQ(*got, expect_bytes);
      // A fresh image per block for the scan comparison below.
      BlockImage image;
      ASSERT_TRUE(ScanRead(a, id, set, &image).ok());
      bytes += expect_bytes;
      projected.AppendFrozen(image.TakeBlock());
    }
    EXPECT_EQ(a.payload_bytes_read() - bytes_before, bytes);

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

/// Attribute extents of block `id` of `a`, from a clean full read.
std::vector<uint64_t> BlockExtents(const BlockArchive& a, size_t id) {
  StatusOr<DataBlock> block = a.ReadBlock(id);
  EXPECT_TRUE(block.ok());
  std::vector<uint64_t> begins;
  EXPECT_TRUE(block->Extents(&begins).ok());
  return begins;
}

TEST(BlockArchiveProjected, FlipInUnrequestedExtentFailsOnlyReadsThatNeedIt) {
  Table t = MakeWideTable(3000, 1500, /*seed=*/5);
  const std::string path = "/tmp/datablocks_archive_extent_flip.dbar";
  BlockArchive a = SpillAll(t, path);
  const std::vector<uint64_t> begins = BlockExtents(a, 1);
  // Damage the string column's extent (attribute 3).
  ASSERT_GT(begins[4], begins[3] + 16);
  FlipByte(path, a.EntriesSnapshot()[1].offset + begins[3] + 9, 0x20);

  BlockImage image;
  StatusOr<uint64_t> projected = ScanRead(a, 1, ColumnSet({0, 1, 2}), &image);
  ASSERT_TRUE(projected.ok()) << projected.status().ToString();
  EXPECT_EQ(image.block().num_rows(), t.chunk_rows(1));
  EXPECT_EQ(image.block().GetInt(0, 7), t.GetInt(MakeRowId(1, 7), 0));

  StatusOr<uint64_t> needs_it = ScanRead(a, 1, ColumnSet({3}), &image);
  ASSERT_FALSE(needs_it.ok());
  EXPECT_EQ(needs_it.status().code(), StatusCode::kCorruption);
  EXPECT_NE(needs_it.status().message().find("attribute 3"), std::string::npos)
      << needs_it.status().ToString();
  StatusOr<DataBlock> full = a.ReadBlock(1);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
  EXPECT_NE(full.status().message().find("checksum"), std::string::npos);
  EXPECT_TRUE(a.ReadBlock(0).ok());
  std::remove(path.c_str());
}

TEST(BlockArchiveProjected, FlipInSpineOrRequestedExtentIsCorruption) {
  Table t = MakeWideTable(3000, 1500, /*seed=*/6);
  const std::string path = "/tmp/datablocks_archive_spine_flip.dbar";
  BlockArchive a = SpillAll(t, path);
  const std::vector<uint64_t> begins = BlockExtents(a, 0);
  const uint64_t offset = a.EntriesSnapshot()[0].offset;
  // Spine: the header and an AttrMeta of an attribute nobody requests.
  for (uint64_t at : {uint64_t(4), DataBlock::SpineBytes(9) + 20}) {
    FlipByte(path, offset + at, 0x01);
    BlockImage image;
    StatusOr<uint64_t> r = ScanRead(a, 0, ColumnSet({1}), &image);
    ASSERT_FALSE(r.ok()) << "spine byte " << at;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("spine"), std::string::npos)
        << r.status().ToString();
    FlipByte(path, offset + at, 0x01);  // undo
  }
  // A requested extent, first and last byte.
  for (uint64_t at : {begins[2], begins[3] - 1}) {
    FlipByte(path, offset + at, 0x80);
    BlockImage image;
    StatusOr<uint64_t> r = ScanRead(a, 0, ColumnSet({0, 2}), &image);
    ASSERT_FALSE(r.ok()) << "extent byte " << at;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    EXPECT_NE(r.status().message().find("attribute 2"), std::string::npos)
        << r.status().ToString();
    EXPECT_TRUE(ScanRead(a, 0, ColumnSet({0, 1}), &image).ok());
    FlipByte(path, offset + at, 0x80);  // undo
  }
  EXPECT_TRUE(a.ReadBlock(0).ok());
  std::remove(path.c_str());
}

/// Writes `block` — possibly malformed — as the only block of a fresh
/// archive at `path`. The writer computes every checksum over the bytes as
/// given, so only the structural checks stand between them and a reader.
BlockArchive ArchiveAsIs(const DataBlock& block, const std::string& path) {
  StatusOr<BlockArchive> created = BlockArchive::Create(path);
  EXPECT_TRUE(created.ok());
  EXPECT_TRUE(created->AppendBlock(block, 0).ok());
  return std::move(*created);
}

TEST(BlockArchiveProjected, MalformedLayoutBehindValidChecksumsIsCorruption) {
  Table t = MakeWideTable(1500, 1500, /*seed=*/8);
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
      {"string dictionary grown past the extent", 3,
       [](AttrMeta& m) { m.dict_count = UINT32_MAX; }},
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
    BlockImage bad;
    std::memcpy(bad.Reset(total), good.raw_bytes(), total);
    AttrMeta meta;
    uint8_t* at = bad.buffer() + sizeof(BlockHeader) +
                  uint64_t(c.col) * sizeof(AttrMeta);
    std::memcpy(&meta, at, sizeof(meta));
    c.mutate(meta);
    std::memcpy(at, &meta, sizeof(meta));

    EXPECT_EQ(bad.block().Validate(ColumnSet::All()).code(),
              StatusCode::kCorruption);
    BlockArchive a = ArchiveAsIs(bad.block(), path);
    BlockImage image;
    StatusOr<uint64_t> projected = ScanRead(a, 0, ColumnSet({c.col}), &image);
    ASSERT_FALSE(projected.ok());
    EXPECT_EQ(projected.status().code(), StatusCode::kCorruption);
    StatusOr<DataBlock> full = a.ReadBlock(0);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Point reads: the spine plus the pages that hold one row
// ---------------------------------------------------------------------------

/// (col, row) of block `id` read through a fresh image: its value, or the
/// Status of the failed read. `bytes` receives the bytes read.
StatusOr<Value> ReadRowValue(const BlockArchive& a, size_t id, uint32_t col,
                             uint32_t row, uint64_t* bytes = nullptr) {
  BlockImage image;
  StatusOr<uint64_t> got = PointRead(a, id, col, row, &image);
  if (!got.ok()) return got.status();
  if (bytes != nullptr) *bytes = *got;
  return image.block().GetValue(col, row);
}

/// Offset of row `row`'s code of attribute `col` in `block`.
uint64_t CodeOffset(const DataBlock& block, uint32_t col, uint32_t row) {
  return block.attr(col).data_offset +
         uint64_t(row) * block.attr(col).code_width;
}

TEST(BlockArchivePoint, PointReadsFetchOnlyTheRowsPages) {
  constexpr uint32_t kRows = 12000;
  Table t = MakeWideTable(kRows, kRows, /*seed=*/21);
  const DataBlock& whole = *t.frozen_block(0);
  const std::string path = "/tmp/datablocks_archive_rows.dbar";
  BlockArchive a = SpillAll(t, path);
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
      StatusOr<Value> v = ReadRowValue(a, 0, col, row, &bytes);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      EXPECT_TRUE(*v == whole.GetValue(col, row)) << col << "/" << row;
      EXPECT_LE(bytes, cap) << col << "/" << row;
    }
  }
  // The id codes span several pages, of which a read fetched one.
  ASSERT_GT(begins[1] - begins[0], 4 * DataBlock::kPageBytes);

  // One image across reads gains pages: a row it serves reads nothing,
  // and no page is fetched twice.
  BlockImage image;
  const uint64_t pages_before = a.payload_pages_read();
  for (uint32_t row : rows) {
    for (uint32_t col = 0; col < kWideCols; ++col) {
      if (image.Serves(col, row)) {
        EXPECT_TRUE(image.block().GetValue(col, row) ==
                    whole.GetValue(col, row));
        continue;
      }
      StatusOr<uint64_t> got = PointRead(a, 0, col, row, &image);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_GT(*got, 0u);
      ASSERT_TRUE(image.Serves(col, row));
      EXPECT_TRUE(image.block().GetValue(col, row) ==
                  whole.GetValue(col, row));
    }
  }
  std::vector<uint64_t> first;
  DataBlock::FirstPages(begins, &first);
  EXPECT_LE(a.payload_pages_read() - pages_before, first.back());
  uint64_t present = 0;
  for (uint64_t p = 0; p < first.back(); ++p) present += image.HasPage(p);
  EXPECT_EQ(a.payload_pages_read() - pages_before, present);
  std::remove(path.c_str());
}

TEST(BlockArchivePoint, FlippedPageFailsOnlyRowsOnThatPage) {
  constexpr uint32_t kRows = 12000;
  Table t = MakeWideTable(kRows, kRows, /*seed=*/22);
  const DataBlock& whole = *t.frozen_block(0);
  const std::string path = "/tmp/datablocks_archive_page_flip.dbar";
  BlockArchive a = SpillAll(t, path);
  std::vector<uint64_t> begins;
  ASSERT_TRUE(whole.Extents(&begins).ok());
  // Attribute 2 holds raw doubles, 8 bytes a row: rows 2000 and 10 sit on
  // different pages of its extent.
  constexpr uint32_t kCol = 2, kBad = 2000, kGood = 10;
  const uint64_t bad_at = CodeOffset(whole, kCol, kBad);
  ASSERT_NE((bad_at - begins[kCol]) / DataBlock::kPageBytes,
            (CodeOffset(whole, kCol, kGood) - begins[kCol]) /
                DataBlock::kPageBytes);
  FlipByte(path, a.EntriesSnapshot()[0].offset + bad_at + 3, 0x10);

  StatusOr<Value> bad = ReadRowValue(a, 0, kCol, kBad);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("attribute 2 page"),
            std::string::npos)
      << bad.status().ToString();
  StatusOr<Value> good = ReadRowValue(a, 0, kCol, kGood);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(*good == whole.GetValue(kCol, kGood));
  // The other columns of the bad row are on other pages.
  StatusOr<Value> other = ReadRowValue(a, 0, 0, kBad);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_TRUE(*other == whole.GetValue(0, kBad));
  // A scan of the column reads every page of it, so it fails.
  BlockImage image;
  StatusOr<uint64_t> scan = ScanRead(a, 0, ColumnSet({kCol}), &image);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kCorruption);
  EXPECT_TRUE(ScanRead(a, 0, ColumnSet({0, 3}), &image).ok());
  std::remove(path.c_str());
}

TEST(BlockArchivePoint, MalformedRowBehindValidChecksumsIsCorruption) {
  constexpr uint32_t kRows = 6000;
  Table t = MakeWideTable(kRows, kRows, /*seed=*/24);
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
    BlockImage bad;
    std::memcpy(bad.Reset(total), good.raw_bytes(), total);
    mutate(bad.buffer());
    return ArchiveAsIs(bad.block(), path);
  };
  auto expect_bad_row = [&](const BlockArchive& a, const char* why) {
    SCOPED_TRACE(why);
    StatusOr<Value> bad = ReadRowValue(a, 0, kName, kBad);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
    EXPECT_NE(bad.status().message().find(why), std::string::npos)
        << bad.status().ToString();
    // The neighbour's code sits on the same page, which is intact.
    BlockImage image;
    StatusOr<uint64_t> read = PointRead(a, 0, kName, kNeighbour, &image);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(image.block().GetStringView(kName, kNeighbour),
              good.GetStringView(kName, kNeighbour));
    // The image holds the bad row's code page, yet it does not serve it,
    // and a read through it fails the same way.
    EXPECT_FALSE(image.Serves(kName, kBad));
    StatusOr<uint64_t> again = PointRead(a, 0, kName, kBad, &image);
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kCorruption);
    // A full read runs Validate over every code and entry.
    EXPECT_EQ(a.ReadBlock(0).status().code(), StatusCode::kCorruption);
  };

  // A code at dict_count.
  expect_bad_row(archive_mutated([&](uint8_t* buf) {
                   const uint64_t code = m.dict_count;
                   std::memcpy(buf + CodeOffset(good, kName, kBad), &code,
                               m.code_width);
                 }),
                 "dictionary code out of range");
  // An entry whose end offset, the start of the next entry, runs past the
  // extent or falls below its start. Neither entry is the neighbour's.
  const uint64_t code = good.ReadCode(kName, kBad);
  ASSERT_GT(code, 0u);
  ASSERT_NE(code, good.ReadCode(kName, kNeighbour));
  ASSERT_NE(code + 1, good.ReadCode(kName, kNeighbour));
  uint32_t begin;
  std::memcpy(&begin, good.raw_bytes() + m.dict_offset + code * 4, 4);
  for (uint32_t end : {uint32_t(0x7fffffff), begin - 1}) {
    expect_bad_row(archive_mutated([&](uint8_t* buf) {
                     std::memcpy(buf + m.dict_offset + (code + 1) * 4, &end,
                                 4);
                   }),
                   "dictionary string outside the extent");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Structural mutations: malformed spines behind valid checksums
// ---------------------------------------------------------------------------

/// `good` with one seeded mutation of its header or AttrMeta array, as the
/// bytes of a block to append: a bit flip, a boundary value in one field,
/// two attributes' offsets swapped, or total_bytes shrunk or grown with
/// the buffer cut or zero-extended to match.
std::vector<uint8_t> MutateSpine(const DataBlock& good, Rng& rng) {
  const uint64_t total = good.SizeBytes();
  const uint32_t ncols = good.num_columns();
  std::vector<uint8_t> bytes(good.raw_bytes(), good.raw_bytes() + total);
  auto meta_at = [ncols, &rng](uint32_t* col) {
    *col = uint32_t(rng.Uniform(0, int64_t(ncols) - 1));
    return sizeof(BlockHeader) + uint64_t(*col) * sizeof(AttrMeta);
  };
  // Byte offsets and widths of the fields a mutation targets.
  struct Field {
    uint64_t offset;
    uint32_t width;
  };
  // The offsets come last: a swap picks from them.
  constexpr Field kMetaFields[] = {{offsetof(AttrMeta, compression), 1},
                                   {offsetof(AttrMeta, type), 1},
                                   {offsetof(AttrMeta, code_width), 1},
                                   {offsetof(AttrMeta, flags), 1},
                                   {offsetof(AttrMeta, dict_count), 4},
                                   {offsetof(AttrMeta, psma_entries), 4},
                                   {offsetof(AttrMeta, min_val), 8},
                                   {offsetof(AttrMeta, max_val), 8},
                                   {offsetof(AttrMeta, psma_offset), 8},
                                   {offsetof(AttrMeta, dict_offset), 8},
                                   {offsetof(AttrMeta, data_offset), 8},
                                   {offsetof(AttrMeta, string_offset), 8},
                                   {offsetof(AttrMeta, null_offset), 8}};
  constexpr int64_t kFirstOffsetField = 8;
  constexpr Field kHeaderFields[] = {{offsetof(BlockHeader, tuple_count), 4},
                                     {offsetof(BlockHeader, attr_count), 4}};
  std::vector<uint64_t> begins;
  EXPECT_TRUE(good.Extents(&begins).ok());
  auto put = [&bytes](Field f, uint64_t v) {
    std::memcpy(bytes.data() + f.offset, &v, f.width);  // little endian
  };
  switch (rng.Uniform(0, 3)) {
    case 0: {  // a bit flip anywhere in the spine
      const uint64_t at =
          uint64_t(rng.Uniform(0, int64_t(DataBlock::SpineBytes(ncols)) - 1));
      bytes[at] ^= uint8_t(1u << rng.Uniform(0, 7));
      break;
    }
    case 1: {  // a boundary value in one field
      Field f;
      if (rng.Uniform(0, 5) == 0) {
        f = kHeaderFields[rng.Uniform(0, 1)];
      } else {
        uint32_t col;
        const uint64_t base = meta_at(&col);
        f = kMetaFields[rng.Uniform(0, int64_t(std::size(kMetaFields)) - 1)];
        f.offset += base;
      }
      const uint64_t max = f.width == 8 ? UINT64_MAX
                                        : (uint64_t(1) << (8 * f.width)) - 1;
      const uint64_t values[] = {0,
                                 1,
                                 max,
                                 max - 7,
                                 total,
                                 total - 8,
                                 total + 8,
                                 begins[rng.Uniform(0, ncols)],
                                 begins[rng.Uniform(0, ncols)] + 8,
                                 uint64_t(good.num_rows()) + 1};
      put(f, values[rng.Uniform(0, int64_t(std::size(values)) - 1)] & max);
      break;
    }
    case 2: {  // two attributes' offsets swapped
      uint32_t a, b;
      const uint64_t at_a = meta_at(&a), at_b = meta_at(&b);
      const Field f = kMetaFields[rng.Uniform(
          kFirstOffsetField, int64_t(std::size(kMetaFields)) - 1)];
      std::swap_ranges(bytes.begin() + at_a + f.offset,
                       bytes.begin() + at_a + f.offset + 8,
                       bytes.begin() + at_b + f.offset);
      break;
    }
    default: {  // total_bytes shrunk or grown, the buffer with it
      const int64_t by = rng.Uniform(1, int64_t(total / 2));
      const uint64_t size =
          rng.Uniform(0, 1) == 0 ? total - uint64_t(by) : total + uint64_t(by);
      bytes.resize(size, 0);
      put({offsetof(BlockHeader, total_bytes), 8}, size);
      break;
    }
  }
  return bytes;
}

/// Attributes of `mutated` whose AttrMeta and extent equal `good`'s while
/// the header is unchanged: a read of only these must stay intact.
std::vector<uint32_t> UntouchedColumns(const DataBlock& good,
                                       const DataBlock& mutated) {
  std::vector<uint32_t> cols;
  std::vector<uint64_t> begins, mutated_begins;
  if (std::memcmp(good.raw_bytes(), mutated.raw_bytes(),
                  sizeof(BlockHeader)) != 0 ||
      !good.Extents(&begins).ok() || !mutated.Extents(&mutated_begins).ok()) {
    return cols;
  }
  for (uint32_t c = 0; c < good.num_columns(); ++c) {
    if (std::memcmp(&good.attr(c), &mutated.attr(c), sizeof(AttrMeta)) == 0 &&
        begins[c] == mutated_begins[c] &&
        begins[c + 1] == mutated_begins[c + 1]) {
      cols.push_back(c);
    }
  }
  return cols;
}

// Seeded mutations of the header and AttrMeta fields of built blocks, made
// before AppendBlock so the checksums cover the malformed layout, each
// read back through Read in three shapes: all columns, a projected set
// and point reads of sampled rows. Every append and read is OK or
// kCorruption (never an abort, nor a sanitizer report), every value an OK
// read returns can be decoded, and a projected or point read of columns
// the mutation left alone stays OK and returns the original values.
TEST(BlockArchiveMutations, MalformedSpinesAreCorruptionOrReadIntact) {
  constexpr int kMutationsPerBlock = 1000;
  const std::string path = "/tmp/datablocks_archive_mutations.dbar";
  auto ok_or_corrupt = [](const Status& s) {
    return s.ok() || s.code() == StatusCode::kCorruption;
  };
  int appended = 0, intact_reads = 0, corrupt_reads = 0;
  for (uint64_t seed : {41, 42, 43, 44}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const uint32_t rows = seed % 2 == 0 ? 1500 : 700;
    Table t = MakeWideTable(rows, rows, seed);
    const DataBlock& good = *t.frozen_block(0);
    Rng rng(seed);
    StatusOr<BlockArchive> created = BlockArchive::Create(path);
    ASSERT_TRUE(created.ok());
    BlockArchive& a = *created;
    for (int i = 0; i < kMutationsPerBlock; ++i) {
      SCOPED_TRACE("mutation " + std::to_string(i));
      const std::vector<uint8_t> bytes = MutateSpine(good, rng);
      BlockImage mutated;
      std::memcpy(mutated.Reset(bytes.size()), bytes.data(), bytes.size());
      StatusOr<size_t> id = a.AppendBlock(mutated.block());
      ASSERT_TRUE(ok_or_corrupt(id.status())) << id.status().ToString();
      if (!id.ok()) continue;
      ++appended;
      const uint32_t n = mutated.block().num_rows();
      const uint32_t ncols = mutated.block().num_columns();
      std::vector<uint32_t> sampled;
      for (int k = 0; k < 6 && n > 0; ++k)
        sampled.push_back(uint32_t(rng.Uniform(0, int64_t(n) - 1)));
      // Decodes what an OK read claims to hold: its point accessors must
      // stay inside the block.
      auto decode = [&](const BlockImage& image, uint32_t col) {
        for (uint32_t row : sampled) (void)image.block().GetValue(col, row);
      };
      auto tally = [&](const Status& s) {
        ASSERT_TRUE(ok_or_corrupt(s)) << s.ToString();
        ++(s.ok() ? intact_reads : corrupt_reads);
      };

      // All columns.
      StatusOr<DataBlock> full = a.ReadBlock(*id);
      tally(full.status());
      if (full.ok()) {
        for (uint32_t c = 0; c < ncols; ++c)
          for (uint32_t row : sampled) (void)full->GetValue(c, row);
      }
      // A projected set: the untouched columns, or random ones.
      const std::vector<uint32_t> untouched =
          UntouchedColumns(good, mutated.block());
      std::vector<uint32_t> cols = untouched;
      if (cols.empty()) {
        for (uint32_t c = 0; c < std::min(ncols, kWideCols); ++c)
          if (rng.Uniform(0, 2) == 0) cols.push_back(c);
      }
      BlockImage image;
      StatusOr<uint64_t> projected =
          ScanRead(a, *id, ColumnSet(cols), &image);
      tally(projected.status());
      if (!untouched.empty()) {
        ASSERT_TRUE(projected.ok()) << projected.status().ToString();
        for (uint32_t c : untouched) {
          for (uint32_t row = 0; row < n; ++row) {
            ASSERT_TRUE(image.block().GetValue(c, row) ==
                        good.GetValue(c, row))
                << c << "/" << row;
          }
        }
      } else if (projected.ok()) {
        for (uint32_t c : cols) decode(image, c);
      }
      // Point reads of the sampled rows, one image across them.
      BlockImage points;
      for (uint32_t row : sampled) {
        const uint32_t col = uint32_t(rng.Uniform(0, kWideCols - 1));
        StatusOr<uint64_t> point = PointRead(a, *id, col, row, &points);
        tally(point.status());
        const bool intact = std::count(untouched.begin(), untouched.end(),
                                       col) != 0;
        if (intact) {
          ASSERT_TRUE(point.ok()) << point.status().ToString();
          EXPECT_TRUE(points.block().GetValue(col, row) ==
                      good.GetValue(col, row));
        } else if (point.ok()) {
          (void)points.block().GetValue(col, row);
        }
      }
    }
  }
  // The mix reaches every outcome.
  EXPECT_GT(appended, 4 * kMutationsPerBlock / 2);
  EXPECT_GT(intact_reads, 1000);
  EXPECT_GT(corrupt_reads, 1000);
  std::remove(path.c_str());
}

// Seeded mutations of one string dictionary's offsets in built blocks,
// made before AppendBlock: an offset lowered below its predecessor, the
// first offset non-zero, a middle offset past the string area, or the
// last offset short of or past the area's end. The mutated block is the
// archived copy of an evicted chunk. Every scan of the column, in all five
// ScanModes with and without a predicate on it, every projected read and
// every point read either fails with kCorruption or returns only strings
// that lie inside the block's string area, which runs from the column's
// string offset to the end of its extent.
TEST(BlockArchiveMutations, MalformedStringOffsetsAreCorruptionOrInside) {
  const std::string path = "/tmp/datablocks_archive_offsets.dbar";
  constexpr uint32_t kStringCols[] = {3, 7, 8};  // dictionary x2, single
  constexpr int kKinds = 5, kMutationsPerKind = 6;
  int intact = 0, corrupt = 0;
  for (uint64_t seed : {51, 52}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const uint32_t rows = seed % 2 == 0 ? 1500 : 700;
    Table src = MakeWideTable(rows, rows, seed);
    const DataBlock& good = *src.frozen_block(0);
    std::vector<uint64_t> begins;
    ASSERT_TRUE(good.Extents(&begins).ok());
    StatusOr<BlockArchive> created = BlockArchive::Create(path);
    ASSERT_TRUE(created.ok());
    BlockArchive& a = *created;
    ASSERT_TRUE(a.AppendBlock(good).ok());  // id 0: copies for AppendFrozen
    Rng rng(seed);
    for (uint32_t col : kStringCols) {
      const AttrMeta& m = good.attr(col);
      ASSERT_GT(m.dict_count, 0u);
      const uint32_t count = m.dict_count;
      const uint32_t area = uint32_t(begins[col + 1] - m.string_offset);
      for (int kind = 0; kind < kKinds; ++kind) {
        for (int i = 0; i < kMutationsPerKind; ++i) {
          SCOPED_TRACE("column " + std::to_string(col) + " kind " +
                       std::to_string(kind) + " mutation " +
                       std::to_string(i));
          BlockImage mutated;
          uint8_t* buf = mutated.Reset(good.SizeBytes());
          std::memcpy(buf, good.raw_bytes(), good.SizeBytes());
          uint32_t* off = reinterpret_cast<uint32_t*>(buf + m.dict_offset);
          const auto k = uint32_t(rng.Uniform(1, count));
          switch (kind) {
            case 0:  // below its predecessor
              if (off[k - 1] > 0) {
                off[k] = uint32_t(rng.Uniform(0, off[k - 1] - 1));
              } else {
                off[k - 1] = off[k] + uint32_t(rng.Uniform(1, 64));
              }
              break;
            case 1:  // the first one non-zero
              off[0] = uint32_t(rng.Uniform(1, off[count]));
              break;
            case 2:  // one past the string area
              off[count == 1 ? rng.Uniform(0, 1) : rng.Uniform(1, count - 1)] =
                  i == 0 ? UINT32_MAX
                         : area + uint32_t(rng.Uniform(1, 4096));
              break;
            case 3:  // the last one short of the area's end
              off[count] = uint32_t(rng.Uniform(0, off[count] - 1));
              break;
            default:  // the last one at, or past, the area's end
              off[count] = i == 0 ? area : area + uint32_t(rng.Uniform(1, 64));
              break;
          }
          StatusOr<size_t> id = a.AppendBlock(mutated.block());
          ASSERT_TRUE(id.ok()) << id.status().ToString();
          // The string area of an image or a table's batch: whatever a
          // read returns must be its bytes.
          const std::string_view bytes(
              reinterpret_cast<const char*>(buf) + m.string_offset, area);
          auto inside_bytes = [&](std::string_view v) {
            return v.size() <= area && bytes.find(v) != std::string_view::npos;
          };
          auto inside_image = [&](const BlockImage& image, std::string_view v) {
            const auto lo = reinterpret_cast<uintptr_t>(
                                image.block().raw_bytes()) + m.string_offset;
            const auto at = reinterpret_cast<uintptr_t>(v.data());
            return v.empty() ||
                   (at >= lo && at <= lo + area && v.size() <= lo + area - at);
          };
          auto tally = [&](const Status& s) {
            ASSERT_TRUE(s.ok() || s.code() == StatusCode::kCorruption)
                << s.ToString();
            ++(s.ok() ? intact : corrupt);
          };

          // A table whose only chunk is evicted, its archived copy the
          // mutated block.
          Table t("wide", WideSchema(), rows);
          StatusOr<DataBlock> copy = a.ReadBlock(0);
          ASSERT_TRUE(copy.ok());
          t.AppendFrozen(std::move(*copy));
          const size_t bad = *id;
          t.SetBlockFetcher([&a, bad](size_t, const BlockRead& read) {
            StatusOr<uint64_t> got = a.Read(bad, read);
            return got.ok() ? Status::Ok() : got.status();
          });
          ASSERT_TRUE(t.EvictChunk(0));

          for (ScanMode mode :
               {ScanMode::kJit, ScanMode::kVectorized,
                ScanMode::kVectorizedSarg, ScanMode::kDataBlocks,
                ScanMode::kDataBlocksPsma}) {
            for (bool filtered : {false, true}) {
              SCOPED_TRACE(std::string(ScanModeName(mode)) +
                           (filtered ? " filtered" : ""));
              std::vector<Predicate> preds;
              if (filtered) preds.push_back(RandomPredicate(col, rng));
              Status status;
              try {
                TableScanner scan(t, {col}, std::move(preds), mode);
                Batch b;
                while (scan.Next(&b)) {
                  for (uint32_t r = 0; r < b.count; ++r) {
                    if (b.cols[0].IsNull(r)) continue;
                    ASSERT_TRUE(inside_bytes(b.cols[0].Str(r))) << r;
                  }
                }
              } catch (const StorageException& e) {
                status = e.status();
              }
              tally(status);
            }
          }
          {
            BlockImage image;
            StatusOr<uint64_t> projected =
                ScanRead(a, bad, ColumnSet({col}), &image);
            tally(projected.status());
            for (uint32_t e = 0; projected.ok() && e < count; ++e) {
              ASSERT_TRUE(
                  inside_image(image, image.block().dict_string(col, e)));
            }
          }
          BlockImage points;
          for (uint32_t row = 0; row < rows; ++row) {
            Status status;
            try {
              const Value v = t.GetValue(MakeRowId(0, row), col);
              ASSERT_TRUE(v.is_null() || inside_bytes(v.str())) << row;
            } catch (const StorageException& e) {
              status = e.status();
            }
            tally(status);
            if (row % 16 != 0) continue;
            StatusOr<uint64_t> point = PointRead(a, bad, col, row, &points);
            tally(point.status());
            if (point.ok() && !points.block().IsNull(col, row)) {
              ASSERT_TRUE(
                  inside_image(points, points.block().GetStringView(col, row)))
                  << row;
            }
          }
        }
      }
    }
  }
  // The mix reaches both outcomes.
  EXPECT_GT(intact, 1000);
  EXPECT_GT(corrupt, 1000);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
