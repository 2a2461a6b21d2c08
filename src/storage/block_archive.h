#ifndef DATABLOCKS_STORAGE_BLOCK_ARCHIVE_H_
#define DATABLOCKS_STORAGE_BLOCK_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "datablock/block_summary.h"
#include "storage/table.h"
#include "util/status.h"

namespace datablocks {

/// One archived block's catalog record. The optional delete bitmap sits
/// right after the block's payload, and the block's checksum table after
/// that. The summary fields locate the block's serialized BlockSummary
/// inside the index summary blob — readable without touching any payload
/// bytes.
struct ArchiveEntry {
  uint64_t offset;        // file offset of the serialized block
  uint64_t block_bytes;   // length of the serialized block
  uint64_t bitmap_words;  // delete-bitmap words stored after the block
  uint64_t checksum;      // 8-lane FNV-style mix over the checksum table
  uint32_t chunk_index;   // originating chunk slot (UINT32_MAX if n/a)
  uint32_t deleted_count; // set bits in the stored delete bitmap
  uint32_t row_count;     // tuples in the block
  uint32_t attr_count;    // attributes in the block
  uint64_t summary_offset;  // offset into the index summary blob
  uint64_t summary_bytes;   // 0 = no summary stored
};
static_assert(sizeof(ArchiveEntry) == 64);

/// Eviction of frozen chunks to secondary storage (paper Section 3: "by
/// maintaining a flat structure without pointers, Data Blocks are also
/// suitable for eviction to secondary storage").
///
/// Archive format v7, the only readable one: a versioned file header, the
/// serialized blocks — each followed by its optional delete bitmap and its
/// checksum table — and an index written by Finish(): the ArchiveEntry
/// records, a blob of serialized BlockSummary records, and a trailing
/// checksum over the whole index region (so index corruption is detected,
/// not just payload corruption). The index enables per-block random
/// access, and the summary blob makes every block's SMA/PSMA metadata
/// restorable *without payload reads* — an SMA-pruned scan never has to
/// fault the block in.
///
/// Checksums are per 4 KB page, so a scan can read just its columns and a
/// point read just its row. A block's checksum table holds one checksum for
/// its spine (BlockHeader plus the AttrMeta array), one for its delete
/// bitmap, the start of each attribute's extent (DataBlock::Extents: from
/// the attribute's first region to where the next attribute's begins),
/// and then one checksum per page of every extent, pages counted from the
/// extent's start (DataBlock::kPageBytes, DataBlock::FirstPages). Every
/// payload byte is covered by exactly one of them, and the entry stores
/// the mix of the table itself. A projected ReadBlock reads whole extents
/// and verifies the spine and every page of the extents it read; the full
/// read verifies them all. ReadRow reads the spine if the image lacks it,
/// then only the pages that hold one row's value, and verifies each page
/// before use. Every checksum is an 8-lane FNV-style mix: each 64-byte
/// stripe feeds one word to each of eight independent multiply chains,
/// which the core overlaps instead of waiting on one serial chain per 8
/// bytes.
///
/// Two kinds of file use this format, and neither is ever recovered:
/// - A lifecycle manager's eviction archive is scratch. It is created
///   truncated, read only by the process that wrote it, and deleted when
///   the manager goes away; it is never finished or reopened.
/// - Save/Restore is the one snapshot. Save builds the file beside its
///   target and publishes it by rename once Finish succeeded, so a saved
///   archive is either complete or absent.
/// An archive whose index is missing, torn or fails its checksum is
/// therefore simply corrupt: Open returns kCorruption with the reason.
///
/// Failure model: every fallible operation returns Status/StatusOr instead
/// of aborting. A failed append truncates back to the last good
/// end-of-payload — pre-existing blocks stay readable. Checksums, the
/// structural checks of DataBlock::Validate and the lifecycle's quarantine
/// protect reads; any other format version is rejected. A point read's
/// row check (DataBlock::ValidateRow) stands in for Validate's full scan
/// of codes and dictionary entries, which a partial extent cannot run.
///
/// An archive is either being written (Create + AppendBlock, index kept in
/// memory, ReadBlock works on already-appended blocks) or opened read-only
/// from a finished file (Open). All methods are thread-safe.
class BlockArchive {
 public:
  static constexpr uint32_t kMagic = 0x52414244;  // "DBAR"
  static constexpr uint32_t kVersion = 7;
  static constexpr uint32_t kMinVersion = 7;  // oldest readable format

  BlockArchive() = default;
  ~BlockArchive();
  BlockArchive(BlockArchive&& o) noexcept;
  BlockArchive& operator=(BlockArchive&& o) noexcept;

  /// Creates/truncates an archive for writing.
  static StatusOr<BlockArchive> Create(const std::string& path);

  /// Opens a finished archive for random-access reads: header, version and
  /// index checksum are validated, and so is every index record. Any
  /// mismatch — a foreign file, a missing, torn or bit-flipped index, a
  /// checksum-valid index whose records or summaries are malformed — is
  /// kCorruption naming the reason.
  static StatusOr<BlockArchive> Open(const std::string& path);

  /// Appends one block (and its delete bitmap, if any); written through to
  /// the OS before returning (durability is ordered by Finish's fsync). The
  /// bitmap is snapshotted once and the entry's deleted_count is derived
  /// from that snapshot's popcount, so the stored pair is always
  /// self-consistent even if the caller's live bitmap keeps changing.
  /// `summary`, if given, is copied and persisted in the index. Returns the
  /// block's id for ReadBlock; on failure (kNoSpace for short writes /
  /// ENOSPC, kIoError otherwise) the file is truncated back so every
  /// previously appended block stays readable.
  StatusOr<size_t> AppendBlock(const DataBlock& block,
                               uint32_t chunk_index = UINT32_MAX,
                               const uint64_t* delete_bitmap = nullptr,
                               const BlockSummary* summary = nullptr);

  /// Random-access, checksum-verified read of block `id` into `out`, whose
  /// buffer is reused when large enough. Reads and verifies the spine and
  /// the extents of `columns` only; the bytes of other attributes are left
  /// undefined. With ColumnSet::All() it is the full reload: every extent
  /// and the delete bitmap are read and verified, and `delete_bitmap`, if
  /// non-null, receives the stored bitmap (empty if none was stored).
  /// Returns the payload bytes read. kCorruption on a checksum mismatch or a
  /// block that fails DataBlock::Validate(columns), kIoError on a failed
  /// read — other blocks stay readable.
  StatusOr<uint64_t> ReadBlock(
      size_t id, const ColumnSet& columns, DataBlock* out,
      std::vector<uint64_t>* delete_bitmap = nullptr) const;

  /// Point read of row `row`, attribute `col` of block `id` into `image`:
  /// the spine if `image` lacks it, then the pages that hold the row's
  /// code, its NULL-bitmap word and, for dictionaries, its entry and
  /// string bytes, where `image` lacks them. Every page is verified before
  /// it is added, and the row passes DataBlock::ValidateRow. `image` must
  /// be empty or hold pages of this block. Returns the payload bytes read.
  /// kCorruption on a checksum mismatch or malformed bytes, kIoError on a
  /// failed read.
  StatusOr<uint64_t> ReadRow(size_t id, uint32_t col, uint32_t row,
                             PartialBlock* image) const;

  /// The full reload as a fresh block.
  StatusOr<DataBlock> ReadBlock(
      size_t id, std::vector<uint64_t>* delete_bitmap = nullptr) const;

  /// Resident summary of block `id` (nullptr for blocks appended without
  /// one). Never touches the payload.
  const BlockSummary* summary(size_t id) const {
    return summaries_[id].get();
  }

  size_t num_blocks() const;  // thread-safe
  /// Entry metadata; only safe once appends are done (e.g. after Finish).
  const ArchiveEntry& entry(size_t id) const { return entries_[id]; }
  /// Copy of the whole catalog; unlike entry(), safe against concurrent
  /// appends (used by stats readers while the archive is still written).
  std::vector<ArchiveEntry> EntriesSnapshot() const;
  const std::string& path() const { return path_; }
  /// Records that the caller renamed the underlying file (compaction moves
  /// the rewritten archive onto the canonical path); the open handle
  /// follows the inode, only the reported path changes.
  void NotifyRenamed(std::string path) { path_ = std::move(path); }

  /// The 8-lane FNV-style mix behind every archive checksum, for tools and
  /// tests that check or craft archive bytes by hand.
  static uint64_t Checksum(const void* data, uint64_t n);

  /// Total bytes of archived payload (blocks + bitmaps, without metadata).
  uint64_t PayloadBytes() const;

  /// Payload reads served so far (ReadBlock calls, full or projected).
  /// Summary accesses do not count — that is the point: pruning evicted
  /// blocks must leave this at zero, and the lifecycle tests pin it down.
  uint64_t payload_reads() const;
  /// Payload bytes the successful ones fetched (spines, pages, bitmaps).
  uint64_t payload_bytes_read() const;
  /// Extent pages the successful ones fetched.
  uint64_t payload_pages_read() const;

  /// Writes the index + final header, fsyncing the payload region *before*
  /// the header publishes the index offset: that order is Save's
  /// durability, and Save publishes by rename, so a file is either finished
  /// or discarded. Appends are illegal afterwards. Destroying an unfinished
  /// archive just closes it; Open then refuses the file.
  Status Finish();

  /// Rewrites the live blocks of `src` into a fresh archive at `path`
  /// (compaction/GC): block `i` is copied — payload, bitmap and summary —
  /// iff `live[i]` is true, with checksums re-verified in transit.
  /// `id_map`, if non-null, receives old-id -> new-id (SIZE_MAX for
  /// reclaimed blocks). The result is still writable, so a lifecycle
  /// manager can keep appending after swapping it in. Any read or write
  /// failure aborts the compaction with its Status (the source is
  /// untouched; the caller removes the partial output file).
  static StatusOr<BlockArchive> Compact(const BlockArchive& src,
                                        const std::vector<bool>& live,
                                        const std::string& path,
                                        std::vector<size_t>* id_map = nullptr);

  /// A block's checksum table (see the class comment) as kept in memory:
  /// the stored words, and the extents and page ids its head gives.
  struct ChecksumTable {
    std::vector<uint64_t> words;       // as stored
    std::vector<uint64_t> begins;      // extent starts, then the block end
    std::vector<uint64_t> first_page;  // DataBlock::FirstPages(begins)

    /// Derives begins and first_page from the head of `words`; false if
    /// they are not extents of a block of `block_bytes`.
    bool Parse(uint32_t attr_count, uint64_t block_bytes);
    /// Words of the whole table, once parsed.
    uint64_t Words() const;
    uint64_t page_sum(uint64_t page) const;
  };

  // -- Whole-table conveniences -------------------------------------------

  /// Writes every frozen chunk of `table` to `path` (in chunk order),
  /// including per-chunk delete bitmaps and summaries. Evicted chunks are
  /// read whole into a local image and stay evicted. The archive is
  /// built at `path + ".tmp"` and atomically renamed onto `path` once
  /// finished, so a crash or failure mid-save never clobbers a pre-existing
  /// archive at `path`. Returns the number of blocks written.
  static StatusOr<size_t> Save(const Table& table, const std::string& path);

  /// Reads all blocks back from `path` (delete bitmaps are dropped; use
  /// Restore to keep them).
  static StatusOr<std::vector<DataBlock>> Load(const std::string& path);

  /// Rebuilds a table from an archive: the result contains the archived
  /// blocks as frozen chunks — including their delete bitmaps and resident
  /// summaries — with identical scan and point-access behaviour.
  static StatusOr<Table> Restore(
      const std::string& name, Schema schema, const std::string& path,
      uint32_t chunk_capacity = DataBlock::kDefaultCapacity);

 private:
  struct FileHeader {
    uint32_t magic;
    uint32_t version;
    uint32_t block_count;
    uint32_t flags;
    uint64_t index_offset;  // 0 while the archive is still being written
    uint64_t reserved;
  };
  static_assert(sizeof(FileHeader) == 32);

  /// Loads and checks the index (records, summaries, checksum tables).
  static Status OpenIndex(BlockArchive& a, const FileHeader& hdr,
                          uint64_t file_size);
  /// A read's start: block `id`'s entry and table (counted as a payload
  /// read), or why it cannot be read.
  Status BeginRead(size_t id, ArchiveEntry* e,
                   const ChecksumTable** table) const;
  void CountBytesRead(uint64_t bytes, uint64_t pages) const;

  std::string path_;
  int fd_ = -1;
  mutable std::unique_ptr<std::mutex> mu_;
  std::vector<ArchiveEntry> entries_;
  /// Parsed summaries, parallel to entries_ (null where absent). Kept in
  /// memory on both the write and the read path so summary() never does IO.
  std::vector<std::shared_ptr<const BlockSummary>> summaries_;
  /// Checksum tables, parallel to entries_; null where the stored table
  /// failed verification, which fails reads of that block alone. Never
  /// changed once appended, so readers use them outside mu_.
  std::vector<std::unique_ptr<const ChecksumTable>> tables_;
  uint64_t end_offset_ = 0;
  mutable uint64_t payload_reads_ = 0;       // guarded by mu_
  mutable uint64_t payload_bytes_read_ = 0;  // guarded by mu_
  mutable uint64_t payload_pages_read_ = 0;  // guarded by mu_
  bool writable_ = false;
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_BLOCK_ARCHIVE_H_
