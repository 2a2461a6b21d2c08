#ifndef DATABLOCKS_STORAGE_BLOCK_ARCHIVE_H_
#define DATABLOCKS_STORAGE_BLOCK_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/table.h"
#include "util/status.h"

namespace datablocks {

/// One spilled block's catalog record, kept in memory.
struct ArchiveEntry {
  uint64_t offset;       // file offset of the block
  uint64_t block_bytes;  // length of the block
  uint32_t chunk_index;  // originating chunk slot (UINT32_MAX if n/a)
  uint32_t row_count;    // tuples in the block
  uint32_t attr_count;   // attributes in the block
  bool released = false; // Release()d: unreadable, its pages punched out
};

/// Eviction of frozen chunks to secondary storage (paper Section 3: "by
/// maintaining a flat structure without pointers, Data Blocks are also
/// suitable for eviction to secondary storage").
///
/// The archive is a spill file: the serialized blocks written back to back
/// and nothing else. The catalog (one ArchiveEntry per block) and each
/// block's checksum table stay in this object's memory, so the file is
/// read only by the process that wrote it, through this object. It is
/// created truncated and never reopened; a lifecycle manager deletes it
/// when it goes away. There is no header, no index and no format version.
/// A dead block is freed where it lies (Release): ids and offsets never
/// change, so nothing is ever rewritten or swapped.
///
/// Checksums are per region, so a scan can read just its columns and a
/// point read just its row. A block's regions tile it: the spine
/// (BlockHeader plus the AttrMeta array), then every attribute's extent
/// (DataBlock::Extents: from the attribute's first region to where the
/// next attribute's begins) cut into 4 KB pages counted from the extent's
/// start (DataBlock::kPageBytes, DataBlock::FirstPages). The one read,
/// Read, fills a BlockImage: a scan's spine and whole extents or a point
/// read's pages, as runs of consecutive regions, each pread once and each
/// region verified before its bytes are used. Every
/// checksum is an 8-lane FNV-style mix: each 64-byte stripe feeds one word
/// to each of eight independent multiply chains, which the core overlaps
/// instead of waiting on one serial chain per 8 bytes.
///
/// Failure model: every fallible operation returns Status/StatusOr instead
/// of aborting. A failed append truncates back to the last good end of
/// payload — pre-existing blocks stay readable. Checksums, the structural
/// checks of DataBlock::Validate and the lifecycle's quarantine protect
/// reads. A read checks the attributes it reads: a scan runs Validate over
/// its columns, and a point read's row check (DataBlock::ValidateRow)
/// stands in for Validate's full scan of codes and dictionary entries,
/// which a partial extent cannot run. All methods are thread-safe.
class BlockArchive {
 public:
  BlockArchive() = default;
  ~BlockArchive();
  BlockArchive(BlockArchive&& o) noexcept;
  BlockArchive& operator=(BlockArchive&& o) noexcept;

  /// Creates/truncates an archive for writing.
  static StatusOr<BlockArchive> Create(const std::string& path);

  /// Appends one block, written through to the OS before returning. Returns
  /// the block's id for Read; on failure (kNoSpace for short writes /
  /// ENOSPC, kIoError otherwise) the file is truncated back so every
  /// previously appended block stays readable.
  StatusOr<size_t> AppendBlock(const DataBlock& block,
                               uint32_t chunk_index = UINT32_MAX);

  /// Random-access, checksum-verified read of block `id` into
  /// `read.image`, which must be empty or hold regions of this block; its
  /// buffer is reused when large enough. Adopts the spine if the image
  /// lacks it, then fetches what the read needs and the image lacks: a
  /// scan (no `read.row`) the whole extents of `read.columns`, a point
  /// read the pages that hold row `*read.row` of each of `read.columns` —
  /// its code, NULL-bitmap word and, for dictionaries, its entry and string
  /// bytes. Every region is verified before its page is added, and the read
  /// passes the structural checks: DataBlock::Validate over a scan's
  /// columns, DataBlock::ValidateRow for a point read. Returns the payload
  /// bytes read. kCorruption on a checksum mismatch or malformed bytes,
  /// kIoError on a failed read — other blocks stay readable.
  StatusOr<uint64_t> Read(size_t id, const BlockRead& read) const;

  /// The full reload as a fresh block: Read of every column into a fresh
  /// image.
  StatusOr<DataBlock> ReadBlock(size_t id) const;

  size_t num_blocks() const;  // thread-safe
  /// Copy of the whole catalog, safe against concurrent appends.
  std::vector<ArchiveEntry> EntriesSnapshot() const;

  /// The 8-lane FNV-style mix behind every archive checksum, for tools and
  /// tests that check or craft archive bytes by hand.
  static uint64_t Checksum(const void* data, uint64_t n);

  /// Total bytes of appended blocks, released ones included — the size of
  /// the file.
  uint64_t PayloadBytes() const;

  /// Payload reads served so far (Read and ReadBlock calls). Summary
  /// accesses do not touch the archive — that is the point: pruning
  /// evicted blocks must leave this at zero, and the lifecycle tests pin
  /// it down.
  uint64_t payload_reads() const;
  /// Payload bytes the successful ones fetched (spines and pages).
  uint64_t payload_bytes_read() const;
  /// Extent pages the successful ones fetched.
  uint64_t payload_pages_read() const;

  /// Ends appends; reads keep working. Nothing is written.
  Status Finish();

  /// Frees block `id` in place: its catalog entry is marked dead, so every
  /// later Read, ReadBlock or Release of `id` returns kNotFound, then
  /// the file pages that lie wholly inside the block are punched out (a
  /// hole; the file size stays). The pages it shares with its neighbours
  /// stay, so they read back unchanged. The caller must know no read of
  /// `id` is in flight: a read racing the punch sees zeros, which fail
  /// their checksums. kIoError if the punch fails (the entry stays dead
  /// and its bytes stay until the file is deleted).
  Status Release(size_t id);

  /// A block's checksums (see the class comment): one for the spine, then
  /// one per extent page, pages numbered across the block's extents.
  struct ChecksumTable {
    uint64_t spine_sum = 0;
    std::vector<uint64_t> page_sums;
    std::vector<uint64_t> begins;      // extent starts, then the block end
    std::vector<uint64_t> first_page;  // DataBlock::FirstPages(begins)
  };

 private:
  /// Preads regions [first, end) of block `e` — region 0 is the spine,
  /// region 1 + p is page p — into `buf` at their block offsets and
  /// verifies each. Adds the bytes read to `*bytes`.
  Status ReadRegions(size_t id, const ArchiveEntry& e,
                     const ChecksumTable& table, uint64_t first, uint64_t end,
                     uint8_t* buf, uint64_t* bytes) const;

  int fd_ = -1;
  uint64_t punch_align_ = 4096;  // filesystem block size (st_blksize)
  mutable std::unique_ptr<std::mutex> mu_;
  std::vector<ArchiveEntry> entries_;
  /// Checksum tables, parallel to entries_. Never changed once appended,
  /// so readers use them outside mu_.
  std::vector<std::unique_ptr<const ChecksumTable>> tables_;
  uint64_t end_offset_ = 0;
  mutable uint64_t payload_reads_ = 0;       // guarded by mu_
  mutable uint64_t payload_bytes_read_ = 0;  // guarded by mu_
  mutable uint64_t payload_pages_read_ = 0;  // guarded by mu_
  bool writable_ = false;
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_BLOCK_ARCHIVE_H_
