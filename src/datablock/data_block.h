#ifndef DATABLOCKS_DATABLOCK_DATA_BLOCK_H_
#define DATABLOCKS_DATABLOCK_DATA_BLOCK_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "datablock/compression.h"
#include "datablock/psma.h"
#include "storage/chunk.h"
#include "storage/value.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

namespace datablocks {

/// On-buffer per-attribute metadata (paper Figure 3: compression method and
/// offsets to SMA, dictionary, compressed data vector and string data). An
/// integer dictionary is dict_count sorted int64 values. A string
/// dictionary is dict_count + 1 uint32 offsets into the string area: the
/// first is 0, none is below its predecessor, and entry k is the string
/// bytes [off[k], off[k + 1]); a single string value is such a dictionary
/// of one entry.
struct AttrMeta {
  uint8_t compression;   // Compression
  uint8_t type;          // TypeId (1-byte tag so blocks are self-contained)
  uint8_t code_width;    // bytes per code in the data vector (0: single value)
  uint8_t flags;         // bit 0: has NULL bitmap, bit 1: all values NULL
  uint32_t dict_count;   // dictionary entries
  uint32_t psma_entries; // PSMA table slots (0 = no PSMA)
  uint32_t reserved;
  int64_t min_val;       // SMA minimum (int64, or double bit pattern)
  int64_t max_val;       // SMA maximum
  uint64_t psma_offset;
  uint64_t dict_offset;
  uint64_t data_offset;
  uint64_t string_offset;
  uint64_t null_offset;

  static constexpr uint8_t kHasNulls = 1;
  static constexpr uint8_t kAllNull = 2;

  /// Bytes of the dictionary region: its values, or a string dictionary's
  /// offsets.
  uint64_t dict_bytes() const {
    if (dict_count == 0) return 0;
    return TypeId(type) == TypeId::kString
               ? (uint64_t(dict_count) + 1) * sizeof(uint32_t)
               : uint64_t(dict_count) * sizeof(int64_t);
  }
};
static_assert(sizeof(AttrMeta) == 72);

/// Block header at offset 0 of the buffer.
struct BlockHeader {
  uint32_t magic;
  uint32_t tuple_count;
  uint32_t attr_count;
  uint32_t reserved;
  uint64_t total_bytes;
};

/// A set of a block's attributes: all of them, or a list of indexes. Names
/// what a projected archive read fetches and what DataBlock::Validate
/// checks.
class ColumnSet {
 public:
  static ColumnSet All() { return ColumnSet(); }
  /// Just `cols`; order and duplicates do not matter.
  explicit ColumnSet(std::vector<uint32_t> cols);

  bool all() const { return all_; }
  /// Members in a block of `ncols` attributes, in ascending order:
  /// at(0) .. at(size(ncols) - 1).
  uint32_t size(uint32_t ncols) const {
    return all_ ? ncols : uint32_t(cols_.size());
  }
  uint32_t at(uint32_t i) const { return all_ ? i : cols_[i]; }

 private:
  ColumnSet() = default;
  bool all_ = true;
  std::vector<uint32_t> cols_;  // sorted, unique
};

/// A Data Block: a self-contained, immutable ("frozen"), byte-addressable
/// compressed columnar container for one chunk of a relation (paper
/// Section 3). The entire block is a single flat allocation without
/// pointers, so it can be evicted to secondary storage verbatim.
class DataBlock {
 public:
  static constexpr uint32_t kMagic = 0x444B4C42;  // "BLKD"
  /// Default block capacity (paper: "typically, we store up to 2^16 records
  /// in a Data Block").
  static constexpr uint32_t kDefaultCapacity = 1u << 16;

  DataBlock() = default;

  /// Freezes `chunk` into a Data Block. `perm`, if non-null, is a
  /// permutation: output position i stores chunk row perm[i] (used to
  /// cluster blocks on a sort criterion, Section 3.2).
  static DataBlock Build(const Chunk& chunk, const uint32_t* perm = nullptr);

  bool empty() const { return buf_.empty(); }
  uint32_t num_rows() const { return header()->tuple_count; }
  uint32_t num_columns() const { return header()->attr_count; }
  uint64_t SizeBytes() const { return header()->total_bytes; }

  const AttrMeta& attr(uint32_t col) const {
    return reinterpret_cast<const AttrMeta*>(buf_.data() +
                                             sizeof(BlockHeader))[col];
  }

  Compression compression(uint32_t col) const {
    return static_cast<Compression>(attr(col).compression);
  }
  TypeId type(uint32_t col) const {
    return static_cast<TypeId>(attr(col).type);
  }
  bool has_nulls(uint32_t col) const {
    return attr(col).flags & AttrMeta::kHasNulls;
  }
  bool all_null(uint32_t col) const {
    return attr(col).flags & AttrMeta::kAllNull;
  }

  /// Compressed data vector (codes), element width attr(col).code_width.
  const uint8_t* codes(uint32_t col) const {
    return buf_.data() + attr(col).data_offset;
  }

  /// Integer dictionary (sorted ascending).
  const int64_t* int_dict(uint32_t col) const {
    return reinterpret_cast<const int64_t*>(buf_.data() +
                                            attr(col).dict_offset);
  }

  /// String dictionary entry `idx` (entries sorted lexicographically): the
  /// string area's bytes between offsets idx and idx + 1.
  std::string_view dict_string(uint32_t col, uint32_t idx) const {
    const AttrMeta& m = attr(col);
    const uint32_t* off =
        reinterpret_cast<const uint32_t*>(buf_.data() + m.dict_offset) + idx;
    return std::string_view(reinterpret_cast<const char*>(buf_.data()) +
                                m.string_offset + off[0],
                            off[1] - off[0]);
  }

  const PsmaEntry* psma(uint32_t col) const {
    const AttrMeta& m = attr(col);
    return m.psma_entries == 0
               ? nullptr
               : reinterpret_cast<const PsmaEntry*>(buf_.data() +
                                                    m.psma_offset);
  }

  const uint64_t* null_bitmap(uint32_t col) const {
    const AttrMeta& m = attr(col);
    return (m.flags & AttrMeta::kHasNulls)
               ? reinterpret_cast<const uint64_t*>(buf_.data() + m.null_offset)
               : nullptr;
  }

  /// SMA accessors. For strings min/max are the first/last dictionary
  /// entries (the dictionary is ordered).
  int64_t sma_min_int(uint32_t col) const { return attr(col).min_val; }
  int64_t sma_max_int(uint32_t col) const { return attr(col).max_val; }
  double sma_min_double(uint32_t col) const {
    return std::bit_cast<double>(attr(col).min_val);
  }
  double sma_max_double(uint32_t col) const {
    return std::bit_cast<double>(attr(col).max_val);
  }

  /// Reads code at `row` widened to uint64 (point access helper).
  uint64_t ReadCode(uint32_t col, uint32_t row) const {
    const AttrMeta& m = attr(col);
    const uint8_t* base = buf_.data() + m.data_offset;
    switch (m.code_width) {
      case 1: return base[row];
      case 2: return reinterpret_cast<const uint16_t*>(base)[row];
      case 4: return reinterpret_cast<const uint32_t*>(base)[row];
      case 8: return reinterpret_cast<const uint64_t*>(base)[row];
      default: return 0;
    }
  }

  // -- Point accesses (OLTP path, Section 3.4: "point-accesses ... are
  //    uncompressed from a single position"). ----------------------------

  bool IsNull(uint32_t col, uint32_t row) const {
    const AttrMeta& m = attr(col);
    if (m.flags & AttrMeta::kAllNull) return true;
    if (!(m.flags & AttrMeta::kHasNulls)) return false;
    return BitmapTest(reinterpret_cast<const uint64_t*>(buf_.data() +
                                                        m.null_offset),
                      row);
  }

  /// Integer-like point access; the caller must ensure the value is not
  /// NULL and the column is integer-like.
  int64_t GetInt(uint32_t col, uint32_t row) const;

  double GetDouble(uint32_t col, uint32_t row) const;

  std::string_view GetStringView(uint32_t col, uint32_t row) const;

  /// Typed point access with NULL handling; a string cell borrows the
  /// block's bytes.
  Cell GetCell(uint32_t col, uint32_t row) const;
  /// Like GetCell, with the string copied.
  Value GetValue(uint32_t col, uint32_t row) const {
    return Value::Of(GetCell(col, row));
  }

  // -- Serialization (blocks are flat and pointer-free). -----------------

  /// The entire block as one flat byte range (for archival/checksumming).
  const uint8_t* raw_bytes() const { return buf_.data(); }

  // -- Structure (Figure 3 layout, validated before untrusted use). -------

  /// Bytes of the block's spine: the header plus the AttrMeta array.
  static uint64_t SpineBytes(uint32_t ncols) {
    return sizeof(BlockHeader) + uint64_t(ncols) * sizeof(AttrMeta);
  }

  /// Page of an attribute extent: the unit an archive checksums and a
  /// point read of an evicted block fetches. Pages are counted from the
  /// extent's start; its last page may be short.
  static constexpr uint64_t kPageBytes = 4096;

  /// Page ids of the extents `begins` describes (see Extents), numbered
  /// across the block: extent c holds pages (*first)[c] up to, not
  /// including, (*first)[c + 1], and first->back() is the page count.
  static void FirstPages(const std::vector<uint64_t>& begins,
                         std::vector<uint64_t>* first);

  /// Attribute extents: attribute c owns bytes [begins[c], begins[c + 1]),
  /// from its first region to where the next attribute's first region
  /// begins. begins[0] is the end of the spine and begins[ncols] the end of
  /// the block, so every byte lies in the spine or in exactly one extent.
  /// Derived from the spine alone, which is all that has to be in the
  /// buffer. kCorruption if the header is not a block header of this
  /// buffer's size.
  Status Extents(std::vector<uint64_t>* begins) const;

  /// Structural check of untrusted bytes, reading only the spine and the
  /// attributes in `columns`: a block header that matches the buffer, and
  /// for each such attribute a valid scheme/type/code-width combination
  /// whose every region (PSMA table, dictionary, codes, strings, NULL
  /// bitmap) lies inside the attribute's extent, with dictionary codes
  /// below the dictionary size and string offsets that start at 0, never
  /// decrease and end inside the string area, which runs to the extent's
  /// end. kCorruption names the first violation; a
  /// block that passes is safe to scan and point-access on those
  /// attributes.
  Status Validate(const ColumnSet& columns) const;

  /// Row-level structural check, for an image that holds the spine (whose
  /// extents passed Extents) but only some other bytes: Validate's scan
  /// over every code and dictionary entry cannot run on a partial extent.
  /// Checks attribute `col`'s scheme, type and regions as Validate does,
  /// then calls `need(offset, len)` on each byte range a point access of
  /// (col, row) reads, before reading it and in order: the NULL-bitmap
  /// word, the code, then for dictionaries the entry (for strings the two
  /// offsets that bound it) and the string bytes, each located through the
  /// bytes before it. `need` returns Ok once the range is present; any
  /// other Status ends the walk and is returned. kCorruption if the code is
  /// not below dict_count or the string's offsets decrease or leave the
  /// string area, which ends with the extent [lo, hi).
  Status ValidateRow(
      uint32_t col, uint32_t row, uint64_t lo, uint64_t hi,
      const std::function<Status(uint64_t offset, uint64_t len)>& need) const;

  /// Total PSMA bytes in this block (reporting).
  uint64_t PsmaBytes() const;

 private:
  const BlockHeader* header() const {
    return reinterpret_cast<const BlockHeader*>(buf_.data());
  }
  /// Spine-only checks of attribute `c`, whose extent is [lo, hi).
  Status ValidateAttr(uint32_t c, uint64_t lo, uint64_t hi) const;

  // Only Build and an image write a block's bytes (see BlockImage).
  friend class BlockImage;

  AlignedBuffer buf_;
};

/// Some verified regions of one block read back from an archive, in a
/// buffer of the block's size: the spine, whose extents passed Extents,
/// and the extent pages (DataBlock::kPageBytes) that reads fetched into
/// it, each verified by its archive checksum before it was added. Every
/// present byte sits at its block offset, so the block's accessors work
/// unchanged on what the image holds: a scan's whole extents, or the pages
/// of the rows point reads fetched (BlockArchive::Read fills it). The
/// structural checks of an attribute run with each read that uses it.
class BlockImage {
 public:
  /// Forgets the spine and every page; the buffer is kept for reuse.
  void Clear() { first_page_.clear(); }
  bool has_spine() const { return !first_page_.empty(); }
  /// No buffer yet: nothing was ever read into the image.
  bool empty() const { return block_.empty(); }

  const DataBlock& block() const { return block_; }
  /// The block, taken out of an image that holds all of it; the image is
  /// left empty.
  DataBlock TakeBlock() {
    Clear();
    return std::move(block_);
  }

  /// Starts over on a `size`-byte block: no spine, no page. Returns the
  /// buffer to read the spine and pages into, at their block offsets; it
  /// reuses the current allocation when that is large enough, with only
  /// the scan padding zeroed.
  uint8_t* Reset(uint64_t size) {
    Clear();
    block_.buf_.ResizeForOverwrite(size);
    return buffer();
  }
  /// The buffer, once Reset.
  uint8_t* buffer() { return block_.buf_.data(); }
  /// Takes the spine read into the buffer as this image's: it must pass
  /// Extents, then no page is present. kCorruption leaves no spine.
  Status AdoptSpine();

  /// Attribute extents, from the adopted spine.
  const std::vector<uint64_t>& begins() const { return begins_; }
  /// Id of the page that holds byte `offset` of attribute `col`'s extent.
  uint64_t PageOf(uint32_t col, uint64_t offset) const {
    return first_page_[col] + (offset - begins_[col]) / DataBlock::kPageBytes;
  }
  bool HasPage(uint64_t page) const {
    return BitmapTest(present_.data(), page);
  }
  /// Marks pages [first, end), read and verified, present.
  void AddPages(uint64_t first, uint64_t end) {
    for (uint64_t p = first; p < end; ++p) BitmapSet(present_.data(), p);
  }

  /// Whether the image holds every byte a point access of (col, row) reads
  /// and they pass ValidateRow.
  bool Serves(uint32_t col, uint32_t row) const;

 private:
  DataBlock block_;
  std::vector<uint64_t> begins_;
  std::vector<uint64_t> first_page_;  // DataBlock::FirstPages; empty: none
  std::vector<uint64_t> present_;     // bitmap over page ids
};

}  // namespace datablocks

#endif  // DATABLOCKS_DATABLOCK_DATA_BLOCK_H_
