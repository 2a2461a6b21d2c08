#ifndef DATABLOCKS_DATABLOCK_COMPRESSION_H_
#define DATABLOCKS_DATABLOCK_COMPRESSION_H_

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/chunk.h"
#include "storage/types.h"
#include "util/macros.h"

namespace datablocks {

/// Byte-addressable compression schemes used inside Data Blocks
/// (paper Section 3.3). Sub-byte encodings are deliberately rejected to keep
/// point accesses and sparse unpacking cheap (Section 5.4).
enum class Compression : uint8_t {
  kSingleValue = 0,  // all values equal (incl. all-NULL); no data vector
  kDictionary = 1,   // order-preserving dictionary, byte-truncated keys
  kTruncation = 2,   // frame-of-reference delta to block min, byte-truncated
  kRaw = 3,          // verbatim native values (no scheme is beneficial)
};

const char* CompressionName(Compression c);

/// Rounds a maximal code value up to a legal byte-aligned code width
/// (1, 2, 4 or 8 bytes).
uint32_t CodeWidthFor(uint64_t max_code);

/// Calls fn(T{}) with the physical type an integer-like column is stored as
/// in a chunk: int32 and date as int32_t, char1 as uint32_t, int64 as
/// int64_t. Per-column type dispatch, so row loops are compiled per type.
template <typename Fn>
void WithIntType(TypeId type, Fn&& fn) {
  switch (type) {
    case TypeId::kInt32:
    case TypeId::kDate: fn(int32_t{}); return;
    case TypeId::kChar1: fn(uint32_t{}); return;
    case TypeId::kInt64: fn(int64_t{}); return;
    default: DB_CHECK(false);
  }
}

/// Calls fn(C{}) with the unsigned type of a 1, 2, 4 or 8-byte code width.
template <typename Fn>
void WithCodeType(uint32_t width, Fn&& fn) {
  switch (width) {
    case 1: fn(uint8_t{}); return;
    case 2: fn(uint16_t{}); return;
    case 4: fn(uint32_t{}); return;
    case 8: fn(uint64_t{}); return;
    default: DB_CHECK(false);
  }
}

/// Statistics of one column over the rows being frozen, used to pick the
/// optimal scheme per block per attribute.
struct ColumnStats {
  uint32_t n = 0;
  bool has_nulls = false;
  bool all_null = false;
  bool all_equal = false;
  // Integer-like domain (valid for kInt32/kInt64/kDate/kChar1).
  int64_t min_i = 0;
  int64_t max_i = 0;
  // Double domain.
  double min_d = 0;
  double max_d = 0;
  // Sorted distinct values; `dict_tracked` is false if tracking was
  // abandoned because the column has too many distinct values (more than
  // n/2 + 2) for a dictionary to be competitive. Strings are always tracked.
  bool dict_tracked = false;
  std::vector<int64_t> dict_i;
  std::vector<std::string_view> dict_s;  // views into the chunk's arena
  uint64_t distinct_string_bytes = 0;
  // Strings: the dictionary code (index into dict_s) of each output
  // position, 0 under NULL.
  std::vector<uint32_t> codes;
};

/// Scans rows [0, chunk.size()) of `col` (through `perm` if non-null, a
/// permutation where perm[i] is the source row of output position i) and
/// collects stats. One pass finds NULLs, min and max; distinct values come
/// from a bitmap over [min, max] when that span is small, else from a flat
/// hash set. Strings hash once into a flat table and sort their distinct
/// values by 8-byte prefixes.
ColumnStats CollectStats(const Chunk& chunk, uint32_t col,
                         const uint32_t* perm);

/// Open-addressing table of dense ids 0, 1, 2, ... whose keys the caller
/// holds (a vector indexed by id); the table stores only a 32-bit hash and
/// the id. Linear probing, grown at half load.
class FlatIdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Sized for `expected` ids without growing.
  explicit FlatIdTable(uint32_t expected = 0);

  /// The id whose key has `hash` and satisfies `eq(id)`, or kNone.
  template <typename Eq>
  uint32_t Find(uint32_t hash, Eq eq) const {
    for (uint32_t p = hash & mask_;; p = (p + 1) & mask_) {
      const Slot& s = slots_[p];
      if (s.id == kNone) return kNone;
      if (s.hash == hash && eq(s.id)) return s.id;
    }
  }

  /// Find, else inserts the next id (the number of ids so far) and
  /// returns it.
  template <typename Eq>
  uint32_t FindOrInsert(uint32_t hash, Eq eq) {
    uint32_t p = hash & mask_;
    for (;; p = (p + 1) & mask_) {
      const Slot& s = slots_[p];
      if (s.id == kNone) break;
      if (s.hash == hash && eq(s.id)) return s.id;
    }
    slots_[p] = {hash, size_};
    if (++size_ * 2 > slots_.size()) Grow();
    return size_ - 1;
  }

 private:
  struct Slot {
    uint32_t hash;
    uint32_t id;
  };
  void Grow();

  std::vector<Slot> slots_;
  uint32_t mask_ = 0;
  uint32_t size_ = 0;
};

/// 32-bit hash of an integer key for FlatIdTable.
inline uint32_t HashInt(int64_t v) {
  return uint32_t((uint64_t(v) * 0x9e3779b97f4a7c15ull) >> 32);
}

/// Maps each value of a sorted integer dictionary to its code (its index)
/// in O(1): a rank bitmap over [dict.front(), dict.back()] when that span is
/// small, else a FlatIdTable. Build's encoder for dictionary columns.
class IntDictCoder {
 public:
  explicit IntDictCoder(const std::vector<int64_t>& dict);

  /// Code of `v`, which must be a dictionary value.
  uint32_t operator()(int64_t v) const {
    if (!words_.empty()) {
      const uint64_t bit = uint64_t(v) - uint64_t(base_);
      const uint64_t below =
          words_[bit / 64] & ((uint64_t(1) << (bit % 64)) - 1);
      return ranks_[bit / 64] + uint32_t(std::popcount(below));
    }
    return table_.Find(HashInt(v), [&](uint32_t id) { return dict_[id] == v; });
  }

 private:
  const std::vector<int64_t>& dict_;
  int64_t base_ = 0;
  std::vector<uint64_t> words_;  // bit (v - base_) set for each value
  std::vector<uint32_t> ranks_;  // set bits in the words before each word
  FlatIdTable table_;
};

/// The chosen scheme together with its projected space cost.
struct CompressionChoice {
  Compression scheme = Compression::kRaw;
  uint32_t code_width = 0;   // bytes per entry in the data vector
  uint64_t data_bytes = 0;   // data vector size
  uint64_t dict_bytes = 0;   // dictionary entries
  uint64_t string_bytes = 0; // dictionary string payload
};

/// Picks the scheme with minimal space for this block's value distribution
/// (Section 3.3: "the compression scheme is chosen that is optimal with
/// regard to resulting memory consumption").
CompressionChoice ChooseCompression(TypeId type, const ColumnStats& stats);

}  // namespace datablocks

#endif  // DATABLOCKS_DATABLOCK_COMPRESSION_H_
