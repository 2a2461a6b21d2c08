#ifndef DATABLOCKS_STORAGE_STRING_ARENA_H_
#define DATABLOCKS_STORAGE_STRING_ARENA_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "util/aligned_buffer.h"
#include "util/macros.h"

namespace datablocks {

/// Reference to a string stored in a StringArena: fixed 8-byte payload kept
/// in the column's fixed-width data area.
struct StringRef {
  uint32_t offset = 0;
  uint32_t length = 0;
};
static_assert(sizeof(StringRef) == 8);

/// Append-only byte arena backing the string columns of hot (uncompressed)
/// chunks. Its bytes never move, so a view from Get() stays valid for the
/// arena's life. A chunk's arena outlives every read section that saw the
/// chunk hot: a view lives as long as the read section it was taken in.
///
/// The arena is a fixed array of segments that double in size, allocated
/// with its first string (a column without strings pays one pointer).
/// Segment k holds offsets [B·(2^k − 1), B·(2^(k+1) − 1)) for
/// B = kFirstSegmentBytes, so Get() finds a string's segment with one bit
/// scan. A string that does not fit the rest of its segment starts at the
/// first later segment large enough for it; the tail it skips is never
/// referenced. The array and a segment are allocated, and a string's bytes
/// written, before the row that refers to them is published, so readers on
/// other threads need no synchronisation of their own. Each segment is an
/// AlignedBuffer: a large one is page-backed like the chunk's columns, holds
/// only the pages its strings touch, and returns them to the OS when the
/// chunk is freed.
class StringArena {
 public:
  StringArena() = default;

  StringArena(StringArena&& other) noexcept
      : segments_(std::move(other.segments_)),
        used_(std::exchange(other.used_, 0)) {}
  StringArena& operator=(StringArena&& other) noexcept {
    segments_ = std::move(other.segments_);
    used_ = std::exchange(other.used_, 0);
    return *this;
  }

  /// `s` may be a view of this arena. The string's end offset must fit a
  /// StringRef offset (DB_CHECK, before any byte of `s` is read).
  StringRef Add(std::string_view s) {
    if (s.empty()) return StringRef{};
    uint64_t at = used_;
    uint64_t k = Segment(at);
    if (at + s.size() > Begin(k + 1)) {
      do {
        ++k;
      } while ((kFirstSegmentBytes << k) < s.size());
      at = Begin(k);
    }
    DB_CHECK(at + s.size() <= UINT32_MAX);
    if (segments_ == nullptr)
      segments_ = std::make_unique<AlignedBuffer[]>(kSegments);
    AlignedBuffer& segment = segments_[k];
    if (segment.empty()) segment.Allocate(kFirstSegmentBytes << k);
    std::memcpy(segment.data() + (at - Begin(k)), s.data(), s.size());
    used_ = at + s.size();
    return StringRef{static_cast<uint32_t>(at),
                     static_cast<uint32_t>(s.size())};
  }

  std::string_view Get(StringRef ref) const {
    // An empty string, or the zero payload under a NULL, reads no segment:
    // its segment may not exist yet, and the writer may be allocating it.
    // The view is not null: callers may memcpy from it.
    if (ref.length == 0) return "";
    const uint64_t k = Segment(ref.offset);
    return std::string_view(
        reinterpret_cast<const char*>(segments_[k].data()) +
            (ref.offset - Begin(k)),
        ref.length);
  }

  /// Bytes of the offset range taken, skipped segment tails included.
  uint64_t size_bytes() const { return used_; }

 private:
  static constexpr uint64_t kFirstSegmentBytes = 256;

  /// First offset of segment `k`.
  static constexpr uint64_t Begin(uint64_t k) {
    return kFirstSegmentBytes * ((uint64_t{1} << k) - 1);
  }
  /// The segment that holds `offset`.
  static constexpr uint64_t Segment(uint64_t offset) {
    return std::bit_width(offset / kFirstSegmentBytes + 1) - 1;
  }

  // Enough segments for every offset a StringRef can hold.
  static constexpr uint64_t kSegments =
      std::bit_width(uint64_t{UINT32_MAX} / kFirstSegmentBytes + 1);
  std::unique_ptr<AlignedBuffer[]> segments_;
  uint64_t used_ = 0;  // the next string's offset
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_STRING_ARENA_H_
