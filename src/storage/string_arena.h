#ifndef DATABLOCKS_STORAGE_STRING_ARENA_H_
#define DATABLOCKS_STORAGE_STRING_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

#include "util/aligned_buffer.h"

namespace datablocks {

/// Reference to a string stored in a StringArena: fixed 8-byte payload kept
/// in the column's fixed-width data area.
struct StringRef {
  uint32_t offset = 0;
  uint32_t length = 0;
};
static_assert(sizeof(StringRef) == 8);

/// Append-only byte arena backing the string columns of hot (uncompressed)
/// chunks. Views returned by Get() are resolved against the current backing
/// store and remain valid until the next Add() (the store may relocate when
/// it grows); scans therefore re-resolve views per batch.
///
/// The store is an AlignedBuffer that doubles when full, so a large arena
/// is page-backed like the chunk's columns: it holds only the pages its
/// strings touch, and freeing the chunk returns them to the OS.
class StringArena {
 public:
  StringArena() = default;

  StringArena(StringArena&& other) noexcept
      : bytes_(std::move(other.bytes_)), used_(std::exchange(other.used_, 0)) {}
  StringArena& operator=(StringArena&& other) noexcept {
    bytes_ = std::move(other.bytes_);
    used_ = std::exchange(other.used_, 0);
    return *this;
  }

  /// `s` may be a view of this arena (a string copied within its chunk):
  /// it is found again after the store moves.
  StringRef Add(std::string_view s) {
    if (used_ + s.size() > bytes_.size()) {
      const auto base = reinterpret_cast<uintptr_t>(bytes_.data());
      const auto at = reinterpret_cast<uintptr_t>(s.data());
      const bool inside = !s.empty() && at >= base && at < base + used_;
      bytes_.Grow(std::max<uint64_t>(used_ + s.size(), 2 * bytes_.size()));
      if (inside) {
        s = std::string_view(
            reinterpret_cast<const char*>(bytes_.data()) + (at - base),
            s.size());
      }
    }
    StringRef ref{static_cast<uint32_t>(used_),
                  static_cast<uint32_t>(s.size())};
    if (!s.empty()) std::memcpy(bytes_.data() + used_, s.data(), s.size());
    used_ += s.size();
    return ref;
  }

  std::string_view Get(StringRef ref) const {
    return std::string_view(
        reinterpret_cast<const char*>(bytes_.data()) + ref.offset, ref.length);
  }

  uint64_t size_bytes() const { return used_; }

 private:
  AlignedBuffer bytes_;  // capacity: bytes_.size()
  uint64_t used_ = 0;
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_STRING_ARENA_H_
