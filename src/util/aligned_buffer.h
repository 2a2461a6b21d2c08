#ifndef DATABLOCKS_UTIL_ALIGNED_BUFFER_H_
#define DATABLOCKS_UTIL_ALIGNED_BUFFER_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/macros.h"

namespace datablocks {

/// All scannable data areas are padded by this many bytes so that SIMD loads
/// and 32-bit gathers starting at the last valid element never touch
/// unmapped memory.
inline constexpr uint64_t kScanPadding = 32;

/// A 64-byte-aligned, move-only byte buffer with scan padding.
///
/// Used as backing storage for Data Blocks and uncompressed column chunks.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(uint64_t size) { Allocate(size); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { Free(); }

  /// Allocates `size` usable bytes (plus internal padding), zero-initialized.
  void Allocate(uint64_t size) {
    const uint64_t total = AllocateRaw(size);
    std::memset(data_, 0, total);
  }

  /// Like Allocate, but leaves the `size` usable bytes uninitialized: for
  /// callers that overwrite every one of them (a block reloaded from disk).
  /// Only the padding is zeroed — SIMD over-reads past the end see zeros.
  void AllocateForOverwrite(uint64_t size) {
    const uint64_t total = AllocateRaw(size);
    std::memset(data_ + size, 0, total - size);
  }

  /// AllocateForOverwrite that keeps the current allocation when it is
  /// large enough: a buffer refilled over and over (a scanner's image of
  /// evicted blocks) allocates only when a block outgrows it. The usable
  /// bytes keep whatever they held; the scan padding is zeroed again.
  void ResizeForOverwrite(uint64_t size) {
    if (data_ == nullptr || size + kScanPadding > capacity_) {
      AllocateForOverwrite(size);
      return;
    }
    size_ = size;
    std::memset(data_ + size, 0, kScanPadding);
  }

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  /// Frees, then allocates `size` bytes plus padding; returns the total.
  uint64_t AllocateRaw(uint64_t size) {
    Free();
    const uint64_t total = ((size + kScanPadding + 63) / 64) * 64;
    data_ = static_cast<uint8_t*>(std::aligned_alloc(64, total));
    DB_CHECK(data_ != nullptr);
    size_ = size;
    capacity_ = total;
    return total;
  }

  void Free() {
    if (data_ != nullptr) std::free(data_);
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint64_t capacity_ = 0;  // allocated bytes, padding included
};

}  // namespace datablocks

#endif  // DATABLOCKS_UTIL_ALIGNED_BUFFER_H_
