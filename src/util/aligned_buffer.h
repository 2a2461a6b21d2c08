#ifndef DATABLOCKS_UTIL_ALIGNED_BUFFER_H_
#define DATABLOCKS_UTIL_ALIGNED_BUFFER_H_

#include <cstdint>
#include <utility>

namespace datablocks {

/// All scannable data areas are padded by this many bytes so that SIMD loads
/// and 32-bit gathers starting at the last valid element never touch
/// unmapped memory.
inline constexpr uint64_t kScanPadding = 32;

/// Buffers of at least this many bytes (scan padding included) are
/// page-backed; smaller ones come from the heap.
inline constexpr uint64_t kPageBackedBytes = 64 << 10;

/// A 64-byte-aligned, move-only byte buffer with scan padding.
///
/// Backing storage for Data Blocks, hot chunk columns, string arenas and
/// scan and point images. A large buffer (kPageBackedBytes and up) maps its
/// own anonymous pages and unmaps them when freed, so freed bytes leave the
/// process instead of staying in the allocator's heap, and pages nobody has
/// written are never resident: a hot column sized for 65536 rows that holds
/// 40 costs the pages those 40 rows touch. Fresh pages are zero, so
/// Allocate skips its memset; they cost a page fault on first touch, which
/// is why buffers refilled over and over (scan images) are reused rather
/// than allocated per use. Under AddressSanitizer, the page-rounding slack
/// past the scan padding is poisoned: reading beyond the padding is
/// reported even though the page is mapped.
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

  /// Allocates `size` usable bytes plus scan padding, all zero.
  void Allocate(uint64_t size);

  /// Makes the buffer `size` bytes, keeping the current allocation when it
  /// is large enough: a buffer refilled over and over (a scanner's image of
  /// evicted blocks) allocates only when a block outgrows it. Kept usable
  /// bytes hold whatever they held; the scan padding is zeroed again.
  /// Otherwise as Allocate.
  void ResizeForOverwrite(uint64_t size);

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  bool page_backed() const { return capacity_ >= kPageBackedBytes; }
  /// After size_ changed from `old_size`: poisons (AddressSanitizer) the
  /// bytes past the scan padding and unpoisons those the buffer grew into.
  void PoisonSlack(uint64_t old_size);
  void Free();

  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint64_t capacity_ = 0;  // allocated bytes, padding included
};

/// The process's resident set in bytes, from /proc/self/statm (0 where
/// that is unavailable). With large buffers page-backed, it follows the
/// engine's own byte count: freed data areas leave it.
uint64_t ResidentBytes();

}  // namespace datablocks

#endif  // DATABLOCKS_UTIL_ALIGNED_BUFFER_H_
