#include "util/aligned_buffer.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/macros.h"

#if DB_ASAN
#include <sanitizer/asan_interface.h>
#define DB_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define DB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define DB_POISON(p, n) ((void)(p), (void)(n))
#define DB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace datablocks {

namespace {

/// `size` usable bytes plus scan padding, rounded to the 64-byte alignment:
/// a heap buffer's allocation, which a page-backed one rounds up to pages.
uint64_t PaddedBytes(uint64_t size) {
  return ((size + kScanPadding + 63) / 64) * 64;
}

uint64_t PageBytes() {
  static const uint64_t page = uint64_t(sysconf(_SC_PAGESIZE));
  return page;
}

uint64_t PageRound(uint64_t n) {
  return (n + PageBytes() - 1) / PageBytes() * PageBytes();
}

uint8_t* MapPages(uint64_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  DB_CHECK(p != MAP_FAILED);
  return static_cast<uint8_t*>(p);
}

}  // namespace

void AlignedBuffer::Allocate(uint64_t size) {
  Free();
  const uint64_t total = PaddedBytes(size);
  if (total >= kPageBackedBytes) {
    capacity_ = PageRound(total);
    data_ = MapPages(capacity_);  // fresh pages read as zero
  } else {
    capacity_ = total;
    data_ = static_cast<uint8_t*>(std::aligned_alloc(64, total));
    DB_CHECK(data_ != nullptr);
    std::memset(data_, 0, total);
  }
  size_ = size;
  PoisonSlack(size);  // fresh memory is unpoisoned
}

void AlignedBuffer::ResizeForOverwrite(uint64_t size) {
  if (data_ == nullptr || size + kScanPadding > capacity_) {
    Allocate(size);
    return;
  }
  const uint64_t old_size = std::exchange(size_, size);
  PoisonSlack(old_size);
  std::memset(data_ + size, 0, kScanPadding);
}

void AlignedBuffer::PoisonSlack(uint64_t old_size) {
  if (size_ > old_size)
    DB_UNPOISON(data_ + old_size + kScanPadding, size_ - old_size);
  DB_POISON(data_ + size_ + kScanPadding, capacity_ - size_ - kScanPadding);
}

void AlignedBuffer::Free() {
  if (data_ == nullptr) return;
  // Only the slack is poisoned; the next mapping at this address must not
  // inherit it.
  DB_UNPOISON(data_ + size_ + kScanPadding, capacity_ - size_ - kScanPadding);
  if (page_backed()) {
    munmap(data_, capacity_);
  } else {
    std::free(data_);
  }
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * PageBytes() : 0;
}

}  // namespace datablocks
