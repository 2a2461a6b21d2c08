#ifndef DATABLOCKS_LIFECYCLE_BLOCK_CACHE_H_
#define DATABLOCKS_LIFECYCLE_BLOCK_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace datablocks {

/// Bookkeeping for the frozen blocks of one table under a memory budget.
///
/// The cache holds only immutable facts — which chunks have an archived
/// block and how big each block is. *Residency* is never mirrored here:
/// the table's chunk state (kFrozen = resident, kEvicted = not) is the
/// single source of truth, probed through the `resident` callback. Only
/// the lifecycle manager changes it (eviction in a tick, readmission at
/// detach), so a probe inside a tick sees every change.
///
/// Not internally synchronized — the manager guards it with its own mutex.
class BlockCache {
 public:
  explicit BlockCache(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  void SetBudget(uint64_t budget_bytes) { budget_bytes_ = budget_bytes; }
  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Records an archived chunk's block size (called once, at archive time;
  /// blocks are immutable so the size never changes).
  void Register(size_t chunk_idx, uint64_t bytes) {
    blocks_.emplace(chunk_idx, bytes);
  }

  /// Removes a chunk from eviction management (archive compaction detaches
  /// fully-deleted chunks; their resident block must not be evicted again
  /// because the archived copy is about to be reclaimed).
  void Unregister(size_t chunk_idx) { blocks_.erase(chunk_idx); }

  size_t num_blocks() const { return blocks_.size(); }

  /// Total bytes of blocks whose chunk is currently resident.
  template <typename ResidentFn>
  uint64_t ResidentBytes(ResidentFn&& resident) const {
    uint64_t total = 0;
    for (const auto& [chunk, bytes] : blocks_)
      if (resident(chunk)) total += bytes;
    return total;
  }

  /// Least-recently-used resident chunk (SIZE_MAX if none). `last_access`
  /// maps chunk index to its recency stamp (higher = newer).
  template <typename ResidentFn, typename LastAccessFn>
  size_t PickVictim(ResidentFn&& resident, LastAccessFn&& last_access) const {
    size_t victim = SIZE_MAX;
    uint64_t oldest = UINT64_MAX;
    for (const auto& [chunk, bytes] : blocks_) {
      if (!resident(chunk)) continue;
      uint64_t stamp = last_access(chunk);
      // Tie-break on chunk index for determinism.
      if (stamp < oldest || (stamp == oldest && chunk < victim)) {
        oldest = stamp;
        victim = chunk;
      }
    }
    return victim;
  }

 private:
  uint64_t budget_bytes_;
  std::unordered_map<size_t, uint64_t> blocks_;  // chunk -> block bytes
};

}  // namespace datablocks

#endif  // DATABLOCKS_LIFECYCLE_BLOCK_CACHE_H_
