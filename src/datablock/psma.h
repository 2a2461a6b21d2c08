#ifndef DATABLOCKS_DATABLOCK_PSMA_H_
#define DATABLOCKS_DATABLOCK_PSMA_H_

#include <cstdint>

#include "util/bits.h"

namespace datablocks {

/// Positional Small Materialized Aggregate (paper Section 3.2, Appendix B).
///
/// A PSMA is a lookup table mapping a value's *delta* to the attribute's SMA
/// minimum to a position range [begin, end) inside the Data Block that covers
/// every occurrence of that value. The table has `width * 256` entries, where
/// `width` is the byte width of the largest possible delta: entry index
/// = most-significant non-zero byte of the delta + 256 * (number of remaining
/// bytes). Deltas that fit in one byte map to unique entries; wider deltas
/// share entries, so ranges become coarser for values far from the minimum.
struct PsmaEntry {
  uint32_t begin = 0;
  uint32_t end = 0;  // exclusive; begin == end means "no occurrences"

  bool empty() const { return begin == end; }
};

/// Half-open position range produced by a PSMA probe.
struct PsmaRange {
  uint32_t begin = 0;
  uint32_t end = 0;

  bool empty() const { return begin >= end; }
};

/// Appendix B `getPSMASlot`: table slot for a delta value.
inline uint32_t PsmaSlot(uint64_t delta) {
  // r = index of the most significant non-zero byte ("remaining bytes").
  uint32_t r = delta ? MsbByteIndex(delta) : 0;
  uint64_t m = delta >> (r << 3);  // that byte's value
  return static_cast<uint32_t>(m + (uint64_t(r) << 8));
}

/// Number of PsmaEntry slots for a table covering deltas up to `max_delta`.
inline uint32_t PsmaTableEntries(uint64_t max_delta) {
  return BytesNeeded(max_delta) * 256;
}

/// Builds a PSMA over `n` delta values produced by `deltas(i)`, skipping the
/// positions set in `skip` (NULLs) if non-null; `table` must hold
/// PsmaTableEntries(max_delta) zero-initialized entries. One O(n) pass
/// (Appendix B).
template <typename DeltaFn>
void BuildPsma(PsmaEntry* table, uint32_t n, DeltaFn deltas,
               const uint64_t* skip = nullptr) {
  for (uint32_t tid = 0; tid < n; ++tid) {
    if (skip != nullptr && BitmapTest(skip, tid)) continue;
    PsmaEntry& e = table[PsmaSlot(deltas(tid))];
    if (e.empty()) {
      e.begin = tid;
      e.end = tid + 1;
    } else {
      e.end = tid + 1;
    }
  }
}

/// Probes the PSMA for deltas in [dlo, dhi] and returns the union of the
/// ranges of all slots between the two probe slots (Section 3.2: "union the
/// non-empty ranges for the indexes from ia to ib"). `entries` is the table
/// size. Equality probes pass dlo == dhi.
PsmaRange PsmaProbe(const PsmaEntry* table, uint32_t entries, uint64_t dlo,
                    uint64_t dhi);

}  // namespace datablocks

#endif  // DATABLOCKS_DATABLOCK_PSMA_H_
