#ifndef DATABLOCKS_DATABLOCK_BLOCK_SUMMARY_H_
#define DATABLOCKS_DATABLOCK_BLOCK_SUMMARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datablock/data_block.h"
#include "datablock/psma.h"
#include "scan/predicate.h"

namespace datablocks {

/// Resident per-column metadata of one frozen block: everything SMA/PSMA
/// pruning needs, nothing that requires the payload. Kept small on purpose —
/// summaries stay in memory for *every* archived block, including evicted
/// ones, so a selective scan can rule a block out without reloading it.
struct ColumnSummary {
  uint8_t type;         // TypeId
  uint8_t compression;  // Compression
  uint8_t flags;        // AttrMeta::kHasNulls / kAllNull
  uint32_t dict_count = 0;
  int64_t min_val = 0;  // SMA min (int64, or double bit pattern)
  int64_t max_val = 0;  // SMA max
  std::string min_str, max_str;  // string SMA: first/last dictionary entry
  /// Optional resident copy of the block's PSMA lookup table (empty if the
  /// block has none or PSMA retention is disabled). Costs up to
  /// 8 * 256 * sizeof(PsmaEntry) bytes per column; buys scan-range proofs
  /// ("the probe range is empty") without touching the payload.
  std::vector<PsmaEntry> psma;

  bool has_nulls() const { return flags & AttrMeta::kHasNulls; }
  bool all_null() const { return flags & AttrMeta::kAllNull; }
  /// The same SMA that BlockSma reads from the block itself.
  ColumnSma sma() const;
};

/// A compact, always-resident summary of one frozen Data Block (paper
/// Section 3.2: SMAs and PSMAs exist so scans can skip blocks cheaply; the
/// summary keeps that ability alive after the block itself is evicted to
/// the archive). Extracted once at archive time and kept in table memory,
/// immutable afterwards.
class BlockSummary {
 public:
  BlockSummary() = default;

  /// Extracts the summary from a frozen block: its SMAs and a copy of its
  /// PSMA lookup tables.
  static BlockSummary Extract(const DataBlock& block);

  uint32_t row_count() const { return row_count_; }
  uint32_t num_columns() const { return uint32_t(cols_.size()); }
  const ColumnSummary& col(uint32_t c) const { return cols_[c]; }

  /// Approximate resident footprint (reporting).
  uint64_t MemoryBytes() const;

 private:
  uint32_t row_count_ = 0;
  std::vector<ColumnSummary> cols_;
};

/// Result of summary-only predicate translation. `skip == true` is a proof
/// that the full per-block translation (PrepareBlockScan) would also rule
/// the block out — so the scan may pass over the block without opening,
/// fetching or LRU-promoting it. `skip == false` means "cannot decide
/// without the payload" (e.g. a dictionary equality probe needs the
/// dictionary): the caller reloads the block and runs the precise path.
struct SummaryScanPrep {
  bool skip = false;
};

/// Summary-only SMA (and optionally PSMA) pruning: the evicted-block
/// counterpart of PrepareBlockScan. Why a summary skip is a block skip: the
/// summary holds the block's own SMA (ColumnSummary::sma() equals
/// BlockSma()) and PSMA tables, both paths judge the SMA with the one
/// JudgeSma, and the PSMA probe of a raw or truncated integer column comes
/// from the one LowerPredicate. So every reason to skip here is one that
/// PrepareBlockScan also finds; the block path only adds reasons that need
/// the payload (dictionary misses, PSMA probes in dictionary codes).
SummaryScanPrep PrepareSummaryScan(const BlockSummary& summary,
                                   const std::vector<Predicate>& preds,
                                   bool use_psma);

}  // namespace datablocks

#endif  // DATABLOCKS_DATABLOCK_BLOCK_SUMMARY_H_
