#ifndef DATABLOCKS_DATABLOCK_BLOCK_SCAN_H_
#define DATABLOCKS_DATABLOCK_BLOCK_SCAN_H_

#include <cstdint>
#include <vector>

#include "datablock/data_block.h"
#include "exec/batch.h"
#include "scan/match_finder.h"
#include "scan/predicate.h"

namespace datablocks {

/// A SARGable predicate translated into one block's compressed domain
/// (Section 3.4: "restriction constants have to be converted into their
/// compressed representation", done once per block). Hot chunks use the
/// same form for their uncompressed columns, lowered once per scan.
struct BlockPred {
  enum class Kind : uint8_t {
    kRange,     // lo <= code <= hi in the (unsigned or signed) code domain
    kNe,        // code != ne
    kInSet,     // code (or raw value) is one of in_codes / in_dbls
    kIsNull,    // NULL bitmap bit set
    kIsNotNull  // NULL bitmap bit clear
  };

  uint32_t col = 0;
  Kind kind = Kind::kRange;
  uint8_t width = 0;       // code width in bytes
  bool is_signed = false;  // raw int32/int64 storage: compare signed
  bool is_double = false;  // raw double storage: scalar double comparison
  uint64_t lo = 0, hi = 0; // inclusive bounds (bit patterns when signed)
  uint64_t ne = 0;
  double dlo = 0, dhi = 0, dne = 0;
  // kInSet membership: sorted, deduplicated code (or sign-extended raw
  // value) bit patterns; in_dbls for raw double storage. An IN list whose
  // surviving codes are contiguous is lowered to kRange instead. Up to
  // kMaxInKernelSet integer codes run the FindMatchesIn/ReduceMatchesIn
  // kernels; larger sets and doubles binary-search the sorted set.
  std::vector<uint64_t> in_codes;
  std::vector<double> in_dbls;
  // PSMA probe deltas (only meaningful for kRange on PSMA-indexed columns).
  bool psma_usable = false;
  uint64_t psma_dlo = 0, psma_dhi = 0;
};

/// The per-block result of predicate translation plus SMA/PSMA pruning.
struct BlockScanPrep {
  bool skip = false;       // SMA or dictionary lookup ruled the block out
  uint32_t range_begin = 0;
  uint32_t range_end = 0;  // PSMA-narrowed scan range [begin, end)
  std::vector<BlockPred> preds;         // residual predicates
  std::vector<uint32_t> null_filters;   // columns whose NULLs must be removed
                                        // even though their predicate became
                                        // trivially true / range-covering

  bool MatchAll() const {
    return !skip && preds.empty() && null_filters.empty();
  }
};

/// The SMA of one block column; for strings its first and last dictionary
/// entries.
ColumnSma BlockSma(const DataBlock& block, uint32_t col);

/// Lowers predicate p, after the shared SMA check (JudgeSma), into the
/// domain of the codes that column p.col stores under `scheme`. `block`
/// holds the column; it may be null for raw and truncated integers and raw
/// doubles, which lower from `sma` alone. A hot chunk column lowers as a
/// kRaw column whose SMA is its type's full domain. Returns kNone or kAll
/// when the column rules p out or implies it (NULLs aside), else kSome with
/// the residual predicate in *bp.
Verdict LowerPredicate(const Predicate& p, const ColumnSma& sma,
                       Compression scheme, const DataBlock* block,
                       BlockPred* bp);

/// Translates `preds` against `block`: applies SMA skipping, dictionary
/// lookups and (optionally) PSMA range narrowing. The residual predicates
/// come out most selective first, estimated from the block's metadata;
/// ties keep the query order.
BlockScanPrep PrepareBlockScan(const DataBlock& block,
                               const std::vector<Predicate>& preds,
                               bool use_psma);

/// Keeps the rows for which keep(row) holds: rows [from, to) when `first`,
/// else the n ascending positions already in `out`, filtered in place.
/// Returns the new count.
template <typename Keep>
uint32_t SelectRows(bool first, uint32_t from, uint32_t to, uint32_t n,
                    uint32_t* out, Keep keep) {
  uint32_t* w = out;
  if (first) {
    for (uint32_t i = from; i < to; ++i) {
      *w = i;
      w += keep(i);
    }
  } else {
    for (uint32_t j = 0; j < n; ++j) {
      const uint32_t p = out[j];
      *w = p;
      w += keep(p);
    }
  }
  return uint32_t(w - out);
}

/// Evaluates one lowered predicate with SelectRows semantics on a column
/// whose code (or raw value) vector is `data` and NULL bitmap `nulls` (null
/// when there is none): a frozen block's column or a hot chunk's. `out`
/// must have room for (to - from) + 8 entries.
uint32_t RunBlockPred(const BlockPred& bp, const uint8_t* data,
                      const uint64_t* nulls, uint32_t from, uint32_t to,
                      Isa isa, bool first, uint32_t n, uint32_t* out);

/// Evaluates the residual predicates of `prep` on rows [from, to) of the
/// block and writes matching positions to `out` (ascending). `out` must have
/// room for (to - from) + 8 entries. Returns the match count.
uint32_t FindMatchesInBlock(const DataBlock& block, const BlockScanPrep& prep,
                            uint32_t from, uint32_t to, Isa isa,
                            uint32_t* out);

/// Unpacks ("decompresses") column values at the given positions, appending
/// to `out` (Section 3.4: matches are unpacked by position).
void UnpackColumn(const DataBlock& block, uint32_t col,
                  const uint32_t* positions, uint32_t n, ColumnVector* out);

/// Unpacks the contiguous row range [from, to) — the paper's optimization
/// for fully-matching vectors and the decompress-all baseline.
void UnpackColumnRange(const DataBlock& block, uint32_t col, uint32_t from,
                       uint32_t to, ColumnVector* out);

/// Emits a dictionary-compressed string column as a code-carrying
/// ColumnVector: the dictionary codes at `positions` are appended to
/// `out->codes` and `out` is bound to the block's dictionary, so strings are
/// only decoded for rows the consumer materializes through Str(). The block
/// must outlive the batch (the scanner's read section guarantees this).
void UnpackColumnCodes(const DataBlock& block, uint32_t col,
                       const uint32_t* positions, uint32_t n,
                       ColumnVector* out);

/// Code-carrying form of UnpackColumnRange.
void UnpackColumnCodesRange(const DataBlock& block, uint32_t col,
                            uint32_t from, uint32_t to, ColumnVector* out);

/// Keeps the positions whose bitmap bit equals `keep_set`. `bitmap` may be
/// null, in which case all positions are kept (bits treated as clear).
/// `out` may alias `positions`.
uint32_t FilterPositionsByBitmap(const uint32_t* positions, uint32_t n,
                                 const uint64_t* bitmap, bool keep_set,
                                 uint32_t* out);

}  // namespace datablocks

#endif  // DATABLOCKS_DATABLOCK_BLOCK_SCAN_H_
