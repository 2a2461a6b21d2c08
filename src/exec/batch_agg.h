#ifndef DATABLOCKS_EXEC_BATCH_AGG_H_
#define DATABLOCKS_EXEC_BATCH_AGG_H_

// Batch-at-a-time aggregation kernels for the pipeline consumes.
//
// A consume that folds every row into an aggregate in memory pays one
// load-add-store per row and value, and rows that hit the same group wait
// on each other's stores. These kernels take a whole batch instead and
// keep the partial sums in registers:
//
//  * Small-group sums (PricingSums, TPC-H Q1): a few distinct group keys
//    per batch. Each key gets a slot; every value, including the derived
//    discounted price and charge computed in the same loop, is summed per
//    slot with masked adds (the last slot is the total minus the others),
//    and only the per-slot totals are written out. A chunk of rows with
//    more than kRegisterGroups distinct keys takes the per-row path.
//  * RunSums: rows clustered by key (lineitem by orderkey, Q18). One
//    branch-free pass emits one (key, sum) per run of equal adjacent keys,
//    so the consumer updates its aggregate once per run, not once per row.
//
// Each kernel has an AVX2 flavour and a scalar flavour, selected through
// Isa (kSse runs the scalar one): PricingSums' scalar flavour is its
// per-row path, RunSums' the same branch-free pass one row at a time.
// Both flavours produce identical results: every sum is exact integer
// arithmetic.

#include <cstdint>

#include "scan/match_finder.h"

namespace datablocks {

/// Distinct keys per chunk of rows that PricingSums sums in registers.
inline constexpr uint32_t kRegisterGroups = 8;

/// The columns TPC-H Q1 sums, one batch: returnflag and linestatus are
/// single letters (kChar1), prices in cents, discount and tax in percent.
struct PricingColumns {
  const int32_t* quantity;
  const int64_t* extendedprice;
  const int32_t* discount;
  const int32_t* tax;
  const int32_t* returnflag;
  const int32_t* linestatus;
};

/// The sums PricingSums keeps per group, in grid-row order.
enum PricingSum : uint32_t {
  kSumQty,
  kSumBasePrice,
  kSumDiscPrice,  // price * (100 - discount)
  kSumCharge,     // that * (100 + tax) / 100, truncated per row
  kSumDisc,
  kPricingSums
};

/// Groups of Q1: key (returnflag - 'A') * 26 + (linestatus - 'A').
inline constexpr uint32_t kFlagGrid = 26 * 26;

/// Q1's grouped sums over rows[0, n), the small-group kernel with Q1's
/// derived values computed in its loop: for every row, adds quantity,
/// price, dp = price * (100 - discount), dp * (100 + tax) / 100 (C++
/// truncating division) and discount to sums[key * kPricingSums + ...]
/// and 1 to counts[key]. A flag that is not an upper-case letter aborts
/// (DB_CHECK).
///
/// The AVX2 flavour works on chunks of 512 rows. A chunk whose rows have
/// at most kRegisterGroups keys and lie in the bounds that make its
/// arithmetic exact (price in [0, 2^24), quantity in [0, 64), discount in
/// [0, 16), tax in [0, 2^24)) is summed in registers: price, quantity,
/// discount and a row count share one 64-bit lane, and the division by
/// 100 is a 32-bit multiply-shift. Any other chunk, and the scalar
/// flavour, go row by row through the formula above.
void PricingSums(const PricingColumns& rows, uint32_t n, int64_t* sums,
                 int64_t* counts, Isa isa = BestIsa());

/// Run sums: splits keys[0, n) into maximal runs of equal adjacent keys
/// and writes run j's key to run_keys[j] and the sum of its vals to
/// run_sums[j], in row order. Returns the number of runs; run_keys and
/// run_sums need room for n entries. A key that recurs after a different
/// one starts a new run.
uint32_t RunSums(const int64_t* keys, const int32_t* vals, uint32_t n,
                 int64_t* run_keys, int64_t* run_sums, Isa isa = BestIsa());

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_BATCH_AGG_H_
