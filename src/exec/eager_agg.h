#ifndef DATABLOCKS_EXEC_EAGER_AGG_H_
#define DATABLOCKS_EXEC_EAGER_AGG_H_

#include <cstdint>
#include <vector>

#include "exec/table_scanner.h"

namespace datablocks {

/// Eager (early) aggregation inside the vectorized scan — the Appendix E
/// optimization: for aggregates that depend only on a scan and have few
/// groups, each chunk/block is pre-aggregated right where its vectors are
/// decompressed and only the tiny partial-aggregate state crosses the scan
/// boundary; a consuming operator re-aggregates the partials. This targets
/// the TPC-H Q1/Q6 shape.
struct EagerAggResult {
  int64_t count = 0;
  int64_t sum_a = 0;        // SUM(a)
  int64_t sum_product = 0;  // SUM(a * b); equals sum_a when b is omitted

  void Merge(const EagerAggResult& other) {
    count += other.count;
    sum_a += other.sum_a;
    sum_product += other.sum_product;
  }
};

/// Computes COUNT(*), SUM(a) and SUM(a*b) over the rows matching `preds`.
/// `col_a` / `col_b` must be integer-like columns; pass col_b = UINT32_MAX
/// for single-column aggregation. Aggregation happens per scan vector with
/// no tuple-at-a-time hand-off.
EagerAggResult EagerAggregate(const Table& table, uint32_t col_a,
                              uint32_t col_b, std::vector<Predicate> preds,
                              ScanMode mode,
                              uint32_t vector_size =
                                  TableScanner::kDefaultVectorSize,
                              Isa isa = BestIsa());

/// Grouped variant for small integer group keys in [0, num_groups): returns
/// one partial aggregate per group (Q1 shape: group count is tiny, so the
/// group array stays cache-resident inside the scan). A key outside
/// [0, num_groups) aborts.
std::vector<EagerAggResult> EagerAggregateGrouped(
    const Table& table, uint32_t group_col, uint32_t num_groups,
    uint32_t col_a, uint32_t col_b, std::vector<Predicate> preds,
    ScanMode mode,
    uint32_t vector_size = TableScanner::kDefaultVectorSize,
    Isa isa = BestIsa());

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_EAGER_AGG_H_
