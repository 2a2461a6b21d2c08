#include "exec/eager_agg.h"

#include "util/macros.h"

namespace datablocks {

namespace {

int64_t IntAt(const ColumnVector& cv, uint32_t i) {
  switch (cv.type) {
    case TypeId::kInt32:
    case TypeId::kDate:
    case TypeId::kChar1:
      return cv.i32[i];
    case TypeId::kInt64:
      return cv.i64[i];
    default:
      DB_CHECK(false && "eager aggregation requires integer-like columns");
      return 0;
  }
}

}  // namespace

EagerAggResult EagerAggregate(const Table& table, uint32_t col_a,
                              uint32_t col_b, std::vector<Predicate> preds,
                              ScanMode mode, uint32_t vector_size, Isa isa) {
  const bool two_cols = col_b != UINT32_MAX;
  std::vector<uint32_t> cols = {col_a};
  if (two_cols) cols.push_back(col_b);
  TableScanner scan(table, cols, std::move(preds), mode, vector_size, isa);

  EagerAggResult total;
  Batch batch;
  while (scan.Next(&batch)) {
    // Per-vector pre-aggregation: a tight loop over the decompressed
    // vectors; nothing is pushed tuple-at-a-time.
    EagerAggResult partial;
    const ColumnVector& a = batch.cols[0];
    if (two_cols) {
      const ColumnVector& b = batch.cols[1];
      if (a.type == TypeId::kInt64 && b.type == TypeId::kInt32) {
        // Fast path for the money * percent shape (Q6).
        const int64_t* av = a.i64.data();
        const int32_t* bv = b.i32.data();
        for (uint32_t i = 0; i < batch.count; ++i) {
          partial.sum_a += av[i];
          partial.sum_product += av[i] * bv[i];
        }
      } else {
        for (uint32_t i = 0; i < batch.count; ++i) {
          int64_t va = IntAt(a, i);
          partial.sum_a += va;
          partial.sum_product += va * IntAt(b, i);
        }
      }
    } else {
      for (uint32_t i = 0; i < batch.count; ++i) {
        int64_t va = IntAt(a, i);
        partial.sum_a += va;
        partial.sum_product += va;
      }
    }
    partial.count = batch.count;
    total.Merge(partial);  // re-aggregation of the partial aggregate
  }
  return total;
}

std::vector<EagerAggResult> EagerAggregateGrouped(
    const Table& table, uint32_t group_col, uint32_t num_groups,
    uint32_t col_a, uint32_t col_b, std::vector<Predicate> preds,
    ScanMode mode, uint32_t vector_size, Isa isa) {
  const bool two_cols = col_b != UINT32_MAX;
  std::vector<uint32_t> cols = {group_col, col_a};
  if (two_cols) cols.push_back(col_b);
  TableScanner scan(table, cols, std::move(preds), mode, vector_size, isa);

  std::vector<EagerAggResult> groups(num_groups);
  Batch batch;
  while (scan.Next(&batch)) {
    const ColumnVector& g = batch.cols[0];
    const ColumnVector& a = batch.cols[1];
    for (uint32_t i = 0; i < batch.count; ++i) {
      int64_t key = IntAt(g, i);
      DB_CHECK(key >= 0 && uint64_t(key) < num_groups);
      EagerAggResult& agg = groups[size_t(key)];
      int64_t va = IntAt(a, i);
      ++agg.count;
      agg.sum_a += va;
      agg.sum_product += two_cols ? va * IntAt(batch.cols[2], i) : va;
    }
  }
  return groups;
}

}  // namespace datablocks
