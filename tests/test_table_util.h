#ifndef DATABLOCKS_TESTS_TEST_TABLE_UTIL_H_
#define DATABLOCKS_TESTS_TEST_TABLE_UTIL_H_

// Shared helpers for the storage/lifecycle suites (archive_test,
// lifecycle_test): a small int+string schema, a table filler, and an
// order-sensitive full-scan fingerprint for scan-equality checks.

#include <string>
#include <string_view>
#include <vector>

#include "exec/table_scanner.h"
#include "storage/table.h"
#include "util/rng.h"

namespace datablocks {

inline Schema TestTableSchema() {
  return Schema({{"id", TypeId::kInt64},
                 {"val", TypeId::kInt32},
                 {"name", TypeId::kString}});
}

/// Fills a table whose id column is the global insert index (so
/// id == chunk * chunk_capacity + row while nothing is reordered).
/// `delete_every > 0` deletes every k-th row before the optional freeze.
inline Table MakeTestTable(uint32_t n, uint32_t chunk_capacity,
                           uint32_t delete_every = 0, bool freeze = false,
                           uint64_t seed = 7) {
  Table t("t", TestTableSchema(), chunk_capacity);
  Rng rng(seed);
  std::vector<RowId> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ids.push_back(
        t.Insert({Cell::Int(i), Cell::Int(int32_t(rng.Uniform(0, 1000))),
                  Cell::Str("name_" + std::to_string(rng.Uniform(0, 50)))}));
  }
  if (delete_every != 0) {
    for (uint32_t i = 0; i < n; i += delete_every) t.Delete(ids[i]);
  }
  if (freeze) t.FreezeAll();
  return t;
}

struct ScanResult {
  int64_t count = 0, sum = 0;
  size_t str_hash = 0;

  bool operator==(const ScanResult& o) const {
    return count == o.count && sum == o.sum && str_hash == o.str_hash;
  }
};

/// Fingerprint of a full scan over all three columns of a MakeTestTable
/// table (visible rows only, in scan order).
inline ScanResult FullScan(const Table& t,
                           ScanMode mode = ScanMode::kDataBlocks) {
  TableScanner scan(t, {0, 1, 2}, {}, mode);
  Batch b;
  ScanResult r;
  while (scan.Next(&b)) {
    for (uint32_t i = 0; i < b.count; ++i) {
      ++r.count;
      r.sum += b.cols[0].i64[i] + b.cols[1].i32[i];
      r.str_hash ^= std::hash<std::string_view>()(b.cols[2].Str(i)) +
                    0x9e3779b9 + (r.str_hash << 6) + (r.str_hash >> 2);
    }
  }
  return r;
}

}  // namespace datablocks

#endif  // DATABLOCKS_TESTS_TEST_TABLE_UTIL_H_
