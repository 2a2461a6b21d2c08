#include "exec/shard.h"

#include <string>

namespace datablocks {

ShardedTable::ShardedTable(const Table& source, unsigned num_shards,
                           uint32_t route_col)
    : source_(&source), route_col_(route_col) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Table>(
        source.name() + ".s" + std::to_string(s), source.schema(),
        source.chunk_capacity()));
  }

  // Route every visible row. GetValue works on hot and frozen-resident
  // chunks alike (frozen values decompress from a single position), so the
  // build does not care what lifecycle state the source is in.
  const uint32_t ncols = source.schema().num_columns();
  std::vector<Value> row(ncols);
  for (size_t c = 0; c < source.num_chunks(); ++c) {
    const uint32_t nrows = source.chunk_rows(c);
    for (uint32_t r = 0; r < nrows; ++r) {
      const RowId id = MakeRowId(c, r);
      if (!source.IsVisible(id)) continue;
      for (uint32_t col = 0; col < ncols; ++col) {
        row[col] = source.GetValue(id, col);
      }
      const int64_t key = source.GetInt(id, route_col_);
      shards_[ShardOf(key, num_shards)]->Insert(row);
    }
  }
}

uint64_t ShardedTable::num_rows() const {
  uint64_t n = 0;
  for (const auto& t : shards_) n += t->num_rows();
  return n;
}

uint64_t ShardedTable::num_visible() const {
  uint64_t n = 0;
  for (const auto& t : shards_) n += t->num_visible();
  return n;
}

void ShardedTable::FreezeAll(int sort_col, bool build_psma) {
  for (auto& t : shards_) t->FreezeAll(sort_col, build_psma);
}

}  // namespace datablocks
