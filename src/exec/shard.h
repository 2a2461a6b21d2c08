#ifndef DATABLOCKS_EXEC_SHARD_H_
#define DATABLOCKS_EXEC_SHARD_H_

// Shard-parallel execution: N independent engine instances per table.
//
//  * ShardedTable — hash-shards the visible rows of a source Table across
//    `num_shards` fully independent Tables (own chunks, own lifecycle, own
//    block summaries). Routing key = one int64 column; shard =
//    Hash64(key) % num_shards, so co-sharded tables (lineitem + orders on
//    orderkey) keep matching keys on the same shard.
//  * ShardSet — the shard configuration a QueryContext carries: sharded
//    views keyed by source-table address, so query code asks "is this
//    table sharded here?" and scans the single table when not.
//  * KeyOwner — co-partitioned ownership of dense keys derived from the
//    shard key, which lets a dense aggregation apply updates under the
//    producing shard's lock.
//
// A ShardedTable is scanned by the same MorselDriver (exec/parallel_scan.h)
// as a single table: it hands over its shards as a ShardList, and the
// driver claims morsels shard-affinely. Results stay bit-identical to the
// single-table engine: the same multiset of rows reaches the same consume
// bodies, merely in a different interleaving, and every accumulation and
// merge is exact and order-independent.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/hash_table.h"  // Hash64
#include "exec/parallel_scan.h"
#include "storage/table.h"

namespace datablocks {

/// A source table hash-partitioned into independent engine instances.
/// Built once (snapshot of the source's visible rows at build time); the
/// shard tables then live their own hot/frozen/evicted lifecycles.
class ShardedTable {
 public:
  /// Copies every visible source row into shard Hash64(row[route_col]) %
  /// num_shards. `route_col` must be an int64 column. Shard tables are
  /// named "<source>.s<i>" and inherit schema + chunk capacity. The source
  /// should be hot or frozen-resident (evicted chunks would fault in
  /// through the fetcher row by row).
  ShardedTable(const Table& source, unsigned num_shards, uint32_t route_col);

  ShardedTable(const ShardedTable&) = delete;
  ShardedTable& operator=(const ShardedTable&) = delete;

  static unsigned ShardOf(int64_t key, unsigned num_shards) {
    return unsigned(Hash64(uint64_t(key)) % num_shards);
  }

  const Table* source() const { return source_; }
  uint32_t route_col() const { return route_col_; }
  unsigned num_shards() const { return unsigned(shards_.size()); }
  const Table& shard(unsigned i) const { return *shards_[i]; }
  Table& shard_mut(unsigned i) { return *shards_[i]; }

  /// The shard tables as the list a MorselDriver scans.
  ShardList shards() const {
    std::vector<const Table*> tables;
    tables.reserve(shards_.size());
    for (const auto& t : shards_) tables.push_back(t.get());
    return ShardList(std::move(tables));
  }

  uint64_t num_rows() const;
  uint64_t num_visible() const;

  /// Freezes every shard's chunks into Data Blocks.
  void FreezeAll(int sort_col = -1, bool build_psma = true);

 private:
  const Table* source_;
  uint32_t route_col_;
  // unique_ptr: shard Table addresses must be stable (lifecycle managers
  // and scanners bind to them).
  std::vector<std::unique_ptr<Table>> shards_;
};

/// The shard configuration of one execution context: sharded views of some
/// tables, looked up by source-table address. Tables without an entry run
/// the ordinary single-table pipelines.
class ShardSet {
 public:
  ShardSet() = default;
  ShardSet(ShardSet&&) = default;
  ShardSet& operator=(ShardSet&&) = default;

  ShardedTable& Add(const Table& source, unsigned num_shards,
                    uint32_t route_col) {
    tables_.push_back(
        std::make_unique<ShardedTable>(source, num_shards, route_col));
    return *tables_.back();
  }

  /// The sharded view of `source`, nullptr when it is not sharded here.
  const ShardedTable* Find(const Table& source) const {
    for (const auto& t : tables_) {
      if (t->source() == &source) return t.get();
    }
    return nullptr;
  }

  size_t size() const { return tables_.size(); }
  const ShardedTable& at(size_t i) const { return *tables_[i]; }
  ShardedTable& at(size_t i) { return *tables_[i]; }

  /// Max shard count across the set (1 when empty) — the "shards" knob a
  /// profile or bench header reports.
  unsigned num_shards() const {
    unsigned n = 1;
    for (const auto& t : tables_) n = std::max(n, t->num_shards());
    return n;
  }

  void FreezeAll(int sort_col = -1, bool build_psma = true) {
    for (auto& t : tables_) t->FreezeAll(sort_col, build_psma);
  }

 private:
  std::vector<std::unique_ptr<ShardedTable>> tables_;
};

/// Co-partitioned ownership for dense domains DERIVED FROM the shard key
/// (e.g. order ordinals on an orderkey-sharded fact table): element k is
/// owned by the shard whose rows produce it, so a dense aggregation can
/// apply every update in place under the producing shard's lock instead of
/// routing it to a lock partition. `route_key_of` must truly invert the
/// dense index back to the row's routing key (CONTRACT, assert-checked in
/// debug builds): a domain not derived from the shard key routed this way
/// would race two shards onto one element.
struct KeyOwner {
  int64_t (*route_key_of)(size_t key);
  unsigned num_shards;
  unsigned operator()(size_t key) const {
    return ShardedTable::ShardOf(route_key_of(key), num_shards);
  }
};

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_SHARD_H_
