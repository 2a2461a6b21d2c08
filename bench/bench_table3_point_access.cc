// Table 3: throughput of random point-access queries
//   select * from customer where c_custkey = randomCustKey()
// with / without a primary-key index, on uncompressed storage and on Data
// Blocks (± PSMA), for both the natural c_custkey order and a shuffled
// relation (where SMAs/PSMAs cannot narrow the scan). The indexed lookups
// also run on evicted Data Blocks (a lifecycle manager at budget 0): each
// reads the 4 KB pages that hold its row — and the spine, on moving to
// another block — from the archive into the thread's point image. The run
// exits non-zero if any evicted tuple differs from the resident one, if
// evicted lookups read more than kMaxEvictedKbPerLookup of archive each,
// or, with --quick at its default scale, if they read other than exactly
// the pinned bytes and pages (kQuickEvicted*). Each tuple is read inside
// one Table::ReadSection. The "x4" rows run four lookup threads at once,
// resident and evicted, to show how lookups scale. With --quick the
// evicted copies use 1024-row chunks, so that a lookup usually lands in
// another block than the one before it, as lookups over a large relation
// do.
// Beside the lookups it prints the OLTP write unit costs in ns per row:
// an insert of a whole customer row into the hot tail, a one-column
// in-place update of a hot row, a relocation (Table::UpdateRow of a
// frozen row: the row copied out of its Data Block into the hot tail), and
// a delete of a hot row (one atomic fetch_or on its chunk's delete bitmap).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exec/table_scanner.h"
#include "lifecycle/lifecycle_manager.h"
#include "storage/pk_index.h"
#include "tpch/tpch_db.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;
using namespace datablocks::tpch;

namespace {

/// Archive KB an evicted lookup may read: the row's pages of every column,
/// not their extents. Deterministic for the fixed seeds: lookups read
/// 42.2 KB with --quick and 57.9 KB at the default SF 0.5, where reading
/// the accessed columns' whole extents took 172 KB and 1867 KB.
constexpr double kMaxEvictedKbPerLookup = 64;

/// Archive bytes and extent pages all evicted lookups of a --quick run at
/// its default scale read, ordered and shuffled: 42.2 KB and 11.4 pages a
/// lookup each. The run pins them exactly, so a change to what a point
/// read fetches fails it.
constexpr uint64_t kQuickEvictedBytes[2] = {1079944064, 1079927424};
constexpr uint64_t kQuickEvictedPages[2] = {285411, 285385};

std::unique_ptr<Table> CopyRows(const Table& src, bool shuffle,
                                uint64_t seed,
                                uint32_t chunk_capacity = 0) {
  std::vector<RowId> ids;
  for (size_t c = 0; c < src.num_chunks(); ++c)
    for (uint32_t r = 0; r < src.chunk_rows(c); ++r)
      ids.push_back(MakeRowId(c, r));
  if (shuffle) {
    std::mt19937_64 rng(seed);
    std::shuffle(ids.begin(), ids.end(), rng);
  }
  auto dst = std::make_unique<Table>(
      src.name() + "_copy", src.schema(),
      chunk_capacity != 0 ? chunk_capacity : src.chunk_capacity());
  std::vector<Value> row(src.schema().num_columns());
  for (RowId id : ids) {
    for (uint32_t c = 0; c < src.schema().num_columns(); ++c)
      row[c] = src.GetValue(id, c);
    dst->Insert(CellsOf(row));
  }
  return dst;
}

struct WriteCosts {
  double insert_ns = 0, inplace_ns = 0, relocate_ns = 0, delete_ns = 0;
};

/// Write unit costs over `n` rows, the median of three runs on fresh
/// tables: n inserts of `src`'s rows (cycled), each written as cells of
/// the row's values, one UpdateRow of c_acctbal per inserted row, in place
/// (the row is hot), after freezing the table one more per row, each a
/// relocation out of the resident block, and then one Delete per relocated
/// row, which sits in the hot tail. Writes run 16 to a read section, as a
/// transaction's do.
WriteCosts MeasureWrites(const Table& src, int n) {
  constexpr int kPerSection = 16;
  const uint32_t ncols = src.schema().num_columns();
  std::vector<std::vector<Value>> rows;
  for (size_t c = 0; c < src.num_chunks(); ++c) {
    for (uint32_t r = 0; r < src.chunk_rows(c); ++r) {
      std::vector<Value>& row = rows.emplace_back();
      for (uint32_t col = 0; col < ncols; ++col)
        row.push_back(src.GetValue(MakeRowId(c, r), col));
    }
  }
  std::vector<Cell> cells(ncols);
  std::vector<double> insert, inplace, relocate, del;
  for (int rep = 0; rep < 3; ++rep) {
    Table t("writes", src.schema(), src.chunk_capacity());
    std::vector<RowId> ids(size_t(n), 0);
    // Runs write(i) for every row, kPerSection to a section; ns per row.
    auto per_row = [n](auto&& write) {
      Timer timer;
      for (int i = 0; i < n;) {
        Table::ReadSection section;
        for (const int end = std::min(n, i + kPerSection); i < end; ++i)
          write(size_t(i));
      }
      return timer.ElapsedSeconds() * 1e9 / n;
    };
    insert.push_back(per_row([&](size_t i) {
      const std::vector<Value>& row = rows[i % rows.size()];
      for (uint32_t c = 0; c < ncols; ++c) cells[c] = row[c].cell();
      ids[i] = t.Insert(cells);
    }));
    inplace.push_back(per_row([&](size_t i) {
      ids[i] = t.UpdateRow(ids[i],
                           {{col::customer::acctbal, Cell::Int(int64_t(i))}});
    }));
    t.FreezeAll();
    relocate.push_back(per_row([&](size_t i) {
      ids[i] = t.UpdateRow(ids[i],
                           {{col::customer::acctbal, Cell::Int(-int64_t(i))}});
    }));
    if (t.num_visible() != uint64_t(n) ||
        t.GetInt(ids[0], col::customer::acctbal) != 0) {
      std::abort();
    }
    del.push_back(per_row([&](size_t i) { t.Delete(ids[i]); }));
    if (t.num_visible() != 0) std::abort();
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  return {median(insert), median(inplace), median(relocate), median(del)};
}

/// One point query via a full (SMA/PSMA-narrowed) scan.
uint64_t LookupByScan(const Table& t, int64_t key, ScanMode mode) {
  TableScanner scan(t, {col::customer::custkey, col::customer::acctbal},
                    {Predicate::Eq(col::customer::custkey, Value::Int(key))},
                    mode);
  Batch b;
  uint64_t found = 0;
  while (scan.Next(&b)) found += b.count;
  return found;
}

double ScanLookupsPerSecond(const Table& t, ScanMode mode, int64_t max_key,
                            int probes) {
  std::mt19937_64 rng(7);
  Timer timer;
  uint64_t found = 0;
  for (int i = 0; i < probes; ++i)
    found += LookupByScan(t, int64_t(rng() % uint64_t(max_key)) + 1, mode);
  double secs = timer.ElapsedSeconds();
  if (found == 0) std::abort();
  return probes / secs;
}

double IndexLookupsPerSecond(const Table& t, const PkIndex& idx,
                             int64_t max_key, int probes, uint64_t seed = 9) {
  std::mt19937_64 rng(seed);
  Timer timer;
  uint64_t sink = 0;
  for (int i = 0; i < probes; ++i) {
    auto rid = idx.Lookup(int64_t(rng() % uint64_t(max_key)) + 1);
    if (rid) {
      // Reconstruct the full tuple, like `select *`, in one read section:
      // its column reads take no pin.
      Table::ReadSection section;
      for (uint32_t c = 0; c < t.schema().num_columns(); ++c) {
        switch (t.schema().type(c)) {
          case TypeId::kString:
            sink += t.GetStringView(*rid, c).size();
            break;
          case TypeId::kDouble:
            sink += uint64_t(t.GetDouble(*rid, c));
            break;
          default:
            sink += uint64_t(t.GetInt(*rid, c));
        }
      }
    }
  }
  double secs = timer.ElapsedSeconds();
  if (sink == 0) std::abort();
  return probes / secs;
}

/// Lookups/s of `threads` threads each running `probes` indexed lookups
/// of their own keys at once, over the wall time of the slowest.
double ParallelIndexLookupsPerSecond(const Table& t, const PkIndex& idx,
                                     int64_t max_key, int probes,
                                     int threads) {
  std::vector<std::thread> pool;
  Timer timer;
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] {
      IndexLookupsPerSecond(t, idx, max_key, probes, 9 + uint64_t(i));
    });
  }
  for (std::thread& th : pool) th.join();
  return double(threads) * probes / timer.ElapsedSeconds();
}

/// Keys of `probes` lookups whose tuples differ between `a` and `b`.
int CountMismatches(const Table& a, const PkIndex& idx_a, const Table& b,
                    const PkIndex& idx_b, int64_t max_key, int probes) {
  std::mt19937_64 rng(11);
  int mismatches = 0;
  for (int i = 0; i < probes; ++i) {
    const int64_t key = int64_t(rng() % uint64_t(max_key)) + 1;
    auto ra = idx_a.Lookup(key), rb = idx_b.Lookup(key);
    bool same = ra.has_value() == rb.has_value();
    for (uint32_t c = 0; same && ra && c < a.schema().num_columns(); ++c)
      same = a.GetValue(*ra, c) == b.GetValue(*rb, c);
    if (!same) {
      if (mismatches < 5)
        std::fprintf(stderr, "evicted lookup of key %lld differs\n",
                     static_cast<long long>(key));
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  BenchJsonMode(&argc, argv, quick);
  TpchConfig cfg;
  cfg.scale_factor = argc > 1 ? atof(argv[1]) : (quick ? 0.02 : 0.5);
  const int idx_probes = quick ? 5000 : 200000;
  constexpr int kThreads = 4;  // the "x4" rows: concurrent lookup threads
  const int scan_probes = quick ? 5 : 200;

  std::printf("generating TPC-H SF %.2f customer relation...\n",
              cfg.scale_factor);
  auto db = MakeTpch(cfg);
  const int64_t max_key = db->NumCustomers();

  // Four table states: {ordered, shuffled} x {uncompressed, frozen}.
  Table& hot_ordered = db->customer;
  auto shuffled = CopyRows(hot_ordered, /*shuffle=*/true, 3);
  auto frozen_ord_owner = CopyRows(hot_ordered, /*shuffle=*/false, 0);
  Table& frozen_ord = *frozen_ord_owner;
  frozen_ord.FreezeAll();
  auto frozen_shuf = CopyRows(hot_ordered, /*shuffle=*/true, 3);
  frozen_shuf->FreezeAll();

  PkIndex idx_hot_ord(hot_ordered, col::customer::custkey);
  PkIndex idx_hot_shuf(*shuffled, col::customer::custkey);
  PkIndex idx_frozen_ord(frozen_ord, col::customer::custkey);
  PkIndex idx_frozen_shuf(*frozen_shuf, col::customer::custkey);

  // Evicted twins of the frozen tables: indexed while resident, then every
  // block goes to a temporary archive and stays there. The quick run's
  // relation fits one default block, so its twins use small ones.
  const uint32_t evicted_capacity = quick ? 1024 : 0;
  auto evicted_ord =
      CopyRows(hot_ordered, /*shuffle=*/false, 0, evicted_capacity);
  evicted_ord->FreezeAll();
  auto evicted_shuf =
      CopyRows(hot_ordered, /*shuffle=*/true, 3, evicted_capacity);
  evicted_shuf->FreezeAll();
  PkIndex idx_evicted_ord(*evicted_ord, col::customer::custkey);
  PkIndex idx_evicted_shuf(*evicted_shuf, col::customer::custkey);
  const std::string spill =
      (std::filesystem::temp_directory_path() /
       ("bench_table3_" + std::to_string(::getpid()) + "_"))
          .string();
  LifecycleConfig evict_all;
  evict_all.memory_budget_bytes = 0;
  LifecycleManager mgr_ord(evicted_ord.get(), spill + "ord.dbar", evict_all);
  LifecycleManager mgr_shuf(evicted_shuf.get(), spill + "shuf.dbar",
                            evict_all);
  mgr_ord.Tick();
  mgr_shuf.Tick();
  // Lookups must leave every block evicted.
  auto all_evicted = [&](const char* when) {
    for (const Table* t : {evicted_ord.get(), evicted_shuf.get()}) {
      for (size_t c = 0; c < t->num_chunks(); ++c) {
        if (t->is_evicted(c)) continue;
        std::fprintf(stderr, "chunk %zu of %s is resident %s\n", c,
                     t->name().c_str(), when);
        return false;
      }
    }
    return true;
  };
  if (!all_evicted("before the lookups")) return 1;

  std::printf(
      "\n=== Table 3: point-access throughput (lookups/s), SF %.2f ===\n",
      cfg.scale_factor);
  std::printf("%-34s %14s %14s\n", "configuration", "ordered", "shuffled");

  auto report = [](const char* label, const char* json_name, double ordered,
                   double shuffled) {
    std::printf("%-34s %14.0f %14.0f\n", label, ordered, shuffled);
    BenchJsonRecord(json_name, "ordered", 1e9 / ordered, ordered);
    BenchJsonRecord(json_name, "shuffled", 1e9 / shuffled, shuffled);
  };

  report("uncompressed (JIT)    PK index", "table3_pk_index_hot",
         IndexLookupsPerSecond(hot_ordered, idx_hot_ord, max_key, idx_probes),
         IndexLookupsPerSecond(*shuffled, idx_hot_shuf, max_key, idx_probes));
  report("Data Blocks           PK index", "table3_pk_index_frozen",
         IndexLookupsPerSecond(frozen_ord, idx_frozen_ord, max_key,
                               idx_probes),
         IndexLookupsPerSecond(*frozen_shuf, idx_frozen_shuf, max_key,
                               idx_probes));
  report("Data Blocks           PK index x4", "table3_pk_index_frozen_x4",
         ParallelIndexLookupsPerSecond(frozen_ord, idx_frozen_ord, max_key,
                                       idx_probes, kThreads),
         ParallelIndexLookupsPerSecond(*frozen_shuf, idx_frozen_shuf, max_key,
                                       idx_probes, kThreads));
  report("Data Blocks (evicted) PK index", "table3_pk_index_evicted",
         IndexLookupsPerSecond(*evicted_ord, idx_evicted_ord, max_key,
                               idx_probes),
         IndexLookupsPerSecond(*evicted_shuf, idx_evicted_shuf, max_key,
                               idx_probes));
  report("Data Blocks (evicted) PK index x4", "table3_pk_index_evicted_x4",
         ParallelIndexLookupsPerSecond(*evicted_ord, idx_evicted_ord, max_key,
                                       idx_probes, kThreads),
         ParallelIndexLookupsPerSecond(*evicted_shuf, idx_evicted_shuf,
                                       max_key, idx_probes, kThreads));
  const LifecycleStats lo = mgr_ord.stats(), ls = mgr_shuf.stats();
  const double evicted_lookups = double(idx_probes) * (1 + kThreads);
  const double kb_ord = double(lo.archive_bytes_read) / 1024 / evicted_lookups;
  const double kb_shuf =
      double(ls.archive_bytes_read) / 1024 / evicted_lookups;
  std::printf("%-34s %14.1f %14.1f\n", "  evicted: archive KB per lookup",
              kb_ord, kb_shuf);
  std::printf("%-34s %14.1f %14.1f\n", "  evicted: pages read per lookup",
              double(lo.archive_pages_read) / evicted_lookups,
              double(ls.archive_pages_read) / evicted_lookups);
  std::printf("%-34s %14zu %14zu\n", "  evicted: blocks",
              evicted_ord->num_chunks(), evicted_shuf->num_chunks());
  const int mismatches =
      CountMismatches(frozen_ord, idx_frozen_ord, *evicted_ord,
                      idx_evicted_ord, max_key, idx_probes) +
      CountMismatches(*frozen_shuf, idx_frozen_shuf, *evicted_shuf,
                      idx_evicted_shuf, max_key, idx_probes);
  if (!all_evicted("after the lookups")) return 1;
  report("uncompressed (JIT)    no index", "table3_scan_jit",
         ScanLookupsPerSecond(hot_ordered, ScanMode::kJit, max_key,
                              scan_probes),
         ScanLookupsPerSecond(*shuffled, ScanMode::kJit, max_key,
                              scan_probes));
  report("uncompressed (VEC)    no index", "table3_scan_vec_sarg",
         ScanLookupsPerSecond(hot_ordered, ScanMode::kVectorizedSarg, max_key,
                              scan_probes),
         ScanLookupsPerSecond(*shuffled, ScanMode::kVectorizedSarg, max_key,
                              scan_probes));
  report("Data Blocks (SMA)     no index", "table3_scan_sma",
         ScanLookupsPerSecond(frozen_ord, ScanMode::kDataBlocks, max_key,
                              scan_probes),
         ScanLookupsPerSecond(*frozen_shuf, ScanMode::kDataBlocks, max_key,
                              scan_probes));
  report("Data Blocks +PSMA     no index", "table3_scan_psma",
         ScanLookupsPerSecond(frozen_ord, ScanMode::kDataBlocksPsma, max_key,
                              scan_probes),
         ScanLookupsPerSecond(*frozen_shuf, ScanMode::kDataBlocksPsma,
                              max_key, scan_probes));
  const int write_rows = quick ? 20000 : 200000;
  const WriteCosts writes = MeasureWrites(hot_ordered, write_rows);
  std::printf("\n=== OLTP write unit costs (ns per row, %d rows) ===\n",
              write_rows);
  auto report_write = [](const char* label, const char* json_name,
                         double ns) {
    std::printf("%-34s %14.1f\n", label, ns);
    BenchJsonRecord(json_name, "customer", ns, 1e9 / ns);
  };
  report_write("insert (hot tail)", "table3_write_insert",
               writes.insert_ns);
  report_write("in-place update (hot row)", "table3_write_inplace",
               writes.inplace_ns);
  report_write("relocation (frozen row)", "table3_write_relocate",
               writes.relocate_ns);
  report_write("delete (hot)", "table3_write_delete", writes.delete_ns);
  std::printf(
      "\n(Expected shape, per the paper: indexed lookups on Data Blocks run\n"
      " at a constant factor below uncompressed; index-less scans are\n"
      " orders of magnitude slower except on ordered Data Blocks, where\n"
      " SMAs/PSMAs narrow the scan; shuffling removes that advantage.\n"
      " Evicted lookups read the 4 KB pages that hold their row, plus the\n"
      " spine whenever they move to another block.)\n");
  if (mismatches != 0) {
    std::fprintf(stderr, "%d evicted lookups differ from the resident ones\n",
                 mismatches);
    return 1;
  }
  if (std::max(kb_ord, kb_shuf) > kMaxEvictedKbPerLookup) {
    std::fprintf(stderr,
                 "evicted lookups read %.1f / %.1f KB of archive each, more "
                 "than %.0f KB\n",
                 kb_ord, kb_shuf, kMaxEvictedKbPerLookup);
    return 1;
  }
  if (quick && argc <= 1 &&
      (lo.archive_bytes_read != kQuickEvictedBytes[0] ||
       ls.archive_bytes_read != kQuickEvictedBytes[1] ||
       lo.archive_pages_read != kQuickEvictedPages[0] ||
       ls.archive_pages_read != kQuickEvictedPages[1])) {
    std::fprintf(stderr,
                 "evicted lookups read %llu / %llu bytes in %llu / %llu "
                 "pages; --quick pins %llu / %llu bytes in %llu / %llu\n",
                 (unsigned long long)lo.archive_bytes_read,
                 (unsigned long long)ls.archive_bytes_read,
                 (unsigned long long)lo.archive_pages_read,
                 (unsigned long long)ls.archive_pages_read,
                 (unsigned long long)kQuickEvictedBytes[0],
                 (unsigned long long)kQuickEvictedBytes[1],
                 (unsigned long long)kQuickEvictedPages[0],
                 (unsigned long long)kQuickEvictedPages[1]);
    return 1;
  }
  std::printf("evicted lookups agree with resident ones: %d keys\n",
              2 * idx_probes);
  return 0;
}
