// Shard-scaling sweep: the same scan+aggregate pipelines run against the
// single-table engine and against N partitioned engine instances
// (exec/shard.h), all through the one morsel driver (exec/parallel_scan.h).
//
// Five pipelines, chosen to expose each side of the trade:
//
//   hashagg_shardkey   sparse group-by on the SHARD key with a SCATTERED
//                      layout (lineitem sharded AND grouped by l_partkey,
//                      which is uniform across the table). Unsharded, every
//                      worker-local table grows to ~|G| entries — threads x
//                      |G| replicas to build and fold; shard-affine
//                      scanning keeps each local to its shard's disjoint
//                      ~|G|/S keys, so total state and merge work drop to
//                      ~|G| — the co-partitioning win, and the reason
//                      shards pay off even on one core.
//   hashagg_orderkey   group-by on the shard key with a CLUSTERED layout
//                      (l_orderkey orders the table): contiguous morsels
//                      give the unsharded locals accidentally-disjoint key
//                      ranges, so sharding adds little — the honest
//                      already-partitioned case.
//   hashagg_partkey    group-by on a NON-shard key (orderkey-sharded scan
//                      grouped by partkey): shards cannot co-locate
//                      groups, every local still sees most keys. The
//                      neutral case.
//   dense_orderkey     dense per-order aggregation with co-partitioned
//                      ownership (order ordinals invert to the shard key,
//                      so each update is owned by the shard that produced
//                      it and applies in place under that shard's lock);
//                      the residual cost vs the unsharded spill engine is
//                      the per-element ownership hash.
//   scan_filter_sum    Q6-shaped predicate scan + scalar sum: sharding
//                      only changes which table the morsels come from.
//
// Usage: bench_exchange [--shards N] [--threads T] [--quick]
//        [--json out.json] [scale_factor] [repetitions]
//
// Sweeps shard counts 1,2,4,...,N at fixed T parallelism slots and prints
// the per-pipeline medians plus the sum-of-medians per shard count. Every
// pipeline's result is checksummed order-independently; the checksums must
// be identical across shard counts (the bit-identical contract) and the
// combined value is printed as the final "result checksum" line for CI.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/scheduler.h"
#include "tpch/queries.h"
#include "util/date.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;
using namespace datablocks::tpch;

namespace {

struct AggPair {
  int64_t qty = 0;
  int64_t revenue = 0;
};

// Order-independent fingerprint accumulator: hash tables iterate in layout
// order, which legitimately differs across shard counts, so per-group
// hashes are COMBINED BY ADDITION (commutative) rather than chained.
struct Fingerprint {
  uint64_t sum = 0;
  void Add(uint64_t key, uint64_t a, uint64_t b = 0) {
    sum += Hash64(HashCombine(HashCombine(Hash64(key), a), b));
  }
};

// One timed execution of a pipeline: (seconds, result fingerprint).
struct Sample {
  double secs;
  uint64_t checksum;
};

Sample RunHashAgg(const TpchDatabase& db, const ScanOptions& opt,
                  uint32_t key_col, bool key_is_i64) {
  namespace li = col::lineitem;
  Timer t;
  PartitionedAggTable<AggPair> groups = detail::ParHashAgg<AggPair>(
      db.lineitem, opt, {key_col, li::quantity, li::extendedprice}, {},
      [key_is_i64](PartitionedAggTable<AggPair>& tab, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          const uint64_t key = key_is_i64 ? uint64_t(b.cols[0].i64[i])
                                          : uint64_t(b.cols[0].i32[i]);
          AggPair& g = tab.Ref(key);
          g.qty += b.cols[1].i32[i];  // l_quantity is int32
          g.revenue += b.cols[2].i64[i];
        }
      },
      [](AggPair& dst, const AggPair& src) {
        dst.qty += src.qty;
        dst.revenue += src.revenue;
      });
  const double secs = t.ElapsedSeconds();
  Fingerprint fp;
  groups.ForEach([&](uint64_t key, const AggPair& g) {
    fp.Add(key, uint64_t(g.qty), uint64_t(g.revenue));
  });
  return {secs, fp.sum};
}

Sample RunDenseAgg(const TpchDatabase& db, const ScanOptions& opt) {
  namespace li = col::lineitem;
  const size_t domain = size_t(db.NumOrders());
  Timer t;
  std::vector<int64_t> revenue = detail::ParDenseAgg<int64_t, int64_t>(
      db.lineitem, opt, {li::orderkey, li::extendedprice, li::discount}, {},
      domain,
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          // orderkey = ordinal * 4 (dbgen sparsity), so /4-1 is dense.
          const size_t idx = size_t(b.cols[0].i64[i] / 4 - 1);
          sink.Add(idx, b.cols[1].i64[i] * (100 - b.cols[2].i32[i]));
        }
      },
      [](int64_t& acc, const int64_t& v) { acc += v; }, int64_t{0},
      detail::OrderKeyOf);
  const double secs = t.ElapsedSeconds();
  Fingerprint fp;
  for (size_t i = 0; i < revenue.size(); ++i) {
    if (revenue[i] != 0) fp.Add(i, uint64_t(revenue[i]));
  }
  return {secs, fp.sum};
}

Sample RunFilterSum(const TpchDatabase& db, const ScanOptions& opt) {
  namespace li = col::lineitem;
  const int32_t from = MakeDate(1994, 1, 1);
  const int32_t to = MakeDate(1995, 1, 1);
  Timer t;
  struct Sum {
    int64_t v = 0;
    uint64_t n = 0;
  };
  Sum total = detail::ParAgg<Sum>(
      db.lineitem, opt, {li::extendedprice, li::discount},
      {Predicate::Between(li::shipdate, Value::Int(from),
                          Value::Int(to - 1))},
      [] { return Sum{}; },
      [](Sum& s, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i) {
          s.v += b.cols[0].i64[i] * b.cols[1].i32[i];
          ++s.n;
        }
      },
      [](Sum& dst, Sum& src) {
        dst.v += src.v;
        dst.n += src.n;
      });
  const double secs = t.ElapsedSeconds();
  Fingerprint fp;
  fp.Add(0, uint64_t(total.v), total.n);
  return {secs, fp.sum};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  BenchJsonMode(&argc, argv, quick);
  unsigned threads = BenchThreadsFlag(&argc, argv);
  const unsigned max_shards = BenchShardsFlag(&argc, argv);
  if (BenchJson().threads == 1) {
    // Default to 4 parallelism slots: the unsharded engine then pays one
    // local aggregation state per slot — the replication the shards
    // remove. (Slots are logical; this does not require 4 cores.)
    threads = 4;
    BenchJson().threads = threads;
  }
  TpchConfig cfg;
  cfg.scale_factor = argc > 1 ? atof(argv[1]) : (quick ? 0.02 : 0.2);
  // Full-mode reps err high: the sweep's verdict is a ratio of sums of
  // medians, and shard-scaling deltas are small enough that run-to-run
  // scheduler noise needs several reps to median away.
  const int reps = argc > 2 ? atoi(argv[2]) : (quick ? 2 : 7);

  std::printf("generating TPC-H SF %.2f (frozen)...\n", cfg.scale_factor);
  auto db = MakeTpch(cfg);

  // Shard sets snapshot the hot source; freeze sources and shards after.
  // Two families per shard count: the standard orderkey co-sharding
  // (BuildTpchShards) and a partkey sharding of lineitem alone for the
  // hashagg_shardkey leg (shard key == group key, scattered layout).
  std::vector<unsigned> sweep = {1};
  for (unsigned s = 2; s <= max_shards; s *= 2) sweep.push_back(s);
  std::vector<std::unique_ptr<ShardSet>> shard_sets(sweep.size());
  std::vector<std::unique_ptr<ShardSet>> part_sets(sweep.size());
  for (size_t i = 1; i < sweep.size(); ++i) {
    shard_sets[i] = std::make_unique<ShardSet>(BuildTpchShards(*db, sweep[i]));
    shard_sets[i]->FreezeAll();
    part_sets[i] = std::make_unique<ShardSet>();
    part_sets[i]->Add(db->lineitem, sweep[i], col::lineitem::partkey);
    part_sets[i]->FreezeAll();
  }
  db->FreezeAll();
  // A pool with one worker per slot, so every slot consumes concurrently
  // (the process-default pool is sized to the hardware; on a small box it
  // would leave most slots idle and hide the per-slot state replication
  // that sharding removes).
  Scheduler sched(Scheduler::Options{.num_workers = threads});
  std::printf("lineitem rows = %llu, %d reps, %u slots\n\n",
              (unsigned long long)db->lineitem.num_rows(), reps, threads);

  std::printf("%-18s", "pipeline");
  for (unsigned s : sweep) std::printf("  shards=%-8u", s);
  std::printf("\n");

  std::vector<double> sums(sweep.size(), 0.0);
  uint64_t combined = 1469598103934665603ull;
  bool checks_ok = true;
  const char* leg_names[5] = {"hashagg_shardkey", "hashagg_orderkey",
                              "hashagg_partkey", "dense_orderkey",
                              "scan_filter_sum"};
  for (int which = 0; which < 5; ++which) {
    // Reps are interleaved ACROSS shard counts (rep-major, not
    // cell-major): slow load drift on a shared box then hits every shard
    // count's sample set alike instead of biasing whole columns, so the
    // per-cell medians stay comparable.
    std::vector<std::vector<double>> samples(sweep.size());
    std::vector<uint64_t> checksums(sweep.size(), 0);
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < sweep.size(); ++i) {
        ScanOptions opt;
        opt.mode = ScanMode::kDataBlocksPsma;
        opt.ctx.threads = threads;
        opt.ctx.scheduler = &sched;
        opt.ctx.shards = shard_sets[i].get();  // null at shards=1
        namespace li = col::lineitem;
        Sample s;
        switch (which) {
          case 0:
            opt.ctx.shards = part_sets[i].get();  // partkey-sharded family
            s = RunHashAgg(*db, opt, li::partkey, /*key_is_i64=*/false);
            break;
          case 1:
            s = RunHashAgg(*db, opt, li::orderkey, /*key_is_i64=*/true);
            break;
          case 2:
            s = RunHashAgg(*db, opt, li::partkey, /*key_is_i64=*/false);
            break;
          case 3:
            s = RunDenseAgg(*db, opt);
            break;
          default:
            s = RunFilterSum(*db, opt);
            break;
        }
        samples[i].push_back(s.secs);
        checksums[i] = s.checksum;
      }
    }
    std::printf("%-18s", leg_names[which]);
    for (size_t i = 0; i < sweep.size(); ++i) {
      const double median = BenchMedian(samples[i]);
      sums[i] += median;
      BenchJsonRecord(leg_names[which], "s=" + std::to_string(sweep[i]),
                      median * 1e9, double(db->lineitem.num_rows()) / median);
      std::printf("  %9.4fs   ", median);
      if (checksums[i] != checksums[0]) {
        checks_ok = false;
        std::fprintf(stderr, "FAIL: %s checksum diverges across shards\n",
                     leg_names[which]);
      }
    }
    std::printf("\n");
    combined = HashCombine(combined, checksums[0]);
  }

  std::printf("%-18s", "sum");
  for (double s : sums) std::printf("  %9.4fs   ", s);
  std::printf("\n\n");
  for (size_t i = 1; i < sweep.size(); ++i) {
    std::printf("shards=%u vs shards=1: %.2fx on sum-of-medians\n", sweep[i],
                sums[0] / sums[i]);
  }
  if (!checks_ok) {
    std::fprintf(stderr, "result checksums diverged across shard counts\n");
    return 1;
  }
  std::printf("result checksum: %016llx\n", (unsigned long long)combined);
  return 0;
}
