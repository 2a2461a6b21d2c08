#ifndef DATABLOCKS_TPCH_QUERIES_H_
#define DATABLOCKS_TPCH_QUERIES_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exec/parallel_scan.h"
#include "exec/partitioned_agg.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"
#include "tpch/tpch_db.h"

namespace datablocks::tpch {

/// Execution knobs of one query run. Every fact-table scan+aggregate
/// pipeline runs `threads` parallelism slots through the one morsel driver
/// (exec/parallel_scan.h) over the one table of its relation — one slot
/// runs inline on the caller — with one state per slot and a deterministic
/// merge: results are identical at every thread count by construction
/// (every accumulation is exact and merged in slot order). `threads == 0`
/// means "all hardware threads".
struct QueryContext {
  unsigned threads = 1;
  /// Worker pool for the parallel pipelines; nullptr = the process-wide
  /// Scheduler::Default().
  Scheduler* scheduler = nullptr;
  /// When set, every scan+aggregate pipeline the query runs records an
  /// execution profile (obs/query_profile.h) into it: wall time, rows
  /// in/out, morsel/batch counts, block pruning, chunks opened ("pins"),
  /// archive reloads, per-worker slices. nullptr = profiling off (one branch per pipeline).
  obs::QueryProfile* profile = nullptr;
};

/// Scan configuration under which a query runs; every paper configuration
/// (Table 2 / Table 4 columns) is one ScanOptions value.
struct ScanOptions {
  ScanMode mode = ScanMode::kDataBlocksPsma;
  uint32_t vector_size = TableScanner::kDefaultVectorSize;
  Isa isa = BestIsa();
  QueryContext ctx{};

  TableScanner Scan(const Table& table, std::vector<uint32_t> cols,
                    std::vector<Predicate> preds = {}) const {
    return TableScanner(table, std::move(cols), std::move(preds), mode,
                        vector_size, isa);
  }
};

/// Result rows, already formatted and ordered like the SQL output; equal
/// results across scan modes must compare equal.
struct QueryResult {
  std::vector<std::string> rows;

  bool operator==(const QueryResult& o) const { return rows == o.rows; }
  std::string ToString() const {
    std::string s;
    for (const auto& r : rows) {
      s += r;
      s += '\n';
    }
    return s;
  }
};

// The 22 TPC-H queries (validation parameters), hand-fused against the
// vectorized scan interface. SARGable restrictions are pushed into the
// scans — including IN lists and prefix LIKE patterns, which code-space
// scans on frozen blocks translate to dictionary codes / code ranges.
// Non-prefix LIKE and cross-column predicates run in the pipeline,
// memoized per dictionary code where the column is code-carrying
// (exec/dict_memo.h).
QueryResult Q1(const TpchDatabase& db, const ScanOptions& opt);   // pricing summary report
QueryResult Q2(const TpchDatabase& db, const ScanOptions& opt);   // minimum cost supplier
QueryResult Q3(const TpchDatabase& db, const ScanOptions& opt);   // shipping priority (top 10)
QueryResult Q4(const TpchDatabase& db, const ScanOptions& opt);   // order priority checking
QueryResult Q5(const TpchDatabase& db, const ScanOptions& opt);   // local supplier volume
QueryResult Q6(const TpchDatabase& db, const ScanOptions& opt);   // forecasting revenue change
QueryResult Q7(const TpchDatabase& db, const ScanOptions& opt);   // volume shipping
QueryResult Q8(const TpchDatabase& db, const ScanOptions& opt);   // national market share
QueryResult Q9(const TpchDatabase& db, const ScanOptions& opt);   // product type profit
QueryResult Q10(const TpchDatabase& db, const ScanOptions& opt);  // returned items (top 20)
QueryResult Q11(const TpchDatabase& db, const ScanOptions& opt);  // important stock
QueryResult Q12(const TpchDatabase& db, const ScanOptions& opt);  // shipping modes / priority
QueryResult Q13(const TpchDatabase& db, const ScanOptions& opt);  // customer distribution
QueryResult Q14(const TpchDatabase& db, const ScanOptions& opt);  // promotion effect
QueryResult Q15(const TpchDatabase& db, const ScanOptions& opt);  // top supplier
QueryResult Q16(const TpchDatabase& db, const ScanOptions& opt);  // parts/supplier relationship
QueryResult Q17(const TpchDatabase& db, const ScanOptions& opt);  // small-quantity revenue
QueryResult Q18(const TpchDatabase& db, const ScanOptions& opt);  // large volume customers
QueryResult Q19(const TpchDatabase& db, const ScanOptions& opt);  // discounted revenue (OR clauses)
QueryResult Q20(const TpchDatabase& db, const ScanOptions& opt);  // potential part promotion
QueryResult Q21(const TpchDatabase& db, const ScanOptions& opt);  // suppliers who kept orders waiting
QueryResult Q22(const TpchDatabase& db, const ScanOptions& opt);  // global sales opportunity

/// Runs TPC-H query `q` (1-based). Aborts on out-of-range q.
QueryResult RunQuery(int q, const TpchDatabase& db, const ScanOptions& opt);

namespace detail {

/// Drains a scanner, invoking fn(batch) per non-empty batch.
template <typename Fn>
void ScanLoop(TableScanner scanner, Fn fn) {
  Batch batch;
  while (scanner.Next(&batch)) fn(batch);
}

/// Opens one pipeline on the context's profile (nullptr when profiling is
/// off) and stamps its wall time on scope exit.
class PipelineScope {
 public:
  PipelineScope(const ScanOptions& opt, const Table& table)
      : pipeline_(opt.ctx.profile != nullptr
                      ? opt.ctx.profile->AddPipeline(table.name())
                      : nullptr),
        start_ns_(pipeline_ != nullptr ? obs::MonotonicNs() : 0) {}
  ~PipelineScope() {
    if (pipeline_ != nullptr)
      pipeline_->set_wall_ns(obs::MonotonicNs() - start_ns_);
  }

  PipelineScope(const PipelineScope&) = delete;
  PipelineScope& operator=(const PipelineScope&) = delete;

  obs::PipelineProfile* get() const { return pipeline_; }

  /// Times `fn()` as the pipeline's merge step.
  template <typename Fn>
  void Merge(Fn fn) {
    if (pipeline_ == nullptr) {
      fn();
      return;
    }
    const uint64_t t0 = obs::MonotonicNs();
    fn();
    pipeline_->set_merge_ns(obs::MonotonicNs() - t0);
  }

 private:
  obs::PipelineProfile* pipeline_;
  uint64_t start_ns_;
};

// ---------------------------------------------------------------------------
// Pipeline helpers. Every query pipeline is written once against these, and
// every helper runs ctx.threads slots through the one MorselDriver over the
// relation's table. Determinism contract: consume bodies only perform
// exact accumulations (integer sums/counts, container inserts), so the
// merged result is the same no matter which slot claimed which morsel.
// ---------------------------------------------------------------------------

/// Scan+aggregate with per-slot states and a merge step.
/// `make_state`: () -> State; `consume`: (State&, const Batch&);
/// `merge`: (State& dst, State& src) folds src into dst.
template <typename State, typename MakeState, typename Consume,
          typename Merge>
State ParAgg(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             MakeState make_state, Consume consume, Merge merge) {
  PipelineScope pipeline(opt, table);
  std::vector<State> states = ParallelScan<State>(
      table, std::move(cols), std::move(preds), opt.mode, opt.ctx.threads,
      make_state, consume, opt.vector_size, opt.isa, opt.ctx.scheduler,
      pipeline.get());
  State merged = std::move(states[0]);
  pipeline.Merge([&] {
    for (size_t i = 1; i < states.size(); ++i) merge(merged, states[i]);
  });
  return merged;
}

/// Dense-keyed scan+aggregate through the partitioned-aggregation engine
/// (exec/partitioned_agg.h): ONE T vector over [0, domain) total — not one
/// per slot — with no merge step. Each produced batch runs in a batch
/// scope on its slot's sink: the sink may own the lock partition of the
/// batch's keys for that batch and apply them in place; only boundary or
/// contended keys go through the bounded spill buffers, applied under
/// each partition's lock. A sink never blocks while it owns a partition,
/// and the scope's end (also by exception) releases it, so there is no
/// unwind: a slot whose scan throws holds no lock, its siblings finish and
/// the exception propagates from the join. Use when the group key is
/// dense by construction (orderkey / custkey / suppkey ordinals) and the
/// domain is large; a domain of a few groups (Q1) would put every slot on
/// one lock — use ParAgg with a per-slot array there.
/// `produce`: (Sink&, const Batch&) calling sink.Add(key, U);
/// `apply`: (T&, const U&), exact + commutative + associative, so results
/// stay bit-identical at every thread count.
template <typename T, typename U, typename Produce, typename Apply>
std::vector<T> ParDenseAgg(const Table& table, const ScanOptions& opt,
                           std::vector<uint32_t> cols,
                           std::vector<Predicate> preds, size_t domain,
                           Produce produce, Apply apply, T init = T{}) {
  using State = PartitionedDense<T, U, Apply>;
  PipelineScope pipeline(opt, table);
  const unsigned threads =
      EffectiveThreads(opt.ctx.threads, opt.ctx.scheduler);
  MorselDriver driver(table, std::move(cols), std::move(preds), opt.mode,
                      opt.vector_size, opt.isa, pipeline.get());

  State state(domain, threads, std::move(apply), init);
  RunOnSlots(
      threads,
      [&](unsigned slot) {
        typename State::Sink& sink = state.sink(slot);
        driver.RunSlot(slot, [&](const Batch& b) {
          typename State::Sink::BatchScope scope(sink);
          produce(sink, b);
        });
        sink.Flush();
      },
      opt.ctx.scheduler);
  return state.Take();
}

/// Sparse group-by through the partitioned-aggregation engine: per-slot
/// hash-partitioned AggHashTables merged partition-wise (disjoint
/// partitions, parallel merge). Use when the group key is sparse or the
/// group count is small relative to the scanned rows. `produce`:
/// (PartitionedAggTable<V>&, const Batch&) calling t.Ref(key); `fold`:
/// (V& dst, const V& src), exact + commutative (dst of a fresh key is
/// value-initialized). Each slot-local table has one partition per slot.
template <typename V, typename Produce, typename Fold>
PartitionedAggTable<V> ParHashAgg(const Table& table, const ScanOptions& opt,
                                  std::vector<uint32_t> cols,
                                  std::vector<Predicate> preds,
                                  Produce produce, Fold fold) {
  PipelineScope pipeline(opt, table);
  const unsigned threads =
      EffectiveThreads(opt.ctx.threads, opt.ctx.scheduler);
  std::vector<PartitionedAggTable<V>> locals =
      ParallelScan<PartitionedAggTable<V>>(
          table, std::move(cols), std::move(preds), opt.mode, threads,
          [threads] { return PartitionedAggTable<V>(threads); },
          [&produce](PartitionedAggTable<V>& t, const Batch& b) {
            produce(t, b);
          },
          opt.vector_size, opt.isa, opt.ctx.scheduler, pipeline.get());
  if (locals.size() == 1) return std::move(locals[0]);
  PartitionedAggTable<V> merged(0);
  pipeline.Merge(
      [&] { merged = MergeAggTables(locals, fold, opt.ctx.scheduler); });
  return merged;
}

/// Parallel scan into shared sinks, for consumers whose writes are
/// per-element disjoint (dense per-order/per-customer vectors where each
/// element is written by exactly one row — a data-race-free pattern) or
/// that only read. `consume`: (const Batch&).
template <typename Consume>
void ParScan(const Table& table, const ScanOptions& opt,
             std::vector<uint32_t> cols, std::vector<Predicate> preds,
             Consume consume) {
  ParAgg<char>(
      table, opt, std::move(cols), std::move(preds), [] { return char{0}; },
      [&consume](char&, const Batch& b) { consume(b); },
      [](char&, const char&) {});
}

/// Dense vector filled by scatter stores through the engine's
/// SharedStoreDense: ONE shared O(domain) vector, valid whenever every
/// row writing an element stores the same value — unique writers (dense
/// per-order sinks) or idempotent flags. No replicas, no locks, no merge.
/// Elements nobody stores keep `init`, which is how dense join build sides
/// read "absent".
/// `produce`: (SharedStoreDense<T>&, const Batch&) calling
/// sink.Store(key, value).
template <typename T, typename Produce>
std::vector<T> ParDenseStore(const Table& table, const ScanOptions& opt,
                             std::vector<uint32_t> cols,
                             std::vector<Predicate> preds, size_t domain,
                             Produce produce, T init = T{}) {
  SharedStoreDense<T> sink(domain, init);
  ParScan(table, opt, std::move(cols), std::move(preds),
          [&](const Batch& b) { produce(sink, b); });
  return sink.Take();
}

/// Membership flags over a dense int32 key (custkey / partkey / suppkey):
/// 1 for each key in column `key_col` of a row matching `preds`, else 0.
inline std::vector<uint8_t> KeyFlags(const Table& table, const ScanOptions& opt,
                                     uint32_t key_col,
                                     std::vector<Predicate> preds,
                                     size_t domain) {
  return ParDenseStore<uint8_t>(
      table, opt, {key_col}, std::move(preds), domain,
      [](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          sink.Store(size_t(b.cols[0].i32[i]), 1);
      });
}

/// Dense int32 key -> nationkey for the rows of `table` whose nationkey
/// passes `keep` (int32_t -> bool); -1 for every other key.
template <typename Keep>
std::vector<int8_t> KeyNations(const Table& table, const ScanOptions& opt,
                               uint32_t key_col, uint32_t nation_col,
                               size_t domain, Keep keep) {
  return ParDenseStore<int8_t>(
      table, opt, {key_col, nation_col}, {}, domain,
      [&keep](auto& sink, const Batch& b) {
        for (uint32_t i = 0; i < b.count; ++i)
          if (keep(b.cols[1].i32[i]))
            sink.Store(size_t(b.cols[0].i32[i]), int8_t(b.cols[1].i32[i]));
      },
      int8_t{-1});
}

// Slot-order merges for the common per-worker state shapes.

/// dst[k] += v for maps whose mapped type supports +=.
template <typename Map>
void MergeAdd(Map& dst, const Map& src) {
  for (const auto& [k, v] : src) dst[k] += v;
}

/// Insert-if-absent (keys are unique per row, so collisions across workers
/// can only carry identical values).
template <typename Map>
void MergeInsert(Map& dst, Map& src) {
  dst.merge(src);
}

/// Element-wise += over equally sized vectors/arrays.
template <typename Seq>
void MergeSeqAdd(Seq& dst, const Seq& src) {
  for (size_t i = 0; i < src.size(); ++i) dst[i] += src[i];
}

template <typename T>
void MergeConcat(std::vector<T>& dst, std::vector<T>& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

inline std::string Money(int64_t cents) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", double(cents) / 100.0);
  return buf;
}

inline std::string F2(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Nation keys are dense in [0, kNumNations).
inline constexpr int32_t kNumNations = 25;

/// Dense index of an order key (order keys are 4 * ordinal).
inline int64_t OrderIdx(int64_t orderkey) { return orderkey / 4 - 1; }

}  // namespace detail

}  // namespace datablocks::tpch

#endif  // DATABLOCKS_TPCH_QUERIES_H_
