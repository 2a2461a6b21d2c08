// oltp_tpcc: one closed-loop client running the TPC-C mix on a
// 4-warehouse database whose append-mostly tables (history, neworder,
// order, orderline) freeze, evict and reload under a 16 MB lifecycle
// budget. Every round starts from a freshly loaded database, so a faster
// engine is never measured on a larger one.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "exec/table_scanner.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace datablocks;

namespace {

constexpr int kWarehouses = 4;
constexpr uint64_t kBudgetBytes = 16ull << 20;
/// A chunk touched fewer times than this in one epoch (kTickEvery
/// transactions) counts as cold. With the engine's default of 0 the
/// OrderStatus and Delivery reads keep every orderline chunk warm and only
/// history ever freezes; at 256 old orderline and order chunks freeze,
/// evict and reload under point access.
constexpr uint32_t kColdThreshold = 256;
/// Long enough to drain the loaded backlog of undelivered orders: until
/// then Delivery keeps the loaded orderline chunks warm, and then about
/// twenty of them cool down and freeze within a few ticks. The measured
/// part sees the steady state — a freeze every ten thousand transactions
/// and a few hundred evictions and reloads per round.
constexpr int kWarmupTxns = 150000;
constexpr int kRoundTxns = 100000;
constexpr int kTickEvery = 5000;
/// Traced rounds keep one transaction span in this many (all latencies
/// are kept either way); the span file stays a few MB.
constexpr int kSpanEvery = 64;
/// One transaction in this many is also timed on the thread CPU clock: a
/// read costs about 0.5 us on a VM, a transaction about 12 us.
constexpr int kCpuSampleEvery = 8;
constexpr const char* kTxnNames[] = {"neworder", "payment", "orderstatus",
                                     "delivery", "stocklevel"};
constexpr int kTxnTypes = 5;

volatile int64_t g_ladder_sink;  // keeps the ladder's consume loop alive

std::vector<const Table*> Tables(const tpcc::TpccDatabase& db) {
  return {&db.item,     &db.warehouse, &db.district,
          &db.customer, &db.history,   &db.neworder,
          &db.order,    &db.orderline, &db.stock};
}

double ResidentBytes(const tpcc::TpccDatabase& db) {
  double bytes = 0;
  for (const Table* t : Tables(db)) bytes += double(t->MemoryBytes());
  return bytes;
}

LifecycleStats SumStats(tpcc::TpccDatabase& db) {
  LifecycleStats sum;
  for (LifecycleManager* m : db.lifecycle_managers()) {
    const LifecycleStats s = m->stats();
    sum.freezes += s.freezes;
    sum.evictions += s.evictions;
    sum.reloads += s.reloads;
    sum.archive_reads += s.archive_reads;
    sum.archive_bytes += s.archive_bytes;
  }
  return sum;
}

}  // namespace

int64_t SumNextOrderIds(const tpcc::TpccDatabase& db) {
  TableScanner scanner(db.district, {tpcc::col::district::next_o_id}, {},
                       ScanMode::kDataBlocks);
  Batch batch;
  int64_t sum = 0;
  while (scanner.Next(&batch)) {
    for (uint32_t i = 0; i < batch.count; ++i) sum += batch.cols[0].i32[i];
  }
  return sum;
}

void RunOltpTpcc(const Options& o, Result* r) {
  tpcc::TpccConfig cfg;
  cfg.num_warehouses = kWarehouses;
  cfg.seed = SubSeed(o.seed, kTagTpccLoad);
  const uint64_t txn_seed = SubSeed(o.seed, kTagTpccTxns);

  std::vector<double> mem, stored, freezes, evictions, tick_ms;
  OpSamples wall_ms(kTxnTypes), cpu_ms(kTxnTypes);
  EndToEnd e2e;
  double count_txns = 0, count_neworders = 0, count_committed = 0;
  double count_reloads = 0, count_reads = 0, tick_s = 0, measured_s = 0;
  uint64_t type_counts[kTxnTypes] = {}, wrong_rounds = 0, stream = kFnvBasis;
  SpanRecorder spans;
  // The last round's database stays alive for the traced run's ladder.
  std::unique_ptr<tpcc::TpccDatabase> db;

  auto archive_dir = [&o](int round) {
    return o.work_dir + "/tpcc-" + std::to_string(round);
  };
  const Rounds rounds = RunRounds(o, kMinRounds, [&](int round, bool traced) {
    db.reset();
    if (round > 0) std::filesystem::remove_all(archive_dir(round - 1));
    const std::string dir = archive_dir(round);
    std::filesystem::create_directories(dir);

    uint64_t t0 = NowNs();
    double c0 = CpuSeconds();
    db = std::make_unique<tpcc::TpccDatabase>(cfg);
    db->Load();
    const double loaded_bytes = ResidentBytes(*db);
    LifecycleConfig lc;
    lc.memory_budget_bytes = kBudgetBytes;
    lc.cold_threshold = kColdThreshold;
    db->EnableLifecycle(lc, dir);
    Rng rng(SubSeed(txn_seed, uint64_t(round)));
    for (int i = 1; i <= kWarmupTxns; ++i) {
      db->RunMixedTransaction(rng);
      if (i % kTickEvery == 0) db->LifecycleTick();
    }
    e2e.setup_wall_s.push_back(Seconds(t0, NowNs()));
    e2e.setup_cpu_s.push_back(CpuSeconds() - c0);

    const LifecycleStats l0 = SumStats(*db);
    const int64_t next0 = SumNextOrderIds(*db);
    uint64_t counts[kTxnTypes] = {};
    t0 = NowNs();
    c0 = CpuSeconds();
    for (int i = 1; i <= kRoundTxns; ++i) {
      const bool cpu_sample = i % kCpuSampleEvery == 0;
      const double tc0 = cpu_sample ? ThreadCpuSeconds() : 0;
      const uint64_t s0 = NowNs();
      const int type = db->RunMixedTransaction(rng);
      const uint64_t s1 = NowNs();
      if (cpu_sample) cpu_ms.Add(size_t(type), (ThreadCpuSeconds() - tc0) * 1e3);
      wall_ms.Add(size_t(type), double(s1 - s0) / 1e6);
      ++counts[type];
      if (traced && i % kSpanEvery == 0) {
        spans.Add(std::string("tpcc.") + kTxnNames[type], s0, s1);
      }
      if (i % kTickEvery == 0) {
        const uint64_t k0 = NowNs();
        db->LifecycleTick();
        const uint64_t k1 = NowNs();
        tick_ms.push_back(double(k1 - k0) / 1e6);
        tick_s += Seconds(k0, k1);
        if (traced) spans.Add("lifecycle.Tick", k0, k1);
      }
    }
    RoundStat stat{Seconds(t0, NowNs()), CpuSeconds() - c0,
                   double(kRoundTxns)};
    measured_s += stat.seconds;

    const LifecycleStats l1 = SumStats(*db);
    const double committed = double(SumNextOrderIds(*db) - next0);
    freezes.push_back(double(l1.freezes - l0.freezes));
    evictions.push_back(double(l1.evictions - l0.evictions));
    const double resident = ResidentBytes(*db);
    mem.push_back(resident / loaded_bytes);
    stored.push_back((resident + double(l1.archive_bytes)) / loaded_bytes);
    std::string msg;
    if (!db->CheckConsistency(&msg)) {
      ++wrong_rounds;
      stat.ops = 0;  // an inconsistent round's transactions count as failed
      r->Wrong("TPC-C consistency after round " + std::to_string(round) +
               ": " + msg);
    }
    if (round < kCountRounds) {
      count_txns += kRoundTxns;
      count_neworders += double(counts[0]);
      count_committed += committed;
      count_reloads += double(l1.reloads - l0.reloads);
      count_reads += double(l1.archive_reads - l0.archive_reads);
      for (int t = 0; t < kTxnTypes; ++t) {
        type_counts[t] += counts[t];
        stream = Fnv1a(stream, counts[t]);
      }
      stream = Fnv1a(stream, uint64_t(committed));
    }
    return stat;
  });

  r->attempted = uint64_t(rounds.rate.size()) * kRoundTxns;
  r->failed = wrong_rounds * kRoundTxns;
  r->Add("oracle.checked", double(rounds.rate.size()), "count");
  r->Add("oracle.mismatches", double(wrong_rounds), "count");
  r->Add("bench.rounds", double(rounds.rate.size()), "count");
  r->Add("bench.stream_hash", double(stream >> 12), "count");

  if (!o.trace) {
    e2e.ops_per_cpu_s = Median(rounds.cpu_rate);
    e2e.ops_per_s = Median(rounds.rate);
    e2e.cpu_ms = &cpu_ms;
    e2e.wall_ms = &wall_ms;
    e2e.tail_quantile = 0.99;
    e2e.mem_ratio = Median(mem);
    e2e.stored_ratio = Median(stored);
    e2e.Report(r);
  } else {
    for (int t = 0; t < kTxnTypes; ++t) {
      r->Add(std::string("tpcc.") + kTxnNames[t] + "_us_p50",
             Median(wall_ms.by_type[size_t(t)]) * 1e3, "us");
      r->Add(std::string("tpcc.count.") + kTxnNames[t],
             double(type_counts[t]), "count");
    }
    r->Add("tpcc.rollback_frac",
           1.0 - Ratio(count_committed, count_neworders), "ratio");
    r->Add("lifecycle.reloads_per_op", Ratio(count_reloads, count_txns),
           "count");
    r->Add("storage.archive_reads_per_op", Ratio(count_reads, count_txns),
           "count");
    r->Add("lifecycle.tick_frac", Ratio(tick_s, measured_s), "ratio");
    r->Add("lifecycle.tick_ms_p50", Quantile(tick_ms, 0.5), "ms");
    r->Add("lifecycle.tick_ms_max", Quantile(tick_ms, 1.0), "ms");
    r->Add("lifecycle.freezes_per_round", Median(freezes), "count");
    r->Add("lifecycle.evictions_per_round", Median(evictions), "count");
    r->Add("bench.trace_overhead_frac", rounds.TraceOverhead(), "ratio");

    namespace ol = tpcc::col::orderline;
    const Table& orderline = db->orderline;
    const std::vector<uint32_t> cols = {ol::amount, ol::quantity};
    // Item ids and line numbers are spread over every block, so the first
    // predicate feeds the find kernel and the second the reduce kernel.
    const std::vector<Predicate> preds = {
        Predicate::Between(ol::i_id, Value::Int(1), Value::Int(50000)),
        Predicate::Between(ol::number, Value::Int(1), Value::Int(5))};
    // The "query" level: the scan feeding a one-thread sum.
    auto query = [&orderline, cols, preds] {
      TableScanner scanner(orderline, cols, preds, ScanMode::kDataBlocksPsma);
      Batch batch;
      int64_t sum = 0;
      while (scanner.Next(&batch)) {
        for (uint32_t i = 0; i < batch.count; ++i) {
          sum += batch.cols[0].i64[i] * batch.cols[1].i32[i];
        }
      }
      g_ladder_sink = sum;
    };
    RunLadder({{"orderline", &orderline, cols, preds, query}}, r);
    ProbeStorage(orderline, ol::amount, o.work_dir + "/probe.dbar",
                 SubSeed(o.seed, kTagProbe), r);
    spans.Summarize(r);
    if (!spans.WriteJsonl(o.trace_dir + "/" + o.workload + ".jsonl")) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   o.trace_dir.c_str());
    }
  }
  // The managers' destructors reload every evicted block; an injected
  // reload fault must not hit that restore pass.
  fail::FailpointRegistry::Instance().DisarmAll();
  for (LifecycleManager* m : db->lifecycle_managers()) m->ResetQuarantine();
}

}  // namespace e2e
