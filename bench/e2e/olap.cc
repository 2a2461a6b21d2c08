// olap_frozen and olap_evicted: one closed-loop client issuing a seeded
// shuffle of the OLAP mix against a frozen TPC-H database — fully resident,
// or with lineitem held to a quarter of its frozen bytes by a lifecycle
// manager that the client ticks after every query.

#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "exec/scheduler.h"
#include "obs/query_profile.h"
#include "util/date.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace datablocks;

namespace {

/// TPC-H scale factor: 0.1 gives 0.6M lineitem rows in 10 blocks, small
/// enough that set-up repeats three times inside one run.
constexpr double kScaleFactor = 0.1;
/// Queries per round: every mix type this many times. A round takes about
/// a second on a 4-core x86 host.
constexpr size_t kFrozenPerType = 24;
constexpr size_t kEvictedPerType = 8;

struct QueryRun {
  bool ok = false;
  std::string result;
};

QueryRun RunMixQuery(const tpch::TpchDatabase& db, size_t idx,
                     obs::QueryProfile* profile) {
  try {
    return {true, tpch::RunQuery(kMix[idx], db, OlapOptions(profile))
                      .ToString()};
  } catch (const std::exception& e) {
    static int reported = 0;
    if (reported++ < 5) {
      std::fprintf(stderr, "Q%d failed: %s\n", kMix[idx], e.what());
    }
    return {};
  }
}

void RunOlap(const Options& o, bool evicted, Result* r) {
  std::vector<std::string> oracle;
  TpchSetup s;
  EndToEnd e2e;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    s.mgr.reset();  // the manager must go before its table
    s.db.reset();
    const std::string archive =
        evicted ? o.work_dir + "/lineitem-" + std::to_string(rep) + ".dbar"
                : "";
    s = SetupTpch(o, archive, rep == 0 ? &oracle : nullptr);
    const uint64_t t0 = NowNs();
    const double c0 = CpuSeconds();
    for (size_t i = 0; i < kMixSize; ++i) {  // warm-up pass
      const QueryRun q = RunMixQuery(*s.db, i, nullptr);
      if (q.ok && q.result != oracle[i]) {
        r->Wrong("warm-up " + QueryName(i) + " differs from the oracle");
      }
      if (s.mgr) s.mgr->Tick();
    }
    e2e.setup_wall_s.push_back(s.seconds + Seconds(t0, NowNs()));
    e2e.setup_cpu_s.push_back(s.cpu_seconds + CpuSeconds() - c0);
  }
  const double resident = double(s.db->TotalBytes());
  const double archived = s.mgr ? double(s.mgr->stats().archive_bytes) : 0;

  OpSamples wall_ms(kMixSize), cpu_ms(kMixSize);
  ExecStats exec;
  SpanRecorder spans;
  uint64_t errors = 0, wrong = 0, count_ops = 0, stream = kFnvBasis;
  std::vector<double> tick_ms;
  double tick_s = 0, measured_s = 0;
  const LifecycleStats l0 = s.mgr ? s.mgr->stats() : LifecycleStats{};
  LifecycleStats lcount = l0;
  const size_t per_type = evicted ? kEvictedPerType : kFrozenPerType;
  const uint64_t order_seed = SubSeed(o.seed, kTagQueryOrder);

  exec.StartScheduler();
  const Rounds rounds = RunRounds(o, kMinRounds, [&](int round, bool traced) {
    const std::vector<size_t> order =
        ShuffledMix(per_type, SubSeed(order_seed, uint64_t(round)));
    const uint64_t t0 = NowNs();
    const double c0 = CpuSeconds();
    double ok = 0;  // failed queries are not throughput
    for (size_t idx : order) {
      std::unique_ptr<obs::QueryProfile> profile;
      if (traced) profile = MixProfile(idx);
      const double qc0 = CpuSeconds();
      const uint64_t q0 = NowNs();
      const QueryRun q = RunMixQuery(*s.db, idx, profile.get());
      const uint64_t q1 = NowNs();
      const double qc1 = CpuSeconds();
      if (!q.ok) {
        ++errors;
      } else if (q.result != oracle[idx]) {
        ++wrong;
        r->Wrong(QueryName(idx) + " differs from the oracle");
      } else {
        ok += 1;
        wall_ms.Add(idx, double(q1 - q0) / 1e6);
        cpu_ms.Add(idx, (qc1 - qc0) * 1e3);
      }
      if (traced) {
        spans.AddProfiled("tpch.RunQuery", q0, q1, profile.get());
        exec.AddProfile(*profile, q1 - q0);
      }
      if (s.mgr) {
        const uint64_t k0 = NowNs();
        s.mgr->Tick();
        const uint64_t k1 = NowNs();
        tick_ms.push_back(double(k1 - k0) / 1e6);
        tick_s += Seconds(k0, k1);
        if (traced) spans.Add("lifecycle.Tick", k0, k1);
      }
      if (round < kCountRounds) stream = Fnv1a(stream, uint64_t(kMix[idx]));
    }
    const RoundStat stat{Seconds(t0, NowNs()), CpuSeconds() - c0, ok};
    measured_s += stat.seconds;
    if (round < kCountRounds) count_ops += order.size();
    if (round == kCountRounds - 1 && s.mgr) lcount = s.mgr->stats();
    return stat;
  });
  exec.StopScheduler();

  r->attempted = errors + wrong + wall_ms.all.size();
  r->failed = errors + wrong;
  r->Add("oracle.checked", double(wall_ms.all.size() + wrong), "count");
  r->Add("oracle.mismatches", double(wrong), "count");
  r->Add("bench.olap_threads", OlapThreads(), "count");
  r->Add("bench.rounds", double(rounds.rate.size()), "count");
  r->Add("bench.stream_hash", double(stream >> 12), "count");

  if (!o.trace) {
    e2e.ops_per_cpu_s = Median(rounds.cpu_rate);
    e2e.ops_per_s = Median(rounds.rate);
    e2e.cpu_ms = &cpu_ms;
    e2e.wall_ms = &wall_ms;
    e2e.tail_quantile = 0.95;  // >= 10 samples beyond it at one round
    e2e.mem_ratio = resident / double(s.hot_bytes);
    e2e.stored_ratio = (resident + archived) / double(s.hot_bytes);
    e2e.Report(r);
  } else {
    ReportQueryTypes(wall_ms, r);
    exec.Report(r);
    r->Add("lifecycle.freeze_s", s.freeze_s, "s");
    r->Add("bench.trace_overhead_frac", rounds.TraceOverhead(), "ratio");
    if (s.mgr) {
      r->Add("lifecycle.reloads_per_op",
             Ratio(double(lcount.reloads - l0.reloads), double(count_ops)),
             "count");
      r->Add("storage.archive_reads_per_op",
             Ratio(double(lcount.archive_reads - l0.archive_reads),
                   double(count_ops)),
             "count");
      r->Add("lifecycle.tick_frac", Ratio(tick_s, measured_s), "ratio");
      r->Add("lifecycle.tick_ms_p50", Quantile(tick_ms, 0.5), "ms");
      r->Add("lifecycle.tick_ms_max", Quantile(tick_ms, 1.0), "ms");
    }
    RunLadder(TpchLadder(*s.db), r);
    ProbeStorage(s.db->lineitem, tpch::col::lineitem::extendedprice,
                 o.work_dir + "/probe.dbar", SubSeed(o.seed, kTagProbe), r);
    spans.Summarize(r);
    if (!spans.WriteJsonl(o.trace_dir + "/" + o.workload + ".jsonl")) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   o.trace_dir.c_str());
    }
  }
  if (s.mgr) {
    // The manager's destructor reloads every evicted block; an injected
    // reload fault must not hit that restore pass.
    fail::FailpointRegistry::Instance().DisarmAll();
    s.mgr->ResetQuarantine();
  }
}

}  // namespace

TpchSetup SetupTpch(const Options& o, const std::string& archive,
                    std::vector<std::string>* oracle) {
  TpchSetup s;
  uint64_t t0 = NowNs();
  double c0 = CpuSeconds();
  tpch::TpchConfig cfg;
  cfg.scale_factor = kScaleFactor;
  cfg.seed = SubSeed(o.seed, kTagDbgen);
  s.db = tpch::MakeTpch(cfg);
  s.seconds = Seconds(t0, NowNs());
  s.cpu_seconds = CpuSeconds() - c0;
  s.hot_bytes = s.db->TotalBytes();
  if (oracle != nullptr) {
    for (int q : kMix) {
      tpch::ScanOptions opt;
      opt.mode = ScanMode::kJit;
      opt.ctx.threads = 1;
      oracle->push_back(tpch::RunQuery(q, *s.db, opt).ToString());
    }
  }
  t0 = NowNs();
  c0 = CpuSeconds();
  s.db->FreezeAll();
  s.freeze_s = Seconds(t0, NowNs());
  if (!archive.empty()) {
    LifecycleConfig lc;
    lc.memory_budget_bytes = s.db->lineitem.FrozenBytes() / 4;
    s.mgr = std::make_unique<LifecycleManager>(&s.db->lineitem, archive, lc);
    s.mgr->Tick();
  }
  s.seconds += Seconds(t0, NowNs());
  s.cpu_seconds += CpuSeconds() - c0;
  return s;
}

std::string QueryName(size_t idx) {
  std::string name = "Q";
  name += std::to_string(kMix[idx]);
  return name;
}

std::unique_ptr<obs::QueryProfile> MixProfile(size_t idx) {
  return std::make_unique<obs::QueryProfile>(QueryName(idx), "+PSMA",
                                             OlapThreads());
}

unsigned OlapThreads() { return Scheduler::Default().num_workers(); }

tpch::ScanOptions OlapOptions(obs::QueryProfile* profile) {
  tpch::ScanOptions opt;
  opt.mode = ScanMode::kDataBlocksPsma;
  opt.ctx.threads = OlapThreads();
  opt.ctx.profile = profile;
  return opt;
}

std::vector<size_t> ShuffledMix(size_t per_type, uint64_t seed) {
  std::vector<size_t> order;
  for (size_t i = 0; i < per_type; ++i) {
    for (size_t t = 0; t < kMixSize; ++t) order.push_back(t);
  }
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[size_t(rng.Uniform(0, int64_t(i) - 1))]);
  }
  return order;
}

void ReportQueryTypes(const OpSamples& ms, Result* r) {
  for (size_t t = 0; t < kMixSize; ++t) {
    std::string name = "tpch.q";
    name += std::to_string(kMix[t]);
    r->Add(name + "_ms", Median(ms.by_type[t]), "ms");
  }
}

std::vector<LadderProbe> TpchLadder(const tpch::TpchDatabase& db) {
  namespace li = tpch::col::lineitem;
  auto query = [&db](int q) {
    return [&db, q] {
      tpch::ScanOptions opt;  // +PSMA, one thread
      tpch::RunQuery(q, db, opt);
    };
  };
  // The lineitem scans of Q1 and Q6 exactly as src/tpch/queries_1_6.cc
  // runs them.
  return {
      {"q1",
       &db.lineitem,
       {li::quantity, li::extendedprice, li::discount, li::tax, li::returnflag,
        li::linestatus},
       {Predicate::Le(li::shipdate, Value::Int(MakeDate(1998, 9, 2)))},
       query(1)},
      {"q6",
       &db.lineitem,
       {li::extendedprice, li::discount},
       {Predicate::Between(li::shipdate, Value::Int(MakeDate(1994, 1, 1)),
                           Value::Int(MakeDate(1995, 1, 1) - 1)),
        Predicate::Between(li::discount, Value::Int(5), Value::Int(7)),
        Predicate::Lt(li::quantity, Value::Int(24))},
       query(6)},
  };
}

void RunOlapFrozen(const Options& o, Result* r) { RunOlap(o, false, r); }
void RunOlapEvicted(const Options& o, Result* r) { RunOlap(o, true, r); }

}  // namespace e2e
