// hybrid_serve: one Server in front of the frozen TPC-H database and a
// 4-warehouse TPC-C database. OLTP arrives open loop (Poisson, one
// generator thread) and serializes on a single-writer lock inside the
// handler; OLAP runs as two closed-loop sessions cycling the mix with zero
// think time. OLTP latency is timed from each request's due time, so a
// stall also charges the requests queued behind it.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/query_profile.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace datablocks;

namespace {

constexpr int kWarehouses = 4;
constexpr double kOltpRate = 2000;  // requests/s, open loop
constexpr int kOlapSessions = 2;
/// OLAP throughput is the median over windows of about this length.
constexpr double kWindowSeconds = 2;
constexpr int kWarmupOltp = 2000;
/// Stated served-OLTP p99 limit at kOltpRate.
constexpr double kOltpLimitMs = 10;
/// Deep enough that bursts queue instead of being refused: the admission
/// queue bound is not what this workload measures.
constexpr size_t kMaxQueued = 4096;
constexpr int kTxnTypes = 5;

/// Everything one set-up builds; members are destroyed bottom-up, so the
/// server (whose requests reference the databases) goes first.
struct Hybrid {
  TpchSetup tpch;
  std::unique_ptr<tpcc::TpccDatabase> tpcc;
  double tpcc_loaded_bytes = 0;
  std::mutex oltp_mu;  // the single writer lane
  std::unique_ptr<Rng> oltp_rng;
  std::unique_ptr<serve::Server> server;
};

double TpccBytes(const tpcc::TpccDatabase& db) {
  double b = 0;
  for (const Table* t : {&db.item, &db.warehouse, &db.district, &db.customer,
                         &db.history, &db.neworder, &db.order, &db.orderline,
                         &db.stock}) {
    b += double(t->MemoryBytes());
  }
  return b;
}

/// One TPC-C mix transaction on the writer lane. The payload is the
/// transaction type and the handler's thread CPU time: "<type> <cpu_ns>".
serve::Request OltpRequest(Hybrid* h) {
  serve::Request req;
  req.name = "tpcc.mixed";
  req.priority = serve::Priority::kOltp;
  req.work = [h] {
    std::lock_guard<std::mutex> lock(h->oltp_mu);
    const double c0 = ThreadCpuSeconds();
    const int type = h->tpcc->RunMixedTransaction(*h->oltp_rng);
    const double cpu_ns = (ThreadCpuSeconds() - c0) * 1e9;
    return std::to_string(type) + " " + std::to_string(uint64_t(cpu_ns));
  };
  return req;
}

serve::Request OlapRequest(Hybrid* h, size_t idx, obs::QueryProfile* profile) {
  serve::Request req;
  req.name = "tpch." + QueryName(idx);
  req.priority = serve::Priority::kOlap;
  req.profile = profile;
  const tpch::TpchDatabase* db = h->tpch.db.get();
  req.work = [db, idx, profile] {
    return tpch::RunQuery(kMix[idx], *db, OlapOptions(profile)).ToString();
  };
  return req;
}

/// One set-up: both databases, the server, and a warm-up through it (the
/// mix once, checked against the oracle, plus a burst of OLTP). Records
/// its wall and CPU seconds, oracle runs excluded.
void SetUp(const Options& o, Hybrid* h, std::vector<std::string>* oracle,
           bool build_oracle, EndToEnd* e2e, Result* r) {
  h->tpch = SetupTpch(o, "", build_oracle ? oracle : nullptr);
  const uint64_t t0 = NowNs();
  const double c0 = CpuSeconds();
  tpcc::TpccConfig cfg;
  cfg.num_warehouses = kWarehouses;
  cfg.seed = SubSeed(o.seed, kTagTpccLoad);
  h->tpcc = std::make_unique<tpcc::TpccDatabase>(cfg);
  h->tpcc->Load();
  h->tpcc_loaded_bytes = TpccBytes(*h->tpcc);
  h->oltp_rng = std::make_unique<Rng>(SubSeed(o.seed, kTagTpccTxns));
  serve::ServerConfig sc;
  sc.admission.max_queued = kMaxQueued;
  h->server = std::make_unique<serve::Server>(sc);

  auto session = h->server->OpenSession("warmup", serve::Priority::kOlap);
  for (size_t i = 0; i < kMixSize; ++i) {
    const serve::Response resp =
        session->Submit(OlapRequest(h, i, nullptr)).Get();
    if (resp.status == serve::Status::kOk && resp.payload != (*oracle)[i]) {
      r->Wrong("warm-up served " + QueryName(i) + " differs from the oracle");
    }
  }
  for (int i = 0; i < kWarmupOltp; ++i) session->Submit(OltpRequest(h)).Get();
  session->Close();
  e2e->setup_wall_s.push_back(h->tpch.seconds + Seconds(t0, NowNs()));
  e2e->setup_cpu_s.push_back(h->tpch.cpu_seconds + CpuSeconds() - c0);
}

/// The server's queue time, or 0 when it wrapped: the admission controller
/// stamps a grant with a clock read taken before it locks, so a request
/// enqueued in between reports a negative (wrapped) queue time. It was
/// granted at once.
uint64_t QueueNs(const serve::Response& resp) {
  return resp.queue_ns > resp.total_ns ? 0 : resp.queue_ns;
}

struct OltpRecord {
  uint64_t due_ns = 0, submit_ns = 0;
  serve::ResponseFuture future;
};

struct OlapRecord {
  size_t idx;
  uint64_t end_ns;
  serve::Response resp;
};

}  // namespace

void RunHybridServe(const Options& o, Result* r) {
  std::vector<std::string> oracle;
  EndToEnd e2e;
  auto h = std::make_unique<Hybrid>();
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    if (rep > 0) h = std::make_unique<Hybrid>();
    SetUp(o, h.get(), &oracle, rep == 0, &e2e, r);
  }
  const int64_t next0 = SumNextOrderIds(*h->tpcc);

  // The OLTP schedule: Poisson arrivals at kOltpRate for o.seconds, cut
  // into windows; OLAP throughput is the median over the windows.
  const int n_oltp = std::max(1, int(kOltpRate * o.seconds));
  std::vector<uint64_t> due_offset(static_cast<size_t>(n_oltp));
  {
    Rng rng(SubSeed(o.seed, kTagArrivals));
    double t = 0;
    for (uint64_t& d : due_offset) {
      t += -std::log(1.0 - rng.NextDouble()) / kOltpRate;
      d = uint64_t(t * 1e9);
    }
  }
  const uint64_t span_ns = due_offset.back();
  const int windows =
      std::max(o.trace ? 4 : 3,
               int(std::lround(double(span_ns) / 1e9 / kWindowSeconds)));
  const uint64_t window_ns = span_ns / uint64_t(windows);
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t end = start + span_ns;
  auto window_of = [&](uint64_t t) {
    if (t < start) return 0;
    return int(std::min<uint64_t>((t - start) / window_ns, windows - 1));
  };

  SpanRecorder spans;
  ExecStats exec;
  std::mutex olap_mu;  // guards olap_records, exec and client_error
  std::vector<OlapRecord> olap_records;
  std::string client_error;  // an exception that ended a client thread
  std::vector<OltpRecord> oltp(static_cast<size_t>(n_oltp));
  // Process CPU seconds at each window boundary, stamped by the generator
  // as its schedule crosses them.
  std::vector<double> window_cpu(size_t(windows) + 1, 0);

  exec.StartScheduler();
  window_cpu[0] = CpuSeconds();
  // Client threads hand an exception to the run instead of terminating.
  auto guarded = [&](auto body) {
    return [&, body] {
      try {
        body();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(olap_mu);
        client_error = e.what();
      }
    };
  };
  std::thread generator(guarded([&] {
    auto session = h->server->OpenSession("oltp", serve::Priority::kOltp);
    int window = 0;
    for (size_t i = 0; i < oltp.size(); ++i) {
      OltpRecord& rec = oltp[i];
      rec.due_ns = start + due_offset[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(rec.due_ns)));
      for (; window < window_of(rec.due_ns); ++window) {
        window_cpu[size_t(window) + 1] = CpuSeconds();
      }
      rec.submit_ns = NowNs();
      rec.future = session->Submit(OltpRequest(h.get()));
    }
    window_cpu[size_t(windows)] = CpuSeconds();
    session->Close();
  }));
  std::vector<std::thread> olap;
  for (int k = 0; k < kOlapSessions; ++k) {
    olap.emplace_back(guarded([&, k] {
      auto session = h->server->OpenSession("olap" + std::to_string(k),
                                            serve::Priority::kOlap);
      const uint64_t seed =
          SubSeed(SubSeed(o.seed, kTagQueryOrder), uint64_t(1000 + k));
      std::vector<OlapRecord> mine;
      for (int cycle = 0; NowNs() < end; ++cycle) {
        for (size_t idx : ShuffledMix(1, SubSeed(seed, uint64_t(cycle)))) {
          const uint64_t q0 = NowNs();
          if (q0 >= end) break;
          const bool traced = TracedRound(o, window_of(q0));
          std::unique_ptr<obs::QueryProfile> profile;
          if (traced) profile = MixProfile(idx);
          serve::Response resp =
              session->Submit(OlapRequest(h.get(), idx, profile.get())).Get();
          const uint64_t q1 = NowNs();
          if (traced) {
            const uint64_t req =
                spans.Add("serve.olap", q0, q0 + resp.total_ns);
            const uint64_t queue_ns = QueueNs(resp);
            spans.Add("serve.queue", q0, q0 + queue_ns, req, req);
            spans.AddProfiled("serve.exec", q0 + queue_ns,
                              q0 + queue_ns + resp.exec_ns,
                              profile.get(), req, req);
            std::lock_guard<std::mutex> lock(olap_mu);
            exec.AddProfile(*profile, resp.exec_ns);
          }
          mine.push_back({idx, q1, std::move(resp)});
        }
      }
      session->Close();
      std::lock_guard<std::mutex> lock(olap_mu);
      olap_records.insert(olap_records.end(), mine.begin(), mine.end());
    }));
  }
  generator.join();
  for (std::thread& t : olap) t.join();
  exec.StopScheduler();
  if (!client_error.empty()) r->Wrong("client thread failed: " + client_error);

  // -- OLTP: latency from the due time, handler CPU per request ---------------
  OpSamples oltp_ms(kTxnTypes), oltp_cpu_ms(kTxnTypes);
  std::vector<double> queue_us, exec_us, dispatch_us, lag_us;
  std::vector<double> oltp_cpu_s(size_t(windows), 0);
  double queue_sum = 0, dispatch_sum = 0, total_sum = 0;
  uint64_t oltp_ok = 0, oltp_errors = 0, refused = 0, neworders = 0;
  uint64_t queue_wrapped = 0;
  uint64_t last_done = start;
  uint64_t type_counts[kTxnTypes] = {};
  for (size_t i = 0; i < oltp.size(); ++i) {
    const OltpRecord& rec = oltp[i];
    if (!rec.future.valid()) continue;  // never submitted: the generator died
    const serve::Response& resp = rec.future.Get();
    const uint64_t lag = rec.submit_ns - rec.due_ns;
    lag_us.push_back(double(lag) / 1e3);
    if (resp.status == serve::Status::kRejected ||
        resp.status == serve::Status::kTimedOut) {
      ++refused;
      continue;
    }
    if (resp.status != serve::Status::kOk) {
      ++oltp_errors;
      continue;
    }
    ++oltp_ok;
    const size_t type = size_t(resp.payload[0] - '0');
    const double cpu_ms =
        std::strtod(resp.payload.c_str() + 2, nullptr) / 1e6;
    neworders += type == 0 ? 1 : 0;
    ++type_counts[type];
    const uint64_t queue_ns = QueueNs(resp);
    queue_wrapped += queue_ns != resp.queue_ns ? 1 : 0;
    const uint64_t dispatch =
        resp.total_ns - std::min(resp.total_ns, queue_ns + resp.exec_ns);
    oltp_ms.Add(type, double(lag + resp.total_ns) / 1e6);
    oltp_cpu_ms.Add(type, cpu_ms);
    oltp_cpu_s[size_t(window_of(rec.due_ns))] += cpu_ms / 1e3;
    queue_us.push_back(double(queue_ns) / 1e3);
    exec_us.push_back(double(resp.exec_ns) / 1e3);
    dispatch_us.push_back(double(dispatch) / 1e3);
    queue_sum += double(queue_ns);
    dispatch_sum += double(dispatch);
    total_sum += double(resp.total_ns);
    last_done = std::max(last_done, rec.submit_ns + resp.total_ns);
    // Traced windows keep one OLTP request span in four.
    if (TracedRound(o, window_of(rec.due_ns)) && i % 4 == 0) {
      const uint64_t req = spans.Add("serve.oltp", rec.submit_ns,
                                     rec.submit_ns + resp.total_ns);
      spans.Add("serve.queue", rec.submit_ns, rec.submit_ns + queue_ns, req,
                req);
      spans.Add("serve.exec", rec.submit_ns + queue_ns,
                rec.submit_ns + queue_ns + resp.exec_ns, req, req);
    }
  }

  // Requests take their transaction from one shared Rng in whatever order
  // the workers run them, so the stream is the arrival schedule plus the
  // multiset of transaction types.
  uint64_t stream = Fnv1a(kFnvBasis, span_ns);
  for (uint64_t c : type_counts) stream = Fnv1a(stream, c);

  // -- OLAP: served latency per type, throughput per window --------------------
  OpSamples olap_ms(kMixSize);
  std::vector<double> olap_queue_ms, olap_exec_ms;
  std::vector<double> per_window(size_t(windows), 0);
  uint64_t olap_errors = 0, wrong = 0;
  for (const OlapRecord& rec : olap_records) {
    if (rec.resp.status == serve::Status::kRejected ||
        rec.resp.status == serve::Status::kTimedOut) {
      ++refused;
      continue;
    }
    if (rec.resp.status != serve::Status::kOk) {
      ++olap_errors;
      continue;
    }
    if (rec.resp.payload != oracle[rec.idx]) {
      ++wrong;
      r->Wrong("served " + QueryName(rec.idx) + " differs from the oracle");
      continue;
    }
    olap_ms.Add(rec.idx, double(rec.resp.total_ns) / 1e6);
    olap_queue_ms.push_back(double(QueueNs(rec.resp)) / 1e6);
    queue_wrapped += QueueNs(rec.resp) != rec.resp.queue_ns ? 1 : 0;
    olap_exec_ms.push_back(double(rec.resp.exec_ns) / 1e6);
    if (rec.end_ns >= start && rec.end_ns < end) {
      per_window[size_t(window_of(rec.end_ns))] += 1;
    }
  }
  // A window's OLAP throughput per CPU second charges OLAP with the
  // process's CPU time in the window minus the OLTP handlers' own.
  Rounds rounds;
  for (size_t w = 0; w < size_t(windows); ++w) {
    const double cpu = window_cpu[w + 1] - window_cpu[w] - oltp_cpu_s[w];
    rounds.Add({double(window_ns) / 1e9, cpu, per_window[w]},
               TracedRound(o, int(w)));
  }

  h->server->Shutdown();
  const double committed = double(SumNextOrderIds(*h->tpcc) - next0);
  std::string msg;
  if (!h->tpcc->CheckConsistency(&msg)) {
    ++wrong;
    r->Wrong("TPC-C consistency after the run: " + msg);
  }

  r->attempted = oltp.size() + olap_records.size();
  r->failed = oltp_errors + olap_errors + refused + wrong;
  r->Add("oracle.checked", double(olap_ms.all.size() + wrong), "count");
  r->Add("oracle.mismatches", double(wrong), "count");
  r->Add("bench.olap_threads", OlapThreads(), "count");
  r->Add("bench.stream_hash", double(stream >> 12), "count");
  r->Add("serve.oltp_completed_per_s",
         Ratio(double(oltp_ok), Seconds(start, last_done)), "1/s");

  if (!o.trace) {
    const double resident =
        double(h->tpch.db->TotalBytes()) + TpccBytes(*h->tpcc);
    const double before = double(h->tpch.hot_bytes) + h->tpcc_loaded_bytes;
    e2e.ops_per_cpu_s = Median(rounds.cpu_rate);
    e2e.ops_per_s = Median(rounds.rate);
    e2e.cpu_ms = &oltp_cpu_ms;
    e2e.wall_ms = &oltp_ms;
    e2e.tail_quantile = 0.99;
    e2e.mem_ratio = resident / before;
    e2e.stored_ratio = resident / before;  // nothing is archived
    e2e.Report(r);
    r->Add("serve.oltp_p99_within_limit",
           Quantile(oltp_ms.all, 0.99) <= kOltpLimitMs ? 1 : 0, "count");
    r->Add("wall.olap_type_geomean_ms", olap_ms.TypeGeoMean(), "ms");
  } else {
    ReportQueryTypes(olap_ms, r);
    exec.Report(r);
    r->Add("serve.oltp_queue_frac", Ratio(queue_sum, total_sum), "ratio");
    r->Add("serve.oltp_dispatch_frac", Ratio(dispatch_sum, total_sum),
           "ratio");
    r->Add("serve.refused", double(refused), "count");
    r->Add("serve.queue_ns_wrapped", double(queue_wrapped), "count");
    r->Add("serve.oltp_queue_us_p50", Quantile(queue_us, 0.50), "us");
    r->Add("serve.oltp_queue_us_p99", Quantile(queue_us, 0.99), "us");
    r->Add("serve.oltp_exec_us_p99", Quantile(exec_us, 0.99), "us");
    r->Add("serve.oltp_dispatch_us_p99", Quantile(dispatch_us, 0.99), "us");
    r->Add("serve.olap_queue_ms_p50", Quantile(olap_queue_ms, 0.50), "ms");
    r->Add("serve.olap_exec_ms_p50", Quantile(olap_exec_ms, 0.50), "ms");
    r->Add("bench.gen_lag_us_p99", Quantile(lag_us, 0.99), "us");
    r->Add("tpcc.rollback_frac", 1.0 - Ratio(committed, double(neworders)),
           "ratio");
    r->Add("bench.trace_overhead_frac", rounds.TraceOverhead(), "ratio");
    r->Add("lifecycle.freeze_s", h->tpch.freeze_s, "s");
    RunLadder(TpchLadder(*h->tpch.db), r);
    ProbeStorage(h->tpch.db->lineitem, tpch::col::lineitem::extendedprice,
                 o.work_dir + "/probe.dbar", SubSeed(o.seed, kTagProbe), r);
    spans.Summarize(r);
    if (!spans.WriteJsonl(o.trace_dir + "/" + o.workload + ".jsonl")) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   o.trace_dir.c_str());
    }
  }
}

}  // namespace e2e
