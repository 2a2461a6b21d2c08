// Closed-loop serving macro-benchmark: N clients x mixed TPC-C + TPC-H
// at think time T, through the serving front end (serve/server.h) — the
// first scenario where the engine serves many callers at once instead
// of one bench main().
//
//   * Half the clients are OLTP (one TPC-C mixed transaction per
//     request, Priority::kOltp — run in the server's ordered lane, one
//     at a time, by a submitting client's thread); the rest are OLAP
//     (TPC-H queries on a frozen Data Blocks instance, Priority::kOlap,
//     admitted and run on the worker pool with parallel pipelines at
//     --threads N).
//   * Closed loop: every client submits, waits for the response,
//     thinks T ms, repeats until the duration elapses — so offered
//     load adapts to service rate like a real connection pool.
//   * Reported: per-priority-class and per-client p50/p95/p99
//     end-to-end latency (submit -> response, queueing included),
//     throughput, and the admission counters (serve.* metrics land in
//     the --json metrics section).
//   * Before the loop, every TPC-H query in the set runs once through
//     the serving layer AND via direct RunQuery; the payloads must
//     match, and the combined FNV checksum is printed — the serve-path
//     twin of bench_table2_tpch's t1-vs-t4 CI guard.
//
// Usage: bench_serve [--quick] [--json out] [--threads N] [--clients N]
//                    [--duration-s S] [--think-ms T] [--max-running R]
//                    [--max-queued Q] [--timeout-ms X] [--saturate]
//
// --saturate shrinks both queues (max_running 1, max_queued 2, 50 ms
// queue timeout, zero think time) so the run *must* produce refusals.
// Both classes follow one rule: an arrival that finds every slot busy
// and max_queued requests waiting is rejected, and a head that waited
// past its timeout is refused when a slot frees. With four clients per
// class, one running and two waiting, the OLAP queue and the OLTP lane
// both overflow, and slow builds time heads out as well. The
// serve-stress CI job runs it under TSan and ASan/UBSan and fails unless
// the refusal counters moved and nothing hung.
//
// --chaos evicts the whole lineitem table to a block archive (lifecycle
// budget 0, background ticks keep re-evicting) and arms the
// lifecycle.reload failpoint at prob:0.1 for the closed loop: a tenth of
// archive reloads fail, so OLAP queries randomly hit storage errors and
// quarantined chunks while OLTP traffic is untouched. The run passes as
// long as the server stays up and requests keep completing — injected
// storage errors are expected and reported, not fatal. The
// fault-injection CI job runs it under both sanitizer legs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lifecycle/lifecycle_manager.h"
#include "serve/server.h"
#include "tpcc/tpcc_db.h"
#include "tpch/queries.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/timer.h"

#include "bench_common.h"

using namespace datablocks;

namespace {

/// Strips `--name v` / `--name=v` from argv; returns the last value.
const char* FlagValue(int* argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  const char* value = nullptr;
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    if (std::strncmp(argv[r], name, len) == 0 && argv[r][len] == '=') {
      value = argv[r] + len + 1;
      continue;
    }
    if (std::strcmp(argv[r], name) == 0 && r + 1 < *argc) {
      value = argv[++r];
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return value;
}

long FlagInt(int* argc, char** argv, const char* name, long fallback) {
  const char* v = FlagValue(argc, argv, name);
  if (v == nullptr) return fallback;
  char* end;
  long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < 0) {
    std::fprintf(stderr, "bad %s value: %s\n", name, v);
    std::exit(1);
  }
  return n;
}

bool FlagBool(int* argc, char** argv, const char* name) {
  int w = 1;
  bool found = false;
  for (int r = 1; r < *argc; ++r) {
    if (std::strcmp(argv[r], name) == 0) {
      found = true;
      continue;
    }
    argv[w++] = argv[r];
  }
  *argc = w;
  return found;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (char c : s) h = (h ^ uint8_t(c)) * 1099511628211ull;
  return h;
}

/// Exact percentile of a sample set (ns); sorts in place.
uint64_t PercentileNs(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = size_t(q / 100.0 * double(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

struct ClientStats {
  std::string name;
  serve::Priority priority;
  std::vector<uint64_t> latencies_ns;  // kOk responses only
  uint64_t ok = 0, rejected = 0, timed_out = 0, errors = 0, other = 0;

  void Count(const serve::Response& resp) {
    switch (resp.status) {
      case serve::Status::kOk:
        ++ok;
        latencies_ns.push_back(resp.total_ns);
        break;
      case serve::Status::kRejected: ++rejected; break;
      case serve::Status::kTimedOut: ++timed_out; break;
      case serve::Status::kError: ++errors; break;
      default: ++other; break;
    }
  }
};

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = BenchQuickMode(&argc, argv);
  BenchJsonMode(&argc, argv, quick);
  const unsigned threads = BenchThreadsFlag(&argc, argv);
  const bool saturate = FlagBool(&argc, argv, "--saturate");
  const bool chaos = FlagBool(&argc, argv, "--chaos");

  const long clients = FlagInt(&argc, argv, "--clients", quick ? 8 : 32);
  const double duration_s =
      double(FlagInt(&argc, argv, "--duration-s", quick ? 2 : 10));
  const long think_ms =
      FlagInt(&argc, argv, "--think-ms", saturate ? 0 : (quick ? 1 : 2));
  const long max_running =
      FlagInt(&argc, argv, "--max-running", saturate ? 1 : 0);
  const long max_queued =
      FlagInt(&argc, argv, "--max-queued", saturate ? 2 : 64);
  const long timeout_ms =
      FlagInt(&argc, argv, "--timeout-ms", saturate ? 50 : 0);

  tpcc::TpccConfig tpcc_cfg;
  tpcc_cfg.num_warehouses = quick ? 1 : 2;
  tpch::TpchConfig tpch_cfg;
  tpch_cfg.scale_factor = quick ? 0.02 : 0.1;
  const std::vector<int> query_set =
      quick ? std::vector<int>{1, 6, 12, 14}
            : std::vector<int>{1, 3, 6, 12, 14, 19};

  std::printf("loading TPC-C (%d warehouse%s) + TPC-H SF %.2f (frozen)...\n",
              tpcc_cfg.num_warehouses,
              tpcc_cfg.num_warehouses == 1 ? "" : "s",
              tpch_cfg.scale_factor);
  Timer load;
  tpcc::TpccDatabase oltp_db(tpcc_cfg);
  oltp_db.Load();
  auto olap_db = tpch::MakeTpch(tpch_cfg);
  olap_db->FreezeAll();
  std::printf("loaded in %.1f s\n\n", load.ElapsedSeconds());

  serve::ServerConfig server_cfg;
  server_cfg.admission.max_running = unsigned(max_running);
  server_cfg.admission.max_queued = size_t(max_queued);
  serve::Server server(server_cfg);

  // TPC-C transactions are single-threaded: the server's OLTP lane runs
  // them one at a time in arrival order, so the lane is the commit order
  // and the handler needs no lock of its own.
  Rng oltp_rng(7);
  server.RegisterHandler("tpcc.mixed", [&](std::string_view) {
    const int type = oltp_db.RunMixedTransaction(oltp_rng);
    return std::string(1, char('0' + type));
  });
  for (int q : query_set) {
    server.RegisterHandler(
        "tpch.q" + std::to_string(q), [&, q](std::string_view) {
          tpch::ScanOptions opt;
          opt.mode = ScanMode::kDataBlocksPsma;
          opt.ctx.threads = threads;
          return tpch::RunQuery(q, *olap_db, opt).ToString();
        });
  }

  // -- Serve-vs-direct equality + the t1-vs-tN checksum ---------------------
  {
    auto session = server.OpenSession("checksum", serve::Priority::kOlap);
    uint64_t checksum = 1469598103934665603ull;
    for (int q : query_set) {
      // Copy: Get() returns a reference into the temporary future's
      // shared state.
      const serve::Response resp =
          session->Call("tpch.q" + std::to_string(q)).Get();
      if (resp.status != serve::Status::kOk) {
        std::fprintf(stderr, "serve-layer Q%d failed: %s %s\n", q,
                     serve::StatusName(resp.status), resp.payload.c_str());
        return 1;
      }
      tpch::ScanOptions opt;
      opt.mode = ScanMode::kDataBlocksPsma;
      opt.ctx.threads = threads;
      const std::string direct =
          tpch::RunQuery(q, *olap_db, opt).ToString();
      if (resp.payload != direct) {
        std::fprintf(stderr,
                     "MISMATCH: Q%d through the serving layer differs from "
                     "the direct call\n",
                     q);
        return 1;
      }
      checksum = Fnv1a(checksum, resp.payload);
    }
    std::printf("serve-layer results match direct calls (%zu queries)\n",
                query_set.size());
    std::printf("result checksum: %016llx\n\n",
                (unsigned long long)checksum);
  }

  // -- Chaos mode: evicted lineitem + injected reload failures --------------
  std::unique_ptr<LifecycleManager> chaos_mgr;
  const char* chaos_archive = "/tmp/datablocks_bench_serve_chaos.dbar";
  if (chaos) {
    LifecycleConfig lc;
    lc.memory_budget_bytes = 0;  // background ticks keep lineitem evicted
    lc.quarantine_backoff = std::chrono::milliseconds(25);
    lc.tick_interval = std::chrono::milliseconds(20);
    std::remove(chaos_archive);
    chaos_mgr = std::make_unique<LifecycleManager>(&olap_db->lineitem,
                                                   chaos_archive, lc);
    for (int i = 0; i < 5; ++i) chaos_mgr->Tick();
    chaos_mgr->Start();
    fail::FailpointRegistry::Instance().Arm("lifecycle.reload", "prob:0.1");
    std::printf(
        "chaos: lineitem evicted to the archive, lifecycle.reload armed at "
        "prob:0.1 — OLAP storage errors below are injected on purpose\n\n");
  }

  // -- Closed loop ----------------------------------------------------------
  const long oltp_clients = clients / 2;
  std::printf(
      "=== closed loop: %ld clients (%ld oltp + %ld olap), %.0f s, "
      "think %ld ms, max_running %u, max_queued %ld, timeout %ld ms ===\n",
      clients, oltp_clients, clients - oltp_clients, duration_s, think_ms,
      server.admission_config().max_running, max_queued, timeout_ms);

  std::vector<ClientStats> stats{size_t(clients)};
  std::vector<std::thread> workers;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(int64_t(duration_s * 1e3));
  for (long c = 0; c < clients; ++c) {
    const bool is_oltp = c < oltp_clients;
    ClientStats& cs = stats[size_t(c)];
    cs.priority =
        is_oltp ? serve::Priority::kOltp : serve::Priority::kOlap;
    cs.name = (is_oltp ? "oltp" : "olap") + std::to_string(c);
    workers.emplace_back([&, c, is_oltp] {
      ClientStats& my = stats[size_t(c)];
      auto session = server.OpenSession(my.name, my.priority);
      size_t next_query = size_t(c) % query_set.size();
      while (std::chrono::steady_clock::now() < deadline) {
        std::string verb;
        if (is_oltp) {
          verb = "tpcc.mixed";
        } else {
          verb = "tpch.q" + std::to_string(query_set[next_query]);
          next_query = (next_query + 1) % query_set.size();
        }
        my.Count(session
                     ->Call(std::move(verb), "", my.priority,
                            std::chrono::milliseconds(timeout_ms))
                     .Get());
        if (think_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(think_ms));
        }
      }
      session->Close();
    });
  }
  Timer loop;
  for (auto& t : workers) t.join();
  const double elapsed = loop.ElapsedSeconds();

  // -- Report ---------------------------------------------------------------
  struct ClassAgg {
    std::vector<uint64_t> lat;
    uint64_t ok = 0, rejected = 0, timed_out = 0, errors = 0;
  };
  ClassAgg agg[serve::kNumPriorities];
  std::printf("\n%-10s %8s %8s %8s %8s %9s %9s %9s\n", "client", "ok", "rej",
              "timeout", "err", "p50 ms", "p95 ms", "p99 ms");
  for (ClientStats& cs : stats) {
    ClassAgg& a = agg[unsigned(cs.priority)];
    a.ok += cs.ok;
    a.rejected += cs.rejected;
    a.timed_out += cs.timed_out;
    a.errors += cs.errors;
    a.lat.insert(a.lat.end(), cs.latencies_ns.begin(),
                 cs.latencies_ns.end());
    std::vector<uint64_t> lat = cs.latencies_ns;
    std::printf("%-10s %8llu %8llu %8llu %8llu %9.2f %9.2f %9.2f\n",
                cs.name.c_str(), (unsigned long long)cs.ok,
                (unsigned long long)cs.rejected,
                (unsigned long long)cs.timed_out,
                (unsigned long long)cs.errors,
                double(PercentileNs(lat, 50)) / 1e6,
                double(PercentileNs(lat, 95)) / 1e6,
                double(PercentileNs(lat, 99)) / 1e6);
  }
  uint64_t total_errors = 0;
  std::printf("\n%-10s %10s %10s %9s %9s %9s %9s\n", "class", "ok", "req/s",
              "p50 ms", "p95 ms", "p99 ms", "refused");
  for (unsigned p = 0; p < serve::kNumPriorities; ++p) {
    ClassAgg& a = agg[p];
    total_errors += a.errors;
    if (a.ok + a.rejected + a.timed_out + a.errors == 0) continue;
    const double p50 = double(PercentileNs(a.lat, 50));
    const double p95 = double(PercentileNs(a.lat, 95));
    const double p99 = double(PercentileNs(a.lat, 99));
    const double rps = double(a.ok) / elapsed;
    const char* cls = serve::PriorityName(serve::Priority(p));
    std::printf("%-10s %10llu %10.1f %9.2f %9.2f %9.2f %9llu\n", cls,
                (unsigned long long)a.ok, rps, p50 / 1e6, p95 / 1e6,
                p99 / 1e6, (unsigned long long)(a.rejected + a.timed_out));
    const std::string bench_name = std::string("serve_") + cls;
    BenchJsonRecord(bench_name, "p50", p50, rps);
    BenchJsonRecord(bench_name, "p95", p95, rps);
    BenchJsonRecord(bench_name, "p99", p99, rps);
  }

  server.Shutdown();
  if (chaos) {
    chaos_mgr->Stop();
    chaos_mgr.reset();
    std::remove(chaos_archive);
  }
  const uint64_t rejected = CounterValue("serve.rejected");
  const uint64_t timed_out = CounterValue("serve.timed_out");
  const uint64_t completed = CounterValue("serve.completed");
  const uint64_t storage_errors = CounterValue("serve.storage_errors");
  std::printf(
      "\nserve.* admission counters: submitted %llu, admitted %llu, "
      "rejected %llu, timed_out %llu, completed %llu, errors %llu, "
      "storage_errors %llu\n",
      (unsigned long long)CounterValue("serve.submitted"),
      (unsigned long long)CounterValue("serve.admitted"),
      (unsigned long long)rejected, (unsigned long long)timed_out,
      (unsigned long long)completed,
      (unsigned long long)CounterValue("serve.errors"),
      (unsigned long long)storage_errors);

  if (chaos) {
    std::printf(
        "chaos: %llu injected storage errors surfaced as per-query kError "
        "responses; %llu requests completed anyway\n",
        (unsigned long long)storage_errors, (unsigned long long)completed);
    if (completed == 0) {
      std::fprintf(stderr,
                   "FAIL: --chaos completed no requests — the injected "
                   "storage faults took the server down\n");
      return 1;
    }
  } else if (total_errors > 0) {
    std::fprintf(stderr, "FAIL: %llu handler errors\n",
                 (unsigned long long)total_errors);
    return 1;
  }
  if (saturate && rejected + timed_out == 0) {
    std::fprintf(stderr,
                 "FAIL: --saturate produced neither rejections nor queue "
                 "timeouts — admission control is not engaging\n");
    return 1;
  }
  std::string msg;
  if (!oltp_db.CheckConsistency(&msg)) {
    std::fprintf(stderr, "TPC-C CONSISTENCY VIOLATION: %s\n", msg.c_str());
    return 1;
  }
  std::printf("TPC-C consistency checks passed.\n");
  return 0;
}
