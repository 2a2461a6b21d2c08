// Serving front end: the one queue rule of both request classes
// (overflow rejection, timeout at the head, shutdown flush — each run
// over kOltp and kOlap), the ordered OLTP lane (one request at a time in
// submission order, drained by a submitting thread; handler errors),
// kOlap's slot bound under racing submitters, session lifecycle
// (close-with-queries-in-flight, server shutdown), handler errors, and
// serve-vs-direct TPC-H result equality. The concurrency here — clients
// racing to admit, finishing workers popping the next head, heads timing
// out — is what the TSan CI leg exercises.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tpch/queries.h"

namespace datablocks {
namespace {

using serve::Priority;
using serve::Request;
using serve::Response;
using serve::ResponseFuture;
using serve::Status;

/// Spin-waits (with yields) until `pred` holds or ~10s elapsed.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// Manually opened barrier blocking a handler on a worker.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

Scheduler::Options SmallPool() {
  Scheduler::Options opts;
  opts.num_workers = 2;
  opts.pin_workers = false;
  return opts;
}

serve::ServerConfig TinyAdmission(Scheduler* scheduler, unsigned max_running,
                                  size_t max_queued) {
  serve::ServerConfig cfg;
  cfg.scheduler = scheduler;
  cfg.admission.max_running = max_running;
  cfg.admission.max_queued = max_queued;
  return cfg;
}

Request OfClass(Priority priority, std::string name,
                std::function<std::string()> work) {
  Request req;
  req.name = std::move(name);
  req.priority = priority;
  req.work = std::move(work);
  return req;
}

Request Oltp(std::string name, std::function<std::string()> work) {
  return OfClass(Priority::kOltp, std::move(name), std::move(work));
}

/// Occupies every slot of `priority`'s class, at max_running 1: submits
/// a request that blocks on `gate` from a thread of its own and returns
/// once it started. A kOlap request runs on a pool worker and the thread
/// ends at once; a kOltp thread drains the lane and ends when it is empty
/// again.
std::thread Occupy(serve::Session* session, Priority priority, Gate* gate,
                   std::atomic<int>* started, ResponseFuture* out) {
  std::thread submitter([=] {
    *out = session->Submit(OfClass(priority, "blocker", [gate, started] {
      started->fetch_add(1);
      gate->Wait();
      return std::string("done");
    }));
  });
  EXPECT_TRUE(WaitFor([&] { return started->load() == 1; }));
  return submitter;
}

/// One refusal rule per test, each run over both request classes.
class Refusal : public ::testing::TestWithParam<Priority> {};

TEST_P(Refusal, ArrivalPastTheQueueBoundIsRejected) {
  const Priority priority = GetParam();
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 2));
  auto session = server.OpenSession("t", priority);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread occupier =
      Occupy(session.get(), priority, &gate, &started, &blocker);

  // The running request does not count: two wait, the third bounces,
  // inline.
  std::mutex order_mu;
  std::string order;
  auto run = [&](char name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(order_mu);
      order += name;
      return std::string(1, name);
    };
  };
  ResponseFuture b = session->Submit(OfClass(priority, "b", run('b')));
  ResponseFuture c = session->Submit(OfClass(priority, "c", run('c')));
  ResponseFuture d = session->Submit(OfClass(priority, "d", run('d')));
  ASSERT_TRUE(d.WaitFor(std::chrono::milliseconds(0)));
  EXPECT_EQ(d.Get().status, Status::kRejected);

  gate.Open();
  occupier.join();
  EXPECT_EQ(blocker.Get().status, Status::kOk);
  EXPECT_EQ(b.Get().status, Status::kOk);
  EXPECT_EQ(c.Get().status, Status::kOk);
  EXPECT_GT(b.Get().queue_ns, 0u);
  std::lock_guard<std::mutex> lock(order_mu);
  EXPECT_EQ(order, "bc");  // in arrival order
  server.Shutdown();
}

TEST_P(Refusal, RequestPastItsTimeoutAtTheHeadTimesOut) {
  const Priority priority = GetParam();
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t", priority);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread occupier =
      Occupy(session.get(), priority, &gate, &started, &blocker);

  std::atomic<int> ran{0};
  Request late = OfClass(priority, "late", [&] {
    ran.fetch_add(1);
    return std::string("late");
  });
  late.queue_timeout = std::chrono::milliseconds(20);
  ResponseFuture fl = session->Submit(std::move(late));
  ResponseFuture fo = session->Submit(OfClass(priority, "patient", [] {
    return std::string("patient");
  }));
  // Nothing expires a waiting request: the deadline is checked at the
  // head, once the slot frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(fl.WaitFor(std::chrono::milliseconds(0)));

  gate.Open();
  occupier.join();
  EXPECT_EQ(fl.Get().status, Status::kTimedOut);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(fo.Get().payload, "patient");
  EXPECT_EQ(blocker.Get().status, Status::kOk);
  server.Shutdown();
}

TEST_P(Refusal, ShutdownFlushesQueuedAndWaitsForTheRunning) {
  const Priority priority = GetParam();
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t", priority);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread occupier =
      Occupy(session.get(), priority, &gate, &started, &blocker);

  std::atomic<int> ran{0};
  auto count = [&] {
    ran.fetch_add(1);
    return std::string("x");
  };
  ResponseFuture b = session->Submit(OfClass(priority, "b", count));
  ResponseFuture c = session->Submit(OfClass(priority, "c", count));
  std::atomic<bool> shut{false};
  std::thread stopper([&] {
    server.Shutdown();
    shut.store(true);
  });
  // The queued requests are flushed while the blocker still runs, and
  // Shutdown waits for it.
  EXPECT_EQ(b.Get().status, Status::kShutdown);
  EXPECT_EQ(c.Get().status, Status::kShutdown);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(shut.load());

  gate.Open();
  stopper.join();
  EXPECT_TRUE(shut.load());
  occupier.join();
  EXPECT_EQ(blocker.Get().status, Status::kOk);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(session->Submit(OfClass(priority, "after", count)).Get().status,
            Status::kShutdown);
}

INSTANTIATE_TEST_SUITE_P(BothClasses, Refusal,
                         ::testing::Values(Priority::kOltp, Priority::kOlap),
                         [](const ::testing::TestParamInfo<Priority>& info) {
                           return std::string(serve::PriorityName(info.param));
                         });

TEST(Lane, RunsOneAtATimeInSubmissionOrderOnSubmitters) {
  // Submitters race to append to the lane; whichever finds it idle drains
  // it on its own thread. Checked: the handler never runs twice at once,
  // each submitter's requests run in its submission order, every request
  // runs once on a submitting thread (never a pool worker), and every
  // future resolves exactly once (serve.completed moves by the total).
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 1 << 16));
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 500;
  obs::Counter* completed =
      obs::MetricsRegistry::Default().GetCounter("serve.completed");
  const uint64_t completed_before = completed->Value();

  std::atomic<int> in_flight{0}, overlapped{0}, off_submitter{0};
  std::vector<std::thread::id> submitter_ids(kSubmitters);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::atomic<int>> runs(kSubmitters * kPerSubmitter);
  std::vector<int> last_run(kSubmitters, -1);  // touched only in the lane
  std::atomic<int> out_of_order{0};
  std::vector<std::vector<ResponseFuture>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      submitter_ids[s] = std::this_thread::get_id();
      auto session = server.OpenSession("lane" + std::to_string(s),
                                        Priority::kOltp);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerSubmitter; ++i) {
        futures[s].push_back(session->Submit(Oltp("txn", [&, s, i] {
          if (in_flight.fetch_add(1) != 0) overlapped.fetch_add(1);
          const std::thread::id self = std::this_thread::get_id();
          if (std::find(submitter_ids.begin(), submitter_ids.end(), self) ==
              submitter_ids.end()) {
            off_submitter.fetch_add(1);
          }
          if (i <= last_run[s]) out_of_order.fetch_add(1);
          last_run[s] = i;
          runs[s * kPerSubmitter + i].fetch_add(1);
          in_flight.fetch_sub(1);
          return std::string("ok");
        })));
      }
      session->Close();
    });
  }
  ASSERT_TRUE(WaitFor([&] { return ready.load() == kSubmitters; }));
  go.store(true);
  for (std::thread& t : submitters) t.join();

  for (auto& mine : futures) {
    ASSERT_EQ(mine.size(), size_t(kPerSubmitter));
    for (ResponseFuture& f : mine) {
      ASSERT_TRUE(f.WaitFor(std::chrono::milliseconds(0)));
      EXPECT_EQ(f.Get().status, Status::kOk);
    }
  }
  for (std::atomic<int>& r : runs) ASSERT_EQ(r.load(), 1);
  EXPECT_EQ(overlapped.load(), 0);
  EXPECT_EQ(out_of_order.load(), 0);
  EXPECT_EQ(off_submitter.load(), 0);
  EXPECT_EQ(completed->Value() - completed_before,
            uint64_t(kSubmitters * kPerSubmitter));
  server.Shutdown();
}

TEST(Lane, HandlerExceptionIsAnErrorAndTheDrainGoesOn) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t", Priority::kOltp);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread drainer = Occupy(session.get(), Priority::kOltp, &gate,
                               &started, &blocker);

  ResponseFuture boom = session->Submit(Oltp("boom", []() -> std::string {
    throw std::runtime_error("kaput");
  }));
  ResponseFuture next = session->Submit(Oltp("next", [] {
    return std::string("next");
  }));
  gate.Open();
  drainer.join();
  EXPECT_EQ(boom.Get().status, Status::kError);
  EXPECT_EQ(boom.Get().payload, "kaput");
  EXPECT_EQ(next.Get().status, Status::kOk);
  EXPECT_EQ(next.Get().payload, "next");
  server.Shutdown();
}

TEST(Session, CloseDrainsInFlightRequests) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 8));
  auto session = server.OpenSession("t");

  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 4; ++i) {
    Request req;
    req.name = "slow";
    req.work = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return std::string("s");
    };
    futures.push_back(session->Submit(std::move(req)));
  }
  session->Close();
  // Close returned only after every in-flight request resolved.
  for (ResponseFuture& f : futures) {
    ASSERT_TRUE(f.WaitFor(std::chrono::milliseconds(0)));
    EXPECT_EQ(f.Get().status, Status::kOk);
  }
  EXPECT_EQ(session->completed(), 4u);

  Request late;
  late.name = "late";
  late.work = [] { return std::string("x"); };
  EXPECT_EQ(session->Submit(std::move(late)).Get().status,
            Status::kShutdown);
  server.Shutdown();
}

TEST(Session, ServerShutdownFlushesQueueAndStopsIntake) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t");

  Request slow;
  slow.name = "slow";
  slow.work = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return std::string("s");
  };
  ResponseFuture fa = session->Submit(std::move(slow));
  Request q1;
  q1.name = "q1";
  q1.work = [] { return std::string("q"); };
  ResponseFuture fb = session->Submit(std::move(q1));

  server.Shutdown();
  // The running request drained; the queued one was flushed.
  EXPECT_EQ(fa.Get().status, Status::kOk);
  EXPECT_EQ(fb.Get().status, Status::kShutdown);
  EXPECT_EQ(server.running(), 0u);
  EXPECT_EQ(server.queued(), 0u);

  Request late;
  late.name = "late";
  late.work = [] { return std::string("x"); };
  EXPECT_EQ(session->Submit(std::move(late)).Get().status,
            Status::kShutdown);
}

TEST(Server, HandlerErrorsAndUnknownVerbs) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 8));
  server.RegisterHandler("boom", [](std::string_view) -> std::string {
    throw std::runtime_error("kaput");
  });
  server.RegisterHandler("echo", [](std::string_view args) {
    return std::string(args);
  });
  auto session = server.OpenSession("t");

  // Copies: Get() returns a reference into the future's shared state,
  // and these futures are temporaries.
  const Response err = session->Call("boom").Get();
  EXPECT_EQ(err.status, Status::kError);
  EXPECT_EQ(err.payload, "kaput");

  const Response unknown = session->Call("nope").Get();
  EXPECT_EQ(unknown.status, Status::kError);
  EXPECT_EQ(unknown.payload, "unknown verb: nope");

  const Response ok = session->Call("echo", "hello").Get();
  EXPECT_EQ(ok.status, Status::kOk);
  EXPECT_EQ(ok.payload, "hello");
  server.Shutdown();
}

TEST(Server, PerClientAndPerPriorityLatencyHistograms) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 8));
  server.RegisterHandler("ping", [](std::string_view) {
    return std::string("pong");
  });
  obs::Histogram* client_hist = obs::MetricsRegistry::Default().GetHistogram(
      "serve.client.histo_client.latency_ns");
  obs::Histogram* oltp_hist = obs::MetricsRegistry::Default().GetHistogram(
      "serve.oltp_latency_ns");
  const uint64_t client_before = client_hist->count();
  const uint64_t oltp_before = oltp_hist->count();

  auto session = server.OpenSession("histo_client", Priority::kOltp);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(session->Call("ping").Get().status, Status::kOk);
  }
  EXPECT_EQ(client_hist->count(), client_before + 5);
  EXPECT_EQ(oltp_hist->count(), oltp_before + 5);
  server.Shutdown();
}

TEST(Server, ConcurrentClientsAllComplete) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 2, 64));
  std::atomic<int> executed{0};
  server.RegisterHandler("inc", [&](std::string_view) {
    executed.fetch_add(1);
    return std::string("i");
  });

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.OpenSession(
          "c" + std::to_string(c),
          c % 2 == 0 ? Priority::kOltp : Priority::kOlap);
      for (int i = 0; i < kPerClient; ++i) {
        if (session->Call("inc").Get().status == Status::kOk) {
          ok.fetch_add(1);
        }
      }
      session->Close();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(executed.load(), kClients * kPerClient);
  server.Shutdown();
}

TEST(Server, RacingOlapSubmittersResolveEachRequestOnce) {
  // Four submitters race to admit kOlap requests at two slots on a
  // four-worker pool, so arrivals, finishing tasks popping the next head
  // and heads timing out contend for the server's lock. Half of the
  // requests carry 0-90 us timeouts, short enough to expire in the queue
  // (zero waits indefinitely). Checked:
  //  * No more than two handlers ever run at once, each on a pool worker.
  //  * Every future resolves exactly once, as kOk or kTimedOut, and only
  //    the kOk ones ran. serve.completed moves by exactly the total.
  //  * queue_ns + exec_ns <= total_ns on every kOk: a pop stamped with a
  //    clock read before its entry's enqueue would wrap queue_ns.
  //  * The server drains to idle: running(), queued() and the
  //    serve.running / serve.queued gauges read 0.
  Scheduler::Options opts;
  opts.num_workers = 4;
  opts.pin_workers = false;
  Scheduler scheduler(opts);
  serve::Server server(TinyAdmission(&scheduler, 2, 1 << 20));
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 5000;
  constexpr int kRequests = kSubmitters * kPerSubmitter;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* completed = registry.GetCounter("serve.completed");
  const uint64_t completed_before = completed->Value();

  std::atomic<int> in_flight{0}, max_in_flight{0}, off_pool{0};
  std::vector<std::thread::id> client_ids(kSubmitters + 1);
  client_ids[kSubmitters] = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(kRequests);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<ResponseFuture>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      client_ids[s] = std::this_thread::get_id();
      auto session = server.OpenSession("race" + std::to_string(s));
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int id = s * kPerSubmitter + i;
        Request req = OfClass(Priority::kOlap, "olap", [&, id] {
          const int now = in_flight.fetch_add(1) + 1;
          int seen = max_in_flight.load();
          while (now > seen &&
                 !max_in_flight.compare_exchange_weak(seen, now)) {
          }
          if (std::find(client_ids.begin(), client_ids.end(),
                        std::this_thread::get_id()) != client_ids.end()) {
            off_pool.fetch_add(1);
          }
          runs[id].fetch_add(1);
          in_flight.fetch_sub(1);
          return std::string("ok");
        });
        if (id % 2 == 0) {
          req.queue_timeout = std::chrono::microseconds(id / 2 % 7 * 15);
        }
        futures[s].push_back(session->Submit(std::move(req)));
      }
      session->Close();
      EXPECT_EQ(session->completed(), uint64_t(kPerSubmitter));
    });
  }
  ASSERT_TRUE(WaitFor([&] { return ready.load() == kSubmitters; }));
  go.store(true);
  for (std::thread& t : submitters) t.join();

  int ok = 0, timed_out = 0;
  for (int s = 0; s < kSubmitters; ++s) {
    ASSERT_EQ(futures[s].size(), size_t(kPerSubmitter));
    for (int i = 0; i < kPerSubmitter; ++i) {
      const ResponseFuture& f = futures[s][i];
      ASSERT_TRUE(f.WaitFor(std::chrono::milliseconds(0)));
      const Response& r = f.Get();
      const int id = s * kPerSubmitter + i;
      if (r.status == Status::kOk) {
        ++ok;
        ASSERT_EQ(runs[id].load(), 1) << "request " << id;
        ASSERT_LE(r.queue_ns + r.exec_ns, r.total_ns) << "request " << id;
      } else {
        ASSERT_EQ(r.status, Status::kTimedOut) << serve::StatusName(r.status);
        ++timed_out;
        ASSERT_EQ(runs[id].load(), 0) << "request " << id;
      }
    }
  }
  EXPECT_EQ(ok + timed_out, kRequests);
  EXPECT_GT(timed_out, 0);
  EXPECT_LE(max_in_flight.load(), 2);
  EXPECT_EQ(off_pool.load(), 0);
  EXPECT_EQ(completed->Value() - completed_before, uint64_t(kRequests));

  // A slot is freed just after its request's response: wait for the last.
  ASSERT_TRUE(WaitFor([&] { return server.running() == 0; }));
  EXPECT_EQ(server.queued(), 0u);
  EXPECT_EQ(registry.GetGauge("serve.running")->Value(), 0);
  EXPECT_EQ(registry.GetGauge("serve.queued")->Value(), 0);
  server.Shutdown();
}

TEST(Serve, TpchThroughServerMatchesDirectCall) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  auto db = tpch::MakeTpch(cfg);
  db->FreezeAll();

  Scheduler scheduler(SmallPool());
  serve::ServerConfig server_cfg;
  server_cfg.scheduler = &scheduler;
  serve::Server server(server_cfg);
  for (unsigned threads : {1u, 2u}) {
    server.RegisterHandler("tpch", [&, threads](std::string_view args) {
      tpch::ScanOptions opt;
      opt.mode = ScanMode::kDataBlocksPsma;
      opt.ctx.threads = threads;
      opt.ctx.scheduler = &scheduler;
      return tpch::RunQuery(std::stoi(std::string(args)), *db, opt)
          .ToString();
    });
    auto session = server.OpenSession("tpch_t" + std::to_string(threads));
    for (int q : {1, 6, 14}) {
      tpch::ScanOptions direct;
      direct.mode = ScanMode::kDataBlocksPsma;
      const Response resp =
          session->Call("tpch", std::to_string(q)).Get();
      ASSERT_EQ(resp.status, Status::kOk) << resp.payload;
      // Parallel serve-layer execution must be bit-identical to the
      // sequential direct call (the determinism contract, now holding
      // one abstraction layer higher).
      EXPECT_EQ(resp.payload, tpch::RunQuery(q, *db, direct).ToString())
          << "Q" << q << " at " << threads << " threads";
    }
    session->Close();
  }
  server.Shutdown();
}

}  // namespace
}  // namespace datablocks
