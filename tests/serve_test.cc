// Serving front end: admission control (queue-full rejection, queued-
// request timeout), the ordered OLTP lane (one request at a time in
// submission order, drained by a submitting thread; overflow, timeout at
// the head, shutdown and handler errors), session lifecycle
// (close-with-queries-in-flight, server shutdown), handler errors, and
// serve-vs-direct TPC-H result equality. The concurrency here — clients
// racing admission and the lane, grants firing from finishing workers,
// the reaper expiring queued tickets — is what the TSan CI leg exercises.

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
#include "obs/query_profile.h"  // MonotonicNs
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

Request Blocking(std::string name, Gate* gate, std::atomic<int>* started,
                 Priority priority = Priority::kOlap) {
  Request req;
  req.name = std::move(name);
  req.priority = priority;
  req.work = [gate, started] {
    started->fetch_add(1);
    gate->Wait();
    return std::string("done");
  };
  return req;
}

TEST(Admission, QueueFullRejectsTheArrival) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 1));
  auto session = server.OpenSession("t");

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture a = session->Submit(Blocking("a", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  Request b;
  b.name = "b";
  b.work = [] { return std::string("b"); };
  ResponseFuture fb = session->Submit(std::move(b));
  ASSERT_TRUE(WaitFor([&] { return server.queued() == 1; }));

  Request c;
  c.name = "c";
  c.work = [] { return std::string("c"); };
  ResponseFuture fc = session->Submit(std::move(c));
  // The arrival itself bounces, inline.
  EXPECT_EQ(fc.Get().status, Status::kRejected);

  gate.Open();
  EXPECT_EQ(a.Get().status, Status::kOk);
  const Response& rb = fb.Get();
  EXPECT_EQ(rb.status, Status::kOk);
  EXPECT_EQ(rb.payload, "b");
  EXPECT_GT(rb.queue_ns, 0u);
  server.Shutdown();
}

TEST(Admission, QueuedRequestTimesOutWhileSlotIsHeld) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t");

  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture a = session->Submit(Blocking("a", &gate, &started));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));

  Request b;
  b.name = "b";
  b.queue_timeout = std::chrono::milliseconds(20);
  b.work = [] { return std::string("b"); };
  ResponseFuture fb = session->Submit(std::move(b));
  // The reaper (5 ms cadence on the second worker) expires it; the
  // slot-holder never finishes first.
  EXPECT_EQ(fb.Get().status, Status::kTimedOut);
  EXPECT_EQ(server.queued(), 0u);

  gate.Open();
  EXPECT_EQ(a.Get().status, Status::kOk);
  server.Shutdown();
}

Request Oltp(std::string name, std::function<std::string()> work) {
  Request req;
  req.name = std::move(name);
  req.priority = Priority::kOltp;
  req.work = std::move(work);
  return req;
}

/// Occupies the lane: submits a kOltp request that blocks on `gate` from
/// a thread of its own, which then drains the lane. Returns once the
/// request started; the thread ends when the lane is empty again.
std::thread OccupyLane(serve::Session* session, Gate* gate,
                       std::atomic<int>* started, ResponseFuture* out) {
  std::thread drainer([=] {
    *out = session->Submit(Blocking("blocker", gate, started,
                                    Priority::kOltp));
  });
  EXPECT_TRUE(WaitFor([&] { return started->load() == 1; }));
  return drainer;
}

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

TEST(Lane, OverflowingArrivalIsRejected) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 2));
  auto session = server.OpenSession("t", Priority::kOltp);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread drainer = OccupyLane(session.get(), &gate, &started, &blocker);

  // The running request does not count: two wait, the third bounces.
  std::atomic<int> ran{0};
  auto count = [&] {
    ran.fetch_add(1);
    return std::string("x");
  };
  ResponseFuture b = session->Submit(Oltp("b", count));
  ResponseFuture c = session->Submit(Oltp("c", count));
  ResponseFuture d = session->Submit(Oltp("d", count));
  ASSERT_TRUE(d.WaitFor(std::chrono::milliseconds(0)));
  EXPECT_EQ(d.Get().status, Status::kRejected);

  gate.Open();
  drainer.join();
  EXPECT_EQ(blocker.Get().status, Status::kOk);
  EXPECT_EQ(b.Get().status, Status::kOk);
  EXPECT_EQ(c.Get().status, Status::kOk);
  EXPECT_GT(b.Get().queue_ns, 0u);
  EXPECT_EQ(ran.load(), 2);
  server.Shutdown();
}

TEST(Lane, RequestPastItsTimeoutAtTheHeadTimesOut) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t", Priority::kOltp);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread drainer = OccupyLane(session.get(), &gate, &started, &blocker);

  std::atomic<int> ran{0};
  Request late = Oltp("late", [&] {
    ran.fetch_add(1);
    return std::string("late");
  });
  late.queue_timeout = std::chrono::milliseconds(20);
  ResponseFuture fl = session->Submit(std::move(late));
  ResponseFuture fo = session->Submit(Oltp("patient", [] {
    return std::string("patient");
  }));
  // No reaper expires lane requests: the deadline is checked at the head.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_FALSE(fl.WaitFor(std::chrono::milliseconds(0)));

  gate.Open();
  drainer.join();
  EXPECT_EQ(fl.Get().status, Status::kTimedOut);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(fo.Get().payload, "patient");
  EXPECT_EQ(blocker.Get().status, Status::kOk);
  server.Shutdown();
}

TEST(Lane, ShutdownFlushesQueuedAndWaitsForTheDrainer) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t", Priority::kOltp);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread drainer = OccupyLane(session.get(), &gate, &started, &blocker);

  std::atomic<int> ran{0};
  auto count = [&] {
    ran.fetch_add(1);
    return std::string("x");
  };
  ResponseFuture b = session->Submit(Oltp("b", count));
  ResponseFuture c = session->Submit(Oltp("c", count));
  std::atomic<bool> shut{false};
  std::thread stopper([&] {
    server.Shutdown();
    shut.store(true);
  });
  // The queued requests are flushed while the blocker still runs, and
  // Shutdown waits for the thread draining the lane.
  EXPECT_EQ(b.Get().status, Status::kShutdown);
  EXPECT_EQ(c.Get().status, Status::kShutdown);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(shut.load());

  gate.Open();
  stopper.join();
  EXPECT_TRUE(shut.load());
  drainer.join();
  EXPECT_EQ(blocker.Get().status, Status::kOk);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(session->Submit(Oltp("after", count)).Get().status,
            Status::kShutdown);
}

TEST(Lane, HandlerExceptionIsAnErrorAndTheDrainGoesOn) {
  Scheduler scheduler(SmallPool());
  serve::Server server(TinyAdmission(&scheduler, 1, 8));
  auto session = server.OpenSession("t", Priority::kOltp);
  Gate gate;
  std::atomic<int> started{0};
  ResponseFuture blocker;
  std::thread drainer = OccupyLane(session.get(), &gate, &started, &blocker);

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

TEST(Admission, RacingSubmitDoneAndReapResolveEachTicketOnce) {
  // One slot: nearly every ticket queues, every OnDone grants the next
  // queued one while other threads keep submitting into the same lock, and
  // a reaper expires queued tickets in between. The controller is driven
  // directly: without a scheduler hop between the calls, they contend for
  // its lock far more often than through a Server. Checked:
  //  * queue_ns never wraps. A grant stamped with a clock read before the
  //    lock could precede its ticket's enqueue, and queue_ns would wrap
  //    to ~2^64.
  //  * Every ticket resolves exactly once, as a grant or kTimedOut. Half
  //    carry deadlines short enough to expire in the queue (a zero one
  //    always does).
  //  * The controller drains to idle, waking a waiter started before
  //    the drain. ReapExpired neither grants nor wakes WaitIdle: a queued
  //    ticket always waits on a running one, and expiry frees no slot.
  serve::AdmissionConfig cfg;
  cfg.max_running = 1;
  cfg.max_queued = 1 << 20;
  serve::AdmissionController admission(cfg, 1);
  constexpr int kSubmitters = 2;
  constexpr int kPerSubmitter = 20000;
  constexpr int kTickets = kSubmitters * kPerSubmitter;
  std::vector<std::atomic<int>> resolved(kTickets);
  std::atomic<int> owed{0};  // granted tickets not finished yet
  std::atomic<int> granted{0}, timed_out{0}, wrapped{0};
  auto submit = [&](int id) {
    auto t = std::make_shared<serve::AdmissionController::Ticket>();
    const uint64_t submit_ns = obs::MonotonicNs();
    if (id % 2 == 0) {
      t->has_deadline = true;
      t->deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(id % 8 * 15);
    }
    t->grant = [&, id, submit_ns](uint64_t queue_ns) {
      // The server's total_ns: submit to response, here cut at the grant.
      const uint64_t total_ns = obs::MonotonicNs() - submit_ns;
      if (queue_ns > total_ns) wrapped.fetch_add(1);
      resolved[id].fetch_add(1);
      granted.fetch_add(1);
      owed.fetch_add(1);
    };
    t->drop = [&, id](Status s) {
      resolved[id].fetch_add(1);
      if (s == Status::kTimedOut) {
        timed_out.fetch_add(1);
      } else {
        ADD_FAILURE() << serve::StatusName(s);
      }
    };
    admission.Submit(std::move(t));
  };
  auto finish_one = [&] {
    int o = owed.load();
    while (o > 0 && !owed.compare_exchange_weak(o, o - 1)) {
    }
    if (o > 0) admission.OnDone();
    return o > 0;
  };

  std::atomic<bool> reaping{true};
  std::thread reaper([&] {
    while (reaping.load()) {
      admission.ReapExpired();
      // A reaper spinning on the lock would starve the other threads;
      // the server's reaper fires every few milliseconds.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  });
  // Submitters and finishers on separate threads: a finisher's OnDone is
  // in flight nearly whenever a submitter enqueues behind the one slot.
  std::atomic<int> submitting{kSubmitters};
  std::vector<std::thread> threads;
  for (int c = 0; c < kSubmitters; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kPerSubmitter; ++i) submit(c * kPerSubmitter + i);
      submitting.fetch_sub(1);
    });
    threads.emplace_back([&] {
      while (submitting.load() > 0) finish_one();
    });
  }
  for (auto& t : threads) t.join();

  // Shutdown only unblocks a hung wait so the failure is reported
  // instead of stalling the suite.
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    admission.WaitIdle();
    idle.store(true);
  });
  while (finish_one()) {  // drain while the reaper keeps running
  }
  EXPECT_TRUE(WaitFor([&] { return idle.load(); }));
  reaping.store(false);
  reaper.join();
  if (!idle.load()) admission.Shutdown();
  waiter.join();

  for (int id = 0; id < kTickets; ++id) {
    ASSERT_EQ(resolved[id].load(), 1) << "ticket " << id;
  }
  EXPECT_EQ(granted.load() + timed_out.load(), kTickets);
  EXPECT_GT(timed_out.load(), 0);
  EXPECT_EQ(wrapped.load(), 0);
  EXPECT_EQ(admission.running(), 0u);
  EXPECT_EQ(admission.queued(), 0u);
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
