#include "serve/server.h"

#include <algorithm>
#include <exception>

#include "obs/query_profile.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/status.h"

namespace datablocks::serve {

namespace {

/// Process-wide serving metrics ("serve.*"), resolved once.
struct ServeMetrics {
  obs::Counter* submitted;
  obs::Counter* admitted;  // started executing, on either path
  obs::Counter* rejected;
  obs::Counter* timed_out;
  obs::Counter* cancelled;
  obs::Counter* completed;
  obs::Counter* errors;
  obs::Counter* storage_errors;
  obs::Gauge* sessions;
  obs::Histogram* queue_wait_ns;
  obs::Histogram* latency_by_priority[kNumPriorities];
};

const ServeMetrics& Metrics() {
  static const ServeMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    ServeMetrics sm{r.GetCounter("serve.submitted"),
                    r.GetCounter("serve.admitted"),
                    r.GetCounter("serve.rejected"),
                    r.GetCounter("serve.timed_out"),
                    r.GetCounter("serve.cancelled"),
                    r.GetCounter("serve.completed"),
                    r.GetCounter("serve.errors"),
                    r.GetCounter("serve.storage_errors"),
                    r.GetGauge("serve.sessions"),
                    r.GetHistogram("serve.queue_wait_ns"),
                    {}};
    sm.latency_by_priority[unsigned(Priority::kOltp)] =
        r.GetHistogram("serve.oltp_latency_ns");
    sm.latency_by_priority[unsigned(Priority::kOlap)] =
        r.GetHistogram("serve.olap_latency_ns");
    return sm;
  }();
  return m;
}

Response Refusal(Status status) { return Response{status, {}}; }

/// Runs a request that waited `queue_ns`, in either class: handler
/// exceptions become kError, and the execution time is the profile's
/// wall time when the request carries one.
Response Execute(const Request& rq, uint64_t queue_ns) {
  Metrics().admitted->Add();
  Metrics().queue_wait_ns->Observe(queue_ns);
  Response resp{Status::kOk, {}, queue_ns};
  const uint64_t t0 = obs::MonotonicNs();
  try {
    resp.payload = rq.work();
  } catch (const StorageException& e) {
    // A storage fault (unreadable archive block, quarantined chunk)
    // fails THIS query, not the process; concurrent healthy queries
    // keep flowing. Metered separately from generic handler errors.
    Metrics().storage_errors->Add();
    resp.status = Status::kError;
    resp.payload = e.what();
  } catch (const std::exception& e) {
    resp.status = Status::kError;
    resp.payload = e.what();
  } catch (...) {
    resp.status = Status::kError;
    resp.payload = "unknown exception";
  }
  resp.exec_ns = obs::MonotonicNs() - t0;
  if (rq.profile != nullptr) {
    // The request carried an execution profile: its wall time is the
    // reported execution time (identical clock, richer attribution).
    rq.profile->Finish();
    if (rq.profile->wall_ns() > 0) resp.exec_ns = rq.profile->wall_ns();
  }
  return resp;
}

}  // namespace

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kError: return "error";
    case Status::kRejected: return "rejected";
    case Status::kTimedOut: return "timed_out";
    case Status::kShutdown: return "shutdown";
  }
  return "?";
}

const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kOltp: return "oltp";
    case Priority::kOlap: return "olap";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ResponseFuture
// ---------------------------------------------------------------------------

const Response& ResponseFuture::Get() const& {
  DB_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->response;
}

Response ResponseFuture::Get() && {
  return static_cast<const ResponseFuture&>(*this).Get();
}

bool ResponseFuture::WaitFor(std::chrono::milliseconds timeout) const {
  DB_CHECK(state_ != nullptr);
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout,
                             [this] { return state_->done; });
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Shared with every request the session submitted, so responses outlive
/// the Session object itself.
struct Server::SessionState {
  std::string client;
  obs::Histogram* latency_ns = nullptr;
  std::atomic<bool> closed{false};
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  std::mutex mu;
  std::condition_variable cv;
  uint64_t outstanding = 0;  // guarded by mu

  void OnSubmit() {
    submitted.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    ++outstanding;
  }
  void OnDone() {
    completed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    DB_CHECK(outstanding > 0);
    if (--outstanding == 0) cv.notify_all();
  }
  void WaitDrained() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return outstanding == 0; });
  }
};

Server::Server(ServerConfig cfg)
    : scheduler_(cfg.scheduler != nullptr ? cfg.scheduler
                                          : &Scheduler::Default()),
      config_([&] {
        AdmissionConfig c = cfg.admission;
        if (c.max_running == 0) {
          c.max_running = std::max(1u, scheduler_->num_workers());
        }
        return c;
      }()) {
  olap_.width = config_.max_running;
}

Server::~Server() { Shutdown(); }

void Server::RegisterHandler(std::string verb, Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[std::move(verb)] = std::move(handler);
}

std::unique_ptr<Session> Server::OpenSession(std::string client,
                                             Priority default_priority) {
  auto state = std::make_shared<SessionState>();
  state->latency_ns = obs::MetricsRegistry::Default().GetHistogram(
      "serve.client." + client + ".latency_ns");
  state->client = std::move(client);
  Metrics().sessions->Add(1);
  return std::unique_ptr<Session>(
      new Session(this, std::move(state), default_priority));
}

void Server::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_.store(true, std::memory_order_relaxed);
  std::deque<Entry> flushed;
  for (Queue* q : {&lane_, &olap_}) {
    for (Entry& e : q->waiting) flushed.push_back(std::move(e));
    q->waiting.clear();
  }
  GaugesLocked(olap_);
  lock.unlock();
  for (Entry& e : flushed) e.complete(Refusal(Status::kShutdown));
  lock.lock();
  idle_cv_.wait(lock, [this] { return lane_.running + olap_.running == 0; });
}

unsigned Server::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return olap_.running;
}

size_t Server::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return olap_.waiting.size();
}

void Server::GaugesLocked(const Queue& q) const {
  if (&q != &olap_) return;  // serve.running / serve.queued count kOlap
  static obs::Gauge* const running =
      obs::MetricsRegistry::Default().GetGauge("serve.running");
  static obs::Gauge* const queued =
      obs::MetricsRegistry::Default().GetGauge("serve.queued");
  running->Set(int64_t(q.running));
  queued->Set(int64_t(q.waiting.size()));
}

void Server::Fulfill(const std::shared_ptr<ResponseFuture::State>& state,
                     Response response) {
  response.total_ns = obs::MonotonicNs() - state->submit_ns;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(response);
    state->done = true;
  }
  state->cv.notify_all();
}

void Server::Dispatch(Request req,
                      std::shared_ptr<ResponseFuture::State> state,
                      std::shared_ptr<SessionState> session) {
  session->OnSubmit();
  Metrics().submitted->Add();

  const Priority priority = req.priority;
  Completion complete = [state, session, priority](Response resp) {
    // Metrics land BEFORE the future is fulfilled: a caller returning
    // from Get() must see its own request in the histograms. OnDone
    // stays last so Session::Close => responses delivered.
    switch (resp.status) {
      case Status::kOk: {
        // Latency percentiles cover completed work only; refusals are
        // counted, not timed.
        const uint64_t total_ns = obs::MonotonicNs() - state->submit_ns;
        Metrics().latency_by_priority[unsigned(priority)]->Observe(total_ns);
        session->latency_ns->Observe(total_ns);
        break;
      }
      case Status::kError: Metrics().errors->Add(); break;
      case Status::kRejected: Metrics().rejected->Add(); break;
      case Status::kTimedOut: Metrics().timed_out->Add(); break;
      case Status::kShutdown: Metrics().cancelled->Add(); break;
    }
    if (resp.status == Status::kRejected || resp.status == Status::kTimedOut) {
      obs::TraceRing::Default().Publish("serve", StatusName(resp.status),
                                        int64_t(priority), 0);
    }
    Metrics().completed->Add();
    Fulfill(state, std::move(resp));
    session->OnDone();
  };

  Queue& q = priority == Priority::kOltp ? lane_ : olap_;
  std::optional<Entry> e = Admit(q, Entry{std::move(req), std::move(complete)});
  if (!e) return;
  if (priority == Priority::kOlap) {
    StartOlap(std::move(*e));
    return;
  }
  // This thread took the lane's slot: it drains the lane.
  for (; e; e = Next(lane_)) e->complete(Execute(e->req, e->queue_ns));
}

std::optional<Server::Entry> Server::Admit(Queue& q, Entry e) {
  std::unique_lock<std::mutex> lock(mu_);
  // The running requests do not count: max_queued bounds the waiting.
  const bool closed = shutdown_.load(std::memory_order_relaxed);
  if (closed ||
      (q.running == q.width && q.waiting.size() >= config_.max_queued)) {
    lock.unlock();
    e.complete(Refusal(closed ? Status::kShutdown : Status::kRejected));
    return std::nullopt;
  }
  if (q.running < q.width) {
    DB_DCHECK(q.waiting.empty());  // nothing waits while a slot is free
    ++q.running;
    GaugesLocked(q);
    return e;
  }
  // Clocks are read under the lock: enqueue stamps and pops are ordered
  // like the critical sections, so queue_ns cannot wrap.
  e.enqueued = std::chrono::steady_clock::now();
  q.waiting.push_back(std::move(e));
  GaugesLocked(q);
  return std::nullopt;
}

std::optional<Server::Entry> Server::Next(Queue& q) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!q.waiting.empty()) {
    Entry e = std::move(q.waiting.front());
    q.waiting.pop_front();
    GaugesLocked(q);
    const auto waited = std::chrono::steady_clock::now() - e.enqueued;
    if (e.req.queue_timeout.count() == 0 || waited < e.req.queue_timeout) {
      e.queue_ns = uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
              .count());
      return e;
    }
    lock.unlock();
    e.complete(Refusal(Status::kTimedOut));
    lock.lock();
  }
  --q.running;
  GaugesLocked(q);
  if (shutdown_.load(std::memory_order_relaxed) &&
      lane_.running + olap_.running == 0) {
    idle_cv_.notify_all();
  }
  return std::nullopt;
}

void Server::StartOlap(Entry e) {
  scheduler_->Submit([this, e = std::move(e)] {
    e.complete(Execute(e.req, e.queue_ns));
    if (std::optional<Entry> next = Next(olap_)) StartOlap(std::move(*next));
  });
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::~Session() { Close(); }

ResponseFuture Session::Submit(Request req) {
  ResponseFuture future;
  future.state_ = std::make_shared<ResponseFuture::State>();
  future.state_->submit_ns = obs::MonotonicNs();
  if (state_->closed.load(std::memory_order_relaxed) ||
      server_->shutdown_.load(std::memory_order_relaxed)) {
    Server::Fulfill(future.state_, Refusal(Status::kShutdown));
  } else {
    server_->Dispatch(std::move(req), future.state_, state_);
  }
  return future;
}

ResponseFuture Session::Call(std::string verb, std::string args) {
  return Call(std::move(verb), std::move(args), default_priority_);
}

ResponseFuture Session::Call(std::string verb, std::string args,
                             Priority priority,
                             std::chrono::milliseconds queue_timeout) {
  Server::Handler handler;
  {
    std::lock_guard<std::mutex> lock(server_->handlers_mu_);
    auto it = server_->handlers_.find(verb);
    if (it != server_->handlers_.end()) handler = it->second;
  }
  if (!handler) {
    ResponseFuture future;
    future.state_ = std::make_shared<ResponseFuture::State>();
    future.state_->submit_ns = obs::MonotonicNs();
    Server::Fulfill(future.state_,
                    Response{Status::kError, "unknown verb: " + verb});
    return future;
  }
  Request req;
  req.name = std::move(verb);
  req.priority = priority;
  req.queue_timeout = queue_timeout;
  req.work = [handler = std::move(handler), args = std::move(args)] {
    return handler(args);
  };
  return Submit(std::move(req));
}

void Session::Close() {
  const bool first = !state_->closed.exchange(true);
  state_->WaitDrained();
  if (first) Metrics().sessions->Add(-1);
}

const std::string& Session::client() const { return state_->client; }
uint64_t Session::submitted() const {
  return state_->submitted.load(std::memory_order_relaxed);
}
uint64_t Session::completed() const {
  return state_->completed.load(std::memory_order_relaxed);
}

}  // namespace datablocks::serve
