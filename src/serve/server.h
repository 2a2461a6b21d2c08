#ifndef DATABLOCKS_SERVE_SERVER_H_
#define DATABLOCKS_SERVE_SERVER_H_

// Multi-client serving front end: the first layer of the engine that
// more than one caller talks to. A Server owns a handler table and one
// bounded FIFO per request class, both under one rule:
//
//  * Admit: a request runs at once if its class has a free slot, and
//    waits otherwise; an arrival that finds every slot busy and
//    `max_queued` requests waiting is rejected.
//  * Pop: a finished request's slot takes the queue head. A head whose
//    `queue_timeout` passed while it waited times out there; nothing
//    expires a request before it reaches the head.
//
// The classes differ only in width and in who runs a request:
//
//  * kOltp has one slot, the ordered lane: one request at a time in
//    arrival order. The lane has no thread of its own: the submitting
//    thread that finds it idle drains it, and other submitters only
//    append. OLTP therefore never waits for a pool worker, and the lane
//    is the serial commit order HyPer-style transaction processing
//    assumes.
//  * kOlap has `max_running` slots. Each request runs as one task on the
//    shared morsel scheduler (exec/scheduler.h); when it finishes, its
//    slot submits the next waiting request as a new task, so the pool
//    stays FIFO for other work.
//
// Clients talk through Sessions — one per connection. The submission
// surface is deliberately socket-ready: a request is a (name, priority,
// timeout) envelope around either a registered text-command handler
// (Session::Call("tpch.q6", "args")) or an arbitrary closure
// (Session::Submit), so a wire transport only needs to parse
// "verb args" and marshal the Response back; no engine code changes.
//
// Responses are delivered through ResponseFuture (the in-process
// completion handle); per-request end-to-end latency lands in the
// per-priority serve.*_latency_ns histograms and a per-client
// serve.client.<name>.latency_ns histogram (obs/metrics.h), so
// percentiles per class and per client fall out of the registry.
//
// Lifecycle: Server::Shutdown() (also run by the destructor) stops
// intake, flushes both queues as kShutdown, and waits for running
// requests. Session::Close() (also its destructor) stops that session's
// intake and waits for its in-flight requests — responses are still
// delivered. Sessions must not outlive their Server.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "exec/scheduler.h"
#include "obs/metrics.h"

namespace datablocks::obs {
class QueryProfile;
}

namespace datablocks::serve {

/// Request classes. They pick a request's queue (kOltp the lane, kOlap
/// the pool's) and label the latency histograms.
enum class Priority : uint8_t { kOltp = 0, kOlap = 1 };
inline constexpr unsigned kNumPriorities = 2;
const char* PriorityName(Priority p);  // "oltp" / "olap"

/// Terminal state of one request, as delivered in its Response.
enum class Status : uint8_t {
  kOk = 0,        // executed, payload valid
  kError,         // handler threw; payload holds the message
  kRejected,      // every slot busy and the queue full
  kTimedOut,      // queue deadline passed before the request could run
  kShutdown,      // server shutting down / session closed
};
const char* StatusName(Status s);

struct AdmissionConfig {
  /// Concurrently executing kOlap requests; 0 = one per scheduler worker.
  unsigned max_running = 0;
  /// Requests waiting in each class's queue.
  size_t max_queued = 64;
};

struct Response {
  Status status = Status::kOk;
  /// Handler return value on kOk; the exception message on kError.
  std::string payload;
  uint64_t queue_ns = 0;  // time spent waiting in the class's queue
  uint64_t exec_ns = 0;   // handler wall time
  uint64_t total_ns = 0;  // submit -> response (closed-loop latency)
};

struct Request {
  /// Request label ("tpch.q6", "tpcc.mixed"); the handler verb when
  /// built by Session::Call.
  std::string name;
  Priority priority = Priority::kOlap;
  /// Max time queued before kTimedOut; zero = wait indefinitely.
  std::chrono::microseconds queue_timeout{0};
  /// The work itself; kOlap runs on a scheduler worker, kOltp on the
  /// thread that drains the lane.
  std::function<std::string()> work;
  /// Optional execution profile owned by the caller; the server calls
  /// Finish() after `work` returns and reports its wall_ns() as
  /// Response::exec_ns instead of its own stopwatch.
  obs::QueryProfile* profile = nullptr;
};

/// Completion handle for one submitted request. Copyable; all copies
/// share the response.
class ResponseFuture {
 public:
  ResponseFuture() = default;

  bool valid() const { return state_ != nullptr; }
  /// Blocks until the response arrived, then returns it. On a temporary
  /// future (`session->Call(...).Get()`) the response is returned by
  /// value — the reference overload would dangle once the temporary
  /// releases the shared state.
  const Response& Get() const&;
  Response Get() &&;
  /// True when the response arrived within `timeout`.
  bool WaitFor(std::chrono::milliseconds timeout) const;

 private:
  friend class Server;
  friend class Session;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Response response;
    uint64_t submit_ns = 0;
  };
  std::shared_ptr<State> state_;
};

class Session;

struct ServerConfig {
  AdmissionConfig admission;
  /// Worker pool; nullptr = Scheduler::Default().
  Scheduler* scheduler = nullptr;
};

class Server {
 public:
  using Handler = std::function<std::string(std::string_view args)>;

  explicit Server(ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers the handler behind Session::Call(verb, ...). Replaces an
  /// existing handler of the same verb.
  void RegisterHandler(std::string verb, Handler handler);

  /// Opens a client session. `client` labels the per-client latency
  /// histogram; `default_priority` applies when Call is not told
  /// otherwise.
  std::unique_ptr<Session> OpenSession(
      std::string client, Priority default_priority = Priority::kOlap);

  /// Stops intake (later submits answer kShutdown), flushes both queues
  /// as kShutdown, and blocks until no request runs. Idempotent; must not
  /// be called from a handler.
  void Shutdown();

  /// Running and queued kOlap requests.
  unsigned running() const;
  size_t queued() const;
  /// The config, with max_running resolved.
  const AdmissionConfig& admission_config() const { return config_; }

 private:
  friend class Session;
  struct SessionState;
  /// Resolves one dispatched request: counts it and fulfils its future.
  using Completion = std::function<void(Response)>;
  struct Entry {
    Request req;
    Completion complete;
    std::chrono::steady_clock::time_point enqueued{};
    uint64_t queue_ns = 0;  // set when it leaves the queue to run
  };
  /// One class's slots and waiting requests, guarded by mu_.
  struct Queue {
    unsigned width = 1;  // requests that may run at once
    unsigned running = 0;
    std::deque<Entry> waiting;  // in arrival order
  };

  void Dispatch(Request req, std::shared_ptr<ResponseFuture::State> state,
                std::shared_ptr<SessionState> session);
  /// Refuses the entry, queues it, or returns it holding a free slot.
  std::optional<Entry> Admit(Queue& q, Entry e);
  /// For a slot whose request finished: the next head to run, after
  /// timing out heads past their deadline; or none, freeing the slot.
  std::optional<Entry> Next(Queue& q);
  /// Runs a kOlap entry as one scheduler task, then its slot's next.
  void StartOlap(Entry e);
  void GaugesLocked(const Queue& q) const;
  static void Fulfill(const std::shared_ptr<ResponseFuture::State>& state,
                      Response response);

  Scheduler* const scheduler_;
  const AdmissionConfig config_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // Shutdown waits for no slot held
  Queue lane_;  // kOltp
  Queue olap_;
  std::atomic<bool> shutdown_{false};  // written under mu_
  std::mutex handlers_mu_;
  std::map<std::string, Handler, std::less<>> handlers_;
};

class Session {
 public:
  ~Session();  // Close()

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Submits an arbitrary request. The returned future resolves to
  /// kRejected/kTimedOut/kShutdown when the request does not run. A kOlap
  /// submit never blocks. A kOltp submit that finds the lane idle runs
  /// the lane on this thread until it is empty, so it may return after
  /// its own request (and others queued behind it) ran. A lane handler
  /// must therefore not wait on another kOltp request: the thread that
  /// would run it is the one waiting.
  ResponseFuture Submit(Request req);

  /// Packages a registered handler into a request. Unknown verbs
  /// resolve immediately to kError.
  ResponseFuture Call(std::string verb, std::string args = "");
  ResponseFuture Call(std::string verb, std::string args, Priority priority,
                      std::chrono::milliseconds queue_timeout =
                          std::chrono::milliseconds{0});

  /// Stops this session's intake and waits for its in-flight requests
  /// (their responses are delivered normally). Idempotent.
  void Close();

  const std::string& client() const;
  uint64_t submitted() const;
  uint64_t completed() const;  // responses delivered, any status

 private:
  friend class Server;
  Session(Server* server, std::shared_ptr<Server::SessionState> state,
          Priority default_priority)
      : server_(server),
        state_(std::move(state)),
        default_priority_(default_priority) {}

  Server* const server_;
  std::shared_ptr<Server::SessionState> state_;
  const Priority default_priority_;
};

}  // namespace datablocks::serve

#endif  // DATABLOCKS_SERVE_SERVER_H_
