#ifndef DATABLOCKS_SERVE_ADMISSION_H_
#define DATABLOCKS_SERVE_ADMISSION_H_

// Admission control for the serving front end's OLAP requests
// (serve/server.h): decides, for every submitted request, whether it runs
// now, waits in a bounded pending queue, or is refused, so a burst of
// scans cannot bury the engine. OLTP requests never come here; they run
// in the server's ordered lane.
//
// At most `max_running` requests execute at once (default: one per
// scheduler worker). The rest wait in one FIFO of at most `max_queued`
// entries; an arrival that finds it full is rejected. Every operation
// leaves the controller with all slots taken or nothing queued, so a
// queued ticket always waits on a running one.
//
// Queued entries time out: each ticket can carry a deadline, enforced by
// a periodic reaper (the server registers it on the shared scheduler)
// and whenever a queue head is about to be granted.
//
// The controller is callback-based and lock-internal: exactly one of
// `grant` / `drop` fires per ticket, never while the controller lock is
// held, on whichever thread triggered the decision (the submitter, a
// finishing worker, or the reaper).

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include <condition_variable>

namespace datablocks::serve {

/// Terminal state of one request, as delivered in its Response.
enum class Status : uint8_t {
  kOk = 0,        // executed, payload valid
  kError,         // handler threw; payload holds the message
  kRejected,      // pending queue (or OLTP lane) full
  kTimedOut,      // queue deadline passed before the request could run
  kShutdown,      // server shutting down / session closed
};
const char* StatusName(Status s);

struct AdmissionConfig {
  /// Concurrently executing requests; 0 = one per scheduler worker.
  unsigned max_running = 0;
  /// Bounded pending queue; also bounds the server's OLTP lane.
  size_t max_queued = 64;
};

class AdmissionController {
 public:
  /// One admission unit. The server owns the request itself; the
  /// controller sees only what it decides on.
  struct Ticket {
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    /// Runs the request (called with the time spent queued). Must be
    /// cheap — it executes on the deciding thread (typically a
    /// Scheduler::Submit).
    std::function<void(uint64_t queue_ns)> grant;
    /// Refuses the request (kRejected / kTimedOut / kShutdown).
    std::function<void(Status)> drop;
  };

  /// `default_running` resolves AdmissionConfig::max_running == 0
  /// (callers pass the scheduler's worker count).
  AdmissionController(AdmissionConfig cfg, unsigned default_running);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits, queues, or refuses the ticket. Exactly one of
  /// grant/drop fires eventually; it may fire inline.
  void Submit(std::shared_ptr<Ticket> t);

  /// A granted ticket's work finished: frees its slot and pumps the
  /// queue (may grant queued tickets inline).
  void OnDone();

  /// Drops queued tickets whose deadline passed (kTimedOut). Frees no
  /// slot, so it grants nothing.
  void ReapExpired();

  /// Refuses all queued tickets (kShutdown) and every later Submit.
  /// Running tickets are unaffected; use WaitIdle to drain them.
  void Shutdown();

  /// Blocks until nothing is running or queued. Meaningful after
  /// Shutdown (otherwise new submissions may keep it waiting).
  void WaitIdle();

  unsigned running() const;
  size_t queued() const;
  const AdmissionConfig& config() const { return cfg_; }

 private:
  struct Slot {  // queue entry
    std::shared_ptr<Ticket> ticket;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Action {  // decided under the lock, executed outside it
    std::shared_ptr<Ticket> ticket;
    Status status = Status::kOk;  // kOk grants, anything else drops
    uint64_t queue_ns = 0;
  };

  /// Pops queue heads while a slot is free: an expired head is dropped,
  /// any other granted. Appends to `actions`.
  void PumpLocked(std::chrono::steady_clock::time_point now,
                  std::vector<Action>* actions);
  void ExpireLocked(std::chrono::steady_clock::time_point now,
                    std::vector<Action>* actions);
  static void RunActions(std::vector<Action>& actions);
  void GaugesLocked() const;

  const AdmissionConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;
  unsigned running_ = 0;
  std::deque<Slot> queue_;
};

}  // namespace datablocks::serve

#endif  // DATABLOCKS_SERVE_ADMISSION_H_
