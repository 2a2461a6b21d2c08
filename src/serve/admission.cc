#include "serve/admission.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/macros.h"

namespace datablocks::serve {

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

AdmissionController::AdmissionController(AdmissionConfig cfg,
                                         unsigned default_running)
    : cfg_([&] {
        AdmissionConfig c = cfg;
        if (c.max_running == 0) c.max_running = std::max(1u, default_running);
        return c;
      }()) {}

void AdmissionController::GaugesLocked() const {
  static obs::Gauge* const running =
      obs::MetricsRegistry::Default().GetGauge("serve.running");
  static obs::Gauge* const queued =
      obs::MetricsRegistry::Default().GetGauge("serve.queued");
  running->Set(int64_t(running_));
  queued->Set(int64_t(queue_.size()));
}

void AdmissionController::ExpireLocked(
    std::chrono::steady_clock::time_point now, std::vector<Action>* actions) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    const Ticket& t = *it->ticket;
    if (t.has_deadline && t.deadline <= now) {
      actions->push_back({std::move(it->ticket), Status::kTimedOut});
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void AdmissionController::PumpLocked(
    std::chrono::steady_clock::time_point now, std::vector<Action>* actions) {
  while (running_ < cfg_.max_running && !queue_.empty()) {
    Slot& head = queue_.front();
    const Ticket& t = *head.ticket;
    if (t.has_deadline && t.deadline <= now) {
      actions->push_back({std::move(head.ticket), Status::kTimedOut});
    } else {
      ++running_;
      const uint64_t queue_ns = uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - head.enqueued)
              .count());
      actions->push_back({std::move(head.ticket), Status::kOk, queue_ns});
    }
    queue_.pop_front();
  }
}

void AdmissionController::RunActions(std::vector<Action>& actions) {
  for (Action& a : actions) {
    if (a.status == Status::kOk) {
      a.ticket->grant(a.queue_ns);
    } else {
      a.ticket->drop(a.status);
    }
  }
}

void AdmissionController::Submit(std::shared_ptr<Ticket> t) {
  DB_CHECK(t != nullptr && t->grant && t->drop);
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Clocks are read under the lock everywhere: enqueue stamps and grant
    // times are then ordered like the critical sections, so a grant never
    // precedes its ticket's enqueue and queue_ns cannot wrap.
    const auto now = std::chrono::steady_clock::now();
    if (shutdown_) {
      actions.push_back({std::move(t), Status::kShutdown});
    } else {
      queue_.push_back({t, now});
      PumpLocked(now, &actions);
      if (queue_.size() > cfg_.max_queued) {
        // Overflow. The pump freed no room, so the arrival is still the
        // newest entry: it bounces.
        DB_DCHECK(queue_.back().ticket == t);
        actions.push_back({std::move(queue_.back().ticket),
                           Status::kRejected});
        queue_.pop_back();
      }
      GaugesLocked();
    }
  }
  RunActions(actions);
}

void AdmissionController::OnDone() {
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();  // see Submit
    DB_CHECK(running_ > 0);
    --running_;
    PumpLocked(now, &actions);
    GaugesLocked();
    if (running_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
  RunActions(actions);
}

void AdmissionController::ReapExpired() {
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();  // see Submit
    ExpireLocked(now, &actions);
    // Queued tickets wait only while every slot is taken, and expiry
    // frees none: nothing to grant, and never idle afterwards.
    if (!actions.empty()) GaugesLocked();
  }
  RunActions(actions);
}

void AdmissionController::Shutdown() {
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (Slot& slot : queue_) {
      actions.push_back({std::move(slot.ticket), Status::kShutdown});
    }
    queue_.clear();
    GaugesLocked();
    if (running_ == 0) idle_cv_.notify_all();
  }
  RunActions(actions);
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
}

unsigned AdmissionController::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace datablocks::serve
