#include "serve/admission.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/query_profile.h"  // MonotonicNs
#include "obs/trace.h"
#include "util/macros.h"

namespace datablocks::serve {

namespace {

/// Process-wide admission counters ("serve.*"), resolved once.
struct AdmissionMetrics {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* timed_out;
  obs::Counter* cancelled;
  obs::Gauge* running;
  obs::Gauge* queued;
  obs::Histogram* queue_wait_ns;
};

const AdmissionMetrics& Metrics() {
  static const AdmissionMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return AdmissionMetrics{r.GetCounter("serve.submitted"),
                            r.GetCounter("serve.admitted"),
                            r.GetCounter("serve.rejected"),
                            r.GetCounter("serve.timed_out"),
                            r.GetCounter("serve.cancelled"),
                            r.GetGauge("serve.running"),
                            r.GetGauge("serve.queued"),
                            r.GetHistogram("serve.queue_wait_ns")};
  }();
  return m;
}

}  // namespace

const char* PriorityName(Priority p) {
  switch (p) {
    case Priority::kOltp: return "oltp";
    case Priority::kOlap: return "olap";
  }
  return "?";
}

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
  Metrics().running->Set(int64_t(running_));
  Metrics().queued->Set(int64_t(queued_));
}

void AdmissionController::ExpireLocked(
    std::chrono::steady_clock::time_point now, std::vector<Action>* actions) {
  for (auto& queue : queues_) {
    for (auto it = queue.begin(); it != queue.end();) {
      Ticket& t = *it->ticket;
      if (t.has_deadline && t.deadline <= now) {
        actions->push_back({std::move(it->ticket), false, 0,
                            Status::kTimedOut});
        it = queue.erase(it);
        --queued_;
      } else {
        ++it;
      }
    }
  }
}

void AdmissionController::PumpLocked(
    std::chrono::steady_clock::time_point now, std::vector<Action>* actions) {
  for (auto& queue : queues_) {
    while (running_ < cfg_.max_running && !queue.empty()) {
      Slot& head = queue.front();
      const Ticket& t = *head.ticket;
      if (t.has_deadline && t.deadline <= now) {
        actions->push_back({std::move(head.ticket), false, 0,
                            Status::kTimedOut});
      } else {
        ++running_;
        const uint64_t queue_ns = uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - head.enqueued)
                .count());
        actions->push_back({std::move(head.ticket), true, queue_ns,
                            Status::kOk});
      }
      queue.pop_front();
      --queued_;
    }
  }
}

void AdmissionController::RunActions(std::vector<Action>& actions) {
  for (Action& a : actions) {
    if (a.granted) {
      Metrics().admitted->Add();
      Metrics().queue_wait_ns->Observe(a.queue_ns);
      a.ticket->grant(a.queue_ns);
    } else {
      if (a.drop_status == Status::kTimedOut) {
        Metrics().timed_out->Add();
        obs::TraceRing::Default().Publish(
            "serve", "timed_out", int64_t(a.ticket->priority), 0);
      } else if (a.drop_status == Status::kRejected) {
        Metrics().rejected->Add();
        obs::TraceRing::Default().Publish(
            "serve", "rejected", int64_t(a.ticket->priority), 0);
      } else {
        Metrics().cancelled->Add();
      }
      a.ticket->drop(a.drop_status);
    }
  }
}

void AdmissionController::Submit(std::shared_ptr<Ticket> t) {
  DB_CHECK(t != nullptr && t->grant && t->drop);
  Metrics().submitted->Add();
  std::vector<Action> actions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Clocks are read under the lock everywhere: enqueue stamps and grant
    // times are then ordered like the critical sections, so a grant never
    // precedes its ticket's enqueue and queue_ns cannot wrap.
    const auto now = std::chrono::steady_clock::now();
    if (shutdown_) {
      actions.push_back({std::move(t), false, 0, Status::kShutdown});
      RunActions(actions);
      return;
    }
    std::deque<Slot>& own = queues_[unsigned(t->priority)];
    own.push_back({t, now});
    ++queued_;
    PumpLocked(now, &actions);
    if (queued_ > cfg_.max_queued) {
      // Overflow. The pump freed no room, so the arrival is still the
      // newest entry of its class. An OLTP arrival evicts the newest
      // queued OLAP entry in its place; otherwise the arrival bounces.
      DB_DCHECK(own.back().ticket == t);
      std::deque<Slot>& olap = queues_[unsigned(Priority::kOlap)];
      std::deque<Slot>& victims =
          t->priority == Priority::kOltp && !olap.empty() ? olap : own;
      actions.push_back({std::move(victims.back().ticket), false, 0,
                         Status::kRejected});
      victims.pop_back();
      --queued_;
    }
    GaugesLocked();
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
    if (running_ == 0 && queued_ == 0) idle_cv_.notify_all();
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
    for (auto& queue : queues_) {
      for (Slot& slot : queue) {
        actions.push_back({std::move(slot.ticket), false, 0,
                           Status::kShutdown});
      }
      queue.clear();
    }
    queued_ = 0;
    GaugesLocked();
    if (running_ == 0) idle_cv_.notify_all();
  }
  RunActions(actions);
}

void AdmissionController::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && queued_ == 0; });
}

unsigned AdmissionController::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace datablocks::serve
