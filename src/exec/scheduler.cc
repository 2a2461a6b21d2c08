#include "exec/scheduler.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_profile.h"  // MonotonicNs
#include "obs/trace.h"
#include "util/macros.h"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace datablocks {

namespace {

/// Best-effort: pin the calling thread to one CPU. Failure is ignored —
/// pinning is an optimization, never a correctness requirement.
void PinSelfTo(unsigned cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

/// Process-wide mirrors of the pool counters ("scheduler.*"), resolved once.
struct SchedulerMetrics {
  obs::Counter* tasks_run;
  obs::Counter* steals;
  obs::Counter* periodic_fires;
};

const SchedulerMetrics& Metrics() {
  static const SchedulerMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return SchedulerMetrics{r.GetCounter("scheduler.tasks_run"),
                            r.GetCounter("scheduler.steals"),
                            r.GetCounter("scheduler.periodic_fires")};
  }();
  return m;
}

}  // namespace

Scheduler::Scheduler() : Scheduler(Options{}) {}

Scheduler::Scheduler(Options opts) {
  const unsigned n = EffectiveThreads(opts.num_workers);
  const cpu::Topology& topo = cpu::HostTopology();
  workers_.reserve(n);
  for (unsigned w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>();
    if (opts.pin_workers && !topo.cpus.empty()) {
      worker->cpu = int(topo.cpus[w % topo.cpus.size()]);
    }
    workers_.push_back(std::move(worker));
  }
  // Threads start only after every Worker slot exists: workers steal from
  // siblings by index and must never observe a growing vector.
  for (unsigned w = 0; w < n; ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& worker : workers_) worker->thread.join();
}

Scheduler& Scheduler::Default() {
  static Scheduler scheduler;
  return scheduler;
}

void Scheduler::Submit(std::function<void()> fn) {
  const unsigned target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % num_workers();
  {
    // Counted and published in one sleep_mu_ section: a worker that pops
    // the task at once finds it in pending_ (the count cannot wrap), and a
    // worker that sees it in pending_ finds it queued (nobody spins on a
    // count whose task is not there yet).
    std::scoped_lock lock(sleep_mu_, workers_[target]->mu);
    ++pending_;
    workers_[target]->queue.push_back(std::move(fn));
  }
  sleep_cv_.notify_one();
}

bool Scheduler::TryRunOne(unsigned self) {
  std::function<void()> task;
  // Own queue first (front: submission order), then sweep the siblings.
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      task = std::move(own.queue.front());
      own.queue.pop_front();
    }
  }
  if (!task) {
    const unsigned n = num_workers();
    for (unsigned i = 1; i < n && !task; ++i) {
      Worker& victim = *workers_[(self + i) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.queue.empty()) {
        // Steal from the back: the victim keeps draining its own front.
        task = std::move(victim.queue.back());
        victim.queue.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
        workers_[self]->steals.fetch_add(1, std::memory_order_relaxed);
        Metrics().steals->Add();
      }
    }
  }
  if (!task) return false;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    DB_CHECK(pending_ > 0);
    --pending_;
  }
  task();
  tasks_run_.fetch_add(1, std::memory_order_relaxed);
  workers_[self]->tasks_run.fetch_add(1, std::memory_order_relaxed);
  Metrics().tasks_run->Add();
  return true;
}

std::vector<Scheduler::WorkerStats> Scheduler::worker_stats() const {
  std::vector<WorkerStats> out(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) {
    out[w].tasks_run = workers_[w]->tasks_run.load(std::memory_order_relaxed);
    out[w].steals = workers_[w]->steals.load(std::memory_order_relaxed);
  }
  return out;
}

void Scheduler::WorkerLoop(unsigned self) {
  if (workers_[self]->cpu >= 0) PinSelfTo(unsigned(workers_[self]->cpu));
  for (;;) {
    if (TryRunOne(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_) return;
  }
}

uint64_t Scheduler::AddPeriodic(std::chrono::milliseconds interval,
                                std::function<void()> fn) {
  DB_CHECK(interval.count() > 0);
  std::lock_guard<std::mutex> lock(timer_mu_);
  const uint64_t id = next_periodic_id_++;
  Periodic p;
  p.interval = interval;
  p.fn = std::move(fn);
  p.next_fire = std::chrono::steady_clock::now() + interval;
  periodics_.emplace(id, std::move(p));
  if (!timer_.joinable()) timer_ = std::thread([this] { TimerLoop(); });
  timer_cv_.notify_all();
  return id;
}

void Scheduler::RemovePeriodic(uint64_t id) {
  std::unique_lock<std::mutex> lock(timer_mu_);
  auto it = periodics_.find(id);
  if (it == periodics_.end()) return;
  it->second.removed = true;
  if (!it->second.in_flight) {
    periodics_.erase(it);
    return;
  }
  // An execution is running on some worker; FirePeriodic erases the entry
  // when it finishes. After this wait the task can never run again.
  timer_cv_.wait(lock, [&] { return periodics_.count(id) == 0; });
}

void Scheduler::FirePeriodic(uint64_t id) {
  std::function<void()> fn;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    auto it = periodics_.find(id);
    if (it == periodics_.end() || it->second.removed ||
        it->second.in_flight) {
      return;
    }
    it->second.in_flight = true;
    fn = it->second.fn;
  }
  const uint64_t t0 = obs::MonotonicNs();
  fn();
  Metrics().periodic_fires->Add();
  obs::TraceRing::Default().Publish("scheduler", "periodic_fire", int64_t(id),
                                    int64_t(obs::MonotonicNs() - t0));
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    auto it = periodics_.find(id);
    DB_CHECK(it != periodics_.end());
    it->second.in_flight = false;
    if (it->second.removed) periodics_.erase(it);
  }
  timer_cv_.notify_all();
}

void Scheduler::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  while (!timer_stop_) {
    const auto now = std::chrono::steady_clock::now();
    auto wake = now + std::chrono::hours(24);
    for (auto& [id, p] : periodics_) {
      if (p.removed) continue;
      if (p.next_fire <= now) {
        // Fixed-delay rescheduling from *now*: a task slower than its
        // interval fires again one interval after the tardy deadline, it
        // does not burst to catch up (and FirePeriodic skips overlapping
        // executions anyway).
        p.next_fire = now + p.interval;
        if (!p.in_flight) {
          Submit([this, id = id] { FirePeriodic(id); });
        }
      }
      wake = std::min(wake, p.next_fire);
    }
    // Plain wait_until (no predicate): any registry change notifies, and
    // the loop recomputes the earliest deadline from scratch — a predicate
    // wait would sleep through a newly added earlier task.
    timer_cv_.wait_until(lock, wake);
  }
}

}  // namespace datablocks
