#ifndef DATABLOCKS_EXEC_SCHEDULER_H_
#define DATABLOCKS_EXEC_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cpu.h"

namespace datablocks {

/// Process-wide morsel-driven worker pool (Leis et al. [20], the execution
/// model behind HyPer's 64-thread Table 2 numbers): a fixed set of worker
/// threads, each with its own task queue, stealing from siblings when their
/// own queue drains. Query pipelines submit coarse tasks (one per
/// parallelism slot) whose inner loop claims chunks as morsels from one
/// shared cursor (MorselDriver); the lifecycle manager registers its ticks
/// as periodic tasks, so background freezing, eviction and tombstoning
/// share the same threads. This pool and its timer are the only threads the
/// engine starts.
///
/// Workers are pinned to cores round-robin over the usable cpus (util/cpu
/// HostTopology); pinning silently degrades to unpinned workers when the
/// affinity mask cannot be read or the affinity call fails.
///
/// One instance is usually enough: Scheduler::Default() is a lazily
/// constructed process-wide pool sized to the hardware. Components accept
/// an injectable `Scheduler*` (tests build small private pools) and fall
/// back to Default() when given nullptr.
class Scheduler {
 public:
  struct Options {
    /// 0 = one worker per available hardware thread (affinity-mask aware).
    unsigned num_workers = 0;
    /// Best-effort core pinning of the workers (see class comment).
    bool pin_workers = true;
  };

  Scheduler();  // = Scheduler(Options{})
  explicit Scheduler(Options opts);
  /// Joins the workers. Tasks still queued (not yet claimed by a worker)
  /// are dropped — callers sequence completion with TaskGroup::Wait, which
  /// returns only after its tasks ran. Periodic tasks must be removed
  /// before destruction (LifecycleManager::Stop does).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The process-wide pool, created on first use.
  static Scheduler& Default();

  unsigned num_workers() const { return unsigned(workers_.size()); }

  /// Enqueues one task (round-robin over the worker queues; an idle sibling
  /// steals it if the assigned worker is busy). Prefer TaskGroup for
  /// joinable work.
  void Submit(std::function<void()> fn);

  /// Registers `fn` to run roughly every `interval` on pool workers.
  /// Returns a nonzero id for RemovePeriodic. Firings are skipped while a
  /// previous firing of the same task is still executing, so a slow task
  /// cannot pile up in the queues.
  uint64_t AddPeriodic(std::chrono::milliseconds interval,
                       std::function<void()> fn);

  /// Unregisters a periodic task and blocks until any in-flight execution
  /// of it has finished — after return, `fn` will never run again. Must not
  /// be called from inside the task itself.
  void RemovePeriodic(uint64_t id);

  /// Tasks executed by pool workers (excludes TaskGroup::Wait help-runs).
  uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker took from a sibling's queue.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  /// Per-worker slice of tasks_run()/steals(); index = worker id. The
  /// split shows work-distribution skew the pool-wide totals hide.
  struct WorkerStats {
    uint64_t tasks_run = 0;
    uint64_t steals = 0;
  };
  std::vector<WorkerStats> worker_stats() const;

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> queue;  // guarded by mu
    std::thread thread;
    int cpu = -1;  // pinned cpu, -1 when unpinned
    std::atomic<uint64_t> tasks_run{0};
    std::atomic<uint64_t> steals{0};
  };

  struct Periodic {
    std::chrono::milliseconds interval;
    std::function<void()> fn;
    std::chrono::steady_clock::time_point next_fire;
    bool in_flight = false;
    bool removed = false;
  };

  void WorkerLoop(unsigned self);
  bool TryRunOne(unsigned self);
  void FirePeriodic(uint64_t id);
  void TimerLoop();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<unsigned> next_queue_{0};  // Submit round-robin cursor

  // Idle workers sleep here; pending_ counts submitted tasks no worker has
  // claimed yet.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  size_t pending_ = 0;
  bool stop_ = false;

  // Periodic-task registry + timer thread (lazily started).
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::map<uint64_t, Periodic> periodics_;
  uint64_t next_periodic_id_ = 1;
  std::thread timer_;
  bool timer_stop_ = false;

  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
};

/// Resolves a user-facing thread-count knob against a pool: 0 means "all
/// hardware threads" (the pool's worker count when one is given). Always
/// >= 1.
inline unsigned EffectiveThreads(unsigned requested,
                                 const Scheduler* scheduler = nullptr) {
  if (requested != 0) return requested;
  if (scheduler != nullptr && scheduler->num_workers() > 0)
    return scheduler->num_workers();
  return cpu::HardwareThreads();
}

/// A joinable batch of tasks on a Scheduler. Wait() is deadlock-free even
/// when called from a pool worker (nested parallelism): unclaimed tasks of
/// the group are run by the waiting thread itself, so progress never
/// depends on a free worker.
///
/// A task that throws does NOT take the pool down: the first exception of
/// the group is captured and rethrown from Wait() on the joining thread
/// (later ones are dropped — one failure fails the batch). Sibling tasks
/// are not cancelled; they run to completion before Wait returns/throws.
/// This is how a storage fault inside one scan morsel becomes a failed
/// *query* instead of std::terminate on a worker thread.
class TaskGroup {
 public:
  /// nullptr = Scheduler::Default().
  explicit TaskGroup(Scheduler* scheduler = nullptr)
      : scheduler_(scheduler != nullptr ? scheduler : &Scheduler::Default()),
        state_(std::make_shared<State>()) {}
  ~TaskGroup() {
    // A destructor must not throw; an unconsumed task exception dies here
    // (callers that care Wait() explicitly).
    try {
      Wait();
    } catch (...) {
    }
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Adds a task and makes it claimable by the pool.
  void Run(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->tasks.push_back(std::move(fn));
    }
    // The pool wrapper claims *some* unclaimed task of the group — which
    // one is irrelevant, they are all going to run exactly once.
    scheduler_->Submit([state = state_] { RunOneClaimed(*state); });
  }

  /// Blocks until every task added so far has finished, helping to run
  /// still-unclaimed ones. Rethrows the group's first task exception (a
  /// later Wait on the same group returns normally — the error is
  /// consumed).
  void Wait() {
    for (;;) {
      if (RunOneClaimed(*state_)) continue;
      std::unique_lock<std::mutex> lock(state_->mu);
      if (state_->next >= state_->tasks.size() && state_->running == 0) {
        if (state_->error != nullptr) {
          std::exception_ptr error;
          std::swap(error, state_->error);
          lock.unlock();
          std::rethrow_exception(error);
        }
        return;
      }
      state_->cv.wait(lock, [&] {
        return state_->next < state_->tasks.size() || state_->running == 0;
      });
    }
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::function<void()>> tasks;
    size_t next = 0;      // first unclaimed task
    unsigned running = 0; // claimed but unfinished
    std::exception_ptr error;  // first task exception, consumed by Wait
  };

  /// Claims and runs one unclaimed task. Returns false when none were left.
  /// A throwing task never unwinds into the pool's WorkerLoop (that would
  /// std::terminate the process): its exception is parked in the state for
  /// Wait to rethrow.
  static bool RunOneClaimed(State& state) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.next >= state.tasks.size()) return false;
      // Moved out under the lock: a concurrent Run() may push_back and
      // reallocate `tasks`, so no reference into it can outlive the lock.
      task = std::move(state.tasks[state.next++]);
      ++state.running;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(state.mu);
      --state.running;
      if (error != nullptr && state.error == nullptr) state.error = error;
    }
    state.cv.notify_all();
    return true;
  }

  Scheduler* scheduler_;
  std::shared_ptr<State> state_;
};

/// Runs `worker(slot)` on `slots` parallelism slots — slot 0 on the calling
/// thread, the rest as pool tasks — and returns when all of them finished.
/// The canonical body claims morsels from a shared MorselDriver and
/// accumulates into a per-slot state that the caller merges afterwards in
/// slot order (making the merged result independent of which worker claimed
/// which morsel).
/// A slot that throws fails the whole call: the first exception (slot 0's
/// wins ties) is rethrown on the calling thread after every slot finished —
/// pool tasks are always joined first, so no task outlives the caller's
/// captured state.
template <typename WorkerFn>
void RunOnSlots(unsigned slots, WorkerFn&& worker,
                Scheduler* scheduler = nullptr) {
  if (slots <= 1) {
    worker(0u);
    return;
  }
  TaskGroup group(scheduler);
  for (unsigned t = 1; t < slots; ++t) {
    group.Run([&worker, t] { worker(t); });
  }
  std::exception_ptr primary;
  try {
    worker(0u);
  } catch (...) {
    primary = std::current_exception();
  }
  try {
    group.Wait();
  } catch (...) {
    if (primary == nullptr) primary = std::current_exception();
  }
  if (primary != nullptr) std::rethrow_exception(primary);
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_SCHEDULER_H_
