#ifndef BENCH_E2E_HARNESS_H_
#define BENCH_E2E_HARNESS_H_

// Shared pieces of the end-to-end benchmark: run options, the metric
// record, statistics, the round loop and the span recorder. Everything
// here times calls into the engine from outside; nothing in src/ knows
// it is being measured.

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace datablocks::obs {
class QueryProfile;
}

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time of one run; rounds repeat until it is reached.
  double seconds = 10;
  /// Per-layer run: spans, profiles, the layer ladder. End-to-end metrics
  /// come only from untraced runs.
  bool trace = false;
  std::string trace_dir;  // span JSONL output directory (traced runs)
  std::string work_dir;   // per-run directory for archives, removed at exit
};

/// Seed of one random input stream (dbgen, query order, TPC-C Rng,
/// arrival times), derived from --seed and a per-stream tag.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome of one workload run.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors + refused + wrong results
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit);
  const Metric* Find(const std::string& name) const;
  /// A wrong result or a failed consistency check: the run is incorrect.
  void Wrong(const std::string& what);
};

// -- Statistics (all return 0 on empty input) --------------------------------

/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double GeoMean(const std::vector<double>& v);
double Ratio(double num, double den);  // 0 when den == 0

uint64_t NowNs();  // obs::MonotonicNs, the clock query profiles use
double Seconds(uint64_t from_ns, uint64_t to_ns);
/// CPU time of the whole process (all threads) and of the calling thread.
/// Time the hypervisor steals from a vCPU is charged to neither, which is
/// why the gated metrics use them (README.md, "Why CPU time").
double CpuSeconds();
double ThreadCpuSeconds();
double PeakRssMb();

uint64_t Fnv1a(uint64_t h, uint64_t v);
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;

// -- Rounds ----------------------------------------------------------------

struct RoundStat {
  double seconds;      // measured wall time of the round
  double cpu_seconds;  // process CPU time over the same span
  double ops;          // operations completed in it
};

/// Per-round throughputs of a run.
struct Rounds {
  std::vector<double> rate;      // ops per wall second
  std::vector<double> cpu_rate;  // ops per CPU second
  std::vector<bool> traced;

  void Add(const RoundStat& s, bool was_traced);
  /// 1 - median(traced) / median(untraced) of the per-CPU-second rates;
  /// 0 without both kinds of round.
  double TraceOverhead() const;
};

/// Runs rounds of fixed work until at least `min_rounds` rounds and
/// o.seconds of measured time are done (or, past `min_rounds`, 2.5 x
/// o.seconds of wall time). In traced runs every odd round is traced (and
/// at least two of each kind run), so the tracing overhead is measured
/// inside one process.
Rounds RunRounds(const Options& o, int min_rounds,
                 const std::function<RoundStat(int round, bool traced)>& fn);

inline bool TracedRound(const Options& o, int round) {
  return o.trace && round % 2 == 1;
}

// -- End-to-end metrics ------------------------------------------------------

/// Per-operation samples (ms), pooled and by operation type.
struct OpSamples {
  explicit OpSamples(size_t types) : by_type(types) {}
  void Add(size_t type, double ms) {
    all.push_back(ms);
    by_type[type].push_back(ms);
  }
  /// Geometric mean over the types of each type's median.
  double TypeGeoMean() const;

  std::vector<double> all;
  std::vector<std::vector<double>> by_type;
};

/// What one untraced run measured; Report adds the gated end-to-end
/// metrics (CPU time) and their wall-clock twins (wall.*, advisory).
struct EndToEnd {
  std::vector<double> setup_cpu_s, setup_wall_s;  // one per set-up
  double ops_per_cpu_s = 0, ops_per_s = 0;
  OpSamples* cpu_ms = nullptr;
  OpSamples* wall_ms = nullptr;
  double tail_quantile = 0.99;
  double mem_ratio = 0, stored_ratio = 0;

  void Report(Result* r) const;
};

// -- Spans -------------------------------------------------------------------

/// In-memory span recorder, written as JSONL when the run ends. Spans are
/// recorded around calls into the engine; a request span is the parent of
/// its query's QueryProfile pipelines. QueryProfile keeps only durations,
/// so pipeline spans are packed back to back from the request's start in
/// creation order (every TPC-H query opens a pipeline only after the
/// previous one closed); durations and self times are exact, start offsets
/// within a request are not.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns, end_ns, span_id, parent_id, request_id;
  };

  uint64_t Add(std::string name, uint64_t start_ns, uint64_t end_ns,
               uint64_t parent_id = 0, uint64_t request_id = 0);
  /// A span with the profile's pipelines (and their merge steps) as
  /// children; `profile` may be null.
  uint64_t AddProfiled(std::string name, uint64_t start_ns, uint64_t end_ns,
                       const datablocks::obs::QueryProfile* profile,
                       uint64_t parent_id = 0, uint64_t request_id = 0);

  /// Per span name: spans, total and self milliseconds (a span's duration
  /// minus the part of it its children cover).
  void Summarize(Result* r) const;
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// -- Layer statistics shared by several workloads ------------------------------

/// Totals of the QueryProfiles of traced OLAP queries plus the scheduler's
/// work-stealing counters over the measured phase.
struct ExecStats {
  double queries = 0, query_ns = 0, pipeline_ns = 0, merge_ns = 0;
  double rows_in = 0, rows_out = 0, batches = 0, code_batches = 0;
  double busy_ns = 0, slot_ns = 0;
  double evicted_pruned = 0, archive_reloads = 0;
  uint64_t tasks0 = 0, steals0 = 0, tasks = 0, steals = 0;

  void AddProfile(const datablocks::obs::QueryProfile& p, uint64_t wall_ns);
  void StartScheduler();  // snapshot Scheduler::Default() counters
  void StopScheduler();
  /// exec.*, tpch.residual_frac and lifecycle.evicted_skip_frac.
  void Report(Result* r) const;
};

}  // namespace e2e

#endif  // BENCH_E2E_HARNESS_H_
