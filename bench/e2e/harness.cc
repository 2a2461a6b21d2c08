#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "exec/scheduler.h"
#include "obs/query_profile.h"

namespace e2e {

using datablocks::obs::QueryProfile;

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 over (seed, tag): nearby seeds and tags give unrelated
  // streams.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Result::Add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "metric %s is not finite; recorded as 0\n",
                 name.c_str());
    value = 0;
  }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

const Metric* Result::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Result::Wrong(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "INCORRECT: %s\n", what.c_str());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(q * double(v.size())));
  if (rank > 0) --rank;
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (x <= 0) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / double(v.size()));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t NowNs() { return datablocks::obs::MonotonicNs(); }

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

}  // namespace

double CpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return double(to_ns - from_ns) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

void Rounds::Add(const RoundStat& s, bool was_traced) {
  rate.push_back(Ratio(s.ops, s.seconds));
  cpu_rate.push_back(Ratio(s.ops, s.cpu_seconds));
  traced.push_back(was_traced);
}

double Rounds::TraceOverhead() const {
  std::vector<double> on, off;
  for (size_t i = 0; i < cpu_rate.size(); ++i) {
    (traced[i] ? on : off).push_back(cpu_rate[i]);
  }
  if (on.empty() || off.empty()) return 0;
  return 1.0 - Median(on) / Median(off);
}

Rounds RunRounds(const Options& o, int min_rounds,
                 const std::function<RoundStat(int, bool)>& fn) {
  if (o.trace) min_rounds = std::max(min_rounds, 4);
  Rounds rounds;
  double measured = 0;
  const uint64_t t0 = NowNs();
  for (int r = 0; r < min_rounds || measured < o.seconds; ++r) {
    // Rounds with set-up of their own (oltp_tpcc) stop early rather than
    // overrun the run's time budget.
    if (r >= min_rounds && Seconds(t0, NowNs()) > 2.5 * o.seconds) break;
    const bool traced = TracedRound(o, r);
    const RoundStat s = fn(r, traced);
    measured += s.seconds;
    rounds.Add(s, traced);
  }
  return rounds;
}

double OpSamples::TypeGeoMean() const {
  std::vector<double> medians;
  for (const auto& v : by_type) medians.push_back(Median(v));
  return GeoMean(medians);
}

void EndToEnd::Report(Result* r) const {
  r->Add("setup_s", Median(setup_cpu_s), "s");
  r->Add("ops_per_cpu_s", ops_per_cpu_s, "1/s");
  r->Add("op_cpu_ms_p50", Quantile(cpu_ms->all, 0.50), "ms");
  r->Add("op_cpu_ms_tail", Quantile(cpu_ms->all, tail_quantile), "ms");
  r->Add("type_cpu_geomean_ms", cpu_ms->TypeGeoMean(), "ms");
  r->Add("mem_ratio", mem_ratio, "ratio");
  r->Add("stored_ratio", stored_ratio, "ratio");
  r->Add("bench.tail_quantile", tail_quantile, "ratio");
  r->Add("bench.cpu_samples", double(cpu_ms->all.size()), "count");
  r->Add("wall.setup_s", Median(setup_wall_s), "s");
  r->Add("wall.ops_per_s", ops_per_s, "1/s");
  r->Add("wall.latency_p50_ms", Quantile(wall_ms->all, 0.50), "ms");
  r->Add("wall.latency_tail_ms", Quantile(wall_ms->all, tail_quantile), "ms");
  r->Add("wall.type_geomean_ms", wall_ms->TypeGeoMean(), "ms");
}

uint64_t SpanRecorder::Add(std::string name, uint64_t start_ns,
                           uint64_t end_ns, uint64_t parent_id,
                           uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back({std::move(name), start_ns, end_ns, id, parent_id,
                    request_id == 0 ? id : request_id});
  return id;
}

uint64_t SpanRecorder::AddProfiled(std::string name, uint64_t start_ns,
                                   uint64_t end_ns,
                                   const QueryProfile* profile,
                                   uint64_t parent_id, uint64_t request_id) {
  const uint64_t id =
      Add(std::move(name), start_ns, end_ns, parent_id, request_id);
  if (profile == nullptr) return id;
  const uint64_t req = request_id == 0 ? id : request_id;
  uint64_t at = start_ns;
  for (size_t i = 0; i < profile->num_pipelines(); ++i) {
    const auto* p = profile->pipeline(i);
    const auto t = p->totals();
    const uint64_t end = at + t.wall_ns;
    const uint64_t pid = Add("exec.pipeline." + p->name(), at, end, id, req);
    if (t.merge_ns > 0) {
      Add("exec.merge", end - std::min(t.merge_ns, t.wall_ns), end, pid, req);
    }
    at = end;
  }
  return id;
}

void SpanRecorder::Summarize(Result* r) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, uint64_t> child_ns;  // parent id -> covered ns
  for (const Span& s : spans_) {
    if (s.parent_id != 0) child_ns[s.parent_id] += s.end_ns - s.start_ns;
  }
  struct Agg {
    double count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    const uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.span_id);
    const uint64_t covered = it == child_ns.end() ? 0 : it->second;
    Agg& a = by_name[s.name];
    a.count += 1;
    a.total_ns += double(dur);
    a.self_ns += double(dur - std::min(dur, covered));
  }
  for (const auto& [name, a] : by_name) {
    r->Add("span." + name + ".count", a.count, "count");
    r->Add("span." + name + ".self_ms", a.self_ns / 1e6, "ms");
    r->Add("span." + name + ".total_ms", a.total_ns / 1e6, "ms");
  }
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"span_id\":%llu,\"parent_id\":%llu,\"request_id\":%llu}\n",
                 s.name.c_str(), (unsigned long long)s.start_ns,
                 (unsigned long long)s.end_ns, (unsigned long long)s.span_id,
                 (unsigned long long)s.parent_id,
                 (unsigned long long)s.request_id);
  }
  return std::fclose(f) == 0;
}

void ExecStats::AddProfile(const QueryProfile& p, uint64_t wall_ns) {
  queries += 1;
  query_ns += double(wall_ns);
  for (size_t i = 0; i < p.num_pipelines(); ++i) {
    const auto* pipe = p.pipeline(i);
    const auto t = pipe->totals();
    pipeline_ns += double(t.wall_ns);
    merge_ns += double(t.merge_ns);
    rows_in += double(t.rows_in);
    rows_out += double(t.rows_out);
    batches += double(t.batches);
    code_batches += double(t.code_batches);
    evicted_pruned += double(t.evicted_chunks_pruned);
    archive_reloads += double(t.archive_reloads);
    const auto workers = pipe->workers();
    for (const auto& w : workers) busy_ns += double(w.busy_ns);
    slot_ns += double(workers.size()) * double(t.wall_ns);
  }
}

namespace {

void SchedulerTotals(uint64_t* tasks, uint64_t* steals) {
  *tasks = *steals = 0;
  for (const auto& w : datablocks::Scheduler::Default().worker_stats()) {
    *tasks += w.tasks_run;
    *steals += w.steals;
  }
}

}  // namespace

void ExecStats::StartScheduler() { SchedulerTotals(&tasks0, &steals0); }

void ExecStats::StopScheduler() {
  SchedulerTotals(&tasks, &steals);
  tasks -= tasks0;
  steals -= steals0;
}

void ExecStats::Report(Result* r) const {
  r->Add("exec.rows_in_per_row_out", Ratio(rows_in, rows_out), "ratio");
  r->Add("exec.coded_batch_frac", Ratio(code_batches, batches), "ratio");
  r->Add("exec.worker_busy_frac", Ratio(busy_ns, slot_ns), "ratio");
  r->Add("exec.steal_frac", Ratio(double(steals), double(tasks)), "ratio");
  // The merge step runs inside its pipeline's scope, so pipeline wall
  // already contains it; the residual is the build/probe/sort/output work
  // outside every profiled pipeline.
  r->Add("tpch.residual_frac", Ratio(query_ns - pipeline_ns, query_ns),
         "ratio");
  r->Add("lifecycle.evicted_skip_frac",
         Ratio(evicted_pruned, evicted_pruned + archive_reloads), "ratio");
  if (queries > 0) {
    r->Add("exec.pipeline_ms_per_query", pipeline_ns / queries / 1e6, "ms");
    r->Add("exec.merge_ms_per_query", merge_ns / queries / 1e6, "ms");
  }
}

}  // namespace e2e
