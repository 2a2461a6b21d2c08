// bench_e2e: one run of one workload of the end-to-end HTAP benchmark.
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-dir DIR] [--json FILE]
//
// --work-dir holds the run's archives and is removed at exit; a traced run
// writes its spans to --trace-dir as <workload>.jsonl.
//
// Prints every metric as `workload metric value unit`, then, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}
// whose metrics are the declared end-to-end set (--trace 0) or per-layer
// set (--trace 1) below — the same names, units and order as the root
// BENCHMARK.json. --json writes the full record, every metric included,
// for compare.py. Exits 1 when any result was wrong. run.sh builds and
// drives this binary; see README.md.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

using e2e::Metric;
using e2e::Options;
using e2e::Result;

struct Declared {
  const char* name;
  const char* unit;
};

constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_cpu_s", "1/s"},
    {"op_cpu_ms_p50", "ms"},
    {"op_cpu_ms_tail", "ms"},
    {"type_cpu_geomean_ms", "ms"},
    {"mem_ratio", "ratio"},
    {"stored_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr Declared kPerLayer[] = {
    {"scan.find_ns_per_tuple", "ns"},
    {"scan.reduce_ns_per_tuple", "ns"},
    {"datablock.prepare_us_per_block", "us"},
    {"datablock.match_ns_per_tuple", "ns"},
    {"datablock.unpack_ns_per_value", "ns"},
    {"datablock.sma_skip_frac", "ratio"},
    {"datablock.psma_range_frac", "ratio"},
    {"datablock.match_frac", "ratio"},
    {"exec.scanner_ns_per_row", "ns"},
    {"exec.ladder_residual_frac", "ratio"},
    {"exec.rows_in_per_row_out", "ratio"},
    {"exec.coded_batch_frac", "ratio"},
    {"exec.worker_busy_frac", "ratio"},
    {"exec.steal_frac", "ratio"},
    {"tpch.residual_frac", "ratio"},
    {"storage.archive_read_us_per_mb", "us"},
    {"storage.point_get_frozen_ns", "ns"},
    {"storage.archive_reads_per_op", "count"},
    {"lifecycle.reloads_per_op", "count"},
    {"lifecycle.evicted_skip_frac", "ratio"},
    {"lifecycle.tick_frac", "ratio"},
    {"serve.oltp_queue_frac", "ratio"},
    {"serve.oltp_dispatch_frac", "ratio"},
    {"serve.refused", "count"},
    {"tpcc.rollback_frac", "ratio"},
    {"bench.trace_overhead_frac", "ratio"},
};

struct WorkloadEntry {
  const char* name;
  void (*run)(const Options&, Result*);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"olap_frozen", e2e::RunOlapFrozen},
    {"olap_evicted", e2e::RunOlapEvicted},
    {"oltp_tpcc", e2e::RunOltpTpcc},
    {"hybrid_serve", e2e::RunHybridServe},
};

/// Ends the process when the run overruns its deadline: a hang in the
/// engine must fail the run, not stall whoever waits for it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "bench_e2e: the run exceeded %lld s and was "
                         "aborted; the engine hung\n",
                         (long long)limit.count());
            std::_Exit(4);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "olap_frozen|olap_evicted|oltp_tpcc|hybrid_serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-dir DIR] "
               "[--json FILE]\n",
               why);
  std::exit(2);
}

std::string JsonMetric(const Metric& m) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.17g", m.value);
  return "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m.unit + "\"}";
}

/// {<fields>"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string JsonObject(const std::string& fields, const Result& r,
                       const std::vector<Metric>& metrics) {
  std::string s = "{" + fields +
                  "\"correct\": " + (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += (i > 0 ? ", " : "") + JsonMetric(metrics[i]);
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string json_out;
  bool have_seconds = false, have_trace = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
      have_trace = true;
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else if (flag == "--json") {
      json_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (o.workload == w.name) entry = &w;
  }
  if (entry == nullptr) Usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || o.work_dir.empty()) {
    Usage("--seed, --seconds, --trace and --work-dir are required");
  }
  if (o.trace && o.trace_dir.empty()) Usage("--trace 1 needs --trace-dir");
  std::filesystem::create_directories(o.work_dir);
  if (o.trace) std::filesystem::create_directories(o.trace_dir);

  Result r;
  {
    // Runs take about 2 x --seconds plus set-up; this is far beyond that.
    Watchdog watchdog(std::chrono::seconds(60 + int64_t(10 * o.seconds)));
    entry->run(o, &r);
  }
  std::filesystem::remove_all(o.work_dir);
  if (!o.trace) r.Add("peak_rss_mb", e2e::PeakRssMb(), "MB");
  r.Add("failed_frac", e2e::Ratio(double(r.failed), double(r.attempted)),
        "ratio");

  // A layer a workload does not exercise reports its ratios and counts as
  // 0 (nothing waited, nothing was refused); every declared time must have
  // been measured.
  std::vector<Metric> declared;
  bool complete = true;
  const Declared* first =
      o.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Declared* last = o.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Declared* d = first; d != last; ++d) {
    const Metric* m = r.Find(d->name);
    if (m == nullptr && o.trace && (std::strcmp(d->unit, "ratio") == 0 ||
                                    std::strcmp(d->unit, "count") == 0)) {
      r.Add(d->name, 0, d->unit);
      m = r.Find(d->name);
    }
    if (m == nullptr || m->unit != d->unit) {
      std::fprintf(stderr, "bench_e2e: %s did not report %s in %s\n",
                   o.workload.c_str(), d->name, d->unit);
      complete = false;
      continue;
    }
    declared.push_back(*m);
  }
  if (!complete) return 3;

  for (const Metric& m : r.metrics) {
    std::printf("%s %s %.9g %s\n", o.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("%s oracle %s\n", o.workload.c_str(),
              r.correct ? "PASS" : "FAIL");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", json_out.c_str());
      return 3;
    }
    const std::string fields = "\"workload\": \"" + o.workload +
                               "\", \"seed\": " + std::to_string(o.seed) +
                               ", \"trace\": " + (o.trace ? "1" : "0") + ", ";
    std::fprintf(f, "%s\n", JsonObject(fields, r, r.metrics).c_str());
    std::fclose(f);
  }
  std::printf("%s\n", JsonObject("", r, declared).c_str());
  return r.correct ? 0 : 1;
}
