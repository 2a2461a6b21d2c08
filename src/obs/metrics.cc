#include "obs/metrics.h"

#include <bit>
#include <cassert>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace datablocks::obs {

unsigned Counter::ThisShard() {
  // Threads are spread round-robin over the shards at first touch; the
  // assignment is process-global so one thread hits the same shard in
  // every counter (good locality) and kShards threads cover all shards.
  static std::atomic<unsigned> next{0};
  static thread_local unsigned shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

unsigned Histogram::BucketOf(uint64_t v) {
  return unsigned(std::bit_width(v));  // 0 -> 0, [2^(b-1), 2^b) -> b
}

uint64_t Histogram::BucketLo(unsigned b) {
  return b == 0 ? 0 : uint64_t(1) << (b - 1);
}

uint64_t Histogram::BucketHi(unsigned b) {
  if (b == 0) return 1;
  if (b >= 64) return UINT64_MAX;
  return uint64_t(1) << b;
}

double Histogram::Percentile(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 100) q = 100;
  // Rank of the requested observation (1-based, clamped into the sample).
  double rank = q / 100.0 * double(total);
  if (rank < 1) rank = 1;
  uint64_t seen = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (double(seen + counts[b]) >= rank) {
      const double lo = double(BucketLo(b));
      const double hi = double(BucketHi(b));
      const double frac = (rank - double(seen)) / double(counts[b]);
      return lo + (hi - lo) * frac;
    }
    seen += counts[b];
  }
  return double(BucketHi(kBuckets - 1));
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      Entry::Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    // A name identifies one metric of one kind for the process lifetime;
    // asking for it as another kind is a naming bug, not a runtime state.
    assert(it->second.kind == kind);
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case Entry::Kind::kCounter:
      entry.counter = std::unique_ptr<Counter>(new Counter());
      break;
    case Entry::Kind::kGauge:
      entry.gauge = std::unique_ptr<Gauge>(new Gauge());
      break;
    case Entry::Kind::kHistogram:
      entry.histogram = std::unique_ptr<Histogram>(new Histogram());
      break;
  }
  return &entries_.emplace(std::string(name), std::move(entry)).first->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  return FindOrCreate(name, Entry::Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  return FindOrCreate(name, Entry::Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return FindOrCreate(name, Entry::Kind::kHistogram)->histogram.get();
}

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

/// Metric names follow "<component>.<event>" and never need escaping, but
/// exposition must not produce invalid JSON even for an off-convention
/// name.
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (uint8_t(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        AppendF(&out, "%s counter %" PRIu64 "\n", name.c_str(),
                entry.counter->Value());
        break;
      case Entry::Kind::kGauge:
        AppendF(&out, "%s gauge %" PRId64 "\n", name.c_str(),
                entry.gauge->Value());
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        AppendF(&out,
                "%s histogram count=%" PRIu64 " sum=%" PRIu64
                " p50=%.0f p95=%.0f p99=%.0f\n",
                name.c_str(), h.count(), h.sum(), h.Percentile(50),
                h.Percentile(95), h.Percentile(99));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : entries_) {
    const std::string ename = JsonEscape(name);
    switch (entry.kind) {
      case Entry::Kind::kCounter:
        AppendF(&counters, "%s\"%s\": %" PRIu64, counters.empty() ? "" : ", ",
                ename.c_str(), entry.counter->Value());
        break;
      case Entry::Kind::kGauge:
        AppendF(&gauges, "%s\"%s\": %" PRId64, gauges.empty() ? "" : ", ",
                ename.c_str(), entry.gauge->Value());
        break;
      case Entry::Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        AppendF(&histograms,
                "%s\"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                ", \"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g, \"buckets\": [",
                histograms.empty() ? "" : ", ", ename.c_str(), h.count(),
                h.sum(), h.Percentile(50), h.Percentile(95), h.Percentile(99));
        bool first = true;
        for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
          const uint64_t n = h.bucket_count(b);
          if (n == 0) continue;
          AppendF(&histograms, "%s[%" PRIu64 ", %" PRIu64 ", %" PRIu64 "]",
                  first ? "" : ", ", Histogram::BucketLo(b),
                  Histogram::BucketHi(b), n);
          first = false;
        }
        histograms += "]}";
        break;
      }
    }
  }
  std::string out = "{\"counters\": {";
  out += counters;
  out += "}, \"gauges\": {";
  out += gauges;
  out += "}, \"histograms\": {";
  out += histograms;
  out += "}}";
  return out;
}

void RegisterEngineMetrics() {
  MetricsRegistry& r = MetricsRegistry::Default();
  // Scan layer (exec/table_scanner.cc).
  r.GetCounter("scan.chunks_pruned");
  r.GetCounter("scan.evicted_chunks_pruned");
  r.GetCounter("scan.chunks_scanned");
  r.GetCounter("scan.pins");  // chunks opened by scans
  r.GetCounter("scan.archive_reloads");
  r.GetCounter("scan.pin_failures");
  // Table writes (storage/table.cc): rows appended by Insert (a
  // relocation's included), rows updated in place, and rows UpdateRow
  // relocated out of a non-hot chunk.
  r.GetCounter("table.inserts");
  r.GetCounter("table.inplace_updates");
  r.GetCounter("table.relocations");
  // Block archive (storage/block_archive.cc).
  r.GetCounter("archive.read_errors");
  r.GetCounter("archive.write_errors");
  // Scheduler (exec/scheduler.cc).
  r.GetCounter("scheduler.tasks_run");
  r.GetCounter("scheduler.steals");
  r.GetCounter("scheduler.periodic_fires");
  // Lifecycle manager (lifecycle/lifecycle_manager.cc).
  r.GetCounter("lifecycle.ticks");
  r.GetCounter("lifecycle.freezes");
  r.GetCounter("lifecycle.evictions");
  r.GetCounter("lifecycle.point_reads");
  r.GetCounter("lifecycle.archive_bytes_read");
  r.GetCounter("lifecycle.tombstoned");
  r.GetCounter("lifecycle.reclaimed_blocks");
  r.GetHistogram("lifecycle.tick_ns");
  r.GetHistogram("lifecycle.freeze_ns");
  r.GetCounter("lifecycle.reload_failures");
  r.GetCounter("lifecycle.retries");
  r.GetCounter("lifecycle.write_failures");
  r.GetGauge("lifecycle.quarantined");
  // JIT (jit/jit_compiler.cc).
  r.GetCounter("jit.compiles");
  r.GetCounter("jit.compile_failures");
  r.GetHistogram("jit.compile_ns");
  // Aggregation-state bytes (exec/partitioned_agg.cc, ExportGauges).
  r.GetGauge("agg.dense_bytes");
  r.GetGauge("agg.spill_bytes");
  r.GetGauge("agg.table_bytes");
  r.GetGauge("agg.peak_dense_bytes");
  r.GetGauge("agg.peak_spill_bytes");
  r.GetGauge("agg.peak_total_bytes");
  // Query drivers (tpch/query_registry.cc).
  r.GetHistogram("tpch.query_wall_ns");
  // Serving front end (serve/server.cc). Per-client
  // "serve.client.<name>.latency_ns" histograms register dynamically at
  // OpenSession and are deliberately absent here.
  r.GetCounter("serve.submitted");
  r.GetCounter("serve.admitted");
  r.GetCounter("serve.rejected");
  r.GetCounter("serve.timed_out");
  r.GetCounter("serve.cancelled");
  r.GetCounter("serve.completed");
  r.GetCounter("serve.errors");
  r.GetCounter("serve.storage_errors");
  r.GetGauge("serve.running");
  r.GetGauge("serve.queued");
  r.GetGauge("serve.sessions");
  r.GetHistogram("serve.queue_wait_ns");
  r.GetHistogram("serve.oltp_latency_ns");
  r.GetHistogram("serve.olap_latency_ns");
}

}  // namespace datablocks::obs
