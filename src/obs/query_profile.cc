#include "obs/query_profile.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace datablocks::obs {

uint64_t MonotonicNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (uint8_t(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string Ms(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", double(ns) / 1e6);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// PipelineProfile
// ---------------------------------------------------------------------------

void PipelineProfile::RecordWorker(const WorkerProfile& w,
                                   const Totals& contribution) {
  std::lock_guard<std::mutex> lock(mu_);
  workers_.push_back(w);
  totals_.morsels += w.morsels;
  totals_.batches += w.batches;
  totals_.rows_out += w.rows;
  totals_.consume_ns += w.consume_ns;
  totals_.code_batches += contribution.code_batches;
  totals_.rows_in += contribution.rows_in;
  totals_.chunks_scanned += contribution.chunks_scanned;
  totals_.chunks_pruned += contribution.chunks_pruned;
  totals_.evicted_chunks_pruned += contribution.evicted_chunks_pruned;
  totals_.pins += contribution.pins;
  totals_.archive_reloads += contribution.archive_reloads;
}

void PipelineProfile::set_wall_ns(uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.wall_ns = ns;
}

void PipelineProfile::set_merge_ns(uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.merge_ns = ns;
}

PipelineProfile::Totals PipelineProfile::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<WorkerProfile> PipelineProfile::workers() const {
  std::vector<WorkerProfile> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = workers_;
  }
  std::sort(out.begin(), out.end(),
            [](const WorkerProfile& a, const WorkerProfile& b) {
              return a.slot < b.slot;
            });
  return out;
}

// ---------------------------------------------------------------------------
// WorkerScope
// ---------------------------------------------------------------------------

WorkerScope::WorkerScope(PipelineProfile* pipeline, unsigned slot)
    : pipeline_(pipeline) {
  if (pipeline_ == nullptr) return;
  worker_.slot = slot;
  start_ns_ = MonotonicNs();
}

WorkerScope::~WorkerScope() {
  if (pipeline_ == nullptr) return;
  worker_.busy_ns = MonotonicNs() - start_ns_;
  pipeline_->RecordWorker(worker_, totals_);
}

// ---------------------------------------------------------------------------
// QueryProfile
// ---------------------------------------------------------------------------

QueryProfile::QueryProfile(std::string name, std::string config,
                           unsigned threads)
    : name_(std::move(name)),
      config_(std::move(config)),
      threads_(threads),
      start_ns_(MonotonicNs()) {}

QueryProfile::~QueryProfile() = default;

PipelineProfile* QueryProfile::AddPipeline(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  pipelines_.push_back(std::make_unique<PipelineProfile>(std::move(name)));
  return pipelines_.back().get();
}

Span* QueryProfile::BeginSpan(std::string name, Span* parent) {
  std::lock_guard<std::mutex> lock(mu_);
  auto span = std::make_unique<Span>();
  span->name = std::move(name);
  Span* raw = span.get();
  if (parent != nullptr) {
    parent->children.push_back(std::move(span));
  } else {
    spans_.push_back(std::move(span));
  }
  open_spans_.push_back(OpenSpan{raw, MonotonicNs()});
  return raw;
}

void QueryProfile::EndSpan(Span* span) {
  const uint64_t now = MonotonicNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = open_spans_.begin(); it != open_spans_.end(); ++it) {
    if (it->span == span) {
      span->wall_ns = now - it->start_ns;
      open_spans_.erase(it);
      return;
    }
  }
}

void QueryProfile::Finish() {
  const uint64_t now = MonotonicNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (const OpenSpan& open : open_spans_) {
    open.span->wall_ns = now - open.start_ns;
  }
  open_spans_.clear();
  if (wall_ns_ == 0) wall_ns_ = now - start_ns_;
}

uint64_t QueryProfile::wall_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wall_ns_ != 0 ? wall_ns_ : MonotonicNs() - start_ns_;
}

size_t QueryProfile::num_pipelines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pipelines_.size();
}

const PipelineProfile* QueryProfile::pipeline(size_t i) const {
  std::lock_guard<std::mutex> lock(mu_);
  return i < pipelines_.size() ? pipelines_[i].get() : nullptr;
}

namespace {

void ReportSpan(const Span& span, const std::string& indent,
                std::string* out) {
  AppendF(out, "%s- span %s  wall %s\n", indent.c_str(), span.name.c_str(),
          Ms(span.wall_ns).c_str());
  for (const auto& child : span.children) {
    ReportSpan(*child, indent + "  ", out);
  }
}

void JsonSpan(const Span& span, std::string* out) {
  AppendF(out, "{\"name\": \"%s\", \"wall_ns\": %" PRIu64 ", \"children\": [",
          JsonEscape(span.name).c_str(), span.wall_ns);
  for (size_t i = 0; i < span.children.size(); ++i) {
    if (i > 0) *out += ", ";
    JsonSpan(*span.children[i], out);
  }
  *out += "]}";
}

}  // namespace

std::string QueryProfile::Report() const {
  const_cast<QueryProfile*>(this)->Finish();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  AppendF(&out, "%s", name_.c_str());
  if (!config_.empty()) AppendF(&out, " [%s]", config_.c_str());
  AppendF(&out, "  threads=%u", threads_);
  AppendF(&out, "  wall %s\n", Ms(wall_ns_).c_str());
  for (const auto& p : pipelines_) {
    const PipelineProfile::Totals t = p->totals();
    AppendF(&out,
            "- pipeline %s  wall %s  rows %" PRIu64 " -> %" PRIu64
            "  morsels %" PRIu64 "  batches %" PRIu64 " (%" PRIu64 " coded)\n",
            p->name().c_str(), Ms(t.wall_ns).c_str(), t.rows_in, t.rows_out,
            t.morsels, t.batches, t.code_batches);
    AppendF(&out,
            "    blocks: %" PRIu64 " scanned, %" PRIu64 " pruned (%" PRIu64
            " evicted, summary-only), pins %" PRIu64 ", archive reloads %"
            PRIu64 "\n",
            t.chunks_scanned, t.chunks_pruned, t.evicted_chunks_pruned,
            t.pins, t.archive_reloads);
    AppendF(&out, "    consume %s\n", Ms(t.consume_ns).c_str());
    if (t.merge_ns > 0) {
      AppendF(&out, "    merge %s\n", Ms(t.merge_ns).c_str());
    }
    for (const WorkerProfile& w : p->workers()) {
      AppendF(&out,
              "    worker %u: morsels %" PRIu64 "  batches %" PRIu64
              "  rows %" PRIu64 "  busy %s  consume %s\n",
              w.slot, w.morsels, w.batches, w.rows, Ms(w.busy_ns).c_str(),
              Ms(w.consume_ns).c_str());
    }
  }
  for (const auto& span : spans_) {
    ReportSpan(*span, "", &out);
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  const_cast<QueryProfile*>(this)->Finish();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  AppendF(&out,
          "{\"query\": \"%s\", \"config\": \"%s\", \"threads\": %u, "
          "\"wall_ns\": %" PRIu64 ", \"pipelines\": [",
          JsonEscape(name_).c_str(), JsonEscape(config_).c_str(), threads_,
          wall_ns_);
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    const PipelineProfile& p = *pipelines_[i];
    const PipelineProfile::Totals t = p.totals();
    if (i > 0) out += ", ";
    AppendF(&out,
            "{\"name\": \"%s\", \"wall_ns\": %" PRIu64 ", \"merge_ns\": %"
            PRIu64 ", \"consume_ns\": %" PRIu64 ", \"morsels\": %" PRIu64
            ", \"batches\": %" PRIu64 ", \"code_batches\": %" PRIu64
            ", \"rows_in\": %" PRIu64 ", \"rows_out\": %" PRIu64
            ", \"chunks_scanned\": %" PRIu64
            ", \"chunks_pruned\": %" PRIu64 ", \"evicted_chunks_pruned\": %"
            PRIu64 ", \"pins\": %" PRIu64 ", \"archive_reloads\": %" PRIu64
            ", \"workers\": [",
            JsonEscape(p.name()).c_str(), t.wall_ns, t.merge_ns, t.consume_ns,
            t.morsels, t.batches, t.code_batches, t.rows_in, t.rows_out,
            t.chunks_scanned, t.chunks_pruned, t.evicted_chunks_pruned,
            t.pins, t.archive_reloads);
    const std::vector<WorkerProfile> workers = p.workers();
    for (size_t w = 0; w < workers.size(); ++w) {
      if (w > 0) out += ", ";
      AppendF(&out,
              "{\"slot\": %u, \"morsels\": %" PRIu64 ", \"batches\": %" PRIu64
              ", \"rows\": %" PRIu64 ", \"busy_ns\": %" PRIu64
              ", \"consume_ns\": %" PRIu64 "}",
              workers[w].slot, workers[w].morsels, workers[w].batches,
              workers[w].rows, workers[w].busy_ns, workers[w].consume_ns);
    }
    out += "]}";
  }
  out += "], \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (i > 0) out += ", ";
    JsonSpan(*spans_[i], &out);
  }
  out += "]}";
  return out;
}

}  // namespace datablocks::obs
