#ifndef DATABLOCKS_OBS_QUERY_PROFILE_H_
#define DATABLOCKS_OBS_QUERY_PROFILE_H_

// Per-query execution profiles: where did this query's time go?
//
// A QueryProfile is threaded through QueryContext (tpch/queries.h) into
// the scan/aggregate pipeline helpers. Each pipeline (one fact-table
// scan+aggregate fan-out) records wall time, rows in/out, batch counts
// (split into code-carrying vs materialized), scanner-side block
// accounting (summary-pruned vs scanned, chunks opened — "pins" — and
// archive reloads), the time in the consume (the pipeline body that folds
// each batch into its state), the merge-step duration, and one entry per
// parallelism slot (morsels claimed, rows produced, busy and consume time).
// Query drivers can add free-form nested spans around non-pipeline phases
// (sort, output).
//
// Render with Report() — an EXPLAIN-ANALYZE-style tree — or ToJson() for
// tools/profile_report.py. All recording methods are thread-safe; a null
// profile pointer anywhere means "off" and costs one predictable branch.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace datablocks::obs {

/// Monotonic nanoseconds since an arbitrary process-local epoch.
uint64_t MonotonicNs();

/// One parallelism slot's slice of a pipeline.
struct WorkerProfile {
  unsigned slot = 0;
  uint64_t morsels = 0;
  uint64_t batches = 0;
  uint64_t rows = 0;        // rows produced into this slot's batches
  uint64_t busy_ns = 0;     // wall time inside the worker body
  uint64_t consume_ns = 0;  // of that, time inside the pipeline's consume
};

/// One scan+aggregate pipeline of a query. Created via
/// QueryProfile::AddPipeline; totals accumulate under a mutex (recording
/// granularity is per-morsel / per-worker, never per-row).
class PipelineProfile {
 public:
  struct Totals {
    uint64_t wall_ns = 0;   // pipeline open -> close (set by the scope)
    uint64_t merge_ns = 0;  // slot-order merge step, 0 when merge-free
    uint64_t consume_ns = 0;  // summed over workers: time in the consume
    uint64_t morsels = 0;
    uint64_t batches = 0;
    uint64_t code_batches = 0;  // batches with >= 1 code-carrying column
    uint64_t rows_in = 0;       // rows in scanned (non-pruned) block ranges
    uint64_t rows_out = 0;      // rows surviving scan predicates
    uint64_t chunks_scanned = 0;
    uint64_t chunks_pruned = 0;          // SMA/PSMA or fully-deleted skips
    uint64_t evicted_chunks_pruned = 0;  // subset: summary-only, no reload
    uint64_t pins = 0;             // chunks opened by scans
    uint64_t archive_reloads = 0;  // opened chunks read from the archive
  };

  explicit PipelineProfile(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Folds one worker's slice into the totals and the per-slot list.
  void RecordWorker(const WorkerProfile& w, const Totals& contribution);
  void set_wall_ns(uint64_t ns);
  void set_merge_ns(uint64_t ns);

  Totals totals() const;
  std::vector<WorkerProfile> workers() const;  // sorted by slot

 private:
  const std::string name_;
  mutable std::mutex mu_;
  Totals totals_;
  std::vector<WorkerProfile> workers_;
};

/// Accumulates one worker's slice of a pipeline locally (no shared-state
/// touches in the scan loop) and publishes it on destruction. All calls
/// are no-ops when constructed with a null pipeline.
class WorkerScope {
 public:
  WorkerScope(PipelineProfile* pipeline, unsigned slot);
  ~WorkerScope();

  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

  void OnMorsel() {
    if (pipeline_ != nullptr) ++worker_.morsels;
  }
  void OnBatch(uint32_t rows, bool coded) {
    if (pipeline_ == nullptr) return;
    ++worker_.batches;
    worker_.rows += rows;
    totals_.code_batches += coded ? 1 : 0;
  }
  /// Runs the pipeline's consume of one batch, timing it when profiling.
  template <typename Fn>
  void Consume(Fn&& fn) {
    if (pipeline_ == nullptr) {
      fn();
      return;
    }
    const uint64_t t0 = MonotonicNs();
    fn();
    worker_.consume_ns += MonotonicNs() - t0;
  }
  /// Scanner counter harvest — pass deltas (the scanner's counters since
  /// the last harvest point, e.g. per morsel: RestrictChunks resets them).
  void OnScanTotals(uint64_t chunks_scanned, uint64_t rows_in,
                    uint64_t chunks_pruned, uint64_t evicted_pruned,
                    uint64_t pins, uint64_t archive_reloads) {
    if (pipeline_ == nullptr) return;
    totals_.chunks_scanned += chunks_scanned;
    totals_.rows_in += rows_in;
    totals_.chunks_pruned += chunks_pruned;
    totals_.evicted_chunks_pruned += evicted_pruned;
    totals_.pins += pins;
    totals_.archive_reloads += archive_reloads;
  }

 private:
  PipelineProfile* pipeline_;
  WorkerProfile worker_;
  PipelineProfile::Totals totals_;  // this worker's contribution
  uint64_t start_ns_ = 0;
};

/// A named span of wall time; spans nest to form the report tree. Spans
/// and pipelines attached to the same parent render in creation order.
struct Span {
  std::string name;
  uint64_t wall_ns = 0;
  std::vector<std::unique_ptr<Span>> children;
};

class QueryProfile {
 public:
  /// `name` identifies the query ("Q6"); `config` the execution setup
  /// ("+PSMA"); `threads` the parallelism knob (0 = all hardware threads).
  QueryProfile(std::string name, std::string config = "", unsigned threads = 1);
  ~QueryProfile();

  QueryProfile(const QueryProfile&) = delete;
  QueryProfile& operator=(const QueryProfile&) = delete;

  const std::string& name() const { return name_; }

  /// Adds a pipeline (rendered in creation order). Thread-safe; the
  /// returned pointer is valid for the profile's lifetime.
  PipelineProfile* AddPipeline(std::string name);

  /// Opens a nested span under `parent` (nullptr = top level). Close with
  /// EndSpan; unclosed spans are stamped when the profile finishes.
  Span* BeginSpan(std::string name, Span* parent = nullptr);
  void EndSpan(Span* span);

  /// Stamps the total wall time. Idempotent; Report/ToJson call it
  /// implicitly so a profile can be rendered while technically still open.
  void Finish();
  uint64_t wall_ns() const;

  size_t num_pipelines() const;
  const PipelineProfile* pipeline(size_t i) const;

  /// EXPLAIN-ANALYZE-style indented tree.
  std::string Report() const;
  /// One JSON object; schema in tools/profile_schema.json.
  std::string ToJson() const;

 private:
  const std::string name_;
  const std::string config_;
  const unsigned threads_;
  const uint64_t start_ns_;

  mutable std::mutex mu_;
  uint64_t wall_ns_ = 0;  // 0 = still open
  std::vector<std::unique_ptr<PipelineProfile>> pipelines_;
  std::vector<std::unique_ptr<Span>> spans_;
  struct OpenSpan {
    Span* span;
    uint64_t start_ns;
  };
  std::vector<OpenSpan> open_spans_;
};

}  // namespace datablocks::obs

#endif  // DATABLOCKS_OBS_QUERY_PROFILE_H_
