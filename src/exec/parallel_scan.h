#ifndef DATABLOCKS_EXEC_PARALLEL_SCAN_H_
#define DATABLOCKS_EXEC_PARALLEL_SCAN_H_

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "exec/scheduler.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"

namespace datablocks {

/// The engine's one morsel loop (Leis et al. [20], which HyPer uses for the
/// paper's 64-thread measurements). Every scan+aggregate pipeline —
/// sequential and parallel — runs its slots through RunSlot over the one
/// table of its relation:
///
///  * The table hands out its chunks as single-chunk morsels in index
///    order through one shared atomic cursor: a slot that finishes early
///    claims the next chunk, which is what balances skew. Every chunk is
///    claimed exactly once.
///  * Each slot builds its scanner lazily: a slot that never claims a
///    morsel never builds one. SMA/PSMA pruning happens inside every
///    scanner.
///  * `pipeline` (optional) receives per-slot profiles — morsel / batch /
///    row counts, the time inside on_batch (the consume) and the
///    scanners' block accounting.
///
/// Safe to run concurrently with the block lifecycle: a scanner reads each
/// chunk of its morsel inside one read section (an evicted one's columns
/// into its own image), so a freeze, eviction or tombstone of that chunk
/// waits until the scanner moves past it and proceeds on every other chunk
/// meanwhile. A slot runs on one thread, as its scanner's sections need.
class MorselDriver {
 public:
  MorselDriver(const Table& table, std::vector<uint32_t> columns,
               std::vector<Predicate> predicates, ScanMode mode,
               uint32_t vector_size, Isa isa, obs::PipelineProfile* pipeline)
      : table_(table),
        num_chunks_(table.num_chunks()),
        columns_(std::move(columns)),
        predicates_(std::move(predicates)),
        mode_(mode),
        vector_size_(vector_size),
        isa_(isa),
        pipeline_(pipeline) {}

  /// Runs slot `slot` until every morsel is claimed, calling
  /// on_batch(const Batch&) per produced vector.
  template <typename OnBatch>
  void RunSlot(unsigned slot, OnBatch&& on_batch) {
    obs::WorkerScope scope(pipeline_, slot);
    Batch batch;
    std::optional<TableScanner> scanner;
    size_t chunk;
    while ((chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks_) {
      if (!scanner) {
        scanner.emplace(table_, columns_, predicates_, mode_, vector_size_,
                        isa_);
      }
      scope.OnMorsel();
      scanner->RestrictChunks(chunk, chunk + 1);
      while (scanner->Next(&batch)) {
        scope.OnBatch(batch.count, batch.AnyCoded());
        scope.Consume([&] { on_batch(batch); });
      }
      // Harvest per morsel: RestrictChunks just reset the counters, so the
      // current values are exactly this morsel's delta.
      scope.OnScanTotals(scanner->chunks_scanned(), scanner->rows_considered(),
                         scanner->chunks_skipped(),
                         scanner->evicted_chunks_skipped(),
                         scanner->pins_taken(), scanner->archive_reloads());
    }
  }

 private:
  const Table& table_;
  const size_t num_chunks_;  // chunks present when the pipeline started
  std::atomic<size_t> next_chunk_{0};  // the morsel cursor
  std::vector<uint32_t> columns_;
  std::vector<Predicate> predicates_;
  ScanMode mode_;
  uint32_t vector_size_;
  Isa isa_;
  obs::PipelineProfile* pipeline_;
};

/// Morsel-driven scan with one state per parallelism slot: the slots run as
/// Scheduler tasks (the caller is slot 0; one slot runs inline), each feeds
/// its own state through the MorselDriver, and the caller merges the
/// returned states in slot order.
///
/// `make_state`  : () -> State                   (one per slot)
/// `consume`     : (State&, const Batch&) -> void (per produced vector)
///
/// `num_threads == 0` means "all hardware threads" (the pool's worker count
/// when one is given); `scheduler == nullptr` uses the process-wide
/// Scheduler::Default().
template <typename State, typename MakeState, typename Consume>
std::vector<State> ParallelScan(const Table& table,
                                std::vector<uint32_t> columns,
                                std::vector<Predicate> predicates,
                                ScanMode mode, unsigned num_threads,
                                MakeState make_state, Consume consume,
                                uint32_t vector_size =
                                    TableScanner::kDefaultVectorSize,
                                Isa isa = BestIsa(),
                                Scheduler* scheduler = nullptr,
                                obs::PipelineProfile* pipeline = nullptr) {
  num_threads = EffectiveThreads(num_threads, scheduler);

  std::vector<State> states;
  states.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) states.push_back(make_state());

  MorselDriver driver(table, std::move(columns), std::move(predicates), mode,
                      vector_size, isa, pipeline);
  RunOnSlots(
      num_threads,
      [&](unsigned slot) {
        driver.RunSlot(slot, [&](const Batch& b) { consume(states[slot], b); });
      },
      scheduler);
  return states;
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_PARALLEL_SCAN_H_
