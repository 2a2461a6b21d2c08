#ifndef DATABLOCKS_EXEC_PARALLEL_SCAN_H_
#define DATABLOCKS_EXEC_PARALLEL_SCAN_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "exec/scheduler.h"
#include "exec/table_scanner.h"
#include "obs/query_profile.h"

namespace datablocks {

/// The tables one pipeline scans: the shards of a ShardedTable
/// (exec/shard.h), or an unsharded Table as the one-element list {&table}.
struct ShardList {
  ShardList(const Table& table) : tables{&table} {}  // NOLINT: implicit
  explicit ShardList(std::vector<const Table*> shards)
      : tables(std::move(shards)) {}

  std::vector<const Table*> tables;
};

/// The engine's one morsel loop (Leis et al. [20], which HyPer uses for the
/// paper's 64-thread measurements). Every scan+aggregate pipeline —
/// sequential, parallel and sharded — runs its slots through RunSlot:
///
///  * Slot t drains shard t % S first, then steals from the other shards
///    in wrap-around order: one shard's working set per slot when slots >=
///    shards, and no slot idles while any shard has unclaimed chunks.
///  * Each shard hands out its chunks as morsels through a
///    NodeMorselDispatcher, so a worker drains chunks homed on its own NUMA
///    node before stealing remote ones (single-node hosts degrade to the
///    flat chunk order). Every chunk is claimed exactly once.
///  * Scanners are built lazily, one per (slot, shard): a slot that never
///    claims from a shard never builds a scanner for it. SMA/PSMA pruning
///    happens inside every scanner.
///  * `pipeline` (optional) receives per-slot profiles — morsel / batch /
///    row counts and the scanners' block accounting — plus per-shard slices
///    when S > 1.
///
/// Safe to run concurrently with the block lifecycle: a scanner pins its
/// claimed chunk (reloading it if evicted) for the duration of the morsel,
/// so background freezing/eviction proceeds on all unclaimed chunks.
class MorselDriver {
 public:
  MorselDriver(ShardList shards, std::vector<uint32_t> columns,
               std::vector<Predicate> predicates, ScanMode mode,
               uint32_t vector_size, Isa isa, obs::PipelineProfile* pipeline)
      : shards_(std::move(shards.tables)),
        columns_(std::move(columns)),
        predicates_(std::move(predicates)),
        mode_(mode),
        vector_size_(vector_size),
        isa_(isa),
        pipeline_(pipeline) {
    morsels_.reserve(shards_.size());
    for (const Table* table : shards_) {
      std::vector<int> chunk_nodes(table->num_chunks());
      for (size_t i = 0; i < chunk_nodes.size(); ++i) {
        chunk_nodes[i] = table->chunk_node(i);
      }
      morsels_.push_back(std::make_unique<NodeMorselDispatcher>(chunk_nodes));
    }
  }

  /// Runs slot `slot` until every shard's morsels are claimed, calling
  /// on_batch(const Batch&, unsigned shard) per produced vector — the
  /// shard lets consumers exploit shard locality.
  template <typename OnBatch>
  void RunSlot(unsigned slot, OnBatch&& on_batch) {
    obs::WorkerScope scope(pipeline_, slot);
    const unsigned num = unsigned(shards_.size());
    const int my_node = Scheduler::CurrentWorkerNode();
    Batch batch;
    for (unsigned k = 0; k < num; ++k) {
      const unsigned s = (slot + k) % num;
      uint64_t sh_morsels = 0, sh_batches = 0, sh_rows = 0;
      std::optional<TableScanner> scanner;
      size_t begin, end;
      while (morsels_[s]->Next(my_node, &begin, &end)) {
        if (!scanner) {
          scanner.emplace(*shards_[s], columns_, predicates_, mode_,
                          vector_size_, isa_);
        }
        scope.OnMorsel();
        ++sh_morsels;
        scanner->RestrictChunks(begin, end);
        while (scanner->Next(&batch)) {
          scope.OnBatch(batch.count, batch.AnyCoded());
          ++sh_batches;
          sh_rows += batch.count;
          on_batch(batch, s);
        }
        // Harvest per morsel: RestrictChunks just reset the counters, so
        // the current values are exactly this morsel's delta.
        scope.OnScanTotals(scanner->chunks_scanned(),
                           scanner->rows_considered(),
                           scanner->chunks_skipped(),
                           scanner->evicted_chunks_skipped(),
                           scanner->pins_taken(), scanner->archive_reloads());
      }
      if (num > 1 && pipeline_ != nullptr && sh_morsels != 0) {
        pipeline_->AddShardSlice(s, sh_morsels, sh_batches, sh_rows);
      }
    }
  }

 private:
  std::vector<const Table*> shards_;
  // unique_ptr: the dispatchers hold atomics and are not movable.
  std::vector<std::unique_ptr<NodeMorselDispatcher>> morsels_;
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
std::vector<State> ParallelScan(ShardList shards,
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

  MorselDriver driver(std::move(shards), std::move(columns),
                      std::move(predicates), mode, vector_size, isa, pipeline);
  RunOnSlots(
      num_threads,
      [&](unsigned slot) {
        driver.RunSlot(slot, [&](const Batch& b, unsigned) {
          consume(states[slot], b);
        });
      },
      scheduler);
  return states;
}

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_PARALLEL_SCAN_H_
