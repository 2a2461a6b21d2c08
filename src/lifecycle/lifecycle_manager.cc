#include "lifecycle/lifecycle_manager.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"  // MonotonicNs
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "util/status.h"

namespace datablocks {

namespace {

/// Process-wide mirrors of the lifecycle counters ("lifecycle.*"). The
/// per-manager atomics stay authoritative for stats(); these aggregate
/// across all managers for the registry's uniform view.
struct LifecycleMetrics {
  obs::Counter* ticks;
  obs::Counter* freezes;
  obs::Counter* adopted;
  obs::Counter* evictions;
  obs::Counter* reloads;  // blocks installed (at detach)
  obs::Counter* point_reads;
  obs::Counter* archive_bytes_read;
  obs::Counter* tombstoned;
  obs::Counter* reclaimed_blocks;
  obs::Histogram* tick_ns;
  obs::Histogram* freeze_ns;  // sorting and building one Data Block
  obs::Counter* reload_failures;
  obs::Counter* retries;
  obs::Counter* write_failures;
  obs::Gauge* quarantined;  // chunks quarantined, summed over managers
  obs::Gauge* degraded;     // managers currently in no-evict mode
};

const LifecycleMetrics& Metrics() {
  static const LifecycleMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return LifecycleMetrics{r.GetCounter("lifecycle.ticks"),
                            r.GetCounter("lifecycle.freezes"),
                            r.GetCounter("lifecycle.adopted"),
                            r.GetCounter("lifecycle.evictions"),
                            r.GetCounter("lifecycle.reloads"),
                            r.GetCounter("lifecycle.point_reads"),
                            r.GetCounter("lifecycle.archive_bytes_read"),
                            r.GetCounter("lifecycle.tombstoned"),
                            r.GetCounter("lifecycle.reclaimed_blocks"),
                            r.GetHistogram("lifecycle.tick_ns"),
                            r.GetHistogram("lifecycle.freeze_ns"),
                            r.GetCounter("lifecycle.reload_failures"),
                            r.GetCounter("lifecycle.retries"),
                            r.GetCounter("lifecycle.write_failures"),
                            r.GetGauge("lifecycle.quarantined"),
                            r.GetGauge("lifecycle.degraded")};
  }();
  return m;
}

}  // namespace

obs::TraceRing& LifecycleManager::trace() const {
  return cfg_.trace != nullptr ? *cfg_.trace : obs::TraceRing::Default();
}

LifecycleManager::LifecycleManager(Table* table, std::string archive_path,
                                   LifecycleConfig config)
    : table_(table),
      cfg_(config),
      archive_path_(std::move(archive_path)) {
  DB_CHECK(table_ != nullptr);
  // Archive creation can fail (bad path, disk full). A manager without an
  // archive is born degraded: it never evicts (nothing could be read back),
  // but the table keeps working fully resident.
  auto created = BlockArchive::Create(archive_path_);
  if (created.ok()) {
    archive_ = std::make_unique<BlockArchive>(std::move(*created));
  } else {
    std::fprintf(stderr,
                 "lifecycle: archive create failed for '%s' (%s); "
                 "running degraded (no eviction)\n",
                 archive_path_.c_str(),
                 created.status().ToString().c_str());
    degraded_.store(true, std::memory_order_relaxed);
    Metrics().degraded->Add(1);
    trace().Publish("lifecycle", "degrade", 0);
  }
  // The table's read path for evicted chunks: one archive read into the
  // reader's image, for scans and point reads alike. It must not call
  // back into Table — ReadChunk only touches the manager's own state (mu_)
  // and the archive.
  table_->SetBlockFetcher(
      [this](size_t chunk_idx, const BlockRead& read) -> Status {
        StatusOr<uint64_t> bytes = ReadChunk(chunk_idx, read);
        if (!bytes.ok()) return bytes.status();
        const bool point = read.row.has_value();
        if (point) Metrics().point_reads->Add();
        trace().Publish("lifecycle", point ? "point_read" : "scan_read",
                        int64_t(chunk_idx), int64_t(*bytes));
        return Status::Ok();
      });
}

LifecycleManager::~LifecycleManager() {
  Stop();
  // Leave the table self-contained: readmit every evicted block, then
  // detach. Afterwards the table no longer depends on this manager or its
  // archive file. A chunk whose read fails here is unrecoverable — its
  // only payload copy is the unreadable archive entry — so warn and detach
  // anyway rather than aborting the process. The final attempt ignores
  // any backoff deadline.
  ResetQuarantine();
  for (size_t c = 0; c < table_->num_chunks(); ++c) {
    if (!table_->is_evicted(c)) continue;
    if (Status s = Readmit(c); !s.ok()) {
      std::fprintf(stderr,
                   "lifecycle: chunk %zu of table '%s' lost at detach "
                   "(read failed: %s)\n",
                   c, table_->name().c_str(), s.ToString().c_str());
    }
  }
  table_->SetBlockFetcher(nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!quarantine_.empty()) Metrics().quarantined->Add(-int64_t(quarantine_.size()));
    quarantine_.clear();
  }
  if (degraded_.load(std::memory_order_relaxed)) Metrics().degraded->Add(-1);
  // The archive is scratch (see the class comment): nothing reopens it, and
  // the next manager on this path truncates it anyway.
  if (archive_ != nullptr) std::remove(archive_path_.c_str());
}

StatusOr<uint64_t> LifecycleManager::ReadChunk(size_t chunk_idx,
                                               const BlockRead& read) {
  size_t block_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto q = quarantine_.find(chunk_idx);
    if (q != quarantine_.end()) {
      // Quarantined: fail fast while the backoff runs, so a flood of
      // queries over a broken chunk does not hammer the disk. Once the
      // deadline passes, the next read (query or Tick probe) retries.
      if (std::chrono::steady_clock::now() < q->second.next_retry) {
        return Status::Unavailable(
            "chunk " + std::to_string(chunk_idx) + " quarantined after " +
            std::to_string(q->second.retries) + " failed read(s)");
      }
      retry_attempts_.fetch_add(1, std::memory_order_relaxed);
      Metrics().retries->Add();
    }
    auto it = archived_.find(chunk_idx);
    if (it == archived_.end()) {
      return Status::NotFound("chunk " + std::to_string(chunk_idx) +
                              " is evicted but has no archive entry");
    }
    block_id = it->second.id;
  }
  if (archive_ == nullptr) {
    return Status::Unavailable("no archive (manager degraded at create)");
  }
  StatusOr<uint64_t> bytes =
      DB_FAILPOINT("lifecycle.reload")
          ? StatusOr<uint64_t>(Status::IoError(
                "injected reload failure (failpoint lifecycle.reload)"))
          : archive_->Read(block_id, read);
  if (!bytes.ok()) {
    QuarantineChunk(chunk_idx, bytes.status());
    return bytes;
  }
  ClearQuarantine(chunk_idx);
  Metrics().archive_bytes_read->Add(*bytes);
  return bytes;
}

Status LifecycleManager::Readmit(size_t chunk_idx) {
  BlockImage image;
  StatusOr<uint64_t> read =
      ReadChunk(chunk_idx, BlockRead::Scan(ColumnSet::All(), &image));
  if (!read.ok()) return read.status();
  if (Status s = table_->ReadmitChunk(chunk_idx, image.TakeBlock()); !s.ok())
    return s;
  Metrics().reloads->Add();
  trace().Publish("lifecycle", "reload", int64_t(chunk_idx), int64_t(*read));
  return Status::Ok();
}

bool LifecycleManager::FullyDeleted(size_t chunk_idx) const {
  const uint32_t rows = table_->chunk_rows(chunk_idx);
  return rows > 0 && table_->deleted_in_chunk(chunk_idx) == rows;
}

bool LifecycleManager::ArchiveChunk(size_t idx) {
  if (archive_ == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (archived_.count(idx) != 0) return false;
  }
  // Fully-deleted chunks are never archived: their payload can never be
  // needed again (scans skip them, visibility checks only read the side
  // bitmap), so archiving would create instant garbage.
  if (FullyDeleted(idx)) return false;
  // The section keeps the block allocated while it is written; only this
  // manager's Tick evicts or tombstones it, and not meanwhile.
  Table::ReadSection section;
  const DataBlock* block = table_->frozen_block(idx);
  if (block == nullptr) return false;  // not frozen (any more) — skip
  // Extract and install the resident summary before the chunk can be
  // evicted — scanners rely on "evicted implies summary present" to prune
  // without opening the chunk. A summary installed earlier (by a manager
  // attached before this one) is reused: summaries are install-once (see
  // Table::SetBlockSummary).
  if (table_->block_summary(idx) == nullptr) {
    table_->SetBlockSummary(
        idx, std::make_unique<BlockSummary>(
                 BlockSummary::Extract(*block, cfg_.keep_summary_psma)));
  }
  // Only the block goes to the archive: the delete bitmap and the summary
  // stay in table memory across eviction, the bitmap mutable.
  StatusOr<size_t> id = archive_->AppendBlock(*block, uint32_t(idx));
  if (!id.ok()) {
    // The append left the archive file truncated back to its previous end
    // (see BlockArchive::AppendBlock), so prior entries stay readable. The
    // chunk simply stays unarchived — and thus un-evictable.
    NoteWriteFailure(id.status());
    return false;
  }
  NoteWriteSuccess();
  std::lock_guard<std::mutex> lock(mu_);
  archived_[idx] = Archived{*id, block->SizeBytes()};
  return true;
}

uint64_t LifecycleManager::ResidentBytesLocked() const {
  uint64_t total = 0;
  for (const auto& [chunk, a] : archived_)
    if (table_->chunk_state(chunk) == ChunkState::kFrozen) total += a.bytes;
  return total;
}

size_t LifecycleManager::PickVictimLocked() const {
  size_t victim = SIZE_MAX;
  uint64_t oldest = UINT64_MAX;
  for (const auto& [chunk, a] : archived_) {
    if (table_->chunk_state(chunk) != ChunkState::kFrozen) continue;
    const uint64_t stamp = table_->chunk_last_access(chunk);
    // Tie-break on chunk index for determinism.
    if (stamp < oldest || (stamp == oldest && chunk < victim)) {
      oldest = stamp;
      victim = chunk;
    }
  }
  return victim;
}

void LifecycleManager::EnforceBudget() {
  const uint64_t budget = cfg_.memory_budget_bytes;
  if (degraded_.load(std::memory_order_relaxed)) {
    // No-evict degraded mode: archive writes keep failing, so evicting a
    // block whose archive copy cannot be trusted risks losing it. The
    // budget is soft-violated instead — loudly, so operators see it.
    uint64_t over = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t bytes = ResidentBytesLocked();
      if (bytes > budget) over = bytes - budget;
    }
    if (over > 0)
      trace().Publish("lifecycle", "budget_overrun", int64_t(over));
    return;
  }
  for (;;) {
    size_t victim = SIZE_MAX;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (ResidentBytesLocked() <= budget) return;
      victim = PickVictimLocked();
    }
    if (victim == SIZE_MAX) return;
    // A resident victim always evicts (open scans only delay it), unless a
    // caller outside this manager changed its state meanwhile: then the
    // next tick tries again.
    if (!table_->EvictChunk(victim)) return;
    Metrics().evictions->Add();
    trace().Publish("lifecycle", "evict", int64_t(victim));
  }
}

void LifecycleManager::DetachFullyDeletedLocked() {
  // Snapshot outside mu_ (TombstoneChunk takes the table's lifecycle
  // mutex, which must never nest inside mu_).
  std::vector<size_t> chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    chunks.reserve(archived_.size());
    for (const auto& [chunk, a] : archived_) chunks.push_back(chunk);
  }
  for (size_t chunk : chunks) {
    if (!FullyDeleted(chunk)) continue;
    // Tombstone-before-release: the transition drops the resident payload
    // (if any) and returns only after every read section that could still
    // read the archive copy has closed, so the copy can be freed without
    // reading it back first. A chunk that is no longer frozen or evicted
    // fails the transition and stays attached.
    if (!table_->TombstoneChunk(chunk)) continue;
    Metrics().tombstoned->Add();
    trace().Publish("lifecycle", "tombstone", int64_t(chunk));
    Archived a;
    {
      std::lock_guard<std::mutex> lock(mu_);
      a = archived_.extract(chunk).mapped();
    }
    // A failed punch costs disk space only: the block is already
    // unreadable and no live block is touched, so it does not count
    // towards degraded mode.
    if (Status s = archive_->Release(a.id); !s.ok()) {
      std::fprintf(stderr,
                   "lifecycle: releasing the archive block of chunk %zu of "
                   "table '%s' failed: %s\n",
                   chunk, table_->name().c_str(), s.ToString().c_str());
      continue;
    }
    reclaimed_blocks_.fetch_add(1, std::memory_order_relaxed);
    reclaimed_bytes_.fetch_add(a.bytes, std::memory_order_relaxed);
    Metrics().reclaimed_blocks->Add();
    trace().Publish("lifecycle", "release", int64_t(chunk), int64_t(a.bytes));
  }
}

void LifecycleManager::Tick() {
  std::lock_guard<std::mutex> tick_lock(tick_mu_);
  const uint64_t tick_start = obs::MonotonicNs();
  table_->AdvanceAccessEpoch();
  const size_t n = table_->num_chunks();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cold_epochs_.size() < n) cold_epochs_.resize(n, 0);
  }

  for (size_t i = 0; i < n; ++i) {
    ChunkState st = table_->chunk_state(i);
    if (st == ChunkState::kHot) {
      const uint32_t clock = table_->chunk_clock(i);
      const bool candidate = table_->chunk_full(i) || cfg_.freeze_partial_tail;
      uint32_t cold;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (!candidate || clock > cfg_.cold_threshold)
          cold_epochs_[i] = 0;
        else
          ++cold_epochs_[i];
        cold = cold_epochs_[i];
      }
      if (candidate && cold >= cfg_.freeze_after_cold_epochs) {
        const uint64_t freeze_start = obs::MonotonicNs();
        if (table_->FreezeChunk(i, cfg_.sort_col, cfg_.build_psma)) {
          const uint64_t freeze_ns = obs::MonotonicNs() - freeze_start;
          freezes_.fetch_add(1, std::memory_order_relaxed);
          Metrics().freezes->Add();
          Metrics().freeze_ns->Observe(freeze_ns);
          trace().Publish("lifecycle", "freeze", int64_t(i),
                          int64_t(freeze_ns));
          ArchiveChunk(i);
        }
      }
    } else if (st == ChunkState::kFrozen) {
      // A fully-deleted frozen chunk that was never archived (ArchiveChunk
      // refuses them) has no reason to stay resident either: drop the
      // payload right away instead of adopting it. (mu_ is released before
      // TombstoneChunk — Tick never calls into Table while holding mu_.)
      bool unarchived;
      {
        std::lock_guard<std::mutex> lock(mu_);
        unarchived = archived_.count(i) == 0;
      }
      if (unarchived && FullyDeleted(i) && table_->TombstoneChunk(i)) {
        Metrics().tombstoned->Add();
        trace().Publish("lifecycle", "tombstone", int64_t(i));
        continue;
      }
    }
    if (st == ChunkState::kFrozen) {
      // Adopt chunks frozen outside the policy (FreezeAll, explicit
      // FreezeChunk): archiving them makes them evictable too.
      if (ArchiveChunk(i)) {
        adopted_.fetch_add(1, std::memory_order_relaxed);
        Metrics().adopted->Add();
        trace().Publish("lifecycle", "adopt", int64_t(i));
      }
    }
    table_->DecayChunkClock(i, cfg_.decay_shift);
  }

  RetryQuarantinedLocked();
  EnforceBudget();
  DetachFullyDeletedLocked();
  const uint64_t epoch = epochs_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t tick_ns = obs::MonotonicNs() - tick_start;
  Metrics().ticks->Add();
  Metrics().tick_ns->Observe(tick_ns);
  trace().Publish("lifecycle", "tick", int64_t(epoch), int64_t(tick_ns));
}

void LifecycleManager::QuarantineChunk(size_t chunk_idx, const Status& why) {
  reload_failures_.fetch_add(1, std::memory_order_relaxed);
  Metrics().reload_failures->Add();
  uint32_t retries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = quarantine_.try_emplace(chunk_idx);
    if (inserted) Metrics().quarantined->Add(1);
    Quarantined& q = it->second;
    ++q.retries;
    retries = q.retries;
    if (q.retries >= cfg_.quarantine_max_retries) {
      // Parked: no more automatic probes. ResetQuarantine (or detach)
      // re-arms it.
      q.next_retry = std::chrono::steady_clock::time_point::max();
    } else {
      const uint32_t shift = std::min(q.retries - 1, 16u);
      q.next_retry = std::chrono::steady_clock::now() +
                     cfg_.quarantine_backoff * (uint64_t(1) << shift);
    }
  }
  trace().Publish("lifecycle", "quarantine", int64_t(chunk_idx),
                  int64_t(retries));
  std::fprintf(stderr,
               "lifecycle: quarantining chunk %zu of table '%s' "
               "(attempt %u): %s\n",
               chunk_idx, table_->name().c_str(), retries,
               why.ToString().c_str());
}

void LifecycleManager::ClearQuarantine(size_t chunk_idx) {
  bool cleared;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cleared = quarantine_.erase(chunk_idx) != 0;
  }
  if (cleared) {
    Metrics().quarantined->Add(-1);
    trace().Publish("lifecycle", "unquarantine", int64_t(chunk_idx));
  }
}

void LifecycleManager::RetryQuarantinedLocked() {
  // Snapshot the due chunks: the probe below takes mu_.
  std::vector<size_t> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [chunk, q] : quarantine_)
      if (now >= q.next_retry) due.push_back(chunk);
  }
  for (size_t chunk : due) {
    if (!table_->is_evicted(chunk)) {
      // Tombstoned behind our back — quarantine is moot.
      ClearQuarantine(chunk);
      continue;
    }
    // Probe with a spine read. Success heals (ReadChunk clears the
    // quarantine); failure re-quarantines with doubled backoff. No read
    // section is needed: tombstones and releases only happen in Tick,
    // which holds tick_mu_ for this whole pass.
    BlockImage spine;
    (void)ReadChunk(
        chunk, BlockRead::Scan(ColumnSet(std::vector<uint32_t>{}), &spine));
  }
}

void LifecycleManager::NoteWriteFailure(const Status& why) {
  write_failures_.fetch_add(1, std::memory_order_relaxed);
  Metrics().write_failures->Add();
  trace().Publish("lifecycle", "write_error");
  std::fprintf(stderr, "lifecycle: archive write failed for '%s': %s\n",
               archive_path_.c_str(), why.ToString().c_str());
  const uint32_t streak =
      append_fail_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= cfg_.degrade_after_write_failures &&
      !degraded_.exchange(true, std::memory_order_relaxed)) {
    Metrics().degraded->Add(1);
    trace().Publish("lifecycle", "degrade", int64_t(streak));
    std::fprintf(stderr,
                 "lifecycle: entering no-evict degraded mode for table '%s' "
                 "after %u consecutive archive write failures\n",
                 table_->name().c_str(), streak);
  }
}

void LifecycleManager::NoteWriteSuccess() {
  append_fail_streak_.store(0, std::memory_order_relaxed);
  if (degraded_.exchange(false, std::memory_order_relaxed)) {
    Metrics().degraded->Add(-1);
    trace().Publish("lifecycle", "recover");
    std::fprintf(stderr,
                 "lifecycle: archive writes recovered for table '%s'; "
                 "leaving degraded mode\n",
                 table_->name().c_str());
  }
}

size_t LifecycleManager::quarantined_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantine_.size();
}

void LifecycleManager::ResetQuarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the entries (and the gauge) but zero the counters and deadlines:
  // the next read retries immediately, and a success erases the entry.
  for (auto& [chunk, q] : quarantine_) q = Quarantined{};
}

void LifecycleManager::Start() {
  if (running()) return;
  // Freeze, eviction and release run as a periodic task on the worker
  // pool: no thread per managed table. Concurrent ticks are impossible
  // (the scheduler skips a firing while the previous one executes) and
  // would be harmless anyway (tick_mu_). The periodic timer needs a
  // positive period, so a zero tick_interval becomes 1 ms.
  ticker_ = cfg_.scheduler != nullptr ? cfg_.scheduler : &Scheduler::Default();
  periodic_id_ = ticker_->AddPeriodic(
      std::max(cfg_.tick_interval, std::chrono::milliseconds(1)),
      [this] { Tick(); });
}

void LifecycleManager::Stop() {
  if (!running()) return;
  // Blocks until any in-flight tick finished; afterwards no tick can ever
  // run again, so destruction is safe.
  ticker_->RemovePeriodic(periodic_id_);
  periodic_id_ = 0;
}

LifecycleStats LifecycleManager::stats() const {
  LifecycleStats s;
  s.epochs = epochs_.load(std::memory_order_relaxed);
  s.freezes = freezes_.load(std::memory_order_relaxed);
  s.adopted = adopted_.load(std::memory_order_relaxed);
  s.evictions = table_->evictions();
  s.reloads = table_->reloads();
  s.reclaimed_blocks = reclaimed_blocks_.load(std::memory_order_relaxed);
  s.reclaimed_bytes = reclaimed_bytes_.load(std::memory_order_relaxed);
  s.tombstoned = table_->tombstones();
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  s.retry_attempts = retry_attempts_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  for (size_t c = 0; c < table_->num_chunks(); ++c) {
    if (const BlockSummary* sum = table_->block_summary(c))
      s.summary_bytes += sum->MemoryBytes();
  }
  if (archive_ != nullptr) {
    s.archive_bytes = archive_->PayloadBytes() - s.reclaimed_bytes;
    s.archive_reads = archive_->payload_reads();
    s.archive_bytes_read = archive_->payload_bytes_read();
    s.archive_pages_read = archive_->payload_pages_read();
  }
  std::lock_guard<std::mutex> lock(mu_);
  s.quarantined = quarantine_.size();
  s.archived_blocks = archived_.size();
  s.resident_bytes = ResidentBytesLocked();
  return s;
}

}  // namespace datablocks
