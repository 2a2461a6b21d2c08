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

bool FullyDeleted(const Table& t, size_t chunk_idx) {
  const uint32_t rows = t.chunk_rows(chunk_idx);
  return rows > 0 && t.deleted_in_chunk(chunk_idx) == rows;
}

/// A hot chunk freezes after this many consecutive cold epochs. It freezes
/// with Table::FreezeChunk's defaults, unsorted (indexes point into the
/// tables) and with PSMAs, and its resident summary keeps the PSMAs.
constexpr uint32_t kFreezeAfterColdEpochs = 2;

}  // namespace

obs::TraceRing& LifecycleManager::trace() const {
  return cfg_.trace != nullptr ? *cfg_.trace : obs::TraceRing::Default();
}

LifecycleManager::LifecycleManager(std::vector<Table*> tables,
                                   std::string archive_path,
                                   LifecycleConfig config)
    : cfg_(config), archive_path_(std::move(archive_path)) {
  // Archive creation can fail (bad path, disk full). A manager without an
  // archive is born degraded: it never evicts (nothing could be read back),
  // but the tables keep working fully resident.
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
  tables_.reserve(tables.size());
  for (Table* t : tables) {
    DB_CHECK(t != nullptr);
    tables_.push_back(Managed{t, {}, {}, {}});
  }
  // Each table's read path for evicted chunks: one archive read into the
  // reader's image, for scans and point reads alike. It must not call
  // back into Table — ReadChunk only touches the manager's own state (mu_)
  // and the archive. tables_ never changes again, so the fetcher may hold
  // its table's entry: chunk 3 of one table never reads another's block.
  for (Managed& m : tables_) {
    m.table->SetBlockFetcher(
        [this, &m](size_t chunk_idx, const BlockRead& read) -> Status {
          StatusOr<uint64_t> bytes = ReadChunk(m, chunk_idx, read);
          if (!bytes.ok()) return bytes.status();
          const bool point = read.row.has_value();
          if (point) Metrics().point_reads->Add();
          trace().Publish("lifecycle", point ? "point_read" : "scan_read",
                          int64_t(chunk_idx), int64_t(*bytes));
          return Status::Ok();
        });
  }
}

LifecycleManager::~LifecycleManager() {
  Stop();
  // Detach without reading anything: evicted chunks stay evicted, and a
  // later read of one throws (see the class comment). A read that copied
  // a fetcher runs inside a read section, so once those close none can
  // reach this manager or its archive any more.
  for (Managed& m : tables_) m.table->SetBlockFetcher(nullptr);
  Table::Synchronize();
  const size_t quarantined = quarantined_chunks();
  if (quarantined != 0) Metrics().quarantined->Add(-int64_t(quarantined));
  if (degraded_.load(std::memory_order_relaxed)) Metrics().degraded->Add(-1);
  // The archive is scratch (see the class comment): nothing reopens it, and
  // the next manager on this path truncates it anyway.
  if (archive_ != nullptr) std::remove(archive_path_.c_str());
}

StatusOr<uint64_t> LifecycleManager::ReadChunk(Managed& m, size_t chunk_idx,
                                               const BlockRead& read) {
  size_t block_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto q = m.quarantine.find(chunk_idx);
    if (q != m.quarantine.end()) {
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
    auto it = m.archived.find(chunk_idx);
    if (it == m.archived.end()) {
      return Status::NotFound("chunk " + std::to_string(chunk_idx) +
                              " is evicted but has no archive entry");
    }
    block_id = it->second.id;  // archived, so archive_ exists
  }
  StatusOr<uint64_t> bytes =
      DB_FAILPOINT("lifecycle.reload")
          ? StatusOr<uint64_t>(Status::IoError(
                "injected reload failure (failpoint lifecycle.reload)"))
          : archive_->Read(block_id, read);
  if (!bytes.ok()) {
    QuarantineChunk(m, chunk_idx, bytes.status());
    return bytes;
  }
  ClearQuarantine(m, chunk_idx);
  Metrics().archive_bytes_read->Add(*bytes);
  return bytes;
}

bool LifecycleManager::ArchiveChunk(Managed& m, size_t idx) {
  if (archive_ == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (m.archived.count(idx) != 0) return false;
  }
  // Fully-deleted chunks are never archived: their payload can never be
  // needed again (scans skip them, visibility checks only read the side
  // bitmap), so archiving would create instant garbage.
  if (FullyDeleted(*m.table, idx)) return false;
  // The section keeps the block allocated while it is written; only this
  // manager's Tick evicts or tombstones it, and not meanwhile.
  Table::ReadSection section;
  const DataBlock* block = m.table->frozen_block(idx);
  if (block == nullptr) return false;  // not frozen (any more) — skip
  // Extract and install the resident summary before the chunk can be
  // evicted — scanners rely on "evicted implies summary present" to prune
  // without opening the chunk. A summary installed earlier (by a manager
  // attached before this one) is reused: summaries are install-once (see
  // Table::SetBlockSummary).
  if (m.table->block_summary(idx) == nullptr) {
    m.table->SetBlockSummary(
        idx, std::make_unique<BlockSummary>(BlockSummary::Extract(*block)));
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
  m.archived[idx] = Archived{*id, block->SizeBytes()};
  return true;
}

uint64_t LifecycleManager::ResidentBytesLocked() const {
  uint64_t total = 0;
  for (const Managed& m : tables_) {
    for (const auto& [chunk, a] : m.archived)
      if (m.table->chunk_state(chunk) == ChunkState::kFrozen) total += a.bytes;
  }
  return total;
}

std::pair<LifecycleManager::Managed*, size_t>
LifecycleManager::PickVictimLocked() {
  std::pair<Managed*, size_t> victim{nullptr, 0};
  uint32_t oldest = 0;
  for (Managed& m : tables_) {
    const uint32_t epoch = m.table->access_epoch();
    for (const auto& [chunk, a] : m.archived) {
      if (m.table->chunk_state(chunk) != ChunkState::kFrozen) continue;
      const uint32_t age = epoch - m.table->chunk_last_access(chunk);
      // Ties go to the earlier table, then the lower chunk: determinism.
      if (victim.first == nullptr || age > oldest ||
          (age == oldest && victim.first == &m && chunk < victim.second)) {
        oldest = age;
        victim = {&m, chunk};
      }
    }
  }
  return victim;
}

void LifecycleManager::EnforceBudget() {
  const uint64_t budget = cfg_.memory_budget_bytes;
  for (;;) {
    std::pair<Managed*, size_t> victim;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t bytes = ResidentBytesLocked();
      if (bytes <= budget) return;
      if (degraded_.load(std::memory_order_relaxed)) {
        // No-evict degraded mode: archive writes keep failing, so evicting
        // a block whose archive copy cannot be trusted risks losing it.
        // The budget is soft-violated instead — loudly, so operators see
        // it.
        trace().Publish("lifecycle", "budget_overrun", int64_t(bytes - budget));
        return;
      }
      victim = PickVictimLocked();
    }
    if (victim.first == nullptr) return;
    // A resident victim always evicts (open scans only delay it), unless a
    // caller outside this manager changed its state meanwhile: then the
    // next tick tries again.
    if (!victim.first->table->EvictChunk(victim.second)) return;
    Metrics().evictions->Add();
    trace().Publish("lifecycle", "evict", int64_t(victim.second));
  }
}

void LifecycleManager::DetachFullyDeletedLocked(Managed& m) {
  Table& t = *m.table;
  for (size_t chunk = 0; chunk < t.num_chunks(); ++chunk) {
    const ChunkState st = t.chunk_state(chunk);
    if (st != ChunkState::kFrozen && st != ChunkState::kEvicted) continue;
    // Tombstone-before-release: the transition drops the resident payload
    // (if any) and returns only after every read section that could still
    // read the archive copy has closed, so the copy can be freed without
    // reading it back first. (mu_ is not held: TombstoneChunk takes the
    // table's lifecycle mutex, which must never nest inside mu_.)
    if (!FullyDeleted(t, chunk) || !t.TombstoneChunk(chunk)) continue;
    Metrics().tombstoned->Add();
    trace().Publish("lifecycle", "tombstone", int64_t(chunk));
    Archived a;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto node = m.archived.extract(chunk);
      if (node.empty()) continue;  // never archived: nothing to release
      a = node.mapped();
    }
    // A failed punch costs disk space only: the block is already
    // unreadable and no live block is touched, so it does not count
    // towards degraded mode.
    if (Status s = archive_->Release(a.id); !s.ok()) {
      std::fprintf(stderr,
                   "lifecycle: releasing the archive block of chunk %zu of "
                   "table '%s' failed: %s\n",
                   chunk, t.name().c_str(), s.ToString().c_str());
      continue;
    }
    reclaimed_blocks_.fetch_add(1, std::memory_order_relaxed);
    reclaimed_bytes_.fetch_add(a.bytes, std::memory_order_relaxed);
    Metrics().reclaimed_blocks->Add();
    trace().Publish("lifecycle", "release", int64_t(chunk), int64_t(a.bytes));
  }
}

void LifecycleManager::TickTable(Managed& m) {
  Table& t = *m.table;
  const size_t n = t.num_chunks();
  if (m.cold_epochs.size() < n) m.cold_epochs.resize(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const ChunkState st = t.chunk_state(i);
    if (st == ChunkState::kHot) {
      const bool candidate = t.chunk_full(i) || cfg_.freeze_partial_tail;
      uint32_t& cold = m.cold_epochs[i];
      cold = candidate && t.chunk_clock(i) <= cfg_.cold_threshold ? cold + 1
                                                                 : 0;
      if (cold >= kFreezeAfterColdEpochs) {
        const uint64_t freeze_start = obs::MonotonicNs();
        if (t.FreezeChunk(i)) {
          const uint64_t freeze_ns = obs::MonotonicNs() - freeze_start;
          freezes_.fetch_add(1, std::memory_order_relaxed);
          Metrics().freezes->Add();
          Metrics().freeze_ns->Observe(freeze_ns);
          trace().Publish("lifecycle", "freeze", int64_t(i),
                          int64_t(freeze_ns));
          ArchiveChunk(m, i);
        }
      }
    } else if (st == ChunkState::kFrozen && ArchiveChunk(m, i)) {
      // Adopted a chunk frozen outside the policy (FreezeAll, explicit
      // FreezeChunk): archiving it makes it evictable too. A fully-deleted
      // one is not archived but tombstoned (DetachFullyDeletedLocked).
      adopted_.fetch_add(1, std::memory_order_relaxed);
      Metrics().adopted->Add();
      trace().Publish("lifecycle", "adopt", int64_t(i));
    }
    t.DecayChunkClock(i, cfg_.decay_shift);
  }
}

void LifecycleManager::Tick() {
  std::lock_guard<std::mutex> tick_lock(tick_mu_);
  const uint64_t tick_start = obs::MonotonicNs();
  // Every table's epoch advances before any chunk is looked at, so ages
  // compare across tables.
  for (Managed& m : tables_) m.table->AdvanceAccessEpoch();
  for (Managed& m : tables_) TickTable(m);
  for (Managed& m : tables_) RetryQuarantinedLocked(m);
  EnforceBudget();
  for (Managed& m : tables_) DetachFullyDeletedLocked(m);
  const uint64_t epoch = epochs_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t tick_ns = obs::MonotonicNs() - tick_start;
  Metrics().ticks->Add();
  Metrics().tick_ns->Observe(tick_ns);
  trace().Publish("lifecycle", "tick", int64_t(epoch), int64_t(tick_ns));
}

void LifecycleManager::QuarantineChunk(Managed& m, size_t chunk_idx,
                                       const Status& why) {
  reload_failures_.fetch_add(1, std::memory_order_relaxed);
  Metrics().reload_failures->Add();
  uint32_t retries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = m.quarantine.try_emplace(chunk_idx);
    if (inserted) Metrics().quarantined->Add(1);
    Quarantined& q = it->second;
    ++q.retries;
    retries = q.retries;
    if (q.retries >= cfg_.quarantine_max_retries) {
      // Parked: no more automatic probes. ResetQuarantine re-arms it.
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
               chunk_idx, m.table->name().c_str(), retries,
               why.ToString().c_str());
}

void LifecycleManager::ClearQuarantine(Managed& m, size_t chunk_idx) {
  bool cleared;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cleared = m.quarantine.erase(chunk_idx) != 0;
  }
  if (cleared) {
    Metrics().quarantined->Add(-1);
    trace().Publish("lifecycle", "unquarantine", int64_t(chunk_idx));
  }
}

void LifecycleManager::RetryQuarantinedLocked(Managed& m) {
  // Snapshot the due chunks: the probe below takes mu_.
  std::vector<size_t> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [chunk, q] : m.quarantine)
      if (now >= q.next_retry) due.push_back(chunk);
  }
  for (size_t chunk : due) {
    if (!m.table->is_evicted(chunk)) {
      // Tombstoned behind our back — quarantine is moot.
      ClearQuarantine(m, chunk);
      continue;
    }
    // Probe with a spine read. Success heals (ReadChunk clears the
    // quarantine); failure re-quarantines with doubled backoff. No read
    // section is needed: tombstones and releases only happen in Tick,
    // which holds tick_mu_ for this whole pass.
    BlockImage spine;
    (void)ReadChunk(
        m, chunk,
        BlockRead::Scan(ColumnSet(std::vector<uint32_t>{}), &spine));
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
                 "lifecycle: entering no-evict degraded mode for '%s' "
                 "after %u consecutive archive write failures\n",
                 archive_path_.c_str(), streak);
  }
}

void LifecycleManager::NoteWriteSuccess() {
  append_fail_streak_.store(0, std::memory_order_relaxed);
  if (degraded_.exchange(false, std::memory_order_relaxed)) {
    Metrics().degraded->Add(-1);
    trace().Publish("lifecycle", "recover");
    std::fprintf(stderr,
                 "lifecycle: archive writes recovered for '%s'; "
                 "leaving degraded mode\n",
                 archive_path_.c_str());
  }
}

size_t LifecycleManager::quarantined_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Managed& m : tables_) n += m.quarantine.size();
  return n;
}

void LifecycleManager::ResetQuarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  // Keep the entries (and the gauge) but zero the counters and deadlines:
  // the next read retries immediately, and a success erases the entry.
  for (Managed& m : tables_)
    for (auto& [chunk, q] : m.quarantine) q = Quarantined{};
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
  s.reclaimed_blocks = reclaimed_blocks_.load(std::memory_order_relaxed);
  s.reclaimed_bytes = reclaimed_bytes_.load(std::memory_order_relaxed);
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  s.retry_attempts = retry_attempts_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  for (const Managed& m : tables_) {
    s.evictions += m.table->evictions();
    s.tombstoned += m.table->tombstones();
    for (size_t c = 0; c < m.table->num_chunks(); ++c) {
      if (const BlockSummary* sum = m.table->block_summary(c))
        s.summary_bytes += sum->MemoryBytes();
    }
  }
  if (archive_ != nullptr) {
    s.archive_bytes = archive_->PayloadBytes() - s.reclaimed_bytes;
    s.archive_reads = archive_->payload_reads();
    s.archive_bytes_read = archive_->payload_bytes_read();
    s.archive_pages_read = archive_->payload_pages_read();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Managed& m : tables_) {
    s.quarantined += m.quarantine.size();
    s.archived_blocks += m.archived.size();
  }
  s.resident_bytes = ResidentBytesLocked();
  return s;
}

}  // namespace datablocks
