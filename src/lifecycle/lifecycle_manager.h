#ifndef DATABLOCKS_LIFECYCLE_LIFECYCLE_MANAGER_H_
#define DATABLOCKS_LIFECYCLE_LIFECYCLE_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/block_archive.h"
#include "storage/table.h"

namespace datablocks {

class Scheduler;
namespace obs {
class TraceRing;
}

/// Policy knobs of the block lifecycle (see README "Block lifecycle").
struct LifecycleConfig {
  // -- Freeze policy (hot -> frozen) --------------------------------------
  /// A chunk whose per-epoch access clock is <= this for two consecutive
  /// epochs counts as cold and is frozen (unsorted, with PSMAs).
  uint32_t cold_threshold = 0;
  /// Clocks are decayed by `clock >>= decay_shift` every epoch.
  uint32_t decay_shift = 1;
  /// Also freeze a cooled-down partially-filled tail chunk. Off by default:
  /// the tail is normally still receiving inserts.
  bool freeze_partial_tail = false;

  // -- Eviction policy (frozen -> evicted) --------------------------------
  /// Budget for the resident frozen-block bytes of all managed tables
  /// together; the coldest blocks of any of them are evicted to the archive
  /// until the residency fits. Hot chunks are outside it. UINT64_MAX =
  /// never evict.
  uint64_t memory_budget_bytes = UINT64_MAX;

  // -- Fault tolerance ------------------------------------------------------
  /// A chunk whose archive read failed is quarantined: reads fail fast
  /// with kUnavailable while the backoff runs, then the lifecycle tick
  /// probes a retry. The backoff doubles per consecutive failure, starting
  /// here.
  std::chrono::milliseconds quarantine_backoff{100};
  /// After this many consecutive read failures the chunk stays
  /// quarantined indefinitely (no more automatic probes; a successful
  /// scan or point read after ResetQuarantine still heals it).
  uint32_t quarantine_max_retries = 5;
  /// Consecutive archive append failures (disk full, I/O errors) before
  /// the manager flips into no-evict degraded mode: the memory budget is
  /// soft-violated — loudly metered via the lifecycle.degraded gauge and
  /// budget_overrun trace events — instead of evicting blocks whose
  /// archive copy cannot be trusted. A later successful append heals it.
  uint32_t degrade_after_write_failures = 3;

  // -- Background ticks -----------------------------------------------------
  /// Period of the ticks Start() schedules; rounded up to 1 ms.
  std::chrono::milliseconds tick_interval{50};
  /// Pool the ticks run on as a periodic task; nullptr =
  /// Scheduler::Default(). A manager costs no thread of its own. The
  /// pool must outlive the manager (or at least its Stop()).
  Scheduler* scheduler = nullptr;

  // -- Observability --------------------------------------------------------
  /// Ring the manager publishes lifecycle events into (freeze, evict,
  /// archive reads, tombstone, release, tick durations). nullptr =
  /// the process-wide obs::TraceRing::Default(); tests inject private rings.
  obs::TraceRing* trace = nullptr;
};

struct LifecycleStats {
  uint64_t epochs = 0;           // completed ticks
  uint64_t freezes = 0;          // chunks auto-frozen by the policy
  uint64_t adopted = 0;          // manually-frozen chunks archived for eviction
  uint64_t evictions = 0;        // blocks dropped from memory
  /// Always 0: nothing installs an evicted block any more. Kept only
  /// because the end-to-end benchmark still reports it as
  /// lifecycle.reloads_per_op; it goes with that benchmark's next change
  /// (ROADMAP item 7).
  uint64_t reloads = 0;
  uint64_t archived_blocks = 0;  // live blocks in the archive
  uint64_t archive_bytes = 0;    // live archive payload (released excluded)
  uint64_t resident_bytes = 0;   // resident bytes of archived blocks
  uint64_t archive_reads = 0;    // payload reads: scans, points, probes
  uint64_t archive_bytes_read = 0;  // payload bytes those reads fetched
  uint64_t archive_pages_read = 0;  // extent pages those reads fetched
  uint64_t summary_bytes = 0;    // resident BlockSummary footprint
  uint64_t reclaimed_blocks = 0; // dead blocks released from the archive
  uint64_t reclaimed_bytes = 0;  // payload bytes of those blocks
  uint64_t tombstoned = 0;       // fully-deleted chunks whose payload dropped
  // -- Fault tolerance ----------------------------------------------------
  uint64_t quarantined = 0;      // chunks currently quarantined
  uint64_t reload_failures = 0;  // failed archive reads (incl. retries)
  uint64_t retry_attempts = 0;   // quarantine retries attempted
  uint64_t write_failures = 0;   // failed archive appends
  bool degraded = false;         // no-evict degraded mode active
};

/// The block lifecycle subsystem: per-chunk temperature statistics drive
/// automatic freezing of cooled-down hot chunks into Data Blocks, and a
/// memory budget evicts the least recently used frozen blocks to a
/// BlockArchive. Reads never install an evicted block: a scan
/// reads just its columns from the archive into its own image, a point
/// read the spine and the pages that hold its row into its thread's point
/// image, and the chunk stays evicted. No code installs a block again:
/// chunk states only move forward (see ChunkState).
///
/// One manager owns the lifecycle of a set of tables, typically all the
/// managed tables of one database:
///
///   hot --(cold for N epochs)--> frozen --(over budget, LRU)--> evicted
///
/// The tables share one archive file, one memory budget over their frozen
/// bytes and one LRU: a victim is the block whose chunk went the most
/// epochs without an access (Table::access_epoch() minus
/// Table::chunk_last_access()), ties broken by table order, then chunk
/// index. Each tick advances every table's epoch once.
///
/// Blocks are archived once, at freeze time (they are immutable; the
/// chunk's delete bitmap, which every state shares, stays in memory), so
/// eviction itself is just dropping the resident copy. At archive time the
/// block's BlockSummary (SMA min/max, dictionary domain, PSMA) is extracted
/// and installed in the table — it stays resident across eviction, so
/// SMA-pruned scans skip evicted blocks without any archive read. Ticks run
/// from a caller thread (Tick()) or, between Start() and Stop(), as a
/// periodic task on a worker pool (config.scheduler, default
/// Scheduler::Default()); both may be active concurrently with OLTP point
/// accesses and OLAP scans on the tables.
///
/// Every tick tombstones the archived chunks that became fully deleted
/// (Table::TombstoneChunk, which waits out the reads of the chunk) and then
/// releases their archive blocks in place (BlockArchive::Release): the
/// disk space comes back at once, and no live block moves.
///
/// The archive is a spill file, not a snapshot: it is created truncated at
/// `archive_path`, holds block payloads only (catalog and checksums stay in
/// memory), is read only by this manager and is never reopened. Nothing
/// survives the process: the engine keeps no snapshot of a table, and
/// recovering one would also need a log of the hot chunks, which this
/// engine does not keep.
///
/// The tables depend on their manager for their evicted chunks for life.
/// Its destructor stops the ticks, unhooks the tables' block fetchers and
/// deletes the archive file, reading nothing: evicted chunks stay evicted,
/// and a later read of one throws StorageException (kUnavailable), as a
/// read of a tombstone does. Hot, frozen and tombstoned chunks and the
/// delete bitmaps are untouched.
class LifecycleManager {
 public:
  /// Manages `tables` (distinct, each managed by no other manager); their
  /// order breaks eviction ties.
  LifecycleManager(std::vector<Table*> tables, std::string archive_path,
                   LifecycleConfig config = {});
  LifecycleManager(Table* table, std::string archive_path,
                   LifecycleConfig config = {})
      : LifecycleManager(std::vector<Table*>{table}, std::move(archive_path),
                         config) {}
  ~LifecycleManager();

  LifecycleManager(const LifecycleManager&) = delete;
  LifecycleManager& operator=(const LifecycleManager&) = delete;

  /// One policy epoch over every table: decay clocks, freeze cooled-down
  /// chunks (archiving them), adopt manually-frozen chunks, probe
  /// quarantined chunks, enforce the memory budget, and tombstone
  /// fully-deleted archived chunks, releasing their archive blocks.
  /// Thread-safe; concurrent ticks are serialized.
  void Tick();

  /// Runs Tick every config.tick_interval (rounded up to 1 ms) as a
  /// periodic task on config.scheduler, or on Scheduler::Default() when
  /// that is null: the ticks execute on the pool's workers. Stop() returns
  /// after any in-flight tick finished; no tick runs after it.
  void Start();
  void Stop();
  bool running() const { return periodic_id_ != 0; }

  /// Counters summed over the managed tables.
  LifecycleStats stats() const;
  const LifecycleConfig& config() const { return cfg_; }

  /// True while the manager refuses to evict because archive writes keep
  /// failing (or the archive could not be created at all).
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  /// Chunks currently quarantined after failed archive reads.
  size_t quarantined_chunks() const;
  /// Clears all quarantine state (retry counters and backoff deadlines):
  /// the next read of each chunk goes to the archive immediately. The
  /// operator hook for "the disk is fixed, try again now".
  void ResetQuarantine();
  /// The archive, created with the manager and never replaced; nullptr if
  /// it could not be created.
  const BlockArchive* archive() const { return archive_.get(); }

 private:
  struct Archived {
    size_t id;       // archive block id
    uint64_t bytes;  // block size (blocks are immutable)
  };
  struct Quarantined {
    uint32_t retries = 0;  // consecutive failed reads
    std::chrono::steady_clock::time_point next_retry{};
  };
  /// One managed table and its chunks' policy state. The maps are guarded
  /// by mu_; only Tick touches cold_epochs.
  struct Managed {
    Table* table;
    std::unordered_map<size_t, Archived> archived;  // chunk -> its block
    std::vector<uint32_t> cold_epochs;  // consecutive cold epochs per chunk
    std::unordered_map<size_t, Quarantined> quarantine;
  };

  /// Runs the per-chunk freeze/adopt/decay pass over `m`; requires tick_mu_.
  void TickTable(Managed& m);
  /// Archives chunk `idx` of `m` if not archived yet; extracts and
  /// installs its summary. Returns true if newly archived.
  bool ArchiveChunk(Managed& m, size_t idx);
  void EnforceBudget();
  /// Bytes of archived blocks whose chunk is resident; requires mu_.
  /// Residency is read from the chunk states, never mirrored: only this
  /// manager evicts a block (in a tick), and nothing installs one.
  uint64_t ResidentBytesLocked() const;
  /// The resident archived chunk with the most epochs since its last
  /// access, first in table then chunk order among equals ({nullptr, 0}
  /// if none); requires mu_.
  std::pair<Managed*, size_t> PickVictimLocked();
  /// Performs `read` of evicted chunk `chunk_idx` of `m` from the archive
  /// — a scan's columns or a point read's pages: the one read path
  /// (quarantine backoff, the lifecycle.reload failpoint, checksums,
  /// Validate or the row check). A failure quarantines the chunk, a
  /// success heals it. Returns the bytes read.
  StatusOr<uint64_t> ReadChunk(Managed& m, size_t chunk_idx,
                               const BlockRead& read);
  /// Tombstones the fully-deleted frozen and evicted chunks of `m`
  /// (Table::TombstoneChunk), then releases the archive blocks of those
  /// that had one: the in-memory payload and the disk copy both go — no
  /// read, no residual RAM cost. The transition waits for open reads of
  /// the chunk first. Requires tick_mu_.
  void DetachFullyDeletedLocked(Managed& m);
  obs::TraceRing& trace() const;
  /// Records a failed read of the chunk: enters/extends quarantine with
  /// doubled backoff, parks the chunk after quarantine_max_retries.
  void QuarantineChunk(Managed& m, size_t chunk_idx, const Status& why);
  /// Drops the chunk from quarantine (successful read / tombstoned).
  void ClearQuarantine(Managed& m, size_t chunk_idx);
  /// Probes quarantined chunks whose backoff expired with a spine read;
  /// runs from Tick (requires tick_mu_).
  void RetryQuarantinedLocked(Managed& m);
  /// Failed archive write: bumps the failure streak and degrades past the
  /// configured threshold. A successful write (NoteWriteSuccess) heals.
  void NoteWriteFailure(const Status& why);
  void NoteWriteSuccess();

  LifecycleConfig cfg_;
  std::string archive_path_;

  /// Guards the policy state of tables_. Tick never starts a Table state
  /// change (freeze, evict, tombstone) while holding mu_.
  mutable std::mutex mu_;
  std::mutex tick_mu_;  // serializes Tick
  std::unique_ptr<BlockArchive> archive_;  // set once, in the constructor
  std::vector<Managed> tables_;  // fixed at construction

  std::atomic<uint64_t> epochs_{0};
  std::atomic<uint64_t> freezes_{0};
  std::atomic<uint64_t> adopted_{0};
  std::atomic<uint64_t> reclaimed_blocks_{0};
  std::atomic<uint64_t> reclaimed_bytes_{0};
  std::atomic<uint64_t> reload_failures_{0};
  std::atomic<uint64_t> retry_attempts_{0};
  std::atomic<uint64_t> write_failures_{0};
  std::atomic<uint32_t> append_fail_streak_{0};
  std::atomic<bool> degraded_{false};

  Scheduler* ticker_ = nullptr;  // pool the periodic ticks run on
  uint64_t periodic_id_ = 0;     // nonzero between Start() and Stop()
};

}  // namespace datablocks

#endif  // DATABLOCKS_LIFECYCLE_LIFECYCLE_MANAGER_H_
