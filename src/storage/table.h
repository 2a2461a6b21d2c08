#ifndef DATABLOCKS_STORAGE_TABLE_H_
#define DATABLOCKS_STORAGE_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "datablock/block_summary.h"
#include "datablock/data_block.h"
#include "storage/cell.h"
#include "storage/chunk.h"
#include "storage/types.h"
#include "storage/value.h"
#include "util/status.h"

namespace datablocks {

/// Stable row identifier: chunk index in the upper bits, row-in-chunk in the
/// lower 24 bits. Row ids survive freezing (freezing preserves positions
/// unless an explicit sort criterion is given).
using RowId = uint64_t;

inline constexpr uint32_t kRowIdxBits = 24;

inline RowId MakeRowId(uint64_t chunk, uint32_t row) {
  return (chunk << kRowIdxBits) | row;
}
inline uint64_t RowIdChunk(RowId id) { return id >> kRowIdxBits; }
inline uint32_t RowIdRow(RowId id) {
  return uint32_t(id) & ((1u << kRowIdxBits) - 1);
}

/// Lifecycle state of one chunk slot (paper Figure 1, extended with archival
/// eviction: "Data Blocks are also suitable for eviction to secondary
/// storage").
///
///   kHot       uncompressed, mutable Chunk in memory
///   kFreezing  transient: a freezer is compressing the chunk. Reads and
///              scans still read the intact hot chunk, writes relocate and
///              Insert starts a new tail
///   kFrozen    immutable compressed DataBlock resident in memory
///   kEvicted   the block lives only in the archive; the delete bitmap and
///              row count stay in memory. Nothing installs it again: a
///              scan reads its columns into its own image, a point read the
///              accessed column into the thread's point image, and the
///              chunk stays evicted. Once its lifecycle manager detaches,
///              a read of it throws (kUnavailable)
///   kTombstone terminal: every row of the chunk was deleted and its
///              payload (resident block and archive copy alike) has been
///              dropped for good. Only the delete bitmap and row count
///              remain; scans skip the chunk in every mode and visibility
///              checks answer from the bitmap.
///
/// A chunk's state only moves forward, in declaration order (enforced):
/// toward colder storage, never back. Not every state is visited — a
/// frozen chunk may become a tombstone without being evicted, and
/// AppendFrozen starts a chunk frozen.
///
/// Deleted rows are flagged outside the chunk's payload, in one delete
/// bitmap per chunk slot that every state shares: it is sized when the slot
/// is created, never reallocated, and only a sorted freeze rewrites it.
enum class ChunkState : uint8_t {
  kHot,
  kFreezing,
  kFrozen,
  kEvicted,
  kTombstone,
};

/// One read of an evicted chunk's block into `image` (BlockArchive::Read):
/// a scan fetches the whole extents of `columns`, a point read (`row` set)
/// the pages that hold that row of `columns`. The image keeps what it
/// holds, so a read fetches only what it lacks.
struct BlockRead {
  static BlockRead Scan(const ColumnSet& columns, BlockImage* image) {
    return BlockRead{columns, std::nullopt, image};
  }
  static BlockRead Point(uint32_t col, uint32_t row, BlockImage* image) {
    return BlockRead{ColumnSet({col}), row, image};
  }

  ColumnSet columns;
  std::optional<uint32_t> row;  // set: a point read of this row
  BlockImage* image;
};

const char* ChunkStateName(ChunkState s);

/// True while a chunk's rows live in its hot chunk: kHot, and kFreezing,
/// whose hot chunk stays intact until the freezer installs the block.
inline bool IsHotState(ChunkState s) {
  return s == ChunkState::kHot || s == ChunkState::kFreezing;
}

/// A relation: a sequence of fixed-size chunks, each either hot
/// (uncompressed, mutable) or frozen into an immutable compressed DataBlock
/// (paper Figure 1). Writes take Cells (storage/cell.h), which borrow
/// their strings. A row changes only through Insert, Delete and UpdateRow,
/// which updates a hot row in place and turns the update of any other into
/// a delete plus an insert into the hot tail (Section 3). How each chunk
/// state is written, and that an evicted chunk keeps its block's summary,
/// is decided here alone.
///
/// Concurrency contract: point accesses, scans, Delete, FreezeChunk,
/// EvictChunk, TombstoneChunk and lifecycle ticks (a caller's Tick() or the
/// periodic task on a worker pool) may run concurrently with each other and
/// with a single writer (Insert and UpdateRow). One exception stands until
/// scans carry snapshots (ROADMAP item 1, step 2): UpdateRow of a hot row
/// writes its cells in place, so it must not run beside scans of its chunk.
/// Readers take no per-chunk lock or count: a point access runs inside a
/// read section (ReadSection), and so does a scan of one chunk
/// (OpenForScan). A delete sets its bit with one atomic fetch_or in any
/// state, and visibility checks and scans read the bitmap word by word,
/// so a delete racing a scan is seen by it or not, never torn. A state
/// changer publishes the new state and compresses a hot chunk or frees a
/// resident block only after Synchronize() has waited out every section
/// that could still read it.
/// Chunk slots live in a segmented directory with stable addresses —
/// structural growth never reallocates existing slots, and num_chunks() is
/// published only after the new slot is fully initialized — so slot
/// readers never observe a torn directory. Multiple concurrent *writers*
/// are still unsupported.
class Table {
 public:
  /// Reads part of an evicted chunk's block from secondary storage into
  /// `read.image`, as `read` says: a scan's columns (ColumnSet::All() reads
  /// all of it) or a point read's pages. Installed by the lifecycle manager;
  /// invoked without the table's lifecycle mutex, and it must not call back
  /// into this table. A failed read (corrupt or unreadable archive block,
  /// quarantined chunk) returns its Status — the read then throws
  /// StorageException, so the *query* fails and the process survives.
  using BlockFetcher =
      std::function<Status(size_t chunk_idx, const BlockRead& read)>;

  Table(std::string name, Schema schema,
        uint32_t chunk_capacity = DataBlock::kDefaultCapacity);
  ~Table();

  // Movable (for factory-style construction: loaders return a Table) —
  // but only while no concurrent readers/lifecycle exist, and a moved table
  // gets a fresh lifecycle mutex. A LifecycleManager binds to the table's
  // address, so attach managers only after the table has its final home.
  Table(Table&& o) noexcept;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return *schema_; }
  uint32_t chunk_capacity() const { return chunk_capacity_; }

  /// Appends a row to the hot tail: one Cell per column, each fitting its
  /// column (DB_CHECK, see Chunk::Append). Returns its stable RowId.
  RowId Insert(std::span<const Cell> row);
  RowId Insert(std::initializer_list<Cell> row) {
    return Insert(std::span<const Cell>(row.begin(), row.size()));
  }

  /// Marks a row deleted in its chunk's delete bitmap, in any state: the
  /// hot chunk and the block stay as they are, and deleting from an
  /// evicted chunk does not reload it.
  void Delete(RowId id);

  /// Updates attributes of a row and returns its RowId afterwards — the
  /// paper's rule for frozen tuples (Section 3). While the chunk is kHot
  /// the row is updated in place, with one chunk lookup, and keeps `id`.
  /// Otherwise (freezing, frozen or evicted) the row is relocated: its
  /// cells are read, typed, from the intact hot chunk, the resident block
  /// or the thread's point image (an evicted chunk stays evicted; see
  /// GetValue), the changes are overlaid, the row is deleted and
  /// reinserted into the hot tail, and the new RowId is returned for the
  /// caller's index. Throws StorageException
  /// as a point read does (failed archive read, tombstoned chunk), before
  /// anything is written. A caller that drops the result loses the row.
  [[nodiscard]] RowId UpdateRow(RowId id,
                                std::span<const CellUpdate> changes);
  [[nodiscard]] RowId UpdateRow(RowId id,
                                std::initializer_list<CellUpdate> changes) {
    return UpdateRow(id, std::span<const CellUpdate>(changes.begin(),
                                                     changes.size()));
  }

  bool IsVisible(RowId id) const;

  /// Point access. A hot row is read from its chunk, a frozen one is
  /// decompressed from a single position of the resident block. An evicted
  /// chunk stays evicted: it is read through the calling thread's point
  /// image (a BlockImage of the last evicted chunk it read), which holds
  /// the spine and the 4 KB pages earlier point reads of that chunk
  /// fetched. A read the image cannot serve fetches, through the block
  /// fetcher, the pages that hold the row's code, NULL word and dictionary
  /// entry and string (each verified by its checksum); every read passes
  /// the row check (DataBlock::ValidateRow). A failed read throws
  /// StorageException, and so does a read of a tombstoned chunk, whose rows
  /// are all deleted.
  /// The string_view of GetStringView points into the chunk, the resident
  /// block or the point image. For a hot or frozen row it lives as long as
  /// the read section it was taken in: a hot chunk's string bytes never
  /// move, and a freeze, eviction or tombstone frees them only after that
  /// section closes. For an evicted row it lives until the same thread
  /// next point-reads an evicted chunk other than this one.
  Value GetValue(RowId id, uint32_t col) const;
  int64_t GetInt(RowId id, uint32_t col) const;
  double GetDouble(RowId id, uint32_t col) const;
  std::string_view GetStringView(RowId id, uint32_t col) const;

  /// Hint that `cols` of row `id` will soon be read or updated: prefetches
  /// their bytes if the row is hot, with one chunk lookup for the row, and
  /// does nothing otherwise. It reads no archive bytes, leaves the
  /// temperature clock and the recency stamp alone, and never throws (an
  /// out-of-range RowId or column is ignored).
  void Prefetch(RowId id, std::initializer_list<uint32_t> cols) const;

  uint64_t num_rows() const { return num_rows_; }
  /// Rows minus the chunks' delete counts (one pass over the chunks).
  uint64_t num_visible() const;
  /// Published with release ordering after the slot is fully initialized,
  /// so concurrent readers (lifecycle ticks, scans) may index any chunk
  /// below this count.
  size_t num_chunks() const {
    return num_slots_.load(std::memory_order_acquire);
  }

  ChunkState chunk_state(size_t chunk_idx) const {
    return slot(chunk_idx).state.load(std::memory_order_acquire);
  }
  bool is_evicted(size_t chunk_idx) const {
    return chunk_state(chunk_idx) == ChunkState::kEvicted;
  }
  /// Hot chunk while the chunk is hot or freezing, else nullptr; resident
  /// block while it is frozen, else nullptr. Both go by the chunk state,
  /// not by whether the pointer is set: a hot chunk outlives kFrozen, and a
  /// block kEvicted or kTombstone, by a grace period. A reader that can
  /// race with the lifecycle asks once inside a read section and keeps the
  /// pointer until the section closes: asked again, a freezing chunk that
  /// turned frozen, or a block being evicted, answers nullptr.
  const Chunk* hot_chunk(size_t chunk_idx) const {
    return IsHotState(chunk_state(chunk_idx)) ? slot(chunk_idx).hot.get()
                                              : nullptr;
  }
  const DataBlock* frozen_block(size_t chunk_idx) const {
    return chunk_state(chunk_idx) == ChunkState::kFrozen
               ? slot(chunk_idx).frozen.get()
               : nullptr;
  }
  uint32_t chunk_rows(size_t chunk_idx) const {
    // Acquire pairs with Insert's release store: a reader that sees the
    // new count also sees the appended row's column bytes.
    return slot(chunk_idx).rows.load(std::memory_order_acquire);
  }
  bool chunk_full(size_t chunk_idx) const {
    return chunk_rows(chunk_idx) == chunk_capacity_;
  }

  /// Copies the delete bitmap of a chunk, in any state, into `out` (the
  /// words that cover its rows) and returns true; false, leaving `out`
  /// alone, when none of its rows is deleted. Each word is read
  /// atomically, so deletes may race the copy (a scan sees each of them or
  /// not); a delete that returned before the call is in the copy.
  bool SnapshotDeleteBitmap(size_t chunk_idx,
                            std::vector<uint64_t>* out) const;
  uint32_t deleted_in_chunk(size_t chunk_idx) const;

  // -- Resident block summaries (SMA pruning without reload) --------------

  /// Resident summary of an evicted chunk's block (nullptr until the
  /// chunk is evicted). EvictChunk extracts it from the block and stores it
  /// before it publishes kEvicted, and it never changes afterwards, also
  /// not when the chunk becomes a tombstone. Scans may consult it without
  /// opening the chunk — the acquire load pairs with that release store —
  /// and every evicted chunk has one.
  const BlockSummary* block_summary(size_t chunk_idx) const {
    return slot(chunk_idx).summary.load(std::memory_order_acquire);
  }

  // -- Read sections (point accesses vs freeze/evict/tombstone) ----------

  /// RAII read section of the calling thread, not tied to a table. Inside
  /// one, a point access (GetInt, GetDouble, GetStringView, GetValue,
  /// UpdateRow, Insert) only loads the chunk state and reads
  /// or writes what it names — no lock, and no locked read-modify-write on
  /// the chunk slot but a relocation's delete. Delete and IsVisible touch
  /// only the slot's delete bitmap and open no section. Whatever hot chunk
  /// or resident block a section saw stays allocated until it closes: state
  /// changers publish the new state and call Synchronize() before they
  /// compress a hot chunk or free anything. A section holder never waits
  /// for a state changer in return (on kFreezing a read uses the intact
  /// hot chunk, a write relocates and Insert starts a new tail), but it
  /// delays every freeze, eviction and tombstone until it closes, so keep
  /// sections short — one transaction, one tuple or one chunk's scan.
  /// Sections nest; only the outermost one publishes, and a section closes
  /// on the thread that opened it. A point access outside a section opens
  /// its own. Inside a section, Synchronize and the lifecycle transitions
  /// are illegal (DB_CHECK): each waits for it.
  class ReadSection {
   public:
    ReadSection();
    ~ReadSection();
    ReadSection(const ReadSection&) = delete;
    ReadSection& operator=(const ReadSection&) = delete;
  };

  /// A read section opened for one chunk. The chunk index is not used: a
  /// section covers every chunk of every table.
  class PinGuard : public ReadSection {
   public:
    PinGuard(const Table&, size_t) {}
  };

  /// Returns once every read section open at the call, on any thread, has
  /// closed. Sections opened later see whatever state was published before
  /// the call. Never call it inside a section or under a lock that a
  /// section holder may take.
  static void Synchronize();

  /// What a scan reads of one chunk: its hot chunk (kHot, kFreezing), its
  /// resident block (kFrozen) or the image read from the archive
  /// (kEvicted); neither for a tombstone, which has no payload.
  struct ScanSource {
    const Chunk* hot = nullptr;
    const DataBlock* block = nullptr;
  };

  /// Opens chunk `chunk_idx` for a scan that reads only `columns`. Must be
  /// called inside a read section (DB_CHECK), and the result is valid until
  /// that section closes. The state is loaded once: the scan keeps the
  /// pointer it got for the whole chunk, also when a freezing chunk turns
  /// frozen or a block is evicted meanwhile. An evicted chunk is not
  /// installed: `image` is cleared, the fetcher reads the spine and the
  /// whole extents of `columns` into it, and its block is returned; the
  /// chunk stays kEvicted. Every open reads afresh, reusing the buffer but
  /// no page of an earlier open or of the thread's point reads. The section
  /// keeps a tombstone from detaching the archive copy while the image is
  /// read. Throws StorageException when the read fails.
  ScanSource OpenForScan(size_t chunk_idx, const ColumnSet& columns,
                         BlockImage* image) const;

  // -- Temperature (lifecycle statistics) --------------------------------

  /// Access clock of a chunk: bumped by point reads/updates/deletes and
  /// inserts (not by scans or Prefetch), decayed epochally by the lifecycle
  /// manager. The clock is the freeze signal: a full chunk whose clock
  /// stays low is cold. A bump is a relaxed load and store, not a locked
  /// increment: on one thread the clock is exact, while concurrent point
  /// readers and decays may lose each other's updates, so it is only
  /// approximate then.
  uint32_t chunk_clock(size_t chunk_idx) const {
    return slot(chunk_idx).clock.load(std::memory_order_relaxed);
  }
  void DecayChunkClock(size_t chunk_idx, uint32_t shift) {
    auto& clock = slot(chunk_idx).clock;
    uint32_t v = clock.load(std::memory_order_relaxed);
    clock.store(shift >= 32 ? 0 : v >> shift, std::memory_order_relaxed);
  }

  /// Epoch stamp of the last access (point access, delete or scan) to a
  /// chunk — the recency signal of the lifecycle manager's LRU eviction
  /// (LifecycleManager::PickVictimLocked).
  uint32_t chunk_last_access(size_t chunk_idx) const {
    return slot(chunk_idx).last_access.load(std::memory_order_relaxed);
  }
  /// Advances the access epoch (called once per lifecycle tick).
  void AdvanceAccessEpoch() {
    access_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  uint32_t access_epoch() const {
    return access_epoch_.load(std::memory_order_relaxed);
  }

  // -- Lifecycle transitions ---------------------------------------------

  // Each transition below publishes its new state and calls Synchronize()
  // before it compresses or frees anything, so it waits for every read
  // section open at the publish (a scan's included) and none may run
  // inside one.

  /// Freezes chunk `chunk_idx` into a DataBlock. `sort_col >= 0` reorders
  /// the block's rows by that column before compressing (Section 3.2:
  /// clustering improves PSMA precision); sorting invalidates RowIds into
  /// this chunk, so it must only be used before indexes are built, with no
  /// delete running. Deleted rows stay deleted: a sorted freeze permutes
  /// the delete bitmap with the rows, once, before it publishes kFrozen.
  /// Returns false (and leaves the chunk alone) if the chunk is not hot or
  /// is empty. The hot chunk is freed a grace period after kFrozen is
  /// published.
  bool FreezeChunk(size_t chunk_idx, int sort_col = -1);

  /// Freezes all hot chunks (including a partially filled tail).
  void FreezeAll(int sort_col = -1);

  /// Drops a frozen chunk's resident block (frozen -> evicted), keeping
  /// its summary (block_summary) resident. Requires an installed block
  /// fetcher (the archived copy must exist — the caller, normally the
  /// lifecycle manager, archives the block just before). Returns false if
  /// the chunk is not frozen or no fetcher is installed.
  bool EvictChunk(size_t chunk_idx);

  /// Drops the payload of a *fully deleted* frozen or evicted chunk
  /// (-> tombstone, a terminal state): the resident block (if any) is
  /// freed and no read will ever be attempted. Returns only after every
  /// read section that could still read the archive copy has closed, so
  /// the caller may then release that copy (BlockArchive::Release). The
  /// delete bitmap and row count stay, so IsVisible and scans keep
  /// answering correctly (all rows deleted). Returns false if the chunk is
  /// not fully deleted or not frozen/evicted.
  bool TombstoneChunk(size_t chunk_idx);

  /// Installs the read path for evicted chunks (OpenForScan, point reads);
  /// nullptr unhooks it, after which those reads throw (kUnavailable).
  void SetBlockFetcher(BlockFetcher fetcher);

  /// Lifetime counters for lifecycle observability.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t tombstones() const {
    return tombstones_.load(std::memory_order_relaxed);
  }

  /// Appends an already-frozen block as a new chunk with no row deleted.
  /// The block's column types must match the schema.
  void AppendFrozen(DataBlock block);

  /// Memory accounting for the compression experiments. HotBytes counts a
  /// hot chunk's delete bitmap once one of its rows is deleted; FrozenBytes
  /// counts only *resident* blocks, and evicted chunks contribute nothing.
  uint64_t HotBytes() const;
  uint64_t FrozenBytes() const;
  uint64_t MemoryBytes() const { return HotBytes() + FrozenBytes(); }

 private:
  struct Slot {
    // Chosen by the state, never by which pointer is set: `hot` is set
    // while kHot/kFreezing and through the grace period after kFrozen,
    // `frozen` while kFrozen and through the grace period after kEvicted
    // or kTombstone. Both are written only under lifecycle_mu_ or after
    // Synchronize(), never while a reader may still load them.
    std::unique_ptr<Chunk> hot;
    std::unique_ptr<DataBlock> frozen;
    /// Resident summary (SMA/PSMA metadata) of the evicted block: stored
    /// once by EvictChunk (release store), freed by the slot. Atomic so
    /// stats readers and scans can load it while an eviction races.
    std::atomic<const BlockSummary*> summary{nullptr};

    ~Slot() { delete summary.load(std::memory_order_relaxed); }
    // Delete bitmap of the chunk in every state: sized before the slot is
    // published, never reallocated. Its words are set with atomic_ref
    // fetch_or by any thread and read word by word lock-free; the count's
    // release increment publishes each set bit to acquire readers.
    std::vector<uint64_t> deleted;
    std::atomic<uint32_t> deleted_count{0};
    // Written by the single writer / under the lifecycle mutex, but read
    // lock-free from scans and lifecycle ticks.
    std::atomic<uint32_t> rows{0};
    std::atomic<ChunkState> state{ChunkState::kHot};
    mutable std::atomic<uint32_t> clock{0};
    mutable std::atomic<uint32_t> last_access{0};
  };

  // Slots live in a segmented directory: fixed-size heap segments hung off
  // a fixed directory of atomic pointers. Appending never moves existing
  // slots, so concurrent readers (scans, lifecycle ticks) can hold Slot
  // references across structural growth by the writer.
  static constexpr size_t kSlotSegBits = 8;
  static constexpr size_t kSlotSegSize = size_t(1) << kSlotSegBits;  // slots
  static constexpr size_t kMaxSlotSegments = size_t(1) << 12;
  struct SlotSegment {
    Slot slots[kSlotSegSize];
  };

  Slot& slot(size_t idx) const {
    return segments_[idx >> kSlotSegBits].load(std::memory_order_acquire)
        ->slots[idx & (kSlotSegSize - 1)];
  }
  /// Allocates the next slot; the caller initializes it and then calls
  /// PublishSlot to make it visible to readers.
  Slot& NewSlot();
  void PublishSlot() {
    num_slots_.store(num_slots_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
  }

  /// Publishes `to` as the state of `slot`: the one store to Slot::state.
  /// DB_CHECKs that `to` comes after the current state (states only move
  /// forward). Called under lifecycle_mu_, or before the slot is published.
  static void SetState(Slot& slot, ChunkState to);
  /// Publishes `to` (kEvicted or kTombstone, both after kFrozen) and frees
  /// the resident block once Synchronize() has waited out every section
  /// that may still read it. Called with `lock` held on lifecycle_mu_;
  /// drops it meanwhile.
  void RetireBlock(Slot& slot, ChunkState to,
                   std::unique_lock<std::mutex>& lock);
  /// Performs `read` of evicted chunk `chunk_idx` through the fetcher —
  /// exceptions become a Status — and, when the read adopted the image's
  /// spine, checks that the block belongs to the chunk (CheckBlock).
  Status FetchEvicted(size_t chunk_idx, const BlockRead& read) const;
  /// kCorruption unless `block` has the chunk's row count and the schema's
  /// column count and types. Reads the spine alone.
  Status CheckBlock(size_t chunk_idx, const DataBlock& block) const;
  /// Reads `col` of row `id` inside a read section: `from_block` on the
  /// resident block or the thread's point image, `from_hot` on the hot
  /// chunk.
  template <typename FromBlock, typename FromHot>
  auto PointRead(RowId id, uint32_t col, FromBlock&& from_block,
                 FromHot&& from_hot) const;
  /// The calling thread's point image of evicted chunk `chunk`, made to
  /// serve (col, row) first: the pages it lacks are fetched. Inside a read
  /// section. Throws StorageException when the read fails.
  const DataBlock& ServePointImage(size_t chunk, uint32_t col,
                                   uint32_t row) const;
  /// Throws the StorageException of a point access to a tombstoned chunk.
  [[noreturn]] void ThrowTombstoneRead(size_t chunk, uint32_t row) const;
  /// Bumps the temperature clock + recency stamp of a chunk (point access).
  /// Plain load and store, not a locked increment (see chunk_clock()), and
  /// the stamp is stored only when it changes: a point access writes the
  /// slot's line once, not with three locked instructions.
  void Touch(const Slot& slot) const {
    slot.clock.store(slot.clock.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    const uint32_t epoch = access_epoch_.load(std::memory_order_relaxed);
    if (slot.last_access.load(std::memory_order_relaxed) != epoch)
      slot.last_access.store(epoch, std::memory_order_relaxed);
  }

  std::string name_;
  // Heap-allocated so its address is stable across Table moves: hot Chunks
  // hold a raw pointer to the schema.
  std::unique_ptr<Schema> schema_;
  uint32_t chunk_capacity_;
  uint64_t num_rows_ = 0;  // single inserting writer
  std::array<std::atomic<SlotSegment*>, kMaxSlotSegments> segments_{};
  std::atomic<size_t> num_slots_{0};

  /// Serializes lifecycle transitions (freeze/evict/tombstone); not
  /// held across the fetcher's archive I/O or Synchronize() (section
  /// holders take it briefly). Never held while calling user code.
  mutable std::mutex lifecycle_mu_;
  BlockFetcher fetcher_;
  /// Process-unique, never reused: names this table's chunks in the
  /// threads' point images (a moved-to table gets a fresh one).
  uint64_t id_;
  std::atomic<uint32_t> access_epoch_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> tombstones_{0};
};

}  // namespace datablocks

#endif  // DATABLOCKS_STORAGE_TABLE_H_
