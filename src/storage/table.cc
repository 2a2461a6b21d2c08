#include "storage/table.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "obs/metrics.h"
#include "util/cpu.h"

namespace datablocks {

namespace {

struct WriteMetrics {
  obs::Counter* inserts;
  obs::Counter* inplace_updates;
  obs::Counter* relocations;
};

/// Resolved once, at the first publish of write counts.
const WriteMetrics& Metrics() {
  static const WriteMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return WriteMetrics{r.GetCounter("table.inserts"),
                        r.GetCounter("table.inplace_updates"),
                        r.GetCounter("table.relocations")};
  }();
  return m;
}

/// Source of Table::id_; 0 is never handed out (an empty point image).
std::atomic<uint64_t> g_next_table_id{1};

/// The calling thread's image of the last evicted chunk it point-read: the
/// spine plus the pages read so far, in a reused buffer.
struct PointImage {
  uint64_t table = 0;  // Table::id_ of the imaged chunk; 0 = empty or torn
  size_t chunk = 0;
  BlockImage pages;
};
thread_local PointImage t_point_image;

/// Word `w` of a delete bitmap that deletes may be setting meanwhile.
uint64_t LoadDeleteWord(const std::vector<uint64_t>& deleted, size_t w) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(deleted[w]))
      .load(std::memory_order_relaxed);
}

// -- Read sections ----------------------------------------------------------

/// One thread's read-section slot, alone on its cache line. Its sequence
/// number is odd while the thread is inside a section; only the owning
/// thread writes it. Slots are never freed — a thread that exits hands its
/// slot to the next thread that needs one — so Synchronize can wait on a
/// slot without holding the registry lock.
struct alignas(64) SectionSlot {
  std::atomic<uint64_t> seq{0};
};

struct SectionRegistry {
  std::mutex mu;
  std::vector<SectionSlot*> slots;  // every slot ever made
  std::vector<SectionSlot*> spare;  // slots of exited threads
};

SectionRegistry& Registry() {
  static auto* registry = new SectionRegistry;  // outlives thread exits
  return *registry;
}

/// Writes a thread made in its open section, not yet added to the write
/// counters: every write runs inside a section, and the outermost one adds
/// them when it closes. A transaction's writes then cost one locked add per
/// counter, not one per row, and nothing drains the store buffer between
/// its rows.
struct WriteCounts {
  uint32_t inserts = 0;
  uint32_t inplace_updates = 0;
  uint32_t relocations = 0;
};

/// The calling thread's slot (null before its first section), nesting
/// depth and uncounted writes. Constant-initialized and trivially
/// destructible, so an access is a plain thread-local load with no
/// initialization check.
struct ThreadSection {
  SectionSlot* slot = nullptr;
  uint32_t depth = 0;
  WriteCounts writes;
};
thread_local ThreadSection t_section;

[[gnu::noinline]] void PublishWriteCounts(WriteCounts* w) {
  if (w->inserts != 0) Metrics().inserts->Add(w->inserts);
  if (w->inplace_updates != 0)
    Metrics().inplace_updates->Add(w->inplace_updates);
  if (w->relocations != 0) Metrics().relocations->Add(w->relocations);
  *w = WriteCounts();
}

SectionSlot* AcquireSectionSlot() {
  // Hands the slot back when the thread exits.
  struct GiveBack {
    ~GiveBack() {
      SectionRegistry& r = Registry();
      std::lock_guard<std::mutex> lock(r.mu);
      r.spare.push_back(t_section.slot);
    }
  };
  thread_local GiveBack give_back;
  (void)give_back;
  SectionRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (!r.spare.empty()) {
    SectionSlot* s = r.spare.back();
    r.spare.pop_back();
    return s;
  }
  return r.slots.emplace_back(new SectionSlot);
}

inline void EnterSection() {
  ThreadSection& t = t_section;
  if (t.depth++ != 0) return;
  if (t.slot == nullptr) t.slot = AcquireSectionSlot();
  // Odd: open. Sequentially consistent, like the state stores and loads
  // it pairs with: either Synchronize sees this section open and waits for
  // it, or the section's state loads see the state published before the
  // Synchronize call.
  t.slot->seq.store(t.slot->seq.load(std::memory_order_relaxed) + 1,
                    std::memory_order_seq_cst);
}

inline void ExitSection() {
  ThreadSection& t = t_section;
  if (--t.depth != 0) return;
  // Even: closed. Release: everything the section read or wrote happens
  // before whatever a Synchronize that sees this store frees.
  t.slot->seq.store(t.slot->seq.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
  const WriteCounts& w = t.writes;
  if ((w.inserts | w.inplace_updates | w.relocations) != 0)
    PublishWriteCounts(&t.writes);
}

/// Synchronize, and with it every lifecycle transition, waits for every
/// open section: the caller's own would deadlock. Transitions check on
/// entry, so a misuse aborts even on the calls that return early.
void CheckOutsideSection() { DB_CHECK(t_section.depth == 0); }

}  // namespace

Table::ReadSection::ReadSection() { EnterSection(); }

Table::ReadSection::~ReadSection() { ExitSection(); }

void Table::Synchronize() {
  CheckOutsideSection();
  std::vector<std::pair<const SectionSlot*, uint64_t>> open;
  {
    SectionRegistry& r = Registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const SectionSlot* s : r.slots) {
      const uint64_t seq = s->seq.load(std::memory_order_seq_cst);
      if ((seq & 1) != 0) open.emplace_back(s, seq);
    }
  }
  // A slot that registers after the scan opens its sections after the
  // registry lock hand-off, so they see the published state. Sections are
  // short (a transaction, a tuple, a chunk's scan): spin first, then poll
  // with short sleeps — not sched_yield, which on a busy host can give the
  // core away for a whole time slice.
  for (const auto& [s, seq] : open) {
    for (uint32_t spins = 0; s->seq.load(std::memory_order_acquire) == seq;
         ++spins) {
      if (spins < 4096)
        cpu::Relax();
      else
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

const char* ChunkStateName(ChunkState s) {
  switch (s) {
    case ChunkState::kHot: return "hot";
    case ChunkState::kFreezing: return "freezing";
    case ChunkState::kFrozen: return "frozen";
    case ChunkState::kEvicted: return "evicted";
    case ChunkState::kTombstone: return "tombstone";
  }
  return "?";
}

Table::Table(std::string name, Schema schema, uint32_t chunk_capacity)
    : name_(std::move(name)),
      schema_(std::make_unique<Schema>(std::move(schema))),
      chunk_capacity_(chunk_capacity),
      id_(g_next_table_id.fetch_add(1, std::memory_order_relaxed)) {
  DB_CHECK(chunk_capacity_ > 0 && chunk_capacity_ <= (1u << kRowIdxBits));
}

Table::Table(Table&& o) noexcept
    : name_(std::move(o.name_)),
      schema_(std::move(o.schema_)),
      chunk_capacity_(o.chunk_capacity_),
      num_rows_(o.num_rows_),
      fetcher_(std::move(o.fetcher_)),
      id_(g_next_table_id.fetch_add(1, std::memory_order_relaxed)),
      access_epoch_(o.access_epoch_.load(std::memory_order_relaxed)),
      evictions_(o.evictions_.load(std::memory_order_relaxed)),
      tombstones_(o.tombstones_.load(std::memory_order_relaxed)) {
  for (size_t i = 0; i < kMaxSlotSegments; ++i) {
    segments_[i].store(o.segments_[i].exchange(nullptr,
                                               std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  num_slots_.store(o.num_slots_.exchange(0, std::memory_order_relaxed),
                   std::memory_order_relaxed);
  o.num_rows_ = 0;
}

Table::~Table() {
  for (size_t i = 0; i < kMaxSlotSegments; ++i) {
    delete segments_[i].load(std::memory_order_relaxed);
  }
}

Table::Slot& Table::NewSlot() {
  size_t idx = num_slots_.load(std::memory_order_relaxed);
  DB_CHECK(idx < kMaxSlotSegments * kSlotSegSize);
  size_t seg = idx >> kSlotSegBits;
  if (segments_[seg].load(std::memory_order_relaxed) == nullptr) {
    segments_[seg].store(new SlotSegment(), std::memory_order_release);
  }
  return segments_[seg].load(std::memory_order_relaxed)
      ->slots[idx & (kSlotSegSize - 1)];
}

RowId Table::Insert(std::span<const Cell> row) {
  // A freezer (e.g. Table::FreezeAll) that publishes kFreezing waits
  // for this section before it reads the tail, so a tail seen hot stays
  // ours for the append.
  ReadSection section;
  for (;;) {
    size_t n = num_slots_.load(std::memory_order_relaxed);
    if (n != 0) {
      Slot& s = slot(n - 1);
      if (s.state.load(std::memory_order_seq_cst) == ChunkState::kHot &&
          !s.hot->full()) {
        uint32_t r = s.hot->Append(row);
        // Release: pairs with chunk_rows() acquire loads so the row
        // bytes written by Append are visible with the new count.
        s.rows.store(s.hot->size(), std::memory_order_release);
        Touch(s);
        ++num_rows_;
        ++t_section.writes.inserts;
        return MakeRowId(n - 1, r);
      }
    }
    // No tail, tail full, or tail freezing or frozen under our feet: start
    // a new chunk and retry.
    Slot& fresh = NewSlot();
    fresh.hot = std::make_unique<Chunk>(schema_.get(), chunk_capacity_);
    fresh.deleted.assign(BitmapWords(chunk_capacity_), 0);
    PublishSlot();
  }
}

Status Table::FetchEvicted(size_t chunk_idx, const BlockRead& read) const {
  BlockFetcher fetcher;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    fetcher = fetcher_;
  }
  if (fetcher == nullptr) {
    return Status::Unavailable("chunk " + std::to_string(chunk_idx) +
                               " of table '" + name_ +
                               "' is evicted and no block fetcher is "
                               "installed");
  }
  const bool adopts = !read.image->has_spine();
  Status s;
  try {
    s = fetcher(chunk_idx, read);
  } catch (const StorageException& e) {
    s = e.status();
  } catch (const std::exception& e) {
    s = Status::IoError(std::string("block fetcher threw: ") + e.what());
  }
  if (!s.ok() || !adopts) return s;
  return CheckBlock(chunk_idx, read.image->block());
}

Status Table::CheckBlock(size_t chunk_idx, const DataBlock& block) const {
  const std::string where =
      "chunk " + std::to_string(chunk_idx) + " of table '" + name_ + "'";
  const uint32_t rows = slot(chunk_idx).rows.load(std::memory_order_relaxed);
  if (block.num_rows() != rows) {
    return Status::Corruption("block read for " + where + " has " +
                              std::to_string(block.num_rows()) +
                              " rows, chunk has " + std::to_string(rows));
  }
  bool matches = block.num_columns() == schema_->num_columns();
  for (uint32_t c = 0; matches && c < block.num_columns(); ++c)
    matches = block.type(c) == schema_->type(c);
  if (!matches) {
    return Status::Corruption("block read for " + where +
                              " does not match the table schema");
  }
  return Status::Ok();
}

Table::ScanSource Table::OpenForScan(size_t chunk_idx,
                                     const ColumnSet& columns,
                                     BlockImage* image) const {
  DB_CHECK(t_section.depth != 0);
  const Slot& s = slot(chunk_idx);
  const uint32_t epoch = access_epoch_.load(std::memory_order_relaxed);
  if (s.last_access.load(std::memory_order_relaxed) != epoch)
    s.last_access.store(epoch, std::memory_order_relaxed);
  const ChunkState st = s.state.load(std::memory_order_seq_cst);
  if (IsHotState(st)) return {s.hot.get(), nullptr};
  if (st == ChunkState::kFrozen) return {nullptr, s.frozen.get()};
  if (st == ChunkState::kTombstone) return {};
  image->Clear();
  ThrowIfError(FetchEvicted(chunk_idx, BlockRead::Scan(columns, image)));
  return {nullptr, &image->block()};
}

void Table::SetBlockFetcher(BlockFetcher fetcher) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  fetcher_ = std::move(fetcher);
}

void Table::Delete(RowId id) {
  Slot& slot = this->slot(RowIdChunk(id));
  const uint32_t row = RowIdRow(id);
  DB_CHECK(row < slot.rows.load(std::memory_order_acquire));
  Touch(slot);
  // The same in every state: neither the hot chunk nor the block is
  // written, so no section is needed. fetch_or counts a racing double
  // delete once, and the count's release increment publishes the bit to
  // IsVisible and SnapshotDeleteBitmap.
  const uint64_t bit = uint64_t(1) << (row & 63);
  if ((std::atomic_ref<uint64_t>(slot.deleted[row >> 6])
           .fetch_or(bit, std::memory_order_relaxed) &
       bit) == 0) {
    slot.deleted_count.fetch_add(1, std::memory_order_release);
  }
}

RowId Table::UpdateRow(RowId id, std::span<const CellUpdate> changes) {
  const size_t chunk = RowIdChunk(id);
  const uint32_t row = RowIdRow(id);
  Slot& slot = this->slot(chunk);
  // The section keeps whatever the row is copied from allocated until the
  // copy is in the tail.
  ReadSection section;
  Touch(slot);
  const ChunkState st = slot.state.load(std::memory_order_seq_cst);
  // In place only on kHot: on kFreezing the freezer may be reading the
  // chunk.
  if (st == ChunkState::kHot) {
    for (const CellUpdate& u : changes) slot.hot->Set(u.col, row, u.cell);
    ++t_section.writes.inplace_updates;
    return id;
  }
  if (st == ChunkState::kTombstone) ThrowTombstoneRead(chunk, row);
  // Relocate. The cells borrow strings from the source, which no write
  // below touches: the tail is another chunk, kHot.
  const uint32_t ncols = schema_->num_columns();
  Cell on_stack[32];
  std::vector<Cell> on_heap(ncols > 32 ? ncols : 0);
  Cell* out = ncols > 32 ? on_heap.data() : on_stack;
  if (st == ChunkState::kFreezing) {
    for (uint32_t c = 0; c < ncols; ++c) out[c] = slot.hot->GetCell(c, row);
  } else if (st == ChunkState::kFrozen) {
    for (uint32_t c = 0; c < ncols; ++c) out[c] = slot.frozen->GetCell(c, row);
  } else {
    // Evicted: column by column through the point image, whose buffer
    // stays put while it fills with one chunk's pages.
    for (uint32_t c = 0; c < ncols; ++c)
      out[c] = ServePointImage(chunk, c, row).GetCell(c, row);
  }
  for (const CellUpdate& u : changes) {
    DB_CHECK(u.col < ncols);
    out[u.col] = u.cell;
  }
  Delete(id);
  const RowId moved = Insert(std::span<const Cell>(out, ncols));
  ++t_section.writes.relocations;
  return moved;
}

bool Table::IsVisible(RowId id) const {
  const Slot& slot = this->slot(RowIdChunk(id));
  const uint32_t row = RowIdRow(id);
  if (row >= slot.rows.load(std::memory_order_acquire)) return false;
  return slot.deleted_count.load(std::memory_order_acquire) == 0 ||
         (LoadDeleteWord(slot.deleted, row >> 6) &
          (uint64_t(1) << (row & 63))) == 0;
}

void Table::Prefetch(RowId id, std::initializer_list<uint32_t> cols) const {
  const size_t chunk = RowIdChunk(id);
  const uint32_t row = RowIdRow(id);
  if (chunk >= num_chunks()) return;
  const Slot& s = slot(chunk);
  // The section keeps the hot chunk allocated while its column pointers
  // are read; the prefetches themselves cannot fault.
  ReadSection section;
  if (!IsHotState(s.state.load(std::memory_order_seq_cst)) ||
      row >= s.rows.load(std::memory_order_acquire)) {
    return;
  }
  for (const uint32_t col : cols) {
    if (col >= schema_->num_columns()) continue;
    __builtin_prefetch(s.hot->column_data(col) +
                       size_t(row) * TypeWidth(schema_->type(col)));
  }
}

template <typename FromBlock, typename FromHot>
auto Table::PointRead(RowId id, uint32_t col, FromBlock&& from_block,
                      FromHot&& from_hot) const {
  const size_t chunk = RowIdChunk(id);
  const uint32_t row = RowIdRow(id);
  const Slot& s = slot(chunk);
  ReadSection section;
  Touch(s);
  const ChunkState st = s.state.load(std::memory_order_seq_cst);
  if (st == ChunkState::kFrozen) return from_block(*s.frozen, row);
  if (IsHotState(st)) return from_hot(*s.hot, row);
  if (st == ChunkState::kTombstone) ThrowTombstoneRead(chunk, row);
  return from_block(ServePointImage(chunk, col, row), row);
}

void Table::ThrowTombstoneRead(size_t chunk, uint32_t row) const {
  throw StorageException(Status::NotFound(
      "point read of row " + std::to_string(row) + " of chunk " +
      std::to_string(chunk) + " of table '" + name_ +
      "': the chunk is a tombstone, every row of it was deleted"));
}

const DataBlock& Table::ServePointImage(size_t chunk, uint32_t col,
                                        uint32_t row) const {
  // Fetches the row's pages if the image cannot serve it. The caller's
  // section keeps the archive entry attached for the read: a tombstone
  // detaches it only after Synchronize.
  PointImage& image = t_point_image;
  if (image.table != id_ || image.chunk != chunk) {
    image.table = 0;
    image.pages.Clear();
  }
  if (!image.pages.Serves(col, row)) {
    image.table = 0;  // a failed read may leave the image torn
    ThrowIfError(
        FetchEvicted(chunk, BlockRead::Point(col, row, &image.pages)));
    image.table = id_;
    image.chunk = chunk;
  }
  return image.pages.block();
}

Value Table::GetValue(RowId id, uint32_t col) const {
  return PointRead(
      id, col,
      [col](const DataBlock& b, uint32_t row) { return b.GetValue(col, row); },
      [col](const Chunk& c, uint32_t row) { return c.GetValue(col, row); });
}

int64_t Table::GetInt(RowId id, uint32_t col) const {
  return PointRead(
      id, col,
      [col](const DataBlock& b, uint32_t row) { return b.GetInt(col, row); },
      [this, col](const Chunk& c, uint32_t row) -> int64_t {
        const uint8_t* data = c.column_data(col);
        switch (schema_->type(col)) {
          case TypeId::kInt32:
          case TypeId::kDate:
            return reinterpret_cast<const int32_t*>(data)[row];
          case TypeId::kChar1:
            return reinterpret_cast<const uint32_t*>(data)[row];
          default:
            return reinterpret_cast<const int64_t*>(data)[row];
        }
      });
}

double Table::GetDouble(RowId id, uint32_t col) const {
  return PointRead(
      id, col,
      [col](const DataBlock& b, uint32_t row) { return b.GetDouble(col, row); },
      [col](const Chunk& c, uint32_t row) {
        return reinterpret_cast<const double*>(c.column_data(col))[row];
      });
}

std::string_view Table::GetStringView(RowId id, uint32_t col) const {
  return PointRead(
      id, col,
      [col](const DataBlock& b, uint32_t row) {
        return b.GetStringView(col, row);
      },
      [col](const Chunk& c, uint32_t row) { return c.GetString(col, row); });
}

bool Table::SnapshotDeleteBitmap(size_t chunk_idx,
                                 std::vector<uint64_t>* out) const {
  const Slot& slot = this->slot(chunk_idx);
  if (slot.deleted_count.load(std::memory_order_acquire) == 0) return false;
  out->resize(BitmapWords(slot.rows.load(std::memory_order_acquire)));
  for (size_t w = 0; w < out->size(); ++w)
    (*out)[w] = LoadDeleteWord(slot.deleted, w);
  return true;
}

uint64_t Table::num_visible() const {
  uint64_t deleted = 0;
  const size_t n = num_chunks();
  for (size_t i = 0; i < n; ++i)
    deleted += slot(i).deleted_count.load(std::memory_order_relaxed);
  return num_rows_ - deleted;
}

uint32_t Table::deleted_in_chunk(size_t chunk_idx) const {
  return slot(chunk_idx).deleted_count.load(std::memory_order_acquire);
}

bool Table::FreezeChunk(size_t chunk_idx, int sort_col) {
  CheckOutsideSection();
  Slot& slot = this->slot(chunk_idx);
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  if (slot.state.load(std::memory_order_relaxed) != ChunkState::kHot)
    return false;
  Chunk* chunk = slot.hot.get();
  // The row count, not chunk->size(): the writer may be appending.
  if (slot.rows.load(std::memory_order_acquire) == 0) return false;

  // Compress without holding the mutex, once the read sections that saw
  // kHot — and may still update or append in place — have closed. Then
  // the chunk is private to this freezer: reads and scans only read it,
  // point writes relocate and the writer starts a fresh tail. Deletes
  // never write the chunk: they set bits in the slot's bitmap, which the
  // block shares.
  SetState(slot, ChunkState::kFreezing);
  lock.unlock();
  Synchronize();

  std::vector<uint32_t> perm;
  const uint32_t* perm_ptr = nullptr;
  if (sort_col >= 0) {
    perm.resize(chunk->size());
    std::iota(perm.begin(), perm.end(), 0u);
    const TypeId sort_type = schema_->type(uint32_t(sort_col));
    const uint8_t* data = chunk->column_data(uint32_t(sort_col));
    if (sort_type == TypeId::kString) {
      std::stable_sort(perm.begin(), perm.end(),
                       [&](uint32_t a, uint32_t b) {
                         return chunk->GetString(uint32_t(sort_col), a) <
                                chunk->GetString(uint32_t(sort_col), b);
                       });
    } else {
      WithIntType(sort_type, [&](auto tag) {
        const auto* key = reinterpret_cast<const decltype(tag)*>(data);
        std::stable_sort(perm.begin(), perm.end(),
                         [key](uint32_t a, uint32_t b) {
                           return key[a] < key[b];
                         });
      });
    }
    perm_ptr = perm.data();
    // Block row i is deleted iff source row perm[i] was. A sorted freeze
    // runs with no delete in flight (RowIds into the chunk change), so the
    // words are rewritten in place.
    if (slot.deleted_count.load(std::memory_order_relaxed) != 0) {
      const std::vector<uint64_t> unsorted = slot.deleted;
      std::fill(slot.deleted.begin(), slot.deleted.end(), 0);
      for (uint32_t r = 0; r < chunk->size(); ++r) {
        if (BitmapTest(unsorted.data(), perm[r]))
          BitmapSet(slot.deleted.data(), r);
      }
    }
  }

  auto block = std::make_unique<DataBlock>(
      DataBlock::Build(*chunk, perm_ptr));

  lock.lock();
  slot.frozen = std::move(block);
  SetState(slot, ChunkState::kFrozen);
  lock.unlock();
  // Sections that saw kFreezing may still read the hot chunk. Nothing else
  // loads `hot` once the state says kFrozen, so it is reset unlocked.
  Synchronize();
  slot.hot.reset();
  return true;
}

void Table::SetState(Slot& slot, ChunkState to) {
  DB_CHECK(to > slot.state.load(std::memory_order_relaxed));
  slot.state.store(to, std::memory_order_seq_cst);
}

void Table::RetireBlock(Slot& slot, ChunkState to,
                        std::unique_lock<std::mutex>& lock) {
  SetState(slot, to);
  // Sections that saw kFrozen may still read the block.
  lock.unlock();
  Synchronize();
  lock.lock();
  slot.frozen.reset();
}

bool Table::EvictChunk(size_t chunk_idx) {
  CheckOutsideSection();
  Slot& slot = this->slot(chunk_idx);
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  if (slot.state.load(std::memory_order_relaxed) != ChunkState::kFrozen)
    return false;
  // Without a fetcher the block could never be read again.
  if (fetcher_ == nullptr) return false;
  // Scans prune the evicted chunk on its summary without a fetch. It is
  // stored before kEvicted is published, so whoever sees kEvicted sees it,
  // and never replaced: readers hold it without a lock, and states only
  // move forward, so a chunk is evicted once.
  DB_CHECK(slot.summary.load(std::memory_order_relaxed) == nullptr);
  slot.summary.store(new BlockSummary(BlockSummary::Extract(*slot.frozen)),
                     std::memory_order_release);
  RetireBlock(slot, ChunkState::kEvicted, lock);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Table::TombstoneChunk(size_t chunk_idx) {
  CheckOutsideSection();
  Slot& slot = this->slot(chunk_idx);
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  const ChunkState st = slot.state.load(std::memory_order_relaxed);
  if (st != ChunkState::kFrozen && st != ChunkState::kEvicted) return false;
  const uint32_t rows = slot.rows.load(std::memory_order_relaxed);
  if (rows == 0 ||
      slot.deleted_count.load(std::memory_order_acquire) != rows) {
    return false;  // not fully deleted: the payload is still live data
  }
  // From kEvicted too: sections that read the archive copy close before
  // this returns, and only then may the caller detach it.
  RetireBlock(slot, ChunkState::kTombstone, lock);
  tombstones_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Table::AppendFrozen(DataBlock block) {
  DB_CHECK(block.num_columns() == schema_->num_columns());
  for (uint32_t c = 0; c < schema_->num_columns(); ++c) {
    DB_CHECK(block.type(c) == schema_->type(c));
  }
  Slot& slot = NewSlot();
  const uint32_t rows = block.num_rows();
  slot.rows.store(rows, std::memory_order_relaxed);
  slot.deleted.assign(BitmapWords(rows), 0);
  slot.frozen = std::make_unique<DataBlock>(std::move(block));
  SetState(slot, ChunkState::kFrozen);
  num_rows_ += rows;
  PublishSlot();
}

void Table::FreezeAll(int sort_col) {
  // FreezeChunk skips chunks that are not hot or empty.
  const size_t n = num_chunks();
  for (size_t i = 0; i < n; ++i) FreezeChunk(i, sort_col);
}

uint64_t Table::HotBytes() const {
  uint64_t total = 0;
  const size_t n = num_chunks();
  ReadSection section;  // keeps each hot chunk allocated while it is measured
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slot(i);
    if (!IsHotState(s.state.load(std::memory_order_seq_cst))) continue;
    total += s.hot->MemoryBytes();
    if (s.deleted_count.load(std::memory_order_relaxed) != 0)
      total += s.deleted.size() * sizeof(uint64_t);
  }
  return total;
}

uint64_t Table::FrozenBytes() const {
  uint64_t total = 0;
  const size_t n = num_chunks();
  ReadSection section;  // keeps each resident block allocated while measured
  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slot(i);
    if (s.state.load(std::memory_order_seq_cst) == ChunkState::kFrozen)
      total += s.frozen->SizeBytes();
  }
  return total;
}

}  // namespace datablocks
