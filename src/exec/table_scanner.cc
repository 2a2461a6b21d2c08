#include "exec/table_scanner.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/bits.h"

namespace datablocks {

namespace {

/// Process-wide mirrors of the per-scanner counters ("scan.*"). Resolved
/// once; the per-chunk event sites then pay one relaxed fetch_add each.
struct ScanMetrics {
  obs::Counter* chunks_pruned;
  obs::Counter* evicted_chunks_pruned;
  obs::Counter* chunks_scanned;
  obs::Counter* pins;
  obs::Counter* archive_reloads;
  obs::Counter* pin_failures;
};

const ScanMetrics& Metrics() {
  static const ScanMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    return ScanMetrics{r.GetCounter("scan.chunks_pruned"),
                       r.GetCounter("scan.evicted_chunks_pruned"),
                       r.GetCounter("scan.chunks_scanned"),
                       r.GetCounter("scan.pins"),
                       r.GetCounter("scan.archive_reloads"),
                       r.GetCounter("scan.pin_failures")};
  }();
  return m;
}

}  // namespace

const char* ScanModeName(ScanMode mode) {
  switch (mode) {
    case ScanMode::kJit: return "JIT";
    case ScanMode::kVectorized: return "Vectorized";
    case ScanMode::kVectorizedSarg: return "Vectorized+SARG";
    case ScanMode::kDataBlocks: return "DataBlocks+SARG/SMA";
    case ScanMode::kDataBlocksPsma: return "DataBlocks+PSMA";
  }
  return "?";
}

namespace {

/// One value predicate on one row of a hot chunk or a frozen block.
bool EvalValue(const Predicate& p, TypeId type, const Chunk& chunk,
               uint32_t row) {
  const uint8_t* d = chunk.column_data(p.col);
  switch (type) {
    case TypeId::kString: return EvalString(p, chunk.GetString(p.col, row));
    case TypeId::kDouble:
      return EvalDouble(p, reinterpret_cast<const double*>(d)[row]);
    case TypeId::kInt64:
      return EvalInt(p, reinterpret_cast<const int64_t*>(d)[row]);
    case TypeId::kChar1:
      return EvalInt(p, reinterpret_cast<const uint32_t*>(d)[row]);
    default: return EvalInt(p, reinterpret_cast<const int32_t*>(d)[row]);
  }
}

bool EvalValue(const Predicate& p, TypeId type, const DataBlock& block,
               uint32_t row) {
  switch (type) {
    case TypeId::kString:
      return EvalString(p, block.GetStringView(p.col, row));
    case TypeId::kDouble: return EvalDouble(p, block.GetDouble(p.col, row));
    default: return EvalInt(p, block.GetInt(p.col, row));
  }
}

/// Tuple-at-a-time evaluation of every predicate on one row of `src`, a
/// Chunk or a DataBlock (the kJit and kVectorized paths).
template <typename Source>
bool RowMatches(const std::vector<Predicate>& preds, const Schema& schema,
                const Source& src, uint32_t row) {
  for (const Predicate& p : preds) {
    const bool is_null = src.IsNull(p.col, row);
    if (p.op == CompareOp::kIsNull || p.op == CompareOp::kIsNotNull) {
      if (is_null != (p.op == CompareOp::kIsNull)) return false;
    } else if (is_null || !EvalValue(p, schema.type(p.col), src, row)) {
      return false;
    }
  }
  return true;
}

/// The calling thread's spare scan image. A scanner takes it at
/// construction and hands it back at destruction, so the pages of one
/// image, faulted in once, serve every scan the thread runs: a page-backed
/// image mapped afresh per scan would pay a page fault per 4 KB it reads.
thread_local BlockImage t_spare_image;

/// What a scan reads of a block: its output and predicate columns.
ColumnSet ScannedColumns(const std::vector<uint32_t>& columns,
                         const std::vector<Predicate>& predicates) {
  std::vector<uint32_t> cols = columns;
  for (const Predicate& p : predicates) cols.push_back(p.col);
  return ColumnSet(std::move(cols));
}

}  // namespace

TableScanner::TableScanner(const Table& table, std::vector<uint32_t> columns,
                           std::vector<Predicate> predicates, ScanMode mode,
                           uint32_t vector_size, Isa isa)
    : table_(&table),
      columns_(std::move(columns)),
      predicates_(std::move(predicates)),
      image_cols_(ScannedColumns(columns_, predicates_)),
      mode_(mode),
      vector_size_(vector_size),
      isa_(isa),
      image_(std::move(t_spare_image)) {
  DB_CHECK(vector_size_ > 0);
  positions_.resize(vector_size_ + 8);
  // Hot chunks are raw storage: each predicate is lowered once, as for a
  // kRaw block column whose SMA is its type's full domain. String value
  // predicates stay scalar.
  const Schema& schema = table.schema();
  for (const Predicate& p : predicates_) {
    HotPred h;
    h.lowered.col = p.col;
    const TypeId type = schema.type(p.col);
    if (type == TypeId::kString && p.op != CompareOp::kIsNull &&
        p.op != CompareOp::kIsNotNull) {
      h.scalar = &p;
    } else {
      const Verdict v = LowerPredicate(
          p, ColumnSma::FullDomain(type, schema.column(p.col).nullable),
          Compression::kRaw, nullptr, &h.lowered);
      hot_empty_ |= v == Verdict::kNone;
      if (v != Verdict::kSome) continue;
    }
    hot_preds_.push_back(std::move(h));
  }
}

TableScanner::~TableScanner() {
  CloseChunk();
  if (t_spare_image.empty()) t_spare_image = std::move(image_);
}

void TableScanner::OpenChunk() {
  section_.emplace();
  try {
    source_ = table_->OpenForScan(chunk_idx_, image_cols_, &image_);
  } catch (const StorageException& e) {
    // Annotate with scan context and let the exception travel up the
    // pipeline (TaskGroup carries it across pool workers) — the query
    // fails, the process does not.
    CloseChunk();
    Metrics().pin_failures->Add();
    throw StorageException(Status(
        e.status().code(), "scan of table '" + table_->name() + "' chunk " +
                               std::to_string(chunk_idx_) +
                               " failed: " + e.status().message()));
  }
  ++pins_;
  Metrics().pins->Add();
  if (source_.block == &image_.block()) {
    ++archive_reloads_;
    Metrics().archive_reloads->Add();
  }
}

void TableScanner::CloseChunk() {
  source_ = {};
  section_.reset();
}

void TableScanner::Reset() {
  CloseChunk();
  chunk_idx_ = chunk_begin_;
  pos_ = 0;
  chunk_prepped_ = false;
  skip_chunk_ = false;
  chunks_skipped_ = 0;
  evicted_skips_ = 0;
  chunks_scanned_ = 0;
  rows_considered_ = 0;
  pins_ = 0;
  archive_reloads_ = 0;
}

bool TableScanner::TrySkipUnopened() {
  const size_t c = chunk_idx_;
  const uint32_t rows = table_->chunk_rows(c);
  if (rows == 0) return false;  // PrepareChunk handles empty chunks cheaply
  const ChunkState st = table_->chunk_state(c);
  // Hot chunks are excluded: they are resident anyway — nothing to save.
  // Tombstones qualify: they are fully deleted by construction and their
  // payload is gone for good, so the bitmap check below always skips them.
  if (st != ChunkState::kFrozen && st != ChunkState::kEvicted &&
      st != ChunkState::kTombstone) {
    return false;
  }

  // A fully-deleted chunk produces no tuples in any scan mode; skipping it
  // here avoids opening it (and, if evicted, the archive read).
  if (table_->deleted_in_chunk(c) == rows) {
    ++chunks_skipped_;
    Metrics().chunks_pruned->Add();
    if (st == ChunkState::kEvicted) {
      ++evicted_skips_;
      Metrics().evicted_chunks_pruned->Add();
    }
    return true;
  }

  // Summary-only SMA/PSMA pruning of evicted blocks: the point of keeping
  // summaries resident. Only the SARG-pushdown modes prune on SMAs (the
  // baseline modes deliberately scan everything), and the decision is
  // conservative — a skip here is a skip PrepareBlockScan would also make,
  // just without reading the payload or touching the LRU. The chunk may
  // change state concurrently; that cannot invalidate the decision, which
  // rests only on immutable block metadata.
  if (st != ChunkState::kEvicted || predicates_.empty()) return false;
  if (mode_ != ScanMode::kVectorizedSarg && mode_ != ScanMode::kDataBlocks &&
      mode_ != ScanMode::kDataBlocksPsma) {
    return false;
  }
  // Every evicted chunk has a summary (Table::EvictChunk makes it).
  SummaryScanPrep prep =
      PrepareSummaryScan(*table_->block_summary(c), predicates_,
                         mode_ == ScanMode::kDataBlocksPsma);
  if (!prep.skip) return false;
  ++chunks_skipped_;
  ++evicted_skips_;
  Metrics().chunks_pruned->Add();
  Metrics().evicted_chunks_pruned->Add();
  return true;
}

void TableScanner::PrepareChunk() {
  chunk_prepped_ = true;
  skip_chunk_ = false;
  range_begin_ = 0;
  range_end_ = table_->chunk_rows(chunk_idx_);
  if (range_end_ == 0) {
    skip_chunk_ = true;
    return;
  }
  // A chunk can tombstone between the skip probe and the open (its last row
  // deleted in that window): there is no payload to produce from.
  if (source_.hot == nullptr && source_.block == nullptr) {
    skip_chunk_ = true;
    ++chunks_skipped_;
    Metrics().chunks_pruned->Add();
    return;
  }
  const DataBlock* block = source_.block;
  if (block != nullptr) {
    switch (mode_) {
      case ScanMode::kJit:
      case ScanMode::kVectorized:
        break;  // no early filtering on these paths
      case ScanMode::kVectorizedSarg:
      case ScanMode::kDataBlocks:
      case ScanMode::kDataBlocksPsma: {
        block_prep_ = PrepareBlockScan(*block, predicates_,
                                       mode_ == ScanMode::kDataBlocksPsma);
        if (block_prep_.skip) {
          skip_chunk_ = true;
          ++chunks_skipped_;
          Metrics().chunks_pruned->Add();
          return;
        }
        range_begin_ = block_prep_.range_begin;
        range_end_ = block_prep_.range_end;
        break;
      }
    }
  }
  deleted_ = table_->SnapshotDeleteBitmap(chunk_idx_, &deleted_copy_)
                 ? deleted_copy_.data()
                 : nullptr;
  ++chunks_scanned_;
  rows_considered_ += range_end_ - range_begin_;
  Metrics().chunks_scanned->Add();
}

bool TableScanner::Next(Batch* batch) {
  batch->Reset(table_->schema(), columns_);
  const size_t end = std::min<size_t>(chunk_limit_, table_->num_chunks());
  while (chunk_idx_ < end) {
    if (!chunk_prepped_) {
      // First chance: rule the chunk out without opening it at all — an
      // SMA-skipped evicted block must never be fetched from the archive
      // or promoted in the LRU.
      if (TrySkipUnopened()) {
        chunk_prepped_ = true;
        skip_chunk_ = true;
      } else {
        // Open before looking at the chunk: reads its columns if evicted,
        // and freeze/evict/tombstone wait until the scan moves on.
        OpenChunk();
        PrepareChunk();
      }
      pos_ = range_begin_;
    }
    if (skip_chunk_ || pos_ >= range_end_) {
      CloseChunk();
      ++chunk_idx_;
      chunk_prepped_ = false;
      continue;
    }
    uint32_t from = pos_;
    uint32_t to = std::min(pos_ + vector_size_, range_end_);
    pos_ = to;

    // What OpenChunk returned, never re-asked: a chunk opened kFreezing
    // may be kFrozen by now, and the hot chunk is still the one to read.
    uint32_t produced =
        source_.block != nullptr
            ? ProduceFrozenWindow(*source_.block, from, to, batch)
            : ProduceHotWindow(*source_.hot, from, to, batch);
    if (produced > 0) {
      batch->count = produced;
      return true;
    }
  }
  return false;
}

void TableScanner::AppendChunkRow(const Chunk& chunk, uint32_t row,
                                  Batch* batch) {
  const Schema& schema = table_->schema();
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint32_t col = columns_[i];
    ColumnVector& out = batch->cols[i];
    bool nullable = schema.column(col).nullable;
    bool is_null = nullable && chunk.IsNull(col, row);
    if (nullable) out.null_mask.push_back(is_null ? 1 : 0);
    switch (schema.type(col)) {
      case TypeId::kInt32:
      case TypeId::kDate:
        out.i32.push_back(
            reinterpret_cast<const int32_t*>(chunk.column_data(col))[row]);
        break;
      case TypeId::kChar1:
        out.i32.push_back(int32_t(
            reinterpret_cast<const uint32_t*>(chunk.column_data(col))[row]));
        break;
      case TypeId::kInt64:
        out.i64.push_back(
            reinterpret_cast<const int64_t*>(chunk.column_data(col))[row]);
        break;
      case TypeId::kDouble:
        out.f64.push_back(
            reinterpret_cast<const double*>(chunk.column_data(col))[row]);
        break;
      case TypeId::kString:
        out.str.push_back(is_null ? std::string_view()
                                  : chunk.GetString(col, row));
        break;
    }
  }
}

void TableScanner::AppendBlockRow(const DataBlock& block, uint32_t row,
                                  Batch* batch) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint32_t col = columns_[i];
    ColumnVector& out = batch->cols[i];
    bool nullable = table_->schema().column(col).nullable;
    bool is_null = nullable && block.IsNull(col, row);
    if (nullable) out.null_mask.push_back(is_null ? 1 : 0);
    switch (block.type(col)) {
      case TypeId::kInt32:
      case TypeId::kDate:
      case TypeId::kChar1:
        out.i32.push_back(is_null ? 0 : int32_t(block.GetInt(col, row)));
        break;
      case TypeId::kInt64:
        out.i64.push_back(is_null ? 0 : block.GetInt(col, row));
        break;
      case TypeId::kDouble:
        out.f64.push_back(is_null ? 0 : block.GetDouble(col, row));
        break;
      case TypeId::kString:
        out.str.push_back(is_null ? std::string_view()
                                  : block.GetStringView(col, row));
        break;
    }
  }
}

void TableScanner::GatherFromChunk(const Chunk& chunk, const uint32_t* pos,
                                   uint32_t n, Batch* batch) {
  const Schema& schema = table_->schema();
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint32_t col = columns_[i];
    ColumnVector& out = batch->cols[i];
    const uint8_t* data = chunk.column_data(col);
    if (schema.column(col).nullable) {
      const uint64_t* nulls = chunk.null_bitmap(col);
      for (uint32_t j = 0; j < n; ++j)
        out.null_mask.push_back(
            (nulls != nullptr && BitmapTest(nulls, pos[j])) ? 1 : 0);
    }
    switch (schema.type(col)) {
      case TypeId::kInt32:
      case TypeId::kDate: {
        const int32_t* d = reinterpret_cast<const int32_t*>(data);
        for (uint32_t j = 0; j < n; ++j) out.i32.push_back(d[pos[j]]);
        break;
      }
      case TypeId::kChar1: {
        const uint32_t* d = reinterpret_cast<const uint32_t*>(data);
        for (uint32_t j = 0; j < n; ++j) out.i32.push_back(int32_t(d[pos[j]]));
        break;
      }
      case TypeId::kInt64: {
        const int64_t* d = reinterpret_cast<const int64_t*>(data);
        for (uint32_t j = 0; j < n; ++j) out.i64.push_back(d[pos[j]]);
        break;
      }
      case TypeId::kDouble: {
        const double* d = reinterpret_cast<const double*>(data);
        for (uint32_t j = 0; j < n; ++j) out.f64.push_back(d[pos[j]]);
        break;
      }
      case TypeId::kString: {
        for (uint32_t j = 0; j < n; ++j)
          out.str.push_back(chunk.GetString(col, pos[j]));
        break;
      }
    }
  }
}

uint32_t TableScanner::ProduceHotWindow(const Chunk& chunk, uint32_t from,
                                        uint32_t to, Batch* batch) {
  const uint64_t* deleted = deleted_;

  if (mode_ == ScanMode::kJit) {
    uint32_t produced = 0;
    for (uint32_t row = from; row < to; ++row) {
      if (deleted != nullptr && BitmapTest(deleted, row)) continue;
      if (!RowMatches(predicates_, table_->schema(), chunk, row)) continue;
      AppendChunkRow(chunk, row, batch);
      ++produced;
    }
    return produced;
  }

  if (mode_ == ScanMode::kVectorized) {
    // Copy the full vector range first, evaluate predicates afterwards
    // tuple-at-a-time (predicates stay "in the pipeline").
    uint32_t window = to - from;
    positions_.resize(std::max<size_t>(positions_.size(), window + 8));
    for (uint32_t i = 0; i < window; ++i) positions_[i] = from + i;
    GatherFromChunk(chunk, positions_.data(), window, batch);
    // Build local keep list.
    static thread_local std::vector<uint32_t> keep;
    keep.clear();
    for (uint32_t i = 0; i < window; ++i) {
      uint32_t row = from + i;
      if (deleted != nullptr && BitmapTest(deleted, row)) continue;
      if (!RowMatches(predicates_, table_->schema(), chunk, row)) continue;
      keep.push_back(i);
    }
    if (keep.size() != window) {
      for (auto& col : batch->cols)
        col.Compact(keep.data(), uint32_t(keep.size()));
    }
    return uint32_t(keep.size());
  }

  // SARG pushdown on uncompressed data: the block kernels, then gather.
  if (hot_empty_) return 0;
  positions_.resize(std::max<size_t>(positions_.size(), (to - from) + 8));
  uint32_t* pos = positions_.data();
  uint32_t n = 0;
  bool first = true;
  for (const HotPred& h : hot_preds_) {
    const uint32_t col = h.lowered.col;
    n = h.scalar != nullptr
            ? SelectRows(first, from, to, n, pos,
                         [&](uint32_t row) {
                           return EvalString(*h.scalar,
                                             chunk.GetString(col, row));
                         })
            : RunBlockPred(h.lowered, chunk.column_data(col),
                           chunk.null_bitmap(col), from, to, isa_, first, n,
                           pos);
    first = false;
    if (n == 0) return 0;
  }
  if (first) {
    n = to - from;
    for (uint32_t i = 0; i < n; ++i) pos[i] = from + i;
  }
  // Drop NULLs that slipped through value predicates (stored payload is 0).
  for (const Predicate& p : predicates_) {
    if (p.op == CompareOp::kIsNull || p.op == CompareOp::kIsNotNull) continue;
    if (!chunk.has_nulls(p.col)) continue;
    n = FilterPositionsByBitmap(pos, n, chunk.null_bitmap(p.col), false, pos);
  }
  if (deleted != nullptr) n = FilterPositionsByBitmap(pos, n, deleted, false, pos);
  if (n == 0) return 0;
  GatherFromChunk(chunk, pos, n, batch);
  return n;
}

uint32_t TableScanner::ProduceFrozenJit(const DataBlock& block, uint32_t from,
                                        uint32_t to, Batch* batch) {
  const uint64_t* deleted = deleted_;
  uint32_t produced = 0;
  for (uint32_t row = from; row < to; ++row) {
    if (deleted != nullptr && BitmapTest(deleted, row)) continue;
    if (!RowMatches(predicates_, table_->schema(), block, row)) continue;
    AppendBlockRow(block, row, batch);
    ++produced;
  }
  return produced;
}

uint32_t TableScanner::ProduceFrozenDecompressAll(const DataBlock& block,
                                                  uint32_t from, uint32_t to,
                                                  Batch* batch) {
  // Vectorwise-style: decompress full vector ranges of every required and
  // predicate column, then filter tuple-at-a-time on the decompressed data.
  const uint64_t* deleted = deleted_;
  const uint32_t window = to - from;

  for (size_t i = 0; i < columns_.size(); ++i)
    UnpackColumnRange(block, columns_[i], from, to, &batch->cols[i]);

  static thread_local std::vector<uint32_t> keep;
  keep.clear();
  for (uint32_t i = 0; i < window; ++i) {
    uint32_t row = from + i;
    if (deleted != nullptr && BitmapTest(deleted, row)) continue;
    if (!RowMatches(predicates_, table_->schema(), block, row)) continue;
    keep.push_back(i);
  }
  if (keep.size() != window) {
    for (auto& col : batch->cols)
      col.Compact(keep.data(), uint32_t(keep.size()));
  }
  return uint32_t(keep.size());
}

uint32_t TableScanner::ProduceFrozenWindow(const DataBlock& block,
                                           uint32_t from, uint32_t to,
                                           Batch* batch) {
  if (mode_ == ScanMode::kJit) return ProduceFrozenJit(block, from, to, batch);
  if (mode_ == ScanMode::kVectorized)
    return ProduceFrozenDecompressAll(block, from, to, batch);

  const uint64_t* deleted = deleted_;

  // The Data Blocks modes emit dictionary-compressed string columns as
  // code-carrying vectors: survivors stay compressed through the pipeline
  // and decode lazily via ColumnVector::Str(). The block (or the image of
  // an evicted one) stays valid for the batch's lifetime because the read
  // section is held until the scan moves on. The comparison baselines
  // (kVectorizedSarg and below) keep materializing so they measure the
  // decompress cost they are meant to.
  const bool emit_codes =
      mode_ == ScanMode::kDataBlocks || mode_ == ScanMode::kDataBlocksPsma;
  auto codeable = [&](uint32_t col) {
    return emit_codes && block.type(col) == TypeId::kString &&
           block.attr(col).dict_count > 0;
  };

  // Fast path: every tuple in the window matches and none are deleted.
  if (block_prep_.MatchAll() && deleted == nullptr) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (codeable(columns_[i]))
        UnpackColumnCodesRange(block, columns_[i], from, to, &batch->cols[i]);
      else
        UnpackColumnRange(block, columns_[i], from, to, &batch->cols[i]);
    }
    return to - from;
  }

  positions_.resize(std::max<size_t>(positions_.size(), (to - from) + 8));
  uint32_t n = FindMatchesInBlock(block, block_prep_, from, to, isa_,
                                  positions_.data());
  if (deleted != nullptr) {
    n = FilterPositionsByBitmap(positions_.data(), n, deleted, false,
                                positions_.data());
  }
  if (n == 0) return 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (codeable(columns_[i]))
      UnpackColumnCodes(block, columns_[i], positions_.data(), n,
                        &batch->cols[i]);
    else
      UnpackColumn(block, columns_[i], positions_.data(), n, &batch->cols[i]);
  }
  return n;
}

}  // namespace datablocks
