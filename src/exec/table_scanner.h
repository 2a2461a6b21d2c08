#ifndef DATABLOCKS_EXEC_TABLE_SCANNER_H_
#define DATABLOCKS_EXEC_TABLE_SCANNER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "datablock/block_scan.h"
#include "exec/batch.h"
#include "scan/match_finder.h"
#include "scan/predicate.h"
#include "storage/table.h"

namespace datablocks {

/// Scan configurations evaluated in the paper (Tables 2/4):
///  - kJit:            tuple-at-a-time scan, predicates evaluated per tuple
///                     inside the fused loop (what HyPer's LLVM pipeline
///                     emits; here: pre-compiled fused scalar code).
///  - kVectorized:     interpreted vectorized scan *without* SARG pushdown —
///                     vectors are copied (frozen blocks: decompressed in
///                     full, the Vectorwise-style baseline), predicates run
///                     in the pipeline.
///  - kVectorizedSarg: vectorized scan with SARGable predicates pushed down,
///                     evaluated with SIMD on uncompressed data (+SARG).
///  - kDataBlocks:     vectorized scan on compressed Data Blocks with SARG
///                     pushdown and SMA block skipping (+SARG/SMA).
///  - kDataBlocksPsma: kDataBlocks plus PSMA scan-range narrowing (+PSMA).
enum class ScanMode : uint8_t {
  kJit,
  kVectorized,
  kVectorizedSarg,
  kDataBlocks,
  kDataBlocksPsma,
};

const char* ScanModeName(ScanMode mode);

/// The single scan interface of Figure 6: hot uncompressed chunks and frozen
/// compressed Data Blocks are scanned through the same API, producing
/// vectors of matching tuples that the (conceptually JIT-compiled) query
/// pipeline consumes tuple at a time.
class TableScanner {
 public:
  static constexpr uint32_t kDefaultVectorSize = 8192;  // Section 4.1

  TableScanner(const Table& table, std::vector<uint32_t> columns,
               std::vector<Predicate> predicates, ScanMode mode,
               uint32_t vector_size = kDefaultVectorSize,
               Isa isa = BestIsa());
  ~TableScanner();

  // The scanner holds a read section and an image of the current evicted
  // chunk across Next() calls (see below); copying would close the section
  // twice.
  TableScanner(const TableScanner&) = delete;
  TableScanner& operator=(const TableScanner&) = delete;

  /// Produces the next non-empty batch of matching tuples. Returns false
  /// when the scan is exhausted.
  ///
  /// The chunk currently being produced is read inside one read section
  /// (Table::OpenForScan), held between calls: a freeze, eviction or
  /// tombstone of it waits until the scan moves past it, and the scan reads
  /// the hot chunk, block or image it opened to the end. An evicted chunk
  /// is not reloaded: the scan reads just its output and predicate columns
  /// from the archive into an image it reuses from chunk to chunk, and the
  /// chunk stays evicted. The section closes when the scan moves past the
  /// chunk, is Reset, or the scanner is destroyed; string views in a batch
  /// stay valid until then, so a consumer must copy what it keeps past the
  /// next Next() call. Because the section belongs to the calling thread, a
  /// scanner is advanced, Reset and destroyed on one thread, and a caller
  /// that stops partway Resets or destroys it before anything that waits
  /// for sections (Table::Synchronize, a lifecycle transition or tick).
  bool Next(Batch* batch);

  /// Restarts the scan from the beginning.
  void Reset();

  /// Restricts the scan to chunks [begin, end) — the morsel interface used
  /// for parallel scans (one worker per chunk range).
  void RestrictChunks(size_t begin, size_t end) {
    chunk_begin_ = begin;
    chunk_limit_ = end;
    Reset();
  }

  /// Number of chunks skipped entirely so far (SMA/PSMA pruning, plus
  /// fully-deleted chunks).
  uint64_t chunks_skipped() const { return chunks_skipped_; }

  /// Subset of chunks_skipped(): evicted chunks ruled out purely from their
  /// resident BlockSummary — without opening the chunk, an archive read, or
  /// an LRU promotion.
  uint64_t evicted_chunks_skipped() const { return evicted_skips_; }

  /// Chunks actually prepared for scanning (not pruned, not empty).
  uint64_t chunks_scanned() const { return chunks_scanned_; }

  /// Rows inside the scanned chunks' effective ranges (after PSMA range
  /// narrowing) — the scan's input cardinality before predicates.
  uint64_t rows_considered() const { return rows_considered_; }

  /// Chunks opened by the scan (Table::OpenForScan calls); reported as the
  /// `scan.pins` counter and the profiles' `pins` field.
  uint64_t pins_taken() const { return pins_; }

  /// Subset of pins_taken(): opened chunks that were evicted, so their
  /// scanned columns were read from the archive.
  uint64_t archive_reloads() const { return archive_reloads_; }

 private:
  /// Skip decision for the chunk about to be prepared, made before opening
  /// it: rules out fully-deleted chunks and (in SMA modes) evicted chunks
  /// whose resident summary excludes every predicate. Returns true if the
  /// chunk can be passed over without opening it.
  bool TrySkipUnopened();
  /// Opens a read section and the current chunk in it (source_).
  void OpenChunk();
  void CloseChunk();
  void PrepareChunk();
  uint32_t ProduceHotWindow(const Chunk& chunk, uint32_t from, uint32_t to,
                            Batch* batch);
  uint32_t ProduceFrozenWindow(const DataBlock& block, uint32_t from,
                               uint32_t to, Batch* batch);
  uint32_t ProduceFrozenJit(const DataBlock& block, uint32_t from, uint32_t to,
                            Batch* batch);
  uint32_t ProduceFrozenDecompressAll(const DataBlock& block, uint32_t from,
                                      uint32_t to, Batch* batch);
  void GatherFromChunk(const Chunk& chunk, const uint32_t* pos, uint32_t n,
                       Batch* batch);
  void AppendChunkRow(const Chunk& chunk, uint32_t row, Batch* batch);
  void AppendBlockRow(const DataBlock& block, uint32_t row, Batch* batch);

  /// A pushed-down predicate as hot chunks run it: lowered to a BlockPred,
  /// or evaluated row by row (`scalar`, string value predicates; it points
  /// into predicates_, which is never resized).
  struct HotPred {
    BlockPred lowered;
    const Predicate* scalar = nullptr;
  };

  const Table* table_;
  std::vector<uint32_t> columns_;
  std::vector<Predicate> predicates_;
  ColumnSet image_cols_;  // output and predicate columns
  ScanMode mode_;
  uint32_t vector_size_;
  Isa isa_;
  std::vector<HotPred> hot_preds_;  // kAll predicates dropped
  bool hot_empty_ = false;          // a predicate no hot row can satisfy

  // Iteration state.
  size_t chunk_begin_ = 0;
  size_t chunk_limit_ = SIZE_MAX;
  size_t chunk_idx_ = 0;
  // Open while the scan is inside a chunk; source_ is valid only then.
  std::optional<Table::ReadSection> section_;
  Table::ScanSource source_;
  BlockImage image_;  // evicted chunks' scanned columns, reused; the
                      // thread's spare image (table_scanner.cc)
  uint32_t pos_ = 0;
  bool chunk_prepped_ = false;
  bool skip_chunk_ = false;
  uint32_t range_begin_ = 0, range_end_ = 0;
  BlockScanPrep block_prep_;
  // Deleted rows of the current chunk, hot or frozen (nullptr: none),
  // copied once per chunk because deletes may land while the scan runs.
  const uint64_t* deleted_ = nullptr;
  std::vector<uint64_t> deleted_copy_;
  uint64_t chunks_skipped_ = 0;
  uint64_t evicted_skips_ = 0;
  uint64_t chunks_scanned_ = 0;
  uint64_t rows_considered_ = 0;
  uint64_t pins_ = 0;
  uint64_t archive_reloads_ = 0;

  // Scratch buffers.
  std::vector<uint32_t> positions_;
  Batch scratch_;
};

}  // namespace datablocks

#endif  // DATABLOCKS_EXEC_TABLE_SCANNER_H_
