// Quickstart: create a relation, freeze cold chunks into compressed Data
// Blocks, scan it with SARGable predicates through every scan mode, and do
// OLTP-style point accesses — the core API surface of the library.

#include <cstdio>
#include <vector>

#include "exec/table_scanner.h"
#include "storage/block_archive.h"
#include "storage/pk_index.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace datablocks;

int main() {
  // 1. Define a relation.
  Schema schema({{"id", TypeId::kInt64},
                 {"category", TypeId::kString},
                 {"quantity", TypeId::kInt32},
                 {"price", TypeId::kInt64},     // cents
                 {"rating", TypeId::kDouble}});
  Table sales("sales", schema, /*chunk_capacity=*/65536);

  // 2. Insert one million rows (OLTP writes go to hot, uncompressed chunks).
  Rng rng(42);
  const char* categories[4] = {"books", "games", "garden", "tools"};
  for (int64_t i = 0; i < 1000000; ++i) {
    sales.Insert({Cell::Int(i), Cell::Str(categories[rng.Uniform(0, 3)]),
                  Cell::Int(rng.Uniform(1, 50)),
                  Cell::Int(rng.Uniform(99, 9999)),
                  Cell::Double(rng.NextDouble() * 5)});
  }
  uint64_t hot_bytes = sales.MemoryBytes();

  // 3. Freeze everything into Data Blocks (normally only *cold* chunks are
  //    frozen; FreezeChunk() gives per-chunk control).
  Timer freeze_timer;
  sales.FreezeAll();
  std::printf("frozen %llu rows in %.0f ms: %.1f MB -> %.1f MB (%.2fx)\n",
              (unsigned long long)sales.num_rows(),
              freeze_timer.ElapsedMillis(), double(hot_bytes) / 1e6,
              double(sales.MemoryBytes()) / 1e6,
              double(hot_bytes) / double(sales.MemoryBytes()));

  // 4. Analytical scan with SARGable predicates, pushed into the scan and
  //    evaluated with SIMD on the compressed data.
  for (ScanMode mode : {ScanMode::kJit, ScanMode::kVectorizedSarg,
                        ScanMode::kDataBlocks, ScanMode::kDataBlocksPsma}) {
    Timer t;
    TableScanner scan(sales, {3, 2},
                      {Predicate::Between(2, Value::Int(10), Value::Int(20)),
                       Predicate::Eq(1, Value::Str("games"))},
                      mode);
    Batch batch;
    int64_t revenue = 0, rows = 0;
    while (scan.Next(&batch)) {
      for (uint32_t i = 0; i < batch.count; ++i) {
        revenue += batch.cols[0].i64[i] * batch.cols[1].i32[i];
        ++rows;
      }
    }
    std::printf("%-22s -> %lld rows, revenue %.2f, %.1f ms\n",
                ScanModeName(mode), (long long)rows, double(revenue) / 100,
                t.ElapsedMillis());
  }

  // 5. OLTP point accesses through a primary-key index: single-position
  //    decompression from the frozen blocks.
  PkIndex pk(sales, 0);
  RowId rid = *pk.Lookup(123456);
  std::printf("point access id=123456: category=%s price=%.2f\n",
              std::string(sales.GetStringView(rid, 1)).c_str(),
              double(sales.GetInt(rid, 3)) / 100);

  // 6. Updates relocate frozen rows into the hot tail (delete + insert).
  RowId moved = sales.UpdateRow(rid, {{1, Cell::Str("books")},
                                      {2, Cell::Int(1)},
                                      {3, Cell::Int(100)},
                                      {4, Cell::Double(5.0)}});
  pk.Put(123456, moved);
  std::printf("after update: category=%s (row now in hot chunk %llu)\n",
              std::string(sales.GetStringView(moved, 1)).c_str(),
              (unsigned long long)RowIdChunk(moved));

  // 7. Data Blocks are flat and pointer-free: spill one to disk verbatim
  // and read it back. The archive verifies every page's checksum and
  // validates every offset before the block is used.
  const char* spill = "/tmp/quickstart_blocks.dbar";
  auto spill_and_reload = [&]() -> StatusOr<DataBlock> {
    StatusOr<BlockArchive> archive = BlockArchive::Create(spill);
    if (!archive.ok()) return archive.status();
    StatusOr<size_t> id = archive->AppendBlock(*sales.frozen_block(0));
    if (!id.ok()) return id.status();
    return archive->ReadBlock(*id);
  };
  StatusOr<DataBlock> reloaded = spill_and_reload();
  std::remove(spill);
  if (!reloaded.ok()) {
    std::printf("reload failed: %s\n", reloaded.status().ToString().c_str());
    return 1;
  }
  std::printf("serialized block: %u rows, %.1f KB on disk\n",
              reloaded->num_rows(), double(reloaded->SizeBytes()) / 1024);
  return 0;
}
