// Compressed execution end-to-end (the PR 6 tentpole): code-space predicate
// evaluation must be bit-identical to decompress-then-filter across all four
// compression schemes, NULLs, deleted rows and evicted blocks; frozen scans
// in the Data Blocks modes must carry dictionary codes (late string
// materialization) rather than eagerly decoded strings; and deletes made
// after archiving stay in table memory, honoured by scans of evicted chunks.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "datablock/compression.h"
#include "exec/dict_memo.h"
#include "exec/partitioned_agg.h"
#include "exec/scheduler.h"
#include "exec/table_scanner.h"
#include "lifecycle/lifecycle_manager.h"
#include "storage/table.h"
#include "tpch/queries.h"
#include "util/like.h"
#include "util/rng.h"

namespace datablocks {
namespace {

// One column per compression scheme, strings and ints, nullable variants,
// and a double for the non-integer translation path.
Schema MixedSchema() {
  return Schema({{"id", TypeId::kInt64},             // 0: truncation
                 {"const_i", TypeId::kInt32},        // 1: single-value
                 {"small", TypeId::kInt32},          // 2: truncation
                 {"wide", TypeId::kInt64},           // 3: raw
                 {"name", TypeId::kString},          // 4: dictionary
                 {"const_s", TypeId::kString},       // 5: single-value string
                 {"opt_s", TypeId::kString, true},   // 6: dictionary + NULLs
                 {"opt_i", TypeId::kInt32, true},    // 7: truncation + NULLs
                 {"score", TypeId::kDouble}});       // 8: double
}

Table MakeMixedTable(uint32_t n, uint32_t chunk_capacity, uint64_t seed,
                     uint32_t delete_every, uint32_t freeze_chunks) {
  Table t("mixed", MixedSchema(), chunk_capacity);
  Rng rng(seed);
  std::vector<RowId> ids;
  ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ids.push_back(t.Insert(
        {Cell::Int(i),
         Cell::Int(42),
         Cell::Int(int32_t(100 + rng.Uniform(0, 255))),
         Cell::Int((i % 2 != 0 ? 1 : -1) * ((int64_t(1) << 40) + i)),
         Cell::Str("name_" + std::to_string(rng.Uniform(0, 40))),
         Cell::Str("constant"),
         rng.Uniform(0, 3) == 0
             ? Cell::Null()
             : Cell::Str("opt_" + std::to_string(rng.Uniform(0, 30))),
         rng.Uniform(0, 3) == 0 ? Cell::Null()
                                : Cell::Int(int32_t(rng.Uniform(0, 100))),
         Cell::Double(rng.NextDouble() * 100)}));
  }
  if (delete_every != 0) {
    for (uint32_t i = 0; i < n; i += delete_every) t.Delete(ids[i]);
  }
  for (uint32_t c = 0; c < freeze_chunks && c < t.num_chunks(); ++c)
    t.FreezeChunk(c);
  return t;
}

/// Canonical digest of a scan result (order-sensitive, all columns, NULLs
/// marked) for bit-identity comparison across modes.
std::string Digest(const Table& t, const std::vector<uint32_t>& cols,
                   const std::vector<Predicate>& preds, ScanMode mode) {
  TableScanner scan(t, cols, preds, mode);
  Batch b;
  std::string digest;
  uint64_t rows = 0;
  while (scan.Next(&b)) {
    for (uint32_t i = 0; i < b.count; ++i) {
      ++rows;
      for (size_t c = 0; c < cols.size(); ++c) {
        const ColumnVector& cv = b.cols[c];
        if (cv.IsNull(i)) {
          digest += "N|";
          continue;
        }
        switch (cv.type) {
          case TypeId::kInt32:
          case TypeId::kDate:
          case TypeId::kChar1:
            digest += std::to_string(cv.i32[i]);
            break;
          case TypeId::kInt64:
            digest += std::to_string(cv.i64[i]);
            break;
          case TypeId::kDouble:
            digest += std::to_string(cv.f64[i]);
            break;
          case TypeId::kString:
            digest += cv.Str(i);
            break;
        }
        digest += '|';
      }
      digest += '\n';
    }
  }
  digest += "rows=" + std::to_string(rows);
  return digest;
}

/// Code space (kDataBlocks, kDataBlocksPsma) and SARG pushdown on
/// uncompressed vectors (kVectorizedSarg) vs decompress-then-filter
/// (kVectorized) vs the tuple-at-a-time reference (kJit).
void ExpectCodeSpaceMatchesDecompress(const Table& t,
                                      const std::vector<Predicate>& preds,
                                      const char* label) {
  std::vector<uint32_t> cols(t.schema().num_columns());
  for (uint32_t c = 0; c < cols.size(); ++c) cols[c] = c;
  const std::string ref = Digest(t, cols, preds, ScanMode::kVectorized);
  for (ScanMode mode : {ScanMode::kVectorizedSarg, ScanMode::kDataBlocks,
                        ScanMode::kDataBlocksPsma, ScanMode::kJit}) {
    EXPECT_EQ(Digest(t, cols, preds, mode), ref)
        << label << " mode=" << ScanModeName(mode);
  }
}

TEST(CompressedExec, AllFourSchemesPresent) {
  Table t = MakeMixedTable(2000, 512, 11, /*delete_every=*/0,
                           /*freeze_chunks=*/3);
  const DataBlock* b = t.frozen_block(0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->compression(1), Compression::kSingleValue);
  EXPECT_EQ(b->compression(2), Compression::kTruncation);
  EXPECT_EQ(b->compression(3), Compression::kRaw);
  EXPECT_EQ(b->compression(4), Compression::kDictionary);
  EXPECT_EQ(b->compression(5), Compression::kSingleValue);
  EXPECT_EQ(b->compression(6), Compression::kDictionary);
}

TEST(CompressedExec, CodeSpacePredicatesAreBitIdentical) {
  // Mixed storage: frozen prefix (compressed, coded batches), hot tail
  // (uncompressed), deleted rows sprinkled through both.
  Table t = MakeMixedTable(3000, 512, 23, /*delete_every=*/7,
                           /*freeze_chunks=*/4);

  // Equality / inequality on every scheme.
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Eq(4, Value::Str("name_17"))}, "dict-eq");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Ne(4, Value::Str("name_17"))}, "dict-ne");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Eq(5, Value::Str("constant"))}, "single-eq-hit");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Eq(5, Value::Str("other"))}, "single-eq-miss");

  // IN: scattered codes (set kernel), adjacent sorted values (contiguous ->
  // range lowering), absent values (no-match proof without any unpack),
  // and partially-absent lists.
  ExpectCodeSpaceMatchesDecompress(
      t,
      {Predicate::In(4, {Value::Str("name_3"), Value::Str("name_25"),
                         Value::Str("name_9")})},
      "dict-in-scattered");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(4, {Value::Str("name_10"), Value::Str("name_11")})},
      "dict-in-contiguous");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(4, {Value::Str("absent"), Value::Str("zzz")})},
      "dict-in-empty");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(4, {Value::Str("name_5"), Value::Str("absent")})},
      "dict-in-partial");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(6, {Value::Str("opt_1"), Value::Str("opt_20")})},
      "dict-in-nullable");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(2, {Value::Int(120), Value::Int(121)})},
      "trunc-in-contiguous");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(2, {Value::Int(120), Value::Int(300)})},
      "trunc-in-scattered");
  ExpectCodeSpaceMatchesDecompress(
      t,
      {Predicate::In(3, {Value::Int(-((int64_t(1) << 40) + 2)),
                         Value::Int((int64_t(1) << 40) + 3)})},
      "raw-in-signed");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(1, {Value::Int(42), Value::Int(7)})},
      "single-in-hit");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(7, {Value::Int(3), Value::Int(97)})},
      "trunc-in-nullable");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::In(8, {Value::Double(1.5), Value::Double(99.25)})},
      "double-in");

  // Prefix: mid-dictionary range, full coverage, and no-match.
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Prefix(4, Value::Str("name_1"))}, "prefix-range");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Prefix(4, Value::Str("name_"))}, "prefix-all");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Prefix(4, Value::Str("zzz"))}, "prefix-none");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Prefix(6, Value::Str("opt_2"))}, "prefix-nullable");
  ExpectCodeSpaceMatchesDecompress(
      t, {Predicate::Prefix(5, Value::Str("const"))}, "prefix-single");

  // String ranges ride the same order-preserving code comparison.
  ExpectCodeSpaceMatchesDecompress(
      t,
      {Predicate::Between(4, Value::Str("name_12"), Value::Str("name_20"))},
      "dict-between");

  // Conjunction across schemes: code-space string pred + int range + IN.
  ExpectCodeSpaceMatchesDecompress(
      t,
      {Predicate::Prefix(4, Value::Str("name_2")),
       Predicate::Between(2, Value::Int(150), Value::Int(300)),
       Predicate::In(7, {Value::Int(10), Value::Int(11), Value::Int(50)})},
      "conjunction");
}

TEST(CompressedExec, FrozenBatchesCarryCodesAndMaterializeLate) {
  Table t = MakeMixedTable(1500, 512, 31, /*delete_every=*/0,
                           /*freeze_chunks=*/2);  // 2 frozen + hot tail
  TableScanner coded(t, {4, 6, 0}, {}, ScanMode::kDataBlocks);
  TableScanner eager(t, {4, 6, 0}, {}, ScanMode::kVectorized);
  Batch cb, eb;
  size_t coded_batches = 0, hot_batches = 0;
  while (coded.Next(&cb)) {
    ASSERT_TRUE(eager.Next(&eb));
    ASSERT_EQ(cb.count, eb.count);
    const bool frozen_batch = cb.cols[0].coded();
    if (frozen_batch) {
      ++coded_batches;
      // Late materialization: codes + the block's dictionary, no string
      // copies.
      EXPECT_TRUE(cb.cols[0].str.empty());
      EXPECT_EQ(cb.cols[0].codes.size(), cb.count);
      EXPECT_GT(cb.cols[0].dict_size(), 0u);
      EXPECT_TRUE(cb.cols[1].coded());  // nullable strings are coded too
    } else {
      ++hot_batches;
      EXPECT_EQ(cb.cols[0].str.size(), cb.count);
    }
    // The unified accessor agrees with the eager decode in either form.
    for (uint32_t i = 0; i < cb.count; ++i) {
      EXPECT_EQ(cb.cols[0].Str(i), eb.cols[0].Str(i));
      EXPECT_EQ(cb.cols[1].IsNull(i), eb.cols[1].IsNull(i));
      if (!cb.cols[1].IsNull(i)) {
        EXPECT_EQ(cb.cols[1].Str(i), eb.cols[1].Str(i));
      }
    }
  }
  EXPECT_FALSE(eager.Next(&eb));
  EXPECT_GT(coded_batches, 0u);  // frozen chunks emitted codes
  EXPECT_GT(hot_batches, 0u);    // hot tail still materializes
  // The eager path never emits codes.
  TableScanner check(t, {4}, {}, ScanMode::kVectorized);
  while (check.Next(&eb)) EXPECT_FALSE(eb.cols[0].coded());
}

TEST(CompressedExec, EvictedBlocksAgreeAndPruneInCodeSpace) {
  Table t = MakeMixedTable(2000, 512, 47, /*delete_every=*/9,
                           /*freeze_chunks=*/4);
  std::vector<uint32_t> cols = {0, 2, 4, 6};
  const std::vector<Predicate> in_pred = {
      Predicate::In(4, {Value::Str("name_2"), Value::Str("name_30")})};
  const std::string ref_in = Digest(t, cols, in_pred, ScanMode::kDataBlocks);

  const std::string path = "/tmp/datablocks_compressed_exec_evict.dbar";
  {
    LifecycleConfig cfg;
    cfg.memory_budget_bytes = 0;  // evict everything frozen
    LifecycleManager mgr(&t, path, cfg);
    mgr.Tick();
    size_t evicted = 0;
    for (size_t c = 0; c < t.num_chunks(); ++c)
      evicted += t.chunk_state(c) == ChunkState::kEvicted ? 1 : 0;
    ASSERT_GT(evicted, 0u);

    // Summary-only pruning: IN / Prefix values outside every block's
    // dictionary domain are decided from resident summaries alone — no
    // archive reads.
    const uint64_t reads_before = mgr.stats().archive_reads;
    EXPECT_EQ(Digest(t, cols,
                     {Predicate::In(4, {Value::Str("absent"),
                                        Value::Str("aaa")})},
                     ScanMode::kDataBlocksPsma)
                  .substr(0, 6),
              "rows=0");
    EXPECT_EQ(Digest(t, cols, {Predicate::Prefix(4, Value::Str("zzz"))},
                     ScanMode::kDataBlocksPsma)
                  .substr(0, 6),
              "rows=0");
    EXPECT_EQ(mgr.stats().archive_reads, reads_before);

    // Matching predicates transparently reload and agree bit-for-bit.
    EXPECT_EQ(Digest(t, cols, in_pred, ScanMode::kDataBlocks), ref_in);
  }
  std::remove(path.c_str());
}

TEST(CompressedExec, DictFilterMatchesDirectEvaluation) {
  Table t = MakeMixedTable(1500, 512, 59, /*delete_every=*/0,
                           /*freeze_chunks=*/2);
  auto pred = [](std::string_view s) { return LikeMatch(s, "name_1%"); };
  for (ScanMode mode : {ScanMode::kDataBlocks, ScanMode::kVectorized}) {
    TableScanner scan(t, {4}, {}, mode);
    Batch b;
    while (scan.Next(&b)) {
      DictFilter filter(b.cols[0], pred);
      for (uint32_t i = 0; i < b.count; ++i)
        EXPECT_EQ(filter(i), pred(b.cols[0].Str(i)));
    }
  }
}

TEST(CompressedExec, InternerBatchKeysMatchDirectInterning) {
  Table t = MakeMixedTable(1500, 512, 67, /*delete_every=*/0,
                           /*freeze_chunks=*/2);
  StringKeyInterner via_codes, direct;
  TableScanner scan(t, {4}, {}, ScanMode::kDataBlocks);
  Batch b;
  while (scan.Next(&b)) {
    StringKeyInterner::BatchKeys keys(via_codes, b.cols[0]);
    for (uint32_t i = 0; i < b.count; ++i) {
      const uint32_t id = keys(i);
      EXPECT_EQ(id, direct.Intern(std::string(b.cols[0].Str(i))));
      EXPECT_EQ(via_codes.name(id), b.cols[0].Str(i));
    }
  }
  EXPECT_EQ(via_codes.size(), direct.size());
}

TEST(CompressedExec, DeletesAfterArchivingStayInTableMemory) {
  const uint32_t kChunk = 256;
  Table t = MakeMixedTable(4 * kChunk, kChunk, 73, /*delete_every=*/0,
                           /*freeze_chunks=*/4);
  Table ref = MakeMixedTable(4 * kChunk, kChunk, 73, /*delete_every=*/0,
                             /*freeze_chunks=*/4);
  const std::string spill = "/tmp/datablocks_compressed_exec_spill.dbar";
  const std::vector<uint32_t> cols = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  LifecycleConfig cfg;
  cfg.memory_budget_bytes = t.frozen_block(3)->SizeBytes();
  LifecycleManager mgr(&t, spill, cfg);
  mgr.Tick();  // archive and evict 0..2 (LRU ties); 3 stays unwritten
  ASSERT_EQ(mgr.stats().archived_blocks, 3u);
  for (size_t c = 0; c < 3; ++c) ASSERT_TRUE(t.is_evicted(c)) << c;
  ASSERT_EQ(t.chunk_state(3), ChunkState::kFrozen);
  const uint64_t archive_bytes = mgr.stats().archive_bytes;

  // Deletes after archiving land in evicted and resident chunks alike;
  // none of them reaches the archive, and scans of the evicted chunks
  // honour them as the resident reference table does.
  for (Table* table : {&t, &ref}) {
    for (uint32_t r = 0; r < kChunk; ++r) {
      if (r % 5 == 0) table->Delete(MakeRowId(0, r));
      if (r % 3 == 0) table->Delete(MakeRowId(1, r));
      if (r % 2 == 0) table->Delete(MakeRowId(3, r));
    }
  }
  ASSERT_TRUE(t.is_evicted(0));
  ASSERT_FALSE(t.is_evicted(3));
  mgr.Tick();
  EXPECT_EQ(mgr.stats().archived_blocks, 3u);
  EXPECT_EQ(mgr.stats().archive_bytes, archive_bytes);
  for (size_t c = 0; c < 4; ++c)
    EXPECT_EQ(t.deleted_in_chunk(c), ref.deleted_in_chunk(c)) << c;
  EXPECT_EQ(t.num_visible(), ref.num_visible());
  EXPECT_EQ(Digest(t, cols, {}, ScanMode::kDataBlocks),
            Digest(ref, cols, {}, ScanMode::kDataBlocks));
  EXPECT_TRUE(t.is_evicted(0));
}

// String-keyed queries (interned group-by keys, dictionary memos, code-space
// pushdowns) must produce identical rows sequentially and on 4 workers.
TEST(CompressedExec, StringKeyedQueriesAgreeAcrossThreads) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.005;
  cfg.chunk_capacity = 1024;
  auto frozen = tpch::MakeTpch(cfg);
  frozen->FreezeAll();
  Scheduler sched(Scheduler::Options{.num_workers = 4});
  for (int q : {2, 4, 12, 13, 14, 16, 19, 20, 22}) {
    tpch::ScanOptions seq;
    seq.mode = ScanMode::kDataBlocksPsma;
    tpch::QueryResult ref = tpch::RunQuery(q, *frozen, seq);
    tpch::ScanOptions par = seq;
    par.ctx.threads = 4;
    par.ctx.scheduler = &sched;
    EXPECT_EQ(tpch::RunQuery(q, *frozen, par).rows, ref.rows) << "Q" << q;
  }
}

}  // namespace
}  // namespace datablocks
