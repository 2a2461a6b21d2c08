// Fault injection: failpoint semantics (spec grammar, once/every/prob,
// env arming), storage faults surfacing as typed Status instead of aborts,
// a failed release of a dead archive block (disk space only, never a write
// failure), quarantine + backoff + healing of chunks whose reload fails,
// victims that stay resident while archive appends fail, exception
// propagation through the worker pool (a parallel dense
// aggregation over failing reloads ends in an error, not a hang), and the
// end-to-end acceptance shape: a query over a broken evicted block fails
// through Session::Call while concurrent healthy queries keep completing
// with identical results.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "lifecycle/lifecycle_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "storage/block_archive.h"
#include "test_table_util.h"
#include "tpch/queries.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace datablocks {
namespace {

using fail::FailpointRegistry;
using fail::FailSpec;

std::string TempArchive(const char* name) {
  return std::string("/tmp/datablocks_fault_") + name + ".dbar";
}

/// Policy that freezes a full chunk after two epochs without accesses.
LifecycleConfig QuickCooling() {
  LifecycleConfig cfg;
  cfg.cold_threshold = 0;
  cfg.decay_shift = 32;  // clocks reset every epoch
  return cfg;
}

/// Ticks until every full chunk of `t` is evicted (budget must be 0).
void EvictAll(LifecycleManager& mgr, const Table& t, size_t full_chunks) {
  for (int i = 0; i < 10; ++i) mgr.Tick();
  for (size_t c = 0; c < full_chunks; ++c)
    ASSERT_TRUE(t.is_evicted(c)) << "chunk " << c << " not evicted";
}

/// A point read of chunk `c` (row 0, the id column): OK, or the Status of
/// the StorageException it throws when the chunk's block cannot be read.
Status PointRead(const Table& t, size_t c) {
  try {
    (void)t.GetInt(MakeRowId(c, 0), 0);
    return Status::Ok();
  } catch (const StorageException& e) {
    return e.status();
  }
}

/// Scoped failpoint: disarms on destruction even if the test fails, so one
/// test's faults never leak into the next.
struct ScopedFailpoint {
  std::string name;
  ScopedFailpoint(std::string n, std::string_view spec) : name(std::move(n)) {
    EXPECT_TRUE(FailpointRegistry::Instance().Arm(name, spec)) << spec;
  }
  ~ScopedFailpoint() { FailpointRegistry::Instance().Disarm(name); }
};

// ---------------------------------------------------------------------------
// Failpoint registry semantics
// ---------------------------------------------------------------------------

TEST(Failpoint, ParseSpecGrammar) {
  FailSpec spec;
  EXPECT_TRUE(ParseFailSpec("off", &spec));
  EXPECT_EQ(spec.mode, FailSpec::Mode::kOff);
  EXPECT_TRUE(ParseFailSpec("once", &spec));
  EXPECT_EQ(spec.mode, FailSpec::Mode::kOnce);
  EXPECT_TRUE(ParseFailSpec("always", &spec));
  EXPECT_EQ(spec.mode, FailSpec::Mode::kAlways);
  EXPECT_TRUE(ParseFailSpec("every:4", &spec));
  EXPECT_EQ(spec.mode, FailSpec::Mode::kEvery);
  EXPECT_EQ(spec.every_n, 4u);
  EXPECT_TRUE(ParseFailSpec("prob:0.25", &spec));
  EXPECT_EQ(spec.mode, FailSpec::Mode::kProb);
  EXPECT_DOUBLE_EQ(spec.prob, 0.25);

  EXPECT_FALSE(ParseFailSpec("", &spec));
  EXPECT_FALSE(ParseFailSpec("sometimes", &spec));
  EXPECT_FALSE(ParseFailSpec("every:0", &spec));
  EXPECT_FALSE(ParseFailSpec("every:x", &spec));
  EXPECT_FALSE(ParseFailSpec("prob:1.5", &spec));
  EXPECT_FALSE(ParseFailSpec("prob:-0.1", &spec));
}

TEST(Failpoint, OnceEveryAlwaysSemantics) {
  FailpointRegistry& reg = FailpointRegistry::Instance();

  reg.Arm("test.once", "once");
  EXPECT_TRUE(fail::Triggered("test.once"));
  EXPECT_FALSE(fail::Triggered("test.once"));
  EXPECT_FALSE(fail::Triggered("test.once"));
  EXPECT_EQ(reg.fires("test.once"), 1u);
  EXPECT_EQ(reg.evaluations("test.once"), 3u);

  reg.Arm("test.every", "every:3");
  int fires = 0;
  for (int i = 0; i < 9; ++i) fires += fail::Triggered("test.every") ? 1 : 0;
  EXPECT_EQ(fires, 3);

  reg.Arm("test.always", "always");
  EXPECT_TRUE(fail::Triggered("test.always"));
  EXPECT_TRUE(fail::Triggered("test.always"));
  reg.Disarm("test.always");
  EXPECT_FALSE(fail::Triggered("test.always"));

  // Re-arming resets the counters.
  reg.Arm("test.once", "once");
  EXPECT_EQ(reg.fires("test.once"), 0u);
  EXPECT_TRUE(fail::Triggered("test.once"));

  reg.Disarm("test.once");
  reg.Disarm("test.every");
  EXPECT_FALSE(fail::Triggered("test.once"));
  EXPECT_FALSE(fail::Triggered("test.every"));
}

TEST(Failpoint, ProbIsDeterministicPerPoint) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  reg.Arm("test.prob", "prob:0.5");
  std::vector<bool> run1;
  for (int i = 0; i < 64; ++i) run1.push_back(fail::Triggered("test.prob"));
  reg.Arm("test.prob", "prob:0.5");  // re-arm = reset the generator
  std::vector<bool> run2;
  for (int i = 0; i < 64; ++i) run2.push_back(fail::Triggered("test.prob"));
  EXPECT_EQ(run1, run2);
  int fires = 0;
  for (bool b : run1) fires += b ? 1 : 0;
  EXPECT_GT(fires, 0);  // p=0.5 over 64 draws: both outcomes present
  EXPECT_LT(fires, 64);
  reg.Disarm("test.prob");
}

TEST(Failpoint, NeverArmedNamesAreFreeAndFalse) {
  EXPECT_FALSE(fail::Triggered("test.never_armed_anywhere"));
  EXPECT_EQ(FailpointRegistry::Instance().fires("test.never_armed_anywhere"),
            0u);
}

// ---------------------------------------------------------------------------
// Archive write/read faults (disk full, short writes, IO errors)
// ---------------------------------------------------------------------------

TEST(ArchiveFaults, NoSpaceAppendLeavesPriorBlocksReadable) {
  Table t = MakeTestTable(3072, 1024, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("nospace");
  StatusOr<BlockArchive> created = BlockArchive::Create(path);
  ASSERT_TRUE(created.ok());
  BlockArchive& archive = *created;
  ASSERT_TRUE(archive.AppendBlock(*t.frozen_block(0), 0).ok());
  ASSERT_TRUE(archive.AppendBlock(*t.frozen_block(1), 1).ok());

  {
    ScopedFailpoint fp("archive.append.nospace", "once");
    StatusOr<size_t> id = archive.AppendBlock(*t.frozen_block(2), 2);
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kNoSpace);
  }
  // The failed append did not disturb the already-appended blocks...
  EXPECT_EQ(archive.num_blocks(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    StatusOr<DataBlock> block = archive.ReadBlock(i);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block->num_rows(), t.chunk_rows(i));
  }
  // ...and "the disk freed up": the retry lands cleanly at the same spot.
  ASSERT_TRUE(archive.AppendBlock(*t.frozen_block(2), 2).ok());
  EXPECT_EQ(archive.num_blocks(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(archive.ReadBlock(i).ok());
  std::remove(path.c_str());
}

TEST(ArchiveFaults, ShortWriteDetectedTruncatedAndRecoverable) {
  Table t = MakeTestTable(2048, 1024, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("shortwrite");
  StatusOr<BlockArchive> created = BlockArchive::Create(path);
  ASSERT_TRUE(created.ok());
  BlockArchive& archive = *created;
  ASSERT_TRUE(archive.AppendBlock(*t.frozen_block(0), 0).ok());

  {
    ScopedFailpoint fp("archive.append.short_write", "once");
    StatusOr<size_t> id = archive.AppendBlock(*t.frozen_block(1), 1);
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kNoSpace);
  }
  // The torn tail was truncated away: the file holds block 0 alone, the
  // retry succeeds and both blocks read back.
  EXPECT_EQ(std::filesystem::file_size(path), archive.PayloadBytes());
  ASSERT_TRUE(archive.AppendBlock(*t.frozen_block(1), 1).ok());
  EXPECT_EQ(std::filesystem::file_size(path), archive.PayloadBytes());
  ASSERT_EQ(archive.num_blocks(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    StatusOr<DataBlock> block = archive.ReadBlock(i);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(block->num_rows(), t.chunk_rows(i));
  }
  std::remove(path.c_str());
}

TEST(ArchiveFaults, ReadIoErrorIsTransientNotSticky) {
  Table t = MakeTestTable(1024, 1024, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("readio");
  StatusOr<BlockArchive> archive = BlockArchive::Create(path);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock(*t.frozen_block(0), 0).ok());
  {
    ScopedFailpoint fp("archive.read.ioerror", "once");
    StatusOr<DataBlock> block = archive->ReadBlock(0);
    ASSERT_FALSE(block.ok());
    EXPECT_EQ(block.status().code(), StatusCode::kIoError);
  }
  EXPECT_TRUE(archive->ReadBlock(0).ok());
  std::remove(path.c_str());
}

TEST(ArchiveFaults, ReleaseIoErrorIsReturnedAndCounted) {
  Table t = MakeTestTable(2048, 1024, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("release_io");
  StatusOr<BlockArchive> archive = BlockArchive::Create(path);
  ASSERT_TRUE(archive.ok());
  ASSERT_TRUE(archive->AppendBlock(*t.frozen_block(0), 0).ok());
  ASSERT_TRUE(archive->AppendBlock(*t.frozen_block(1), 1).ok());
  obs::Counter* write_errors =
      obs::MetricsRegistry::Default().GetCounter("archive.write_errors");
  const uint64_t errors_before = write_errors->Value();
  {
    ScopedFailpoint fp("archive.release.ioerror", "once");
    EXPECT_EQ(archive->Release(0).code(), StatusCode::kIoError);
  }
  EXPECT_EQ(write_errors->Value(), errors_before + 1);
  // The entry died before the punch failed: it stays unreadable and
  // cannot be released twice; its neighbour is untouched.
  EXPECT_EQ(archive->ReadBlock(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(archive->Release(0).code(), StatusCode::kNotFound);
  EXPECT_TRUE(archive->ReadBlock(1).ok());
  std::remove(path.c_str());
}

// A failed punch: the block is already dead, so the failure costs disk
// space only. The chunk still tombstones and detaches, its bytes stay in
// the file until the manager deletes it, nothing counts as reclaimed or as
// a write failure, and every live block still reads.
TEST(ArchiveFaults, FailedReleaseKeepsBytesAndIsNoWriteFailure) {
  Table t = MakeTestTable(4 * 2048, 2048, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("release");
  obs::Counter* write_errors =
      obs::MetricsRegistry::Default().GetCounter("archive.write_errors");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());
    const LifecycleStats before = mgr.stats();
    struct stat st_before;
    ASSERT_EQ(::stat(path.c_str(), &st_before), 0);
    const uint64_t errors_before = write_errors->Value();

    for (uint32_t r = 0; r < t.chunk_rows(1); ++r) t.Delete(MakeRowId(1, r));
    {
      ScopedFailpoint fp("archive.release.ioerror", "always");
      mgr.Tick();
    }
    EXPECT_EQ(write_errors->Value(), errors_before + 1);
    EXPECT_EQ(t.chunk_state(1), ChunkState::kTombstone);
    const LifecycleStats s = mgr.stats();
    EXPECT_EQ(s.tombstoned, 1u);
    EXPECT_EQ(s.archived_blocks, before.archived_blocks - 1);  // detached
    EXPECT_EQ(s.reclaimed_blocks, 0u);
    EXPECT_EQ(s.reclaimed_bytes, 0u);
    EXPECT_EQ(s.archive_bytes, before.archive_bytes);
    EXPECT_EQ(s.write_failures, before.write_failures);
    struct stat st_after;
    ASSERT_EQ(::stat(path.c_str(), &st_after), 0);
    EXPECT_EQ(st_after.st_blocks, st_before.st_blocks);

    // The dead block is unreadable and stays released; every other block
    // reads, and the evicted chunks scan like a resident table.
    const BlockArchive* archive = mgr.archive();
    const std::vector<ArchiveEntry> entries = archive->EntriesSnapshot();
    for (size_t id = 0; id < entries.size(); ++id) {
      StatusOr<DataBlock> block = archive->ReadBlock(id);
      if (entries[id].chunk_index == 1) {
        EXPECT_TRUE(entries[id].released);
        ASSERT_FALSE(block.ok());
        EXPECT_EQ(block.status().code(), StatusCode::kNotFound);
      } else {
        EXPECT_TRUE(block.ok()) << id << ": " << block.status().ToString();
      }
    }
    Table expect = MakeTestTable(4 * 2048, 2048, /*delete_every=*/0);
    for (uint32_t r = 0; r < expect.chunk_rows(1); ++r)
      expect.Delete(MakeRowId(1, r));
    EXPECT_TRUE(FullScan(t) == FullScan(expect));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------------
// Quarantine: failed archive reads fail the access, back off, and heal
// ---------------------------------------------------------------------------

TEST(Quarantine, FailedReloadQuarantinesThenFailsFast) {
  Table t = MakeTestTable(1024, 256, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("quarantine");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(60000);
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());

    ScopedFailpoint fp("lifecycle.reload", "always");
    // The failed read surfaces as the injected error...
    Status first = PointRead(t, 0);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.code(), StatusCode::kIoError);
    EXPECT_EQ(mgr.quarantined_chunks(), 1u);
    EXPECT_GE(mgr.stats().reload_failures, 1u);
    // ...and while the backoff runs, accesses fail fast without touching
    // storage (kUnavailable, not the injected kIoError).
    Status second = PointRead(t, 0);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.code(), StatusCode::kUnavailable);

    // The scanner surfaces the fault to the query as a typed exception
    // with table/chunk context — the query dies, the process does not.
    try {
      FullScan(t);
      FAIL() << "scan over a quarantined chunk must throw";
    } catch (const StorageException& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
      EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
    }

    // Operator fixed the disk: reset clears the backoff, the next read
    // goes to the archive for real and the quarantine heals.
    FailpointRegistry::Instance().Disarm("lifecycle.reload");
    mgr.ResetQuarantine();
    EXPECT_TRUE(PointRead(t, 0).ok());
    EXPECT_EQ(mgr.quarantined_chunks(), 0u);
    EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
  }
  std::remove(path.c_str());
}

TEST(Quarantine, TickProbesAndHealsAfterBackoff) {
  Table t = MakeTestTable(512, 256, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("heal");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(1);
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());

    {
      ScopedFailpoint fp("lifecycle.reload", "once");
      ASSERT_FALSE(PointRead(t, 0).ok());
    }
    ASSERT_EQ(mgr.quarantined_chunks(), 1u);

    // The periodic tick retries once the backoff expired; its spine read
    // now succeeds (failpoint fired only once) and the chunk heals —
    // quarantine empty, the retry accounted, the chunk still evicted.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    mgr.Tick();
    EXPECT_EQ(mgr.quarantined_chunks(), 0u);
    EXPECT_GE(mgr.stats().retry_attempts, 1u);
    EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
    // The chunk is readable again.
    EXPECT_TRUE(PointRead(t, 0).ok());
  }
  std::remove(path.c_str());
}

// A chunk is never given up on: with a zero backoff every read goes to the
// archive again, however often it failed, and so does every tick's probe.
// Once the fault is gone, the next read heals the chunk without an operator.
TEST(Quarantine, RepeatedFailuresKeepRetrying) {
  Table t = MakeTestTable(512, 256, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("retrying");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(0);  // always due
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());

    {
      ScopedFailpoint fp("lifecycle.reload", "always");
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(PointRead(t, 0).code(), StatusCode::kIoError) << i;
      EXPECT_EQ(mgr.stats().reload_failures, 10u);
      EXPECT_EQ(mgr.stats().retry_attempts, 9u);
      EXPECT_EQ(mgr.quarantined_chunks(), 1u);
      // The tick probes the chunk too, and fails with it.
      mgr.Tick();
      EXPECT_EQ(mgr.stats().reload_failures, 11u);
      EXPECT_EQ(mgr.stats().retry_attempts, 10u);
    }
    EXPECT_TRUE(PointRead(t, 0).ok());
    EXPECT_EQ(mgr.quarantined_chunks(), 0u);
    EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
  }
  std::remove(path.c_str());
}

// Inside the backoff window a read fails fast and reads nothing from the
// archive, even after the fault is gone; ResetQuarantine sends the next
// read to the archive at once.
TEST(Quarantine, BackoffFailsFastUntilReset) {
  Table t = MakeTestTable(512, 256, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("backoff");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(50);
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());

    {
      ScopedFailpoint fp("lifecycle.reload", "always");
      EXPECT_EQ(PointRead(t, 0).code(), StatusCode::kIoError);
    }
    ASSERT_EQ(mgr.quarantined_chunks(), 1u);
    const uint64_t reads = mgr.stats().archive_reads;
    EXPECT_EQ(PointRead(t, 0).code(), StatusCode::kUnavailable);
    EXPECT_EQ(mgr.stats().archive_reads, reads);
    EXPECT_EQ(mgr.stats().retry_attempts, 0u);

    mgr.ResetQuarantine();
    EXPECT_TRUE(PointRead(t, 0).ok());
    EXPECT_GT(mgr.stats().archive_reads, reads);
    EXPECT_EQ(mgr.quarantined_chunks(), 0u);
  }
  std::remove(path.c_str());
}

// A point read fetches pages once its thread's image holds the chunk's
// spine. Every read failpoint fires on that page path as on the extent
// path: the read fails with the injected Status, the chunk is quarantined,
// and after the fault is gone and the quarantine reset the same read
// succeeds.
TEST(Quarantine, PageReadsFailAndHealLikeExtentReads) {
  constexpr uint32_t kRows = 16384;
  Table t = MakeTestTable(kRows, kRows, /*delete_every=*/0, /*freeze=*/true);
  const std::string path = TempArchive("page_path");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(60000);
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());
    ASSERT_EQ(t.GetInt(MakeRowId(0, 0), 0), 0);  // the spine and one page
    struct Case {
      const char* failpoint;
      StatusCode code;
      uint32_t row;  // a row on a page the image lacks
    };
    for (const Case& c : {Case{"archive.read.ioerror", StatusCode::kIoError,
                               4000},
                          Case{"archive.read.corruption",
                               StatusCode::kCorruption, 8000},
                          Case{"lifecycle.reload", StatusCode::kIoError,
                               12000}}) {
      SCOPED_TRACE(c.failpoint);
      const uint64_t reads = mgr.stats().archive_reads;
      {
        ScopedFailpoint fp(c.failpoint, "always");
        try {
          (void)t.GetInt(MakeRowId(0, c.row), 0);
          ADD_FAILURE() << "the page read must fail";
        } catch (const StorageException& e) {
          EXPECT_EQ(e.status().code(), c.code) << e.what();
        }
        EXPECT_EQ(mgr.quarantined_chunks(), 1u);
        EXPECT_EQ(PointRead(t, 0).code(), StatusCode::kUnavailable);
      }
      mgr.ResetQuarantine();
      EXPECT_EQ(t.GetInt(MakeRowId(0, c.row), 0), int64_t(c.row));
      EXPECT_EQ(mgr.quarantined_chunks(), 0u);
      EXPECT_GT(mgr.stats().archive_reads, reads);
      EXPECT_EQ(t.chunk_state(0), ChunkState::kEvicted);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Archive write failures: victims stay resident, the budget is overrun
// ---------------------------------------------------------------------------

/// Number of budget_overrun events in `ring`.
int Overruns(const obs::TraceRing& ring) {
  int overruns = 0;
  for (const obs::TraceEvent& ev : ring.Snapshot())
    overruns += std::string(ev.name) == "budget_overrun";
  return overruns;
}

// Every tick tries the LRU victim's append once. While appends fail, each
// tick counts one write failure and publishes one budget_overrun, nothing
// evicts, and every chunk reads. The first tick after the fault evicts.
TEST(WriteFaults, FailedAppendsOverrunEachTickUntilTheDiskRecovers) {
  Table t = MakeTestTable(1024, 256, /*delete_every=*/0, /*freeze=*/true);
  const ScanResult expect = FullScan(t);
  const std::string path = TempArchive("write_faults");
  obs::TraceRing ring;
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;  // wants to evict everything
    cfg.trace = &ring;
    LifecycleManager mgr(&t, path, cfg);

    {
      ScopedFailpoint fp("archive.append.nospace", "always");
      for (int i = 0; i < 4; ++i) mgr.Tick();
    }
    EXPECT_EQ(mgr.stats().write_failures, 4u);
    EXPECT_EQ(Overruns(ring), 4);
    EXPECT_EQ(mgr.stats().evictions, 0u);
    EXPECT_EQ(mgr.stats().archived_blocks, 0u);
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      EXPECT_EQ(t.chunk_state(c), ChunkState::kFrozen) << c;
      EXPECT_TRUE(PointRead(t, c).ok()) << c;
    }
    EXPECT_TRUE(FullScan(t) == expect);

    // The disk recovered: the next tick enforces the budget again.
    mgr.Tick();
    EXPECT_EQ(mgr.stats().write_failures, 4u);
    EXPECT_EQ(Overruns(ring), 4);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_TRUE(t.is_evicted(c)) << c;
    EXPECT_TRUE(FullScan(t) == expect);
  }
  std::remove(path.c_str());
}

TEST(WriteFaults, UncreatableArchiveNeverEvicts) {
  Table t = MakeTestTable(512, 256, /*delete_every=*/0, /*freeze=*/true);
  const ScanResult expect = FullScan(t);
  obs::TraceRing ring;
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.trace = &ring;
    LifecycleManager mgr(&t, "/nonexistent_dir_xyz/archive.dbar", cfg);
    EXPECT_EQ(mgr.archive(), nullptr);
    for (int i = 0; i < 4; ++i) mgr.Tick();
    // No archive -> nothing archived, nothing evicted, nothing crashed,
    // and each tick reports the overrun.
    EXPECT_EQ(Overruns(ring), 4);
    EXPECT_EQ(mgr.stats().evictions, 0u);
    EXPECT_EQ(mgr.stats().archived_blocks, 0u);
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_FALSE(t.is_evicted(c)) << c;
    EXPECT_TRUE(FullScan(t) == expect);  // scans still work
  }
}

// ---------------------------------------------------------------------------
// Exception propagation through the worker pool
// ---------------------------------------------------------------------------

TEST(SchedulerFaults, TaskGroupPropagatesFirstTaskException) {
  Scheduler::Options opts;
  opts.num_workers = 2;
  opts.pin_workers = false;
  Scheduler scheduler(opts);
  TaskGroup group(&scheduler);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.Run([i, &ran] {
      if (i == 3) throw std::runtime_error("task 3 exploded");
      ran.fetch_add(1);
    });
  }
  try {
    group.Wait();
    FAIL() << "Wait must rethrow the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 exploded");
  }
  // Siblings of the failed task still ran to completion (no cancellation),
  // and the error was consumed: a later Wait returns normally.
  EXPECT_EQ(ran.load(), 7);
  group.Wait();
}

// ---------------------------------------------------------------------------
// End to end: storage fault fails the query, not the server
// ---------------------------------------------------------------------------

TEST(ServeFaults, BrokenEvictedBlockFailsQueryWhileHealthyQueriesFlow) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  auto db = tpch::MakeTpch(cfg);
  db->FreezeAll();

  Scheduler::Options pool;
  pool.num_workers = 2;
  pool.pin_workers = false;
  Scheduler scheduler(pool);

  const std::string path = TempArchive("serve");
  LifecycleConfig lcfg = QuickCooling();
  lcfg.memory_budget_bytes = 0;  // evict every frozen lineitem block
  lcfg.quarantine_backoff = std::chrono::milliseconds(60000);
  LifecycleManager mgr(&db->lineitem, path, lcfg);
  for (int i = 0; i < 10; ++i) mgr.Tick();
  ASSERT_TRUE(db->lineitem.is_evicted(0));

  serve::ServerConfig server_cfg;
  server_cfg.scheduler = &scheduler;
  serve::Server server(server_cfg);
  server.RegisterHandler("tpch", [&](std::string_view args) {
    tpch::ScanOptions opt;
    opt.ctx.scheduler = &scheduler;
    return tpch::RunQuery(std::stoi(std::string(args)), *db, opt).ToString();
  });
  auto session = server.OpenSession("chaos");

  // Healthy baseline: Q6 (scans evicted lineitem, transparently reloading)
  // and Q13 (customer/orders only — never touches the managed table).
  const serve::Response base6 = session->Call("tpch", "6").Get();
  ASSERT_EQ(base6.status, serve::Status::kOk) << base6.payload;
  const serve::Response base13 = session->Call("tpch", "13").Get();
  ASSERT_EQ(base13.status, serve::Status::kOk) << base13.payload;
  // Re-evict what the baseline reloaded.
  for (int i = 0; i < 10; ++i) mgr.Tick();
  ASSERT_TRUE(db->lineitem.is_evicted(0));

  obs::Counter* storage_errors =
      obs::MetricsRegistry::Default().GetCounter("serve.storage_errors");
  const uint64_t errors_before = storage_errors->Value();

  FailpointRegistry::Instance().Arm("lifecycle.reload", "always");
  // Concurrently: a query over the broken storage and a healthy one.
  serve::ResponseFuture broken = session->Call("tpch", "6");
  serve::ResponseFuture healthy = session->Call("tpch", "13");
  const serve::Response broken_resp = broken.Get();
  const serve::Response healthy_resp = healthy.Get();

  // The storage fault failed THIS query — with the scanner's context in
  // the payload — while the server, session and the healthy query are
  // untouched and bit-identical to the baseline.
  EXPECT_EQ(broken_resp.status, serve::Status::kError);
  EXPECT_NE(broken_resp.payload.find("lineitem"), std::string::npos)
      << broken_resp.payload;
  EXPECT_EQ(healthy_resp.status, serve::Status::kOk);
  EXPECT_EQ(healthy_resp.payload, base13.payload);
  EXPECT_GT(storage_errors->Value(), errors_before);
  EXPECT_GE(mgr.quarantined_chunks(), 1u);

  // Storage recovers: the same verb heals end to end.
  FailpointRegistry::Instance().Disarm("lifecycle.reload");
  mgr.ResetQuarantine();
  const serve::Response healed = session->Call("tpch", "6").Get();
  EXPECT_EQ(healed.status, serve::Status::kOk) << healed.payload;
  EXPECT_EQ(healed.payload, base6.payload);

  session->Close();
  server.Shutdown();
  std::remove(path.c_str());
}

/// Runs TPC-H query `q` with `lifecycle.reload` failing every third
/// reload, on its own thread so a hang fails the test at a 60 s deadline
/// instead of stalling the whole suite. Returns "completed", "storage
/// error: ..." or "other exception".
std::string QueryUnderFailingReloads(int q, const tpch::TpchDatabase& db,
                                     const tpch::ScanOptions& opt) {
  std::promise<std::string> outcome;
  std::future<std::string> result = outcome.get_future();
  ScopedFailpoint fp("lifecycle.reload", "every:3");
  std::thread runner([&] {
    try {
      tpch::RunQuery(q, db, opt);
      outcome.set_value("completed");
    } catch (const StorageException& e) {
      outcome.set_value(std::string("storage error: ") + e.what());
    } catch (...) {
      outcome.set_value("other exception");
    }
  });
  if (result.wait_for(std::chrono::seconds(60)) !=
      std::future_status::ready) {
    std::fprintf(stderr, "Q%d over failing reloads hung past 60 s\n", q);
    std::abort();
  }
  runner.join();
  return result.get();
}

/// Lifecycle settings that evict every frozen block and keep a chunk whose
/// reload failed quarantined for the rest of the test.
LifecycleConfig EvictEverything() {
  LifecycleConfig lcfg = QuickCooling();
  lcfg.memory_budget_bytes = 0;
  lcfg.quarantine_backoff = std::chrono::milliseconds(60000);
  return lcfg;
}

TEST(ReloadFaults, ParallelDenseQueryFailsInsteadOfHanging) {
  // A slot whose scan throws on a failed reload stops; its siblings must
  // still finish so the parallel region joins and the query fails. Q1
  // aggregates into per-slot arrays (ParAgg); Q18 sums lineitem per order
  // through PartitionedDense, whose small domain here is one partition,
  // so every slot flushes into the same lock. No flush keeps that lock,
  // so the stopped slot blocks nobody.
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  cfg.chunk_capacity = 2048;  // ~30 lineitem chunks: every slot gets morsels
  auto db = tpch::MakeTpch(cfg);
  db->FreezeAll();

  Scheduler::Options pool;
  pool.num_workers = 4;
  pool.pin_workers = false;
  Scheduler scheduler(pool);
  tpch::ScanOptions opt;
  opt.ctx.threads = 4;
  opt.ctx.scheduler = &scheduler;
  const std::vector<int> queries = {1, 18};
  std::vector<std::string> baselines;
  for (int q : queries) {
    baselines.push_back(tpch::RunQuery(q, *db, opt).ToString());
  }

  const std::string path = TempArchive("reload_deadlock");
  LifecycleManager mgr(&db->lineitem, path, EvictEverything());
  for (size_t i = 0; i < queries.size(); ++i) {
    const int q = queries[i];
    for (int t = 0; t < 10; ++t) mgr.Tick();  // evicts every lineitem block
    ASSERT_TRUE(db->lineitem.is_evicted(0)) << "Q" << q;

    const std::string got = QueryUnderFailingReloads(q, *db, opt);
    EXPECT_EQ(got.rfind("storage error: ", 0), 0u) << "Q" << q << ": " << got;

    // Nothing stayed locked: with storage healed the same query completes
    // with the fault-free result.
    mgr.ResetQuarantine();
    EXPECT_EQ(tpch::RunQuery(q, *db, opt).ToString(), baselines[i])
        << "Q" << q;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Environment-armed failpoints (run via the fault_injection_test_env_armed
// ctest entry, which sets DATABLOCKS_FAILPOINTS=lifecycle.reload=every:3)
// ---------------------------------------------------------------------------

TEST(FailpointEnv, EnvVariableArmsFailpoints) {
  if (std::getenv("DATABLOCKS_FAILPOINTS") == nullptr)
    GTEST_SKIP() << "DATABLOCKS_FAILPOINTS not set";
  EXPECT_TRUE(FailpointRegistry::AnyArmed());
  // Spec every:3 -> any window of 3 consecutive evaluations fires once.
  int fires = 0;
  for (int i = 0; i < 3; ++i)
    fires += fail::Triggered("lifecycle.reload") ? 1 : 0;
  EXPECT_EQ(fires, 1);
}

TEST(FailpointEnv, ReloadsSurviveInjectedFaultsProcessWide) {
  if (std::getenv("DATABLOCKS_FAILPOINTS") == nullptr)
    GTEST_SKIP() << "DATABLOCKS_FAILPOINTS not set";
  Table t = MakeTestTable(1024, 256, /*delete_every=*/0, /*freeze=*/true);
  const ScanResult resident = FullScan(t);
  const std::string path = TempArchive("env");
  {
    LifecycleConfig cfg = QuickCooling();
    cfg.memory_budget_bytes = 0;
    cfg.quarantine_backoff = std::chrono::milliseconds(0);
    LifecycleManager mgr(&t, path, cfg);
    EvictAll(mgr, t, t.num_chunks());

    // Point reads race the every:3 fault injection: some fail with the
    // injected error, some succeed — the process survives all of it and
    // every chunk is eventually readable.
    int failures = 0, successes = 0;
    for (int round = 0; round < 12; ++round) {
      for (size_t c = 0; c < t.num_chunks(); ++c) {
        if (PointRead(t, c).ok()) {
          ++successes;
        } else {
          ++failures;
        }
      }
      mgr.ResetQuarantine();
    }
    EXPECT_GT(successes, 0);
    EXPECT_GT(failures, 0);
    // Drain: every:3 lets 2 of 3 reads through, so a few bounded retries
    // read every chunk.
    for (size_t c = 0; c < t.num_chunks(); ++c) {
      bool readable = false;
      for (int attempt = 0; attempt < 10 && !readable; ++attempt) {
        mgr.ResetQuarantine();
        readable = PointRead(t, c).ok();
      }
      ASSERT_TRUE(readable) << "chunk " << c;
    }
    // The chunks stay evicted, so a scan reads all four through the
    // faults — one of any three reads fails, and the scan throws. Once
    // disarmed, scans are clean and match the table before eviction.
    for (size_t c = 0; c < t.num_chunks(); ++c)
      EXPECT_EQ(t.chunk_state(c), ChunkState::kEvicted) << c;
    mgr.ResetQuarantine();
    EXPECT_THROW(FullScan(t), StorageException);
    FailpointRegistry::Instance().Disarm("lifecycle.reload");
    mgr.ResetQuarantine();
    EXPECT_TRUE(FullScan(t) == resident);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datablocks
