// Shard-parallel execution: NUMA-aware morsel handout, shard routing and
// its degenerate shapes (single shard, empty shard), per-shard profile
// slices, and the tentpole guarantee — all 22 TPC-H queries bit-identical
// between the single-table engine and 4-shard execution, hot + frozen +
// evicted, t1 and t4.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "exec/scheduler.h"
#include "exec/shard.h"
#include "lifecycle/lifecycle_manager.h"
#include "tpch/queries.h"

namespace datablocks {
namespace {

// ---------------------------------------------------------------------------
// NodeMorselDispatcher
// ---------------------------------------------------------------------------

TEST(NodeMorselDispatcher, PrefersLocalChunksThenSteals) {
  // Chunks homed on two synthetic nodes. A node-0 claimant must drain all
  // node-0 chunks before touching node-1's, and vice versa.
  const std::vector<int> nodes = {0, 1, 0, 1, 0, 1};
  NodeMorselDispatcher d(nodes);
  EXPECT_EQ(d.total(), nodes.size());

  std::vector<bool> claimed(nodes.size(), false);
  size_t begin = 0, end = 0;
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(d.Next(0, &begin, &end));
    EXPECT_EQ(end, begin + 1);
    EXPECT_EQ(nodes[begin], 0) << "remote chunk claimed while local remained";
    claimed[begin] = true;
  }
  EXPECT_EQ(d.local_claims(), 3u);
  EXPECT_EQ(d.remote_claims(), 0u);

  // Node 0 exhausted its own group: further claims steal from node 1.
  while (d.Next(0, &begin, &end)) {
    EXPECT_EQ(nodes[begin], 1);
    EXPECT_FALSE(claimed[begin]);
    claimed[begin] = true;
  }
  EXPECT_EQ(d.remote_claims(), 3u);
  EXPECT_TRUE(std::all_of(claimed.begin(), claimed.end(),
                          [](bool b) { return b; }));
  EXPECT_FALSE(d.Next(0, &begin, &end));  // exhausted stays exhausted
  EXPECT_FALSE(d.Next(1, &begin, &end));
}

TEST(NodeMorselDispatcher, UnknownNodesNeverCountRemote) {
  // Single-node boxes and unstamped chunks report node -1 on one side or
  // the other; none of those claims may count as remote.
  NodeMorselDispatcher d({-1, -1, -1});
  size_t begin = 0, end = 0;
  size_t n = 0;
  while (d.Next(0, &begin, &end)) ++n;
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(d.remote_claims(), 0u);
}

TEST(NodeMorselDispatcher, EmptyTableYieldsNothing) {
  NodeMorselDispatcher d({});
  size_t begin = 0, end = 0;
  EXPECT_FALSE(d.Next(0, &begin, &end));
  EXPECT_EQ(d.total(), 0u);
}

// ---------------------------------------------------------------------------
// ShardedTable
// ---------------------------------------------------------------------------

Table MakeKeyedTable(int64_t rows, uint32_t chunk_capacity) {
  Table t("keyed",
          Schema({{"k", TypeId::kInt64, false}, {"v", TypeId::kInt64, false}}),
          chunk_capacity);
  for (int64_t i = 0; i < rows; ++i) {
    const std::vector<Value> row = {Value::Int(i), Value::Int(i * 10)};
    t.Insert(row);
  }
  return t;
}

TEST(ShardedTable, RoutesEveryVisibleRowByHash) {
  Table t = MakeKeyedTable(1000, 128);
  // Deleted rows must not travel into any shard.
  for (int64_t i = 0; i < 1000; i += 10) {
    t.Delete(MakeRowId(size_t(i) / 128, uint32_t(i % 128)));
  }
  ShardedTable st(t, 4, /*route_col=*/0);
  EXPECT_EQ(st.num_shards(), 4u);
  EXPECT_EQ(st.num_rows(), t.num_visible());

  uint64_t seen = 0;
  for (unsigned s = 0; s < st.num_shards(); ++s) {
    const Table& shard = st.shard(s);
    for (size_t c = 0; c < shard.num_chunks(); ++c) {
      for (uint32_t r = 0; r < shard.chunk_rows(c); ++r) {
        const RowId id = MakeRowId(c, r);
        const int64_t k = shard.GetInt(id, 0);
        EXPECT_EQ(ShardedTable::ShardOf(k, 4), s) << "key " << k;
        EXPECT_EQ(shard.GetInt(id, 1), k * 10);  // payload rode along
        EXPECT_NE(k % 10, 0) << "deleted row leaked into shard";
        ++seen;
      }
    }
  }
  EXPECT_EQ(seen, t.num_visible());
}

TEST(ShardedTable, SingleShardDegenerateIsACopy) {
  Table t = MakeKeyedTable(100, 64);
  ShardedTable st(t, 1, 0);
  EXPECT_EQ(st.num_shards(), 1u);
  EXPECT_EQ(st.shard(0).num_rows(), 100u);
}

TEST(ShardedTable, EmptySourceYieldsEmptyShards) {
  Table t("empty", Schema({{"k", TypeId::kInt64, false}}), 64);
  ShardedTable st(t, 4, 0);
  EXPECT_EQ(st.num_rows(), 0u);
  // Scans over empty shards are fine (zero chunks, zero morsels).
  for (unsigned s = 0; s < 4; ++s) EXPECT_EQ(st.shard(s).num_chunks(), 0u);
}

TEST(ShardSet, FindsBySourceAddress) {
  Table a = MakeKeyedTable(10, 64);
  Table b = MakeKeyedTable(10, 64);
  ShardSet set;
  set.Add(a, 4, 0);
  EXPECT_NE(set.Find(a), nullptr);
  EXPECT_EQ(set.Find(b), nullptr);  // unsharded table: single-table path
  EXPECT_EQ(set.num_shards(), 4u);
}

}  // namespace
}  // namespace datablocks

// ---------------------------------------------------------------------------
// TPC-H: sharded execution is bit-identical to the single-table engine
// ---------------------------------------------------------------------------

namespace datablocks::tpch {
namespace {

class ShardParity : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.chunk_capacity = 4096;

    db_ = MakeTpch(cfg).release();
    hot_shards_ = new ShardSet(BuildTpchShards(*db_, 4));

    frozen_ = MakeTpch(cfg).release();
    frozen_shards_ = new ShardSet(BuildTpchShards(*frozen_, 4));
    frozen_->FreezeAll();
    frozen_shards_->FreezeAll();

    // Evicted variant: freeze a second shard set of the frozen db, then
    // evict every shard block to its archive. The managers stay alive for
    // the whole suite — they own the fetchers that fault blocks back in.
    evicted_shards_ = new ShardSet(BuildTpchShards(*frozen_, 4));
    evicted_shards_->FreezeAll();
    managers_ = new std::vector<std::unique_ptr<LifecycleManager>>();
    LifecycleConfig lcfg;
    lcfg.memory_budget_bytes = 0;  // evict everything frozen
    for (size_t t = 0; t < evicted_shards_->size(); ++t) {
      ShardedTable& st = evicted_shards_->at(t);
      for (unsigned s = 0; s < st.num_shards(); ++s) {
        char path[128];
        std::snprintf(path, sizeof(path),
                      "/tmp/datablocks_exchange_test_%zu_%u.dbar", t, s);
        managers_->push_back(std::make_unique<LifecycleManager>(
            &st.shard_mut(s), path, lcfg));
        managers_->back()->Tick();
      }
    }
  }
  static void TearDownTestSuite() {
    delete managers_;
    delete evicted_shards_;
    delete frozen_shards_;
    delete frozen_;
    delete hot_shards_;
    delete db_;
    managers_ = nullptr;
    evicted_shards_ = frozen_shards_ = hot_shards_ = nullptr;
    frozen_ = db_ = nullptr;
  }

  static TpchDatabase* db_;       // hot
  static TpchDatabase* frozen_;   // fully compressed
  static ShardSet* hot_shards_;
  static ShardSet* frozen_shards_;
  static ShardSet* evicted_shards_;
  static std::vector<std::unique_ptr<LifecycleManager>>* managers_;
};

TpchDatabase* ShardParity::db_ = nullptr;
TpchDatabase* ShardParity::frozen_ = nullptr;
ShardSet* ShardParity::hot_shards_ = nullptr;
ShardSet* ShardParity::frozen_shards_ = nullptr;
ShardSet* ShardParity::evicted_shards_ = nullptr;
std::vector<std::unique_ptr<LifecycleManager>>* ShardParity::managers_ =
    nullptr;

TEST_P(ShardParity, FourShardsMatchSingleTableEverywhere) {
  const int q = GetParam();
  Scheduler sched(Scheduler::Options{.num_workers = 4});

  // Reference: the unsharded sequential engine on the hot database.
  ScanOptions ref_opt;
  ref_opt.mode = ScanMode::kJit;
  const QueryResult ref = RunQuery(q, *db_, ref_opt);

  // Hot shards, t1 and t4.
  for (unsigned threads : {1u, 4u}) {
    ScanOptions o;
    o.mode = ScanMode::kJit;
    o.ctx.threads = threads;
    o.ctx.scheduler = &sched;
    o.ctx.shards = hot_shards_;
    EXPECT_EQ(RunQuery(q, *db_, o).rows, ref.rows)
        << "hot shards, t" << threads;
  }

  // Frozen shards (Data Blocks + PSMA), t1 and t4.
  for (unsigned threads : {1u, 4u}) {
    ScanOptions o;
    o.mode = ScanMode::kDataBlocksPsma;
    o.ctx.threads = threads;
    o.ctx.scheduler = &sched;
    o.ctx.shards = frozen_shards_;
    EXPECT_EQ(RunQuery(q, *frozen_, o).rows, ref.rows)
        << "frozen shards, t" << threads;
  }

  // Evicted shards: every shard block faults in from its archive.
  {
    ScanOptions o;
    o.mode = ScanMode::kDataBlocksPsma;
    o.ctx.threads = 2;
    o.ctx.scheduler = &sched;
    o.ctx.shards = evicted_shards_;
    EXPECT_EQ(RunQuery(q, *frozen_, o).rows, ref.rows) << "evicted shards";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ShardParity, ::testing::Range(1, 23));

TEST(ShardProfile, RecordsPerShardSlices) {
  TpchConfig cfg;
  cfg.scale_factor = 0.005;
  cfg.chunk_capacity = 2048;
  auto db = MakeTpch(cfg);
  ShardSet shards = BuildTpchShards(*db, 4);

  obs::QueryProfile profile("Q6", "sharded", /*threads=*/2, /*shards=*/4);
  ScanOptions o;
  o.mode = ScanMode::kJit;
  o.ctx.threads = 2;
  o.ctx.shards = &shards;
  o.ctx.profile = &profile;
  RunQuery(6, *db, o);

  ASSERT_GE(profile.num_pipelines(), 1u);
  uint64_t shard_rows = 0;
  size_t slices = 0;
  for (size_t p = 0; p < profile.num_pipelines(); ++p) {
    for (const obs::ShardSliceProfile& s : profile.pipeline(p)->shards()) {
      EXPECT_LT(s.shard, 4u);
      shard_rows += s.rows;
      ++slices;
    }
  }
  EXPECT_GT(slices, 0u) << "sharded pipeline recorded no shard slices";
  EXPECT_GT(shard_rows, 0u);
  // The JSON profile carries the shards knob and per-shard arrays.
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"shards\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"shard\": "), std::string::npos);
}

}  // namespace
}  // namespace datablocks::tpch
