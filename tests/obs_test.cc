// Observability subsystem: metric primitives against reference
// computations, the trace ring's overwrite contract, query-profile span
// nesting and JSON round-trips (through the obs/json reader), and the
// "profiling changes no result" guarantee on real TPC-H pipelines.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "tpch/queries.h"

#include "test_table_util.h"

namespace datablocks::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries and percentile error bound
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket b holds [2^(b-1), 2^b); bucket 0 holds only 0.
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), 64u);
  for (unsigned b = 1; b < Histogram::kBuckets; ++b) {
    const uint64_t lo = Histogram::BucketLo(b);
    EXPECT_EQ(Histogram::BucketOf(lo), b) << "lo of bucket " << b;
    // The largest value of the bucket still maps into it.
    const uint64_t last = b < 64 ? Histogram::BucketHi(b) - 1 : UINT64_MAX;
    EXPECT_EQ(Histogram::BucketOf(last), b) << "hi of bucket " << b;
  }
}

TEST(HistogramTest, CountSumAndBucketFill) {
  MetricsRegistry r;
  Histogram& h = *r.GetHistogram("t.h");
  uint64_t sum = 0;
  for (uint64_t v : {0ull, 1ull, 1ull, 7ull, 8ull, 1000ull}) {
    h.Observe(v);
    sum += v;
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.bucket_count(0), 1u);   // 0
  EXPECT_EQ(h.bucket_count(1), 2u);   // 1, 1
  EXPECT_EQ(h.bucket_count(3), 1u);   // 7 in [4, 8)
  EXPECT_EQ(h.bucket_count(4), 1u);   // 8 in [8, 16)
  EXPECT_EQ(h.bucket_count(10), 1u);  // 1000 in [512, 1024)
}

TEST(HistogramTest, PercentilesWithinLogBucketError) {
  // Log2 buckets bound the relative error: the reported percentile lies
  // in the same power-of-two bucket as the exact one, so it is within a
  // factor of 2 of the true value. Check against an exact reference on a
  // skewed random sample.
  std::mt19937_64 rng(7);
  MetricsRegistry r;
  Histogram& h = *r.GetHistogram("t.h");
  std::vector<uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform-ish: spread over many buckets like real durations.
    const uint64_t v = uint64_t(1) << (rng() % 20);
    const uint64_t jitter = rng() % (v + 1);
    values.push_back(v + jitter);
    h.Observe(values.back());
  }
  std::sort(values.begin(), values.end());
  for (double q : {50.0, 95.0, 99.0}) {
    const size_t rank =
        std::min(values.size() - 1,
                 size_t(std::ceil(q / 100.0 * double(values.size()))) - 1);
    const double exact = double(values[rank]);
    const double approx = h.Percentile(q);
    EXPECT_GE(approx, exact / 2.0) << "p" << q;
    EXPECT_LE(approx, exact * 2.0) << "p" << q;
  }
  // Degenerate inputs.
  EXPECT_EQ(r.GetHistogram("t.empty")->Percentile(50), 0.0);
  EXPECT_LE(h.Percentile(0), h.Percentile(100));
}

// ---------------------------------------------------------------------------
// Counter / Gauge: sharded increments under concurrency (TSan-checked)
// ---------------------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  MetricsRegistry r;
  Counter& c = *r.GetCounter("t.c");
  Gauge& g = *r.GetGauge("t.g");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Add();
        g.Add(2);
        g.Add(-1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  EXPECT_EQ(g.Value(), int64_t(kThreads * kPerThread));
}

TEST(RegistryTest, NamesResolveToStablePointersAndExpose) {
  MetricsRegistry r;
  Counter* c = r.GetCounter("test.counter");
  EXPECT_EQ(r.GetCounter("test.counter"), c);  // same metric, same pointer
  c->Add(41);
  c->Add();
  r.GetGauge("test.gauge")->Set(-5);
  r.GetHistogram("test.hist_ns")->Observe(100);

  const std::string text = r.ToText();
  EXPECT_NE(text.find("test.counter counter 42"), std::string::npos) << text;
  EXPECT_NE(text.find("test.gauge gauge -5"), std::string::npos) << text;

  std::string error;
  json::ValuePtr root = json::Parse(r.ToJson(), &error);
  ASSERT_NE(root, nullptr) << error;
  ASSERT_TRUE(root->is_object());
  const json::Value* counters = root->Get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Get("test.counter"), nullptr);
  EXPECT_EQ(counters->Get("test.counter")->i64(), 42);
  EXPECT_EQ(root->Get("gauges")->Get("test.gauge")->i64(), -5);
  const json::Value* hist = root->Get("histograms")->Get("test.hist_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Get("count")->i64(), 1);
  EXPECT_EQ(hist->Get("sum")->i64(), 100);
  ASSERT_NE(hist->Get("p50"), nullptr);
  ASSERT_NE(hist->Get("p95"), nullptr);
  ASSERT_NE(hist->Get("p99"), nullptr);
  ASSERT_TRUE(hist->Get("buckets")->is_array());
  EXPECT_EQ(hist->Get("buckets")->array().size(), 1u);  // only non-zero
}

TEST(RegistryTest, RegisterEngineMetricsIsIdempotent) {
  RegisterEngineMetrics();
  Counter* c =
      MetricsRegistry::Default().GetCounter("scheduler.tasks_run");
  RegisterEngineMetrics();
  EXPECT_EQ(MetricsRegistry::Default().GetCounter("scheduler.tasks_run"), c);
}

// ---------------------------------------------------------------------------
// Trace ring: bounded, overwrite-oldest, JSONL dump
// ---------------------------------------------------------------------------

TEST(TraceRingTest, OverwritesOldestAndKeepsSequence) {
  TraceRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 20; ++i) {
    ring.Publish("test", "event", i, i * 10);
  }
  EXPECT_EQ(ring.published(), 20u);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 8u);  // bounded: the 12 oldest were overwritten
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);  // oldest retained first
    EXPECT_EQ(events[i].a, int64_t(12 + i));
    EXPECT_EQ(events[i].b, int64_t((12 + i) * 10));
    EXPECT_STREQ(events[i].cat, "test");
    EXPECT_STREQ(events[i].name, "event");
  }
}

TEST(TraceRingTest, TruncatesLongNamesAndEmitsJsonl) {
  TraceRing ring(4);
  ring.Publish("a-category-name-way-too-long", "an-event-name-that-is-too-long",
               1, 2);
  const std::vector<TraceEvent> events = ring.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].cat), "a-category-name");   // 15 + NUL
  EXPECT_EQ(std::string(events[0].name), "an-event-name-that-is-t");

  const std::string jsonl = ring.ToJsonl();
  // Every line is one standalone JSON object.
  size_t lines = 0;
  for (size_t pos = 0; pos < jsonl.size();) {
    size_t eol = jsonl.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    std::string error;
    json::ValuePtr obj = json::Parse(jsonl.substr(pos, eol - pos), &error);
    ASSERT_NE(obj, nullptr) << error;
    EXPECT_NE(obj->Get("seq"), nullptr);
    EXPECT_NE(obj->Get("ts_ns"), nullptr);
    EXPECT_NE(obj->Get("cat"), nullptr);
    EXPECT_NE(obj->Get("name"), nullptr);
    EXPECT_EQ(obj->Get("a")->i64(), 1);
    EXPECT_EQ(obj->Get("b")->i64(), 2);
    pos = eol + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 1u);
}

// ---------------------------------------------------------------------------
// QueryProfile: span nesting, worker folding, JSON round-trip
// ---------------------------------------------------------------------------

TEST(QueryProfileTest, SpansNestAndUnclosedSpansAreStamped) {
  QueryProfile profile("Q0", "test", 2);
  Span* outer = profile.BeginSpan("sort");
  Span* inner = profile.BeginSpan("partition", outer);
  profile.EndSpan(inner);
  Span* dangling = profile.BeginSpan("output");
  (void)dangling;  // left open on purpose: Finish must stamp it
  profile.EndSpan(outer);
  profile.Finish();

  EXPECT_GT(profile.wall_ns(), 0u);
  std::string error;
  json::ValuePtr root = json::Parse(profile.ToJson(), &error);
  ASSERT_NE(root, nullptr) << error;
  EXPECT_EQ(root->Get("query")->str(), "Q0");
  EXPECT_EQ(root->Get("config")->str(), "test");
  EXPECT_EQ(root->Get("threads")->i64(), 2);
  const json::Value* spans = root->Get("spans");
  ASSERT_TRUE(spans->is_array());
  ASSERT_EQ(spans->array().size(), 2u);  // "sort" and "output" at top level
  const json::Value* sort = spans->At(0);
  EXPECT_EQ(sort->Get("name")->str(), "sort");
  ASSERT_EQ(sort->Get("children")->array().size(), 1u);
  EXPECT_EQ(sort->Get("children")->At(0)->Get("name")->str(), "partition");
  EXPECT_EQ(spans->At(1)->Get("name")->str(), "output");
  // Finish stamped the dangling span with a real duration.
  EXPECT_GT(spans->At(1)->Get("wall_ns")->i64(), 0);
}

TEST(QueryProfileTest, WorkerScopesFoldIntoPipelineTotals) {
  QueryProfile profile("Q0");
  PipelineProfile* pipeline = profile.AddPipeline("lineitem");
  {
    WorkerScope w0(pipeline, 0);
    w0.OnMorsel();
    w0.OnBatch(100, /*coded=*/false);
    w0.OnBatch(50, /*coded=*/true);
    w0.OnScanTotals(/*chunks_scanned=*/2, /*rows_in=*/200,
                    /*chunks_pruned=*/3, /*evicted_pruned=*/1, /*pins=*/2,
                    /*archive_reloads=*/1);
    WorkerScope w1(pipeline, 1);
    w1.OnMorsel();
    w1.OnMorsel();
    w1.OnBatch(25, /*coded=*/true);
    w1.OnScanTotals(1, 30, 0, 0, 1, 0);
  }
  const PipelineProfile::Totals t = pipeline->totals();
  EXPECT_EQ(t.morsels, 3u);
  EXPECT_EQ(t.batches, 3u);
  EXPECT_EQ(t.code_batches, 2u);
  EXPECT_EQ(t.rows_in, 230u);
  EXPECT_EQ(t.rows_out, 175u);
  EXPECT_EQ(t.chunks_scanned, 3u);
  EXPECT_EQ(t.chunks_pruned, 3u);
  EXPECT_EQ(t.evicted_chunks_pruned, 1u);
  EXPECT_EQ(t.pins, 3u);
  EXPECT_EQ(t.archive_reloads, 1u);
  const std::vector<WorkerProfile> workers = pipeline->workers();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].slot, 0u);
  EXPECT_EQ(workers[0].rows, 150u);
  EXPECT_EQ(workers[1].slot, 1u);
  EXPECT_EQ(workers[1].morsels, 2u);

  // Null pipeline: the whole scope is a no-op (the "profiling off" path).
  WorkerScope off(nullptr, 0);
  off.OnMorsel();
  off.OnBatch(1, true);
  off.OnScanTotals(1, 1, 1, 1, 1, 1);

  // Report and JSON agree with the recorded totals.
  const std::string report = profile.Report();
  EXPECT_NE(report.find("pipeline lineitem"), std::string::npos) << report;
  EXPECT_NE(report.find("worker 0:"), std::string::npos) << report;
  std::string error;
  json::ValuePtr root = json::Parse(profile.ToJson(), &error);
  ASSERT_NE(root, nullptr) << error;
  const json::Value* p = root->Get("pipelines")->At(0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->Get("name")->str(), "lineitem");
  EXPECT_EQ(p->Get("morsels")->i64(), 3);
  EXPECT_EQ(p->Get("code_batches")->i64(), 2);
  EXPECT_EQ(p->Get("rows_out")->i64(), 175);
  EXPECT_EQ(p->Get("chunks_pruned")->i64(), 3);
  EXPECT_EQ(p->Get("archive_reloads")->i64(), 1);
  EXPECT_EQ(p->Get("workers")->array().size(), 2u);
}

TEST(QueryProfileTest, ConsumeTimeFoldsIntoPipelineTotals) {
  QueryProfile profile("Q0");
  PipelineProfile* pipeline = profile.AddPipeline("lineitem");
  int calls = 0;
  {
    WorkerScope w0(pipeline, 0);
    w0.Consume([&] {
      ++calls;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    w0.Consume([&] { ++calls; });
    // Profiling off: the consume still runs, untimed.
    WorkerScope off(nullptr, 1);
    off.Consume([&] { ++calls; });
  }
  EXPECT_EQ(calls, 3);
  const PipelineProfile::Totals t = pipeline->totals();
  EXPECT_GE(t.consume_ns, 2'000'000u);
  const std::vector<WorkerProfile> workers = pipeline->workers();
  ASSERT_EQ(workers.size(), 1u);
  EXPECT_EQ(workers[0].consume_ns, t.consume_ns);
  EXPECT_LE(workers[0].consume_ns, workers[0].busy_ns);

  EXPECT_NE(profile.Report().find("consume "), std::string::npos);
  std::string error;
  json::ValuePtr root = json::Parse(profile.ToJson(), &error);
  ASSERT_NE(root, nullptr) << error;
  const json::Value* p = root->Get("pipelines")->At(0);
  EXPECT_EQ(uint64_t(p->Get("consume_ns")->i64()), t.consume_ns);
  EXPECT_EQ(uint64_t(p->Get("workers")->At(0)->Get("consume_ns")->i64()),
            t.consume_ns);
}

// ---------------------------------------------------------------------------
// Scanner-side block accounting (feeds both the registry and profiles)
// ---------------------------------------------------------------------------

TEST(ScanCountersTest, PrunedVsScannedChunksAddUp) {
  // The id column equals the insert index, so chunks are perfectly
  // clustered on it and an id-range SARG makes SMA skipping deterministic:
  // 2 of 8 chunks match, 6 are summary-pruned without being read.
  constexpr uint32_t kChunk = 4096;
  Table t = MakeTestTable(kChunk * 8, kChunk, /*delete_every=*/0,
                          /*freeze=*/true);
  TableScanner scan(t, {0, 1},
                    {Predicate::Le(0, Value::Int(int64_t(kChunk) * 2 - 1))},
                    ScanMode::kDataBlocks);
  Batch b;
  uint64_t rows = 0;
  while (scan.Next(&b)) rows += b.count;
  EXPECT_EQ(rows, uint64_t(kChunk) * 2);
  EXPECT_EQ(scan.chunks_scanned(), 2u);
  EXPECT_EQ(scan.chunks_skipped(), 6u);
  EXPECT_EQ(scan.rows_considered(), uint64_t(kChunk) * 2);
  EXPECT_GT(scan.pins_taken(), 0u);
  EXPECT_EQ(scan.archive_reloads(), 0u);  // nothing was evicted
}

// ---------------------------------------------------------------------------
// End-to-end: profiling must not change TPC-H results
// ---------------------------------------------------------------------------

class ObsTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    cfg.chunk_capacity = 4096;
    frozen_ = tpch::MakeTpch(cfg).release();
    frozen_->FreezeAll();
  }
  static void TearDownTestSuite() {
    delete frozen_;
    frozen_ = nullptr;
  }
  static tpch::TpchDatabase* frozen_;
};

tpch::TpchDatabase* ObsTpchTest::frozen_ = nullptr;

TEST_F(ObsTpchTest, ProfiledQ1Q6MatchUnprofiledAndRecordScanWork) {
  for (int q : {1, 6}) {
    for (unsigned threads : {1u, 2u}) {
      tpch::ScanOptions plain;
      plain.mode = ScanMode::kDataBlocksPsma;
      plain.ctx.threads = threads;
      const tpch::QueryResult expected = tpch::RunQuery(q, *frozen_, plain);
      ASSERT_FALSE(expected.rows.empty());

      QueryProfile profile(q == 1 ? "Q1" : "Q6", "+PSMA", threads);
      tpch::ScanOptions profiled = plain;
      profiled.ctx.profile = &profile;
      const tpch::QueryResult got = tpch::RunQuery(q, *frozen_, profiled);
      EXPECT_EQ(got, expected) << "Q" << q << " threads=" << threads;

      // The profile saw the fact-table pipeline do real work.
      ASSERT_GE(profile.num_pipelines(), 1u);
      ASSERT_EQ(profile.pipeline(0)->name(), "lineitem");
      const PipelineProfile::Totals t = profile.pipeline(0)->totals();
      EXPECT_GT(t.wall_ns, 0u);
      // One morsel per chunk at every thread count: one slot runs the
      // same morsel driver as many.
      EXPECT_EQ(t.morsels, frozen_->lineitem.num_chunks())
          << "Q" << q << " threads=" << threads;
      EXPECT_GT(t.batches, 0u);
      EXPECT_GT(t.rows_in, 0u);
      EXPECT_GT(t.rows_out, 0u);
      EXPECT_GT(t.chunks_scanned, 0u);
      EXPECT_GT(t.pins, 0u);
      EXPECT_FALSE(profile.pipeline(0)->workers().empty());
      EXPECT_GT(profile.wall_ns(), 0u);  // RunQuery called Finish()
      // The consume split: time inside the pipeline body, a part of each
      // worker's busy time, summed over the workers.
      EXPECT_GT(t.consume_ns, 0u);
      uint64_t consume_ns = 0;
      for (const WorkerProfile& w : profile.pipeline(0)->workers()) {
        EXPECT_LE(w.consume_ns, w.busy_ns);
        consume_ns += w.consume_ns;
      }
      EXPECT_EQ(t.consume_ns, consume_ns);

      std::string error;
      ASSERT_NE(json::Parse(profile.ToJson(), &error), nullptr) << error;
    }
  }
}

}  // namespace
}  // namespace datablocks::obs
