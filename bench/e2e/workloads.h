#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "lifecycle/lifecycle_manager.h"
#include "scan/predicate.h"
#include "storage/table.h"
#include "tpcc/tpcc_db.h"
#include "tpch/queries.h"

namespace e2e {

// -- The four workloads (README.md says why each exists) ----------------------

void RunOlapFrozen(const Options& o, Result* r);
void RunOlapEvicted(const Options& o, Result* r);
void RunOltpTpcc(const Options& o, Result* r);
void RunHybridServe(const Options& o, Result* r);

// -- Shared TPC-H pieces (olap.cc) --------------------------------------------

/// The OLAP mix: the Table 2 queries whose fact-table scans dominate.
inline constexpr int kMix[] = {1, 3, 6, 12, 14, 18, 19};
inline constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

/// Set-up is repeated this many times per end-to-end run; setup_s is the
/// median.
inline constexpr int kSetupReps = 3;
inline constexpr int kMinRounds = 3;
/// Exact counts (reloads, archive reads, the request stream) are taken
/// over the first rounds only, so they do not depend on how many rounds
/// the time budget allows.
inline constexpr int kCountRounds = 2;

/// Stream tags for SubSeed.
enum SeedTag : uint64_t {
  kTagDbgen = 1,
  kTagTpccLoad,
  kTagQueryOrder,
  kTagTpccTxns,
  kTagArrivals,
  kTagProbe,
};

struct TpchSetup {
  std::unique_ptr<datablocks::tpch::TpchDatabase> db;
  /// Lineitem's manager (olap_evicted only); destroyed before `db`.
  std::unique_ptr<datablocks::LifecycleManager> mgr;
  uint64_t hot_bytes = 0;  // all tables, before freezing
  // Generation + freeze + initial eviction; the oracle runs excluded.
  double seconds = 0;
  double cpu_seconds = 0;
  double freeze_s = 0;
};

/// Generates the TPC-H database from --seed and freezes every table with
/// PSMA. With a non-empty `archive`, lineitem goes under a LifecycleManager
/// whose budget is a quarter of its frozen bytes, and one Tick archives it
/// and evicts down to the budget. When `oracle` is given, each mix query
/// first runs once on the hot database (JIT scan mode, one thread) and its
/// result string is kept: every measured result must equal it.
TpchSetup SetupTpch(const Options& o, const std::string& archive,
                    std::vector<std::string>* oracle);

/// "Q<N>" for mix index `idx`.
std::string QueryName(size_t idx);
/// The profile a traced run records mix query `idx` into.
std::unique_ptr<datablocks::obs::QueryProfile> MixProfile(size_t idx);

/// Parallelism of the OLAP pipelines: one slot per scheduler worker.
unsigned OlapThreads();
datablocks::tpch::ScanOptions OlapOptions(datablocks::obs::QueryProfile* p);

/// `per_type` copies of every mix index, shuffled by `seed`.
std::vector<size_t> ShuffledMix(size_t per_type, uint64_t seed);

/// tpch.q<N>_ms: each mix query's median latency.
void ReportQueryTypes(const OpSamples& ms, Result* r);

// -- Shared TPC-C pieces (oltp.cc) --------------------------------------------

/// Σ d_next_o_id over all districts: it grows by one per committed
/// NewOrder, so its delta against the NewOrders run gives the rollbacks.
int64_t SumNextOrderIds(const datablocks::tpcc::TpccDatabase& db);

// -- The layer ladder and storage probe (ladder.cc) -----------------------------

/// One scan replayed at every level at one thread: the whole query, the
/// TableScanner::Next loop, the per-block PrepareBlockScan /
/// FindMatchesInBlock / Unpack calls, and the raw find/reduce kernels.
struct LadderProbe {
  std::string name;
  const datablocks::Table* table;
  std::vector<uint32_t> cols;
  std::vector<datablocks::Predicate> preds;
  std::function<void()> query;  // the whole query at threads = 1
};

/// Q1 and Q6 over lineitem (olap.cc).
std::vector<LadderProbe> TpchLadder(const datablocks::tpch::TpchDatabase& db);

/// scan.*, datablock.*, exec.scanner_ns_per_row and
/// exec.ladder_residual_frac, plus each level's time per probe.
void RunLadder(const std::vector<LadderProbe>& probes, Result* r);

/// storage.archive_read_us_per_mb: the table's frozen blocks written to a
/// probe archive at `path` and read back; storage.point_get_frozen_ns (and
/// _hot_ns when the table has hot rows): Table::GetValue on seeded rows.
void ProbeStorage(const datablocks::Table& table, uint32_t col,
                  const std::string& path, uint64_t seed, Result* r);

}  // namespace e2e

#endif  // BENCH_E2E_WORKLOADS_H_
