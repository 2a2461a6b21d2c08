// The layer ladder: one scan replayed at one thread at four levels — the
// whole query, the TableScanner::Next loop, the per-block calls, the raw
// kernels — so each level's cost and the residual the levels below do not
// explain can be read side by side. Plus the storage probe: archive reads
// and point accesses on the same table.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "datablock/block_scan.h"
#include "exec/table_scanner.h"
#include "scan/match_finder.h"
#include "storage/block_archive.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace datablocks;

namespace {

constexpr int kLadderReps = 5;
constexpr uint32_t kWindow = TableScanner::kDefaultVectorSize;

/// Nanoseconds of one ladder repetition, per level.
struct LevelNs {
  double query = 0, scan = 0, prepare = 0, match = 0, unpack = 0, find = 0,
         reduce = 0;
};

/// Work counts of one repetition (identical in every repetition).
struct LevelCounts {
  double rows_considered = 0;
  double blocks_prepared = 0, blocks_skipped = 0;
  double block_rows = 0, range_rows = 0;  // non-skipped blocks
  double match_tuples = 0, matches = 0, values = 0;
  double find_tuples = 0, reduce_tuples = 0;
};

template <typename T>
void KernelsT(const uint8_t* codes, const BlockPred& p, bool first,
              uint32_t from, uint32_t to, uint32_t* pos, uint32_t* n,
              LevelNs* ns, LevelCounts* c) {
  const T* data = reinterpret_cast<const T*>(codes);
  const T lo = T(p.lo), hi = T(p.hi);
  const Isa isa = BestIsa();
  const uint64_t t0 = NowNs();
  if (first) {
    *n = FindMatchesBetween<T>(data, from, to, lo, hi, isa, pos);
    ns->find += double(NowNs() - t0);
    c->find_tuples += to - from;
  } else {
    const uint32_t in = *n;
    *n = ReduceMatchesBetween<T>(data, pos, in, lo, hi, isa, pos);
    ns->reduce += double(NowNs() - t0);
    c->reduce_tuples += in;
  }
}

/// The raw find/reduce kernels over one window, driven by the block's
/// translated range predicates (other predicate kinds are not replayed).
void Kernels(const DataBlock& block, const BlockScanPrep& prep, uint32_t from,
             uint32_t to, uint32_t* pos, LevelNs* ns, LevelCounts* c) {
  bool first = true;
  uint32_t n = 0;
  for (const BlockPred& p : prep.preds) {
    if (p.kind != BlockPred::Kind::kRange || p.is_double) continue;
    if (!first && n == 0) break;
    const uint8_t* codes = block.codes(p.col);
    switch (p.width) {
      case 1: KernelsT<uint8_t>(codes, p, first, from, to, pos, &n, ns, c); break;
      case 2: KernelsT<uint16_t>(codes, p, first, from, to, pos, &n, ns, c); break;
      case 4:
        if (p.is_signed) {
          KernelsT<int32_t>(codes, p, first, from, to, pos, &n, ns, c);
        } else {
          KernelsT<uint32_t>(codes, p, first, from, to, pos, &n, ns, c);
        }
        break;
      case 8:
        if (p.is_signed) {
          KernelsT<int64_t>(codes, p, first, from, to, pos, &n, ns, c);
        } else {
          KernelsT<uint64_t>(codes, p, first, from, to, pos, &n, ns, c);
        }
        break;
      default: continue;
    }
    first = false;
  }
}

/// Per-block level plus kernels over every frozen chunk of the table.
void BlockLevels(const LadderProbe& p, LevelNs* ns, LevelCounts* c) {
  const Table& t = *p.table;
  std::vector<uint32_t> pos(kWindow + 8), kpos(kWindow + 8);
  std::vector<ColumnVector> out(p.cols.size());
  for (size_t i = 0; i < p.cols.size(); ++i) {
    out[i].Init(t.schema().type(p.cols[i]));
  }
  for (size_t chunk = 0; chunk < t.num_chunks(); ++chunk) {
    if (t.chunk_state(chunk) == ChunkState::kHot) continue;
    std::unique_ptr<Table::PinGuard> pin;
    try {
      pin = std::make_unique<Table::PinGuard>(t, chunk);
    } catch (const std::exception&) {
      continue;  // unreadable block (injected fault): not part of the ladder
    }
    const DataBlock* block = t.frozen_block(chunk);
    if (block == nullptr) continue;

    uint64_t t0 = NowNs();
    const BlockScanPrep prep = PrepareBlockScan(*block, p.preds, true);
    ns->prepare += double(NowNs() - t0);
    c->blocks_prepared += 1;
    if (prep.skip) {
      c->blocks_skipped += 1;
      continue;
    }
    c->block_rows += block->num_rows();
    c->range_rows += prep.range_end - prep.range_begin;
    for (uint32_t from = prep.range_begin; from < prep.range_end;
         from += kWindow) {
      const uint32_t to = std::min(from + kWindow, prep.range_end);
      for (ColumnVector& cv : out) cv.Clear();
      if (prep.MatchAll()) {
        t0 = NowNs();
        for (size_t i = 0; i < p.cols.size(); ++i) {
          UnpackColumnRange(*block, p.cols[i], from, to, &out[i]);
        }
        ns->unpack += double(NowNs() - t0);
        c->matches += to - from;
        c->values += double(to - from) * double(p.cols.size());
        continue;
      }
      t0 = NowNs();
      const uint32_t n =
          FindMatchesInBlock(*block, prep, from, to, BestIsa(), pos.data());
      ns->match += double(NowNs() - t0);
      c->match_tuples += to - from;
      c->matches += n;
      t0 = NowNs();
      for (size_t i = 0; i < p.cols.size(); ++i) {
        UnpackColumn(*block, p.cols[i], pos.data(), n, &out[i]);
      }
      ns->unpack += double(NowNs() - t0);
      c->values += double(n) * double(p.cols.size());
      Kernels(*block, prep, from, to, kpos.data(), ns, c);
    }
  }
}

void Rep(const LadderProbe& p, LevelNs* ns, LevelCounts* c) {
  uint64_t t0 = NowNs();
  p.query();
  ns->query = double(NowNs() - t0);

  TableScanner scanner(*p.table, p.cols, p.preds, ScanMode::kDataBlocksPsma);
  Batch batch;
  uint64_t rows = 0;
  t0 = NowNs();
  while (scanner.Next(&batch)) rows += batch.count;
  ns->scan = double(NowNs() - t0);
  c->rows_considered = double(scanner.rows_considered());

  BlockLevels(p, ns, c);
}

}  // namespace

void RunLadder(const std::vector<LadderProbe>& probes, Result* r) {
  LevelNs sum;
  LevelCounts cnt;
  for (const LadderProbe& p : probes) {
    std::vector<LevelNs> reps(kLadderReps);
    LevelCounts c;
    for (LevelNs& ns : reps) {
      c = LevelCounts{};
      try {
        Rep(p, &ns, &c);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ladder %s: %s\n", p.name.c_str(), e.what());
      }
    }
    auto med = [&](double LevelNs::*f) {
      std::vector<double> v;
      for (const LevelNs& ns : reps) v.push_back(ns.*f);
      return Median(v);
    };
    LevelNs m;
    for (double LevelNs::*f :
         {&LevelNs::query, &LevelNs::scan, &LevelNs::prepare, &LevelNs::match,
          &LevelNs::unpack, &LevelNs::find, &LevelNs::reduce}) {
      m.*f = med(f);
      sum.*f += m.*f;
    }
    for (double LevelCounts::*f :
         {&LevelCounts::rows_considered, &LevelCounts::blocks_prepared,
          &LevelCounts::blocks_skipped, &LevelCounts::block_rows,
          &LevelCounts::range_rows, &LevelCounts::match_tuples,
          &LevelCounts::matches, &LevelCounts::values,
          &LevelCounts::find_tuples, &LevelCounts::reduce_tuples}) {
      cnt.*f += c.*f;
    }
    // Levels nest: query > scanner loop > per-block calls > kernels.
    const double block = m.prepare + m.match + m.unpack;
    const double kernel = m.find + m.reduce;
    const std::string k = "ladder." + p.name + ".";
    r->Add(k + "query_ms", m.query / 1e6, "ms");
    r->Add(k + "scanner_ms", m.scan / 1e6, "ms");
    r->Add(k + "block_ms", block / 1e6, "ms");
    r->Add(k + "kernel_ms", kernel / 1e6, "ms");
    r->Add(k + "residual_ms", (m.query - m.scan) / 1e6, "ms");
    r->Add(k + "scanner_self_ms", (m.scan - block) / 1e6, "ms");
    r->Add(k + "block_self_ms", (block - kernel) / 1e6, "ms");
  }
  r->Add("scan.find_ns_per_tuple", Ratio(sum.find, cnt.find_tuples), "ns");
  r->Add("scan.reduce_ns_per_tuple", Ratio(sum.reduce, cnt.reduce_tuples),
         "ns");
  r->Add("datablock.prepare_us_per_block",
         Ratio(sum.prepare / 1e3, cnt.blocks_prepared), "us");
  r->Add("datablock.match_ns_per_tuple", Ratio(sum.match, cnt.match_tuples),
         "ns");
  r->Add("datablock.unpack_ns_per_value", Ratio(sum.unpack, cnt.values),
         "ns");
  r->Add("datablock.sma_skip_frac",
         Ratio(cnt.blocks_skipped, cnt.blocks_prepared), "ratio");
  r->Add("datablock.psma_range_frac", Ratio(cnt.range_rows, cnt.block_rows),
         "ratio");
  r->Add("datablock.match_frac", Ratio(cnt.matches, cnt.range_rows), "ratio");
  r->Add("exec.scanner_ns_per_row", Ratio(sum.scan, cnt.rows_considered),
         "ns");
  r->Add("exec.ladder_residual_frac", Ratio(sum.query - sum.scan, sum.query),
         "ratio");
}

namespace {

volatile uint64_t g_point_get_sink;

/// Nanoseconds per Table::GetValue over seeded rows of `chunks`.
double PointGetNs(const Table& t, const std::vector<size_t>& chunks,
                  uint32_t col, uint64_t seed) {
  constexpr int kGets = 20000;
  Rng rng(seed);
  std::vector<RowId> ids(kGets);
  for (RowId& id : ids) {
    const size_t c = chunks[size_t(rng.Uniform(0, int64_t(chunks.size()) - 1))];
    id = MakeRowId(c, uint32_t(rng.Uniform(0, t.chunk_rows(c) - 1)));
  }
  uint64_t sink = 0;
  const uint64_t t0 = NowNs();
  for (RowId id : ids) {
    const Value v = t.GetValue(id, col);
    sink += v.kind() == Value::Kind::kInt ? uint64_t(v.i64()) : 1;
  }
  const double ns = double(NowNs() - t0) / kGets;
  g_point_get_sink = sink;
  return ns;
}

}  // namespace

void ProbeStorage(const Table& t, uint32_t col, const std::string& path,
                  uint64_t seed, Result* r) {
  // Pins keep the probed chunks resident for the point accesses below.
  std::vector<std::unique_ptr<Table::PinGuard>> pins;
  std::vector<size_t> frozen, hot;
  for (size_t c = 0; c < t.num_chunks(); ++c) {
    if (t.chunk_rows(c) == 0) continue;
    if (t.chunk_state(c) == ChunkState::kHot) {
      hot.push_back(c);
      continue;
    }
    try {
      pins.push_back(std::make_unique<Table::PinGuard>(t, c));
    } catch (const std::exception&) {
      continue;
    }
    if (t.frozen_block(c) != nullptr) frozen.push_back(c);
  }

  auto archive = BlockArchive::Create(path);
  if (!archive.ok()) {
    r->Wrong("probe archive: " + archive.status().ToString());
    return;
  }
  double bytes = 0;
  std::vector<size_t> ids;
  for (size_t c : frozen) {
    const DataBlock& block = *t.frozen_block(c);
    auto id = archive->AppendBlock(block, uint32_t(c));
    if (!id.ok()) {
      r->Wrong("probe archive append: " + id.status().ToString());
      return;
    }
    ids.push_back(*id);
    bytes += double(block.SizeBytes());
  }
  if (Status s = archive->Finish(); !s.ok()) {
    r->Wrong("probe archive finish: " + s.ToString());
    return;
  }
  std::vector<double> read_ns;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t t0 = NowNs();
    for (size_t id : ids) {
      if (!archive->ReadBlock(id).ok()) {
        r->Wrong("probe archive read of block " + std::to_string(id));
        return;
      }
    }
    read_ns.push_back(double(NowNs() - t0));
  }
  std::filesystem::remove(path);
  r->Add("storage.archive_read_us_per_mb",
         Ratio(Median(read_ns) / 1e3, bytes / 1e6), "us");
  if (!frozen.empty()) {
    r->Add("storage.point_get_frozen_ns", PointGetNs(t, frozen, col, seed),
           "ns");
  }
  if (!hot.empty()) {
    r->Add("storage.point_get_hot_ns", PointGetNs(t, hot, col, seed + 1),
           "ns");
  }
}

}  // namespace e2e
