#include "datablock/block_summary.h"

#include <algorithm>

#include "datablock/block_scan.h"
#include "util/macros.h"

namespace datablocks {

ColumnSma ColumnSummary::sma() const {
  ColumnSma sma;
  sma.type = TypeId(type);
  sma.has_nulls = has_nulls();
  sma.all_null = all_null();
  sma.single_value = Compression(compression) == Compression::kSingleValue;
  sma.min = min_val;
  sma.max = max_val;
  sma.min_str = min_str;
  sma.max_str = max_str;
  return sma;
}

BlockSummary BlockSummary::Extract(const DataBlock& block) {
  BlockSummary s;
  s.row_count_ = block.num_rows();
  s.cols_.resize(block.num_columns());
  for (uint32_t c = 0; c < block.num_columns(); ++c) {
    const AttrMeta& m = block.attr(c);
    ColumnSummary& cs = s.cols_[c];
    cs.type = m.type;
    cs.compression = m.compression;
    cs.flags = m.flags;
    cs.dict_count = m.dict_count;
    cs.min_val = m.min_val;
    cs.max_val = m.max_val;
    if (TypeId(m.type) == TypeId::kString && m.dict_count > 0) {
      cs.min_str = std::string(block.dict_string(c, 0));
      cs.max_str = std::string(block.dict_string(c, m.dict_count - 1));
    }
    if (m.psma_entries > 0) {
      const PsmaEntry* table = block.psma(c);
      cs.psma.assign(table, table + m.psma_entries);
    }
  }
  return s;
}

uint64_t BlockSummary::MemoryBytes() const {
  uint64_t total = sizeof(BlockSummary);
  for (const ColumnSummary& cs : cols_) {
    total += sizeof(ColumnSummary) + cs.min_str.size() + cs.max_str.size() +
             cs.psma.size() * sizeof(PsmaEntry);
  }
  return total;
}

SummaryScanPrep PrepareSummaryScan(const BlockSummary& summary,
                                   const std::vector<Predicate>& preds,
                                   bool use_psma) {
  SummaryScanPrep prep;
  PsmaRange range{0, summary.row_count()};
  for (const Predicate& p : preds) {
    DB_CHECK(p.col < summary.num_columns());
    const ColumnSummary& cs = summary.col(p.col);
    const ColumnSma sma = cs.sma();
    const Compression scheme = Compression(cs.compression);
    // Raw and truncated integers lower without the payload, so the summary
    // reproduces the block's own PSMA probe; dictionaries need the payload.
    const bool lowers = IsIntegerLike(sma.type) &&
                        (scheme == Compression::kRaw ||
                         scheme == Compression::kTruncation);
    BlockPred bp;
    const Verdict v = lowers ? LowerPredicate(p, sma, scheme, nullptr, &bp)
                             : JudgeSma(p, sma);
    if (v == Verdict::kNone) {
      prep.skip = true;
      return prep;
    }
    if (v != Verdict::kSome || !use_psma || cs.psma.empty() ||
        bp.kind != BlockPred::Kind::kRange || !bp.psma_usable) {
      continue;
    }
    const PsmaRange probe = PsmaProbe(cs.psma.data(), uint32_t(cs.psma.size()),
                                      bp.psma_dlo, bp.psma_dhi);
    range.begin = std::max(range.begin, probe.begin);
    range.end = std::min(range.end, probe.end);
    if (range.empty()) {  // intersected PSMA probe ranges are empty
      prep.skip = true;
      return prep;
    }
  }
  return prep;
}

}  // namespace datablocks
