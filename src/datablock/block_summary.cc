#include "datablock/block_summary.h"

#include <algorithm>
#include <cstring>

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

BlockSummary BlockSummary::Extract(const DataBlock& block, bool keep_psma) {
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
    if (keep_psma && m.psma_entries > 0) {
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

namespace {

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

/// Bounds-checked reader over an untrusted summary blob: every read past
/// the end fails the whole parse instead of touching foreign bytes.
class BlobReader {
 public:
  BlobReader(const uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* v) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool Read(void* out, uint64_t bytes) {
    if (bytes > remaining()) return false;
    if (bytes > 0) std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
    return true;
  }
  uint64_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

}  // namespace

void BlockSummary::AppendTo(std::vector<uint8_t>* out) const {
  AppendPod(out, row_count_);
  AppendPod(out, uint32_t(cols_.size()));
  for (const ColumnSummary& cs : cols_) {
    AppendPod(out, cs.type);
    AppendPod(out, cs.compression);
    AppendPod(out, cs.flags);
    AppendPod(out, uint8_t(0));
    AppendPod(out, cs.dict_count);
    AppendPod(out, cs.min_val);
    AppendPod(out, cs.max_val);
    AppendPod(out, uint32_t(cs.min_str.size()));
    AppendPod(out, uint32_t(cs.max_str.size()));
    AppendPod(out, uint32_t(cs.psma.size()));
    out->insert(out->end(), cs.min_str.begin(), cs.min_str.end());
    out->insert(out->end(), cs.max_str.begin(), cs.max_str.end());
    const uint8_t* p = reinterpret_cast<const uint8_t*>(cs.psma.data());
    out->insert(out->end(), p, p + cs.psma.size() * sizeof(PsmaEntry));
  }
}

StatusOr<BlockSummary> BlockSummary::FromBytes(const uint8_t* data,
                                               uint64_t size) {
  // Fixed bytes of one serialized column: three tag bytes, padding, the
  // dictionary count, min/max and three lengths.
  constexpr uint64_t kColumnBytes = 4 + 4 + 8 + 8 + 3 * 4;
  const Status malformed = Status::Corruption("malformed block summary");
  BlobReader in(data, size);
  BlockSummary s;
  uint32_t ncols = 0;
  if (!in.Read(&s.row_count_) || !in.Read(&ncols)) return malformed;
  if (ncols > in.remaining() / kColumnBytes) return malformed;
  s.cols_.resize(ncols);
  for (ColumnSummary& cs : s.cols_) {
    uint8_t pad;
    uint32_t min_len, max_len, psma_entries;
    if (!in.Read(&cs.type) || !in.Read(&cs.compression) ||
        !in.Read(&cs.flags) || !in.Read(&pad) || !in.Read(&cs.dict_count) ||
        !in.Read(&cs.min_val) || !in.Read(&cs.max_val) || !in.Read(&min_len) ||
        !in.Read(&max_len) || !in.Read(&psma_entries)) {
      return malformed;
    }
    if (uint64_t(min_len) + max_len +
            uint64_t(psma_entries) * sizeof(PsmaEntry) >
        in.remaining()) {
      return malformed;
    }
    cs.min_str.resize(min_len);
    cs.max_str.resize(max_len);
    cs.psma.resize(psma_entries);
    in.Read(cs.min_str.data(), min_len);
    in.Read(cs.max_str.data(), max_len);
    in.Read(cs.psma.data(), uint64_t(psma_entries) * sizeof(PsmaEntry));
  }
  if (in.remaining() != 0) return malformed;
  return s;
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
