#include "datablock/block_scan.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "util/bits.h"

namespace datablocks {

namespace {

/// A code interval [b, e) of a dictionary holding `count` entries.
Verdict LowerCodeRange(uint32_t b, uint32_t e, uint32_t count, BlockPred* bp) {
  if (b >= e) return Verdict::kNone;  // dictionary miss rules the block out
  if (b == 0 && e == count) return Verdict::kAll;
  bp->kind = BlockPred::Kind::kRange;
  bp->lo = bp->psma_dlo = b;
  bp->hi = bp->psma_dhi = e - 1;
  bp->psma_usable = true;
  return Verdict::kSome;
}

/// The codes of an IN list's values, ascending in value order and without
/// duplicates: a contiguous run becomes a kRange whose PSMA deltas are
/// code - `psma_base`, any other set a kInSet.
Verdict LowerCodeList(std::vector<uint64_t> codes, uint64_t psma_base,
                      BlockPred* bp) {
  if (codes.empty()) return Verdict::kNone;
  if (codes.back() - codes.front() + 1 == codes.size()) {
    bp->kind = BlockPred::Kind::kRange;
    bp->lo = codes.front();
    bp->hi = codes.back();
    bp->psma_usable = true;
    bp->psma_dlo = bp->lo - psma_base;
    bp->psma_dhi = bp->hi - psma_base;
    return Verdict::kSome;
  }
  // kInSet searches bit patterns: negative raw values sort last.
  std::sort(codes.begin(), codes.end());
  bp->kind = BlockPred::Kind::kInSet;
  bp->in_codes = std::move(codes);
  return Verdict::kSome;
}

/// Integer columns. Raw storage keeps the value (compared signed except for
/// char(1)), truncation stores value - min, a dictionary the value's index.
/// PSMA deltas are value - min, or the code for dictionaries.
Verdict LowerInt(const Predicate& p, const ColumnSma& sma, Compression scheme,
                 const DataBlock* block, BlockPred* bp) {
  const bool dict = scheme == Compression::kDictionary;
  const int64_t* d = dict ? block->int_dict(p.col) : nullptr;
  const uint32_t count = dict ? block->attr(p.col).dict_count : 0;
  const uint64_t base = scheme == Compression::kTruncation ? sma.min : 0;
  const uint64_t psma_base = scheme == Compression::kRaw ? sma.min : 0;
  bp->is_signed = scheme == Compression::kRaw && sma.type != TypeId::kChar1;
  // The code of v, or `count` when the dictionary does not hold v.
  auto code = [&](int64_t v) -> uint64_t {
    if (!dict) return uint64_t(v) - base;
    const int64_t* at = std::lower_bound(d, d + count, v);
    return at != d + count && *at == v ? uint64_t(at - d) : count;
  };
  switch (p.op) {
    case CompareOp::kNe:
      bp->kind = BlockPred::Kind::kNe;
      bp->ne = code(ConstInt(p.lo));
      return dict && bp->ne == count ? Verdict::kAll : Verdict::kSome;
    case CompareOp::kIn: {
      std::vector<int64_t> vals;
      for (const Value& c : p.list) vals.push_back(ConstInt(c));
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
      std::vector<uint64_t> codes;
      for (int64_t v : vals) {
        if (v < sma.min || v > sma.max) continue;
        if (const uint64_t c = code(v); !dict || c != count) codes.push_back(c);
      }
      if (dict && codes.size() == count) return Verdict::kAll;
      return LowerCodeList(std::move(codes), psma_base, bp);
    }
    default: {
      const IntRange r = IntRangeOf(p);
      if (dict) {
        return LowerCodeRange(
            uint32_t(std::lower_bound(d, d + count, r.lo) - d),
            uint32_t(std::upper_bound(d, d + count, r.hi) - d), count, bp);
      }
      const uint64_t lo = std::max(r.lo, sma.min);
      const uint64_t hi = std::min(r.hi, sma.max);
      bp->kind = BlockPred::Kind::kRange;
      bp->lo = lo - base;
      bp->hi = hi - base;
      bp->psma_usable = true;
      bp->psma_dlo = lo - uint64_t(sma.min);
      bp->psma_dhi = hi - uint64_t(sma.min);
      return Verdict::kSome;
    }
  }
}

/// Double columns are stored raw.
Verdict LowerDouble(const Predicate& p, const ColumnSma& sma, BlockPred* bp) {
  bp->is_double = true;
  switch (p.op) {
    case CompareOp::kNe:
      bp->kind = BlockPred::Kind::kNe;
      bp->dne = ConstDouble(p.lo);
      return Verdict::kSome;
    case CompareOp::kIn: {
      std::vector<double> vals;
      for (const Value& c : p.list) {
        const double v = ConstDouble(c);
        if (v >= sma.dmin() && v <= sma.dmax()) vals.push_back(v);
      }
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
      if (vals.size() == 1) {
        bp->kind = BlockPred::Kind::kRange;
        bp->dlo = bp->dhi = vals[0];
      } else {
        bp->kind = BlockPred::Kind::kInSet;
        bp->in_dbls = std::move(vals);
      }
      return Verdict::kSome;
    }
    default: {
      const Interval<double> r = DoubleRangeOf(p);
      bp->kind = BlockPred::Kind::kRange;
      bp->dlo = std::max(r.lo, sma.dmin());
      bp->dhi = std::min(r.hi, sma.dmax());
      return Verdict::kSome;
    }
  }
}

/// String columns are dictionary-compressed; the dictionary is
/// order-preserving, so every restriction but Ne and IN is one code run.
Verdict LowerString(const Predicate& p, const DataBlock& block,
                    BlockPred* bp) {
  const uint32_t count = block.attr(p.col).dict_count;
  // First index whose entry, cut to `len` characters, sorts above s
  // (`upper`) or at or above s.
  auto bound = [&](std::string_view s, bool upper,
                   size_t len = std::string_view::npos) {
    uint32_t lo = 0, hi = count;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      const std::string_view e = block.dict_string(p.col, mid).substr(0, len);
      if (upper ? e <= s : e < s) lo = mid + 1; else hi = mid;
    }
    return lo;
  };
  auto code = [&](std::string_view s) {
    const uint32_t i = bound(s, false);
    return i < count && block.dict_string(p.col, i) == s ? i : count;
  };
  const std::string_view c =
      p.op == CompareOp::kIn ? std::string_view() : p.lo.str();
  switch (p.op) {
    case CompareOp::kNe:
      bp->kind = BlockPred::Kind::kNe;
      bp->ne = code(c);
      return bp->ne == count ? Verdict::kAll : Verdict::kSome;
    case CompareOp::kIn: {
      std::vector<uint64_t> codes;
      for (const Value& v : p.list)
        if (const uint32_t i = code(v.str()); i != count) codes.push_back(i);
      std::sort(codes.begin(), codes.end());
      codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
      if (codes.size() == count) return Verdict::kAll;
      return LowerCodeList(std::move(codes), 0, bp);
    }
    case CompareOp::kPrefix:
      return LowerCodeRange(bound(c, false, c.size()), bound(c, true, c.size()),
                            count, bp);
    case CompareOp::kEq:
      return LowerCodeRange(bound(c, false), bound(c, true), count, bp);
    case CompareOp::kLt: return LowerCodeRange(0, bound(c, false), count, bp);
    case CompareOp::kLe: return LowerCodeRange(0, bound(c, true), count, bp);
    case CompareOp::kGt: return LowerCodeRange(bound(c, true), count, count, bp);
    case CompareOp::kGe:
      return LowerCodeRange(bound(c, false), count, count, bp);
    case CompareOp::kBetween:
      return LowerCodeRange(bound(c, false), bound(p.hi.str(), true), count,
                            bp);
    default: DB_CHECK(false); return Verdict::kSome;
  }
}

/// The share of a block's rows that bp is estimated to keep, from the
/// block's own metadata with values taken as uniform: the restriction's
/// codes over the column's domain (the dictionary, or max - min + 1 for
/// truncated and raw integers); for doubles the covered share of
/// [min, max]. NULL tests estimate 1.
double EstimateSelectivity(const BlockPred& bp, const AttrMeta& m) {
  using K = BlockPred::Kind;
  if (bp.kind == K::kIsNull || bp.kind == K::kIsNotNull) return 1;
  if (bp.is_double) {
    const double dmin = std::bit_cast<double>(m.min_val);
    const double dmax = std::bit_cast<double>(m.max_val);
    if (bp.kind == K::kNe || !(dmax > dmin)) return 1;
    if (bp.kind == K::kInSet) return 0;
    return std::clamp((bp.dhi - bp.dlo) / (dmax - dmin), 0.0, 1.0);
  }
  const double domain = Compression(m.compression) == Compression::kDictionary
                            ? double(m.dict_count)
                            : double(m.max_val) - double(m.min_val) + 1;
  switch (bp.kind) {
    case K::kNe: return 1 - 1 / domain;
    case K::kInSet: return std::min(1.0, double(bp.in_codes.size()) / domain);
    default: {
      const double span = bp.is_signed ? double(int64_t(bp.hi)) -
                                             double(int64_t(bp.lo))
                                       : double(bp.hi - bp.lo);
      return std::min(1.0, (span + 1) / domain);
    }
  }
}

}  // namespace

ColumnSma BlockSma(const DataBlock& block, uint32_t col) {
  const AttrMeta& m = block.attr(col);
  ColumnSma sma;
  sma.type = TypeId(m.type);
  sma.has_nulls = m.flags & AttrMeta::kHasNulls;
  sma.all_null = m.flags & AttrMeta::kAllNull;
  sma.single_value = Compression(m.compression) == Compression::kSingleValue;
  sma.min = m.min_val;
  sma.max = m.max_val;
  if (sma.type == TypeId::kString && m.dict_count > 0) {
    sma.min_str = block.dict_string(col, 0);
    sma.max_str = block.dict_string(col, m.dict_count - 1);
  }
  return sma;
}

Verdict LowerPredicate(const Predicate& p, const ColumnSma& sma,
                       Compression scheme, const DataBlock* block,
                       BlockPred* bp) {
  const Verdict v = JudgeSma(p, sma);
  if (v != Verdict::kSome) return v;
  bp->col = p.col;
  bp->width = block != nullptr ? block->attr(p.col).code_width
                               : TypeWidth(sma.type);
  switch (p.op) {
    case CompareOp::kIsNull: bp->kind = BlockPred::Kind::kIsNull; return v;
    case CompareOp::kIsNotNull:
      bp->kind = BlockPred::Kind::kIsNotNull;
      return v;
    default: break;
  }
  switch (sma.type) {
    case TypeId::kString: return LowerString(p, *block, bp);
    case TypeId::kDouble: return LowerDouble(p, sma, bp);
    default: return LowerInt(p, sma, scheme, block, bp);
  }
}

BlockScanPrep PrepareBlockScan(const DataBlock& block,
                               const std::vector<Predicate>& preds,
                               bool use_psma) {
  BlockScanPrep prep;
  prep.range_begin = 0;
  prep.range_end = block.num_rows();

  for (const Predicate& p : preds) {
    const ColumnSma sma = BlockSma(block, p.col);
    BlockPred bp;
    const Verdict v = LowerPredicate(
        p, sma, Compression(block.attr(p.col).compression), &block, &bp);
    if (v == Verdict::kNone) {
      prep.skip = true;
      return prep;
    }
    // NULL rows store code 0 and may pass a value predicate's code test, or
    // the predicate may be implied for every non-NULL row: filter them.
    if (sma.has_nulls && p.op != CompareOp::kIsNull &&
        p.op != CompareOp::kIsNotNull) {
      prep.null_filters.push_back(p.col);
    }
    if (v == Verdict::kSome) prep.preds.push_back(std::move(bp));
  }

  // PSMA narrowing: probe each usable predicate's lookup table and
  // intersect the returned ranges (Section 3.2).
  if (use_psma) {
    for (const BlockPred& bp : prep.preds) {
      if (bp.kind != BlockPred::Kind::kRange || !bp.psma_usable) continue;
      const PsmaEntry* table = block.psma(bp.col);
      if (table == nullptr) continue;
      PsmaRange r = PsmaProbe(table, block.attr(bp.col).psma_entries,
                              bp.psma_dlo, bp.psma_dhi);
      prep.range_begin = std::max(prep.range_begin, r.begin);
      prep.range_end = std::min(prep.range_end, r.end);
      if (prep.range_begin >= prep.range_end) {
        prep.skip = true;
        return prep;
      }
    }
  }

  // Most selective first, so each later restriction reduces fewer
  // positions. A conjunction commutes and positions stay ascending, so the
  // matches are the same in any order; ties keep the query order.
  if (prep.preds.size() > 1) {
    std::stable_sort(prep.preds.begin(), prep.preds.end(),
                     [&](const BlockPred& a, const BlockPred& b) {
                       return EstimateSelectivity(a, block.attr(a.col)) <
                              EstimateSelectivity(b, block.attr(b.col));
                     });
  }
  return prep;
}

namespace {

/// Calls fn with the column's code (or raw value) vector typed by width and
/// signedness: raw int32/int64 storage compares signed.
template <typename Fn>
uint32_t WithTypedData(const BlockPred& bp, const uint8_t* base, Fn fn) {
  switch (bp.width) {
    case 1: return fn(base);
    case 2: return fn(reinterpret_cast<const uint16_t*>(base));
    case 4:
      return bp.is_signed ? fn(reinterpret_cast<const int32_t*>(base))
                          : fn(reinterpret_cast<const uint32_t*>(base));
    case 8:
      return bp.is_signed ? fn(reinterpret_cast<const int64_t*>(base))
                          : fn(reinterpret_cast<const uint64_t*>(base));
    default: DB_CHECK(false); return 0;
  }
}

/// kRange, kNe and kInSet of at most kMaxInKernelSet integer codes: the
/// find/reduce-matches kernels. The translated constants are bit patterns,
/// sign-extended when signed, so T(constant) is the typed value.
uint32_t RunKernelPred(const uint8_t* base, const BlockPred& bp,
                       uint32_t from, uint32_t to, Isa isa, bool first,
                       uint32_t n, uint32_t* out) {
  return WithTypedData(bp, base, [&](const auto* d) -> uint32_t {
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(d)>>;
    switch (bp.kind) {
      case BlockPred::Kind::kNe:
        return first ? FindMatchesNe<T>(d, from, to, T(bp.ne), isa, out)
                     : ReduceMatchesNe<T>(d, out, n, T(bp.ne), isa, out);
      case BlockPred::Kind::kInSet: {
        T set[kMaxInKernelSet] = {};
        const uint32_t k = uint32_t(bp.in_codes.size());
        for (uint32_t s = 0; s < k; ++s) set[s] = T(bp.in_codes[s]);
        return first ? FindMatchesIn<T>(d, from, to, set, k, isa, out)
                     : ReduceMatchesIn<T>(d, out, n, set, k, isa, out);
      }
      default:
        return first ? FindMatchesBetween<T>(d, from, to, T(bp.lo), T(bp.hi),
                                             isa, out)
                     : ReduceMatchesBetween<T>(d, out, n, T(bp.lo), T(bp.hi),
                                               isa, out);
    }
  });
}

/// Raw doubles: scalar range and inequality kernels (Section 4.2).
uint32_t RunDoublePred(const double* data, const BlockPred& bp,
                       uint32_t from, uint32_t to, bool first, uint32_t n,
                       uint32_t* out) {
  if (bp.kind == BlockPred::Kind::kNe) {
    return first ? FindMatchesNeF64(data, from, to, bp.dne, out)
                 : ReduceMatchesNeF64(data, out, n, bp.dne, out);
  }
  return first ? FindMatchesBetweenF64(data, from, to, bp.dlo, bp.dhi, out)
               : ReduceMatchesBetweenF64(data, out, n, bp.dlo, bp.dhi, out);
}

/// Membership by binary search in the sorted set: IN lists on raw doubles
/// and sets too large for the kernels.
uint32_t RunInSetPred(const uint8_t* base, const BlockPred& bp, uint32_t from,
                      uint32_t to, bool first, uint32_t n, uint32_t* out) {
  if (bp.is_double) {
    const double* d = reinterpret_cast<const double*>(base);
    return SelectRows(first, from, to, n, out, [&](uint32_t row) {
      return std::binary_search(bp.in_dbls.begin(), bp.in_dbls.end(), d[row]);
    });
  }
  return WithTypedData(bp, base, [&](const auto* d) {
    return SelectRows(first, from, to, n, out, [&](uint32_t row) {
      // Signed values sign-extend, like the translated bit patterns.
      return std::binary_search(bp.in_codes.begin(), bp.in_codes.end(),
                                uint64_t(int64_t(d[row])));
    });
  });
}

}  // namespace

uint32_t RunBlockPred(const BlockPred& bp, const uint8_t* data,
                      const uint64_t* nulls, uint32_t from, uint32_t to,
                      Isa isa, bool first, uint32_t n, uint32_t* out) {
  if (bp.kind == BlockPred::Kind::kIsNull ||
      bp.kind == BlockPred::Kind::kIsNotNull) {
    const bool keep_set = bp.kind == BlockPred::Kind::kIsNull;
    return SelectRows(first, from, to, n, out, [&](uint32_t row) {
      return (nulls != nullptr && BitmapTest(nulls, row)) == keep_set;
    });
  }
  if (bp.kind == BlockPred::Kind::kInSet &&
      (bp.is_double || bp.in_codes.size() > kMaxInKernelSet)) {
    return RunInSetPred(data, bp, from, to, first, n, out);
  }
  if (bp.is_double) {
    return RunDoublePred(reinterpret_cast<const double*>(data), bp, from, to,
                         first, n, out);
  }
  return RunKernelPred(data, bp, from, to, isa, first, n, out);
}

uint32_t FilterPositionsByBitmap(const uint32_t* positions, uint32_t n,
                                 const uint64_t* bitmap, bool keep_set,
                                 uint32_t* out) {
  if (bitmap == nullptr) {
    if (keep_set) return 0;
    if (out != positions)
      std::copy(positions, positions + n, out);
    return n;
  }
  uint32_t* w = out;
  for (uint32_t j = 0; j < n; ++j) {
    uint32_t p = positions[j];
    *w = p;
    w += (BitmapTest(bitmap, p) == keep_set);
  }
  return static_cast<uint32_t>(w - out);
}

uint32_t FindMatchesInBlock(const DataBlock& block, const BlockScanPrep& prep,
                            uint32_t from, uint32_t to, Isa isa,
                            uint32_t* out) {
  DB_DCHECK(!prep.skip);
  uint32_t n = 0;
  bool first = true;
  for (const BlockPred& bp : prep.preds) {
    n = RunBlockPred(bp, block.codes(bp.col), block.null_bitmap(bp.col), from,
                     to, isa, first, n, out);
    first = false;
    if (n == 0) return 0;
  }

  if (first) {
    // No residual predicates: all rows in range match.
    for (uint32_t i = from; i < to; ++i) out[i - from] = i;
    n = to - from;
  }

  // Remove NULL rows that survived a code test (NULLs store code 0) or a
  // predicate implied for every non-NULL row.
  for (uint32_t col : prep.null_filters) {
    n = FilterPositionsByBitmap(out, n, block.null_bitmap(col), false, out);
  }
  return n;
}

namespace {

/// Row j of a contiguous range [from, from + n): indexed like a position
/// vector, so every unpack body below serves both forms. With ranges the
/// loads become contiguous and the integer widens vectorize.
struct RowRange {
  uint32_t from;
  size_t operator[](uint32_t j) const { return size_t(from) + j; }
};

/// Calls fn with the column's code vector typed by its code width.
template <typename Fn>
void WithCodes(const DataBlock& block, uint32_t col, Fn fn) {
  const uint8_t* base = block.codes(col);
  switch (block.attr(col).code_width) {
    case 1: return fn(base);
    case 2: return fn(reinterpret_cast<const uint16_t*>(base));
    case 4: return fn(reinterpret_cast<const uint32_t*>(base));
    default: return fn(reinterpret_cast<const uint64_t*>(base));
  }
}

/// The integer column's values at rows idx[0..n). `Idx` is a position
/// vector (const uint32_t*) or a RowRange.
template <typename Idx, typename Out>
void UnpackInts(const DataBlock& block, uint32_t col, Idx idx, uint32_t n,
                Out* __restrict out) {
  const AttrMeta& m = block.attr(col);
  switch (Compression(m.compression)) {
    case Compression::kSingleValue:
      std::fill_n(out, n, Out(m.min_val));
      return;
    case Compression::kTruncation:
    case Compression::kRaw: {
      // A raw value is its code (Validate holds raw widths to the type's
      // width); the unsigned load keeps its bits through the Out cast.
      const uint64_t min_u = Compression(m.compression) == Compression::kRaw
                                 ? 0
                                 : uint64_t(m.min_val);
      return WithCodes(block, col, [&](const auto* d) {
        for (uint32_t j = 0; j < n; ++j) out[j] = Out(min_u + d[idx[j]]);
      });
    }
    case Compression::kDictionary: {
      const int64_t* dict = block.int_dict(col);
      return WithCodes(block, col, [&](const auto* d) {
        for (uint32_t j = 0; j < n; ++j) out[j] = Out(dict[d[idx[j]]]);
      });
    }
  }
}

/// The dictionary codes of a string column at rows idx[0..n); a
/// single-value column is entry 0 on every row.
template <typename Idx>
void UnpackCodes(const DataBlock& block, uint32_t col, Idx idx, uint32_t n,
                 uint32_t* __restrict out) {
  if (Compression(block.attr(col).compression) == Compression::kSingleValue) {
    std::fill_n(out, n, 0u);
    return;
  }
  WithCodes(block, col, [&](const auto* d) {
    for (uint32_t j = 0; j < n; ++j) out[j] = uint32_t(d[idx[j]]);
  });
}

/// Appends rows idx[0..n)'s NULL flags to `out->null_mask`, which stays
/// empty while every row appended so far is non-NULL. Must run before the
/// values are appended: it backfills against the pre-append row count.
template <typename Idx>
void AppendNullMask(const DataBlock& block, uint32_t col, Idx idx, uint32_t n,
                    ColumnVector* out) {
  const AttrMeta& m = block.attr(col);
  if (!(m.flags & (AttrMeta::kHasNulls | AttrMeta::kAllNull))) {
    if (!out->null_mask.empty())
      out->null_mask.insert(out->null_mask.end(), n, 0);
    return;
  }
  const size_t have = out->size();
  out->null_mask.resize(have, 0);  // backfill the rows appended so far
  out->null_mask.resize(have + n, 1);
  if (m.flags & AttrMeta::kAllNull) return;
  uint8_t* w = out->null_mask.data() + have;
  const uint64_t* bitmap = block.null_bitmap(col);
  for (uint32_t j = 0; j < n; ++j) w[j] = BitmapTest(bitmap, idx[j]);
}

/// Appends `n` slots to `v` and returns the first. ColumnVector's numeric
/// and code vectors leave them unwritten; every caller fills all `n`.
template <typename V>
auto* Grow(V& v, uint32_t n) {
  const size_t old = v.size();
  v.resize(old + n);
  return v.data() + old;
}

template <typename Idx>
void UnpackAt(const DataBlock& block, uint32_t col, Idx idx, uint32_t n,
              ColumnVector* out) {
  const AttrMeta& m = block.attr(col);
  AppendNullMask(block, col, idx, n, out);
  switch (TypeId(m.type)) {
    case TypeId::kInt32:
    case TypeId::kDate:
    case TypeId::kChar1:
      return UnpackInts(block, col, idx, n, Grow(out->i32, n));
    case TypeId::kInt64:
      return UnpackInts(block, col, idx, n, Grow(out->i64, n));
    case TypeId::kDouble: {
      double* __restrict w = Grow(out->f64, n);
      if (Compression(m.compression) == Compression::kSingleValue) {
        std::fill_n(w, n, std::bit_cast<double>(m.min_val));
        return;
      }
      const double* d = reinterpret_cast<const double*>(block.codes(col));
      for (uint32_t j = 0; j < n; ++j) w[j] = d[idx[j]];
      return;
    }
    case TypeId::kString: {
      std::string_view* w = Grow(out->str, n);
      if (m.dict_count == 0) return;  // all NULL: empty views
      if (Compression(m.compression) == Compression::kSingleValue) {
        std::fill_n(w, n, block.dict_string(col, 0));
        return;
      }
      return WithCodes(block, col, [&](const auto* d) {
        for (uint32_t j = 0; j < n; ++j)
          w[j] = block.dict_string(col, uint32_t(d[idx[j]]));
      });
    }
  }
}

template <typename Idx>
void UnpackCodesAt(const DataBlock& block, uint32_t col, Idx idx, uint32_t n,
                   ColumnVector* out) {
  DB_DCHECK(TypeId(block.attr(col).type) == TypeId::kString &&
            block.attr(col).dict_count > 0);
  AppendNullMask(block, col, idx, n, out);
  out->dict_block = &block;
  out->dict_col = col;
  UnpackCodes(block, col, idx, n, Grow(out->codes, n));
}

}  // namespace

void UnpackColumn(const DataBlock& block, uint32_t col,
                  const uint32_t* positions, uint32_t n, ColumnVector* out) {
  UnpackAt(block, col, positions, n, out);
}

void UnpackColumnRange(const DataBlock& block, uint32_t col, uint32_t from,
                       uint32_t to, ColumnVector* out) {
  UnpackAt(block, col, RowRange{from}, to - from, out);
}

void UnpackColumnCodes(const DataBlock& block, uint32_t col,
                       const uint32_t* positions, uint32_t n,
                       ColumnVector* out) {
  UnpackCodesAt(block, col, positions, n, out);
}

void UnpackColumnCodesRange(const DataBlock& block, uint32_t col,
                            uint32_t from, uint32_t to, ColumnVector* out) {
  UnpackCodesAt(block, col, RowRange{from}, to - from, out);
}

}  // namespace datablocks
