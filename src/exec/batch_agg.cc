#include "exec/batch_agg.h"

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>

#include "util/macros.h"

// Same convention as scan/match_finder.cc: the library is built for
// baseline x86-64, the AVX2 flavours carry a per-function target attribute
// and are reached only when ClampIsa() says the host runs them.
#define DB_TARGET_AVX2 __attribute__((target("avx2,bmi2")))

namespace datablocks {

namespace {

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Adds `key` to distinct[0, *num) unless it is there; false when it is
/// new and every slot is taken.
inline bool AddKey(int32_t key, int32_t* distinct, uint32_t* num) {
  for (uint32_t j = 0; j < *num; ++j) {
    if (distinct[j] == key) return true;
  }
  if (*num == kRegisterGroups) return false;
  distinct[(*num)++] = key;
  return true;
}

DB_TARGET_AVX2 inline __m256i Load(const int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
DB_TARGET_AVX2 inline __m256i Load(const int64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
/// Four int32 values sign-extended to 64-bit lanes.
DB_TARGET_AVX2 inline __m256i Load4(const int32_t* p) {
  return _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

DB_TARGET_AVX2 inline int64_t HorizontalSum64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
}

// ---------------------------------------------------------------------------
// The register pass
// ---------------------------------------------------------------------------

/// Sums value lanes V0..V0+NV-1 of rows [0, n & ~3) per slot, four rows at
/// a time with the accumulators in registers: slot g < G - 1 adds the
/// lanes masked by "key == distinct[g]", and the last slot, which takes
/// every other row, is the total minus the others, so the caller must know
/// that every row has one of the G keys. No row stores anything. Leaves
/// each slot's sums, still four lanes wide, in out[g][v].
///
/// `rows` gives, for rows i..i+3, their keys (Key, 64-bit lanes that equal
/// the int32 distinct keys sign-extended) and their Rows::kLanes value
/// lanes (Lanes); a pass keeps the accumulators of its NV lanes only, and
/// the compiler drops the work of the others.
template <int G, int V0, int NV, typename Rows>
DB_TARGET_AVX2 void SlotPassAvx2(const Rows& rows, uint32_t n,
                                 const int32_t* distinct,
                                 __m256i (*out)[Rows::kLanes]) {
  constexpr int M = G - 1;
  __m256i id[M + 1];
  __m256i acc[M + 1][NV];
  __m256i total[NV];
#pragma GCC unroll 8
  for (int g = 0; g < M; ++g) {
    id[g] = _mm256_set1_epi64x(distinct[g]);
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) acc[g][v] = _mm256_setzero_si256();
  }
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) total[v] = _mm256_setzero_si256();
  for (uint32_t i = 0; i + 4 <= n; i += 4) {
    const __m256i key = rows.Key(i);
    __m256i lanes[Rows::kLanes];
    rows.Lanes(i, lanes);
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      total[v] = _mm256_add_epi64(total[v], lanes[V0 + v]);
    }
#pragma GCC unroll 8
    for (int g = 0; g < M; ++g) {
      const __m256i m = _mm256_cmpeq_epi64(key, id[g]);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        acc[g][v] =
            _mm256_add_epi64(acc[g][v], _mm256_and_si256(m, lanes[V0 + v]));
      }
    }
  }
#pragma GCC unroll 8
  for (int v = 0; v < NV; ++v) {
    __m256i rest = total[v];
#pragma GCC unroll 8
    for (int g = 0; g < M; ++g) {
      out[g][V0 + v] = acc[g][v];
      rest = _mm256_sub_epi64(rest, acc[g][v]);
    }
    out[M][V0 + v] = rest;
  }
}

// ---------------------------------------------------------------------------
// PricingSums
// ---------------------------------------------------------------------------

/// Grid key of a (returnflag, linestatus) pair, -1 when either is not an
/// upper-case letter.
inline int32_t FlagKey(int32_t returnflag, int32_t linestatus) {
  const uint32_t r = uint32_t(returnflag) - 'A';
  const uint32_t l = uint32_t(linestatus) - 'A';
  return (r < 26) & (l < 26) ? int32_t(r * 26 + l) : -1;
}

PricingColumns Advance(const PricingColumns& c, uint32_t off) {
  return PricingColumns{c.quantity + off,   c.extendedprice + off,
                        c.discount + off,   c.tax + off,
                        c.returnflag + off, c.linestatus + off};
}

/// The per-row path: the scalar flavour, and the AVX2 flavour's fallback.
void PricingPerRow(const PricingColumns& c, uint32_t n, int64_t* sums,
                   int64_t* counts) {
  for (uint32_t i = 0; i < n; ++i) {
    const int32_t key = FlagKey(c.returnflag[i], c.linestatus[i]);
    DB_CHECK(key >= 0);
    int64_t* s = sums + size_t(key) * kPricingSums;
    const int64_t dp = c.extendedprice[i] * (100 - c.discount[i]);
    s[kSumQty] += c.quantity[i];
    s[kSumBasePrice] += c.extendedprice[i];
    s[kSumDiscPrice] += dp;
    s[kSumCharge] += dp * (100 + c.tax[i]) / 100;
    s[kSumDisc] += c.discount[i];
    ++counts[key];
  }
}

/// Rows per AVX2 pricing chunk: 128 rows per 64-bit lane, which the packed
/// lane below holds without a carry from one field into the next.
constexpr uint32_t kPricingChunk = 512;

/// Packed-lane layout: price in bits 0-30, quantity 31-43, discount 44-54,
/// a row count 55-62. 128 rows of price < 2^24, quantity < 64 and
/// discount < 16 fill each field at most to its width.
constexpr int kQtyShift = 31;
constexpr int kDiscShift = 44;
constexpr int kRowShift = 55;

/// The key the AVX2 flavour compares: returnflag << 8 | linestatus, which
/// is distinct for letter pairs.
inline int32_t RawFlagKey(int32_t returnflag, int32_t linestatus) {
  return int32_t(uint32_t(returnflag) << 8 | uint32_t(linestatus));
}

inline size_t GridOfRaw(int32_t raw) {
  return size_t(((uint32_t(raw) >> 8) - 'A') * 26 +
                ((uint32_t(raw) & 0xFF) - 'A'));
}

/// Adds row r's key to distinct[0, *num); false when its flags are not
/// letters or every slot is taken.
inline bool AddFlagKey(const PricingColumns& c, uint32_t r, int32_t* distinct,
                       uint32_t* num) {
  return FlagKey(c.returnflag[r], c.linestatus[r]) >= 0 &&
         AddKey(RawFlagKey(c.returnflag[r], c.linestatus[r]), distinct, num);
}

/// The bounds the packed lane and the division need: price in [0, 2^24),
/// quantity in [0, 64), discount in [0, 16), tax in [0, 2^24).
inline bool InBounds(const PricingColumns& c, uint32_t r) {
  return uint64_t(c.extendedprice[r]) < (uint64_t(1) << 24) &&
         uint32_t(c.quantity[r]) < 64 && uint32_t(c.discount[r]) < 16 &&
         uint32_t(c.tax[r]) < (1u << 24);
}

constexpr uint32_t kOutOfBounds = UINT32_MAX;

/// Rows [i, n8) of a chunk, eight at a time, before the sums: checks that
/// the flags are letters, that the key is one of distinct[0, G) and that
/// the values are InBounds. Returns the first group of eight with another
/// key (n8 when there is none), or kOutOfBounds.
template <int G>
DB_TARGET_AVX2 uint32_t PricingScanAvx2(const PricingColumns& c, uint32_t i,
                                        uint32_t n8, const int32_t* distinct) {
  __m256i id[G + 1];
#pragma GCC unroll 8
  for (int g = 0; g < G; ++g) id[g] = _mm256_set1_epi32(distinct[g]);
  const __m256i letter_a = _mm256_set1_epi32('A');
  __m256i flags = _mm256_setzero_si256();  // max of flag - 'A', unsigned
  __m256i qty = _mm256_setzero_si256();    // or of quantities
  __m256i disc = _mm256_setzero_si256();   // or of discounts
  __m256i tax = _mm256_setzero_si256();    // or of taxes
  __m256i price = _mm256_setzero_si256();  // or of prices
  for (; i < n8; i += 8) {
    const __m256i rf = Load(c.returnflag + i);
    const __m256i ls = Load(c.linestatus + i);
    const __m256i key = _mm256_or_si256(_mm256_slli_epi32(rf, 8), ls);
    __m256i found = _mm256_setzero_si256();
#pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
      found = _mm256_or_si256(found, _mm256_cmpeq_epi32(key, id[g]));
    }
    if (_mm256_movemask_epi8(found) != -1) break;
    flags = _mm256_max_epu32(
        flags, _mm256_max_epu32(_mm256_sub_epi32(rf, letter_a),
                                _mm256_sub_epi32(ls, letter_a)));
    qty = _mm256_or_si256(qty, Load(c.quantity + i));
    disc = _mm256_or_si256(disc, Load(c.discount + i));
    tax = _mm256_or_si256(tax, Load(c.tax + i));
    price = _mm256_or_si256(
        price, _mm256_or_si256(Load(c.extendedprice + i),
                               Load(c.extendedprice + i + 4)));
  }
  // A negative or too large value sets a bit outside its mask.
  const __m256i z = _mm256_set1_epi32(25);
  const bool ok =
      _mm256_movemask_epi8(
          _mm256_cmpeq_epi32(_mm256_max_epu32(flags, z), z)) == -1 &&
      _mm256_testz_si256(qty, _mm256_set1_epi32(~63)) &&
      _mm256_testz_si256(disc, _mm256_set1_epi32(~15)) &&
      _mm256_testz_si256(tax, _mm256_set1_epi32(~0xFFFFFF)) &&
      _mm256_testz_si256(price, _mm256_set1_epi64x(~int64_t(0xFFFFFF)));
  return ok ? i : kOutOfBounds;
}

using PricingScanFn = uint32_t (*)(const PricingColumns&, uint32_t, uint32_t,
                                   const int32_t*);
constexpr PricingScanFn kPricingScanAvx2[kRegisterGroups + 1] = {
    PricingScanAvx2<0>, PricingScanAvx2<1>, PricingScanAvx2<2>,
    PricingScanAvx2<3>, PricingScanAvx2<4>, PricingScanAvx2<5>,
    PricingScanAvx2<6>, PricingScanAvx2<7>, PricingScanAvx2<8>};

/// One pass over a chunk before the sums: checks every row (see
/// PricingScanAvx2) and adds the chunk's keys to distinct[0, *num), which
/// may hold keys of earlier chunks (their slots then sum nothing). False
/// when a row is out of bounds or the keys need more than kRegisterGroups
/// slots.
bool PricingScan(const PricingColumns& c, uint32_t n, int32_t* distinct,
                 uint32_t* num) {
  const uint32_t n8 = n & ~7u;
  for (uint32_t i = 0;;) {
    i = kPricingScanAvx2[*num](c, i, n8, distinct);
    if (i == kOutOfBounds) return false;
    if (i == n8) break;
    for (uint32_t r = i; r < i + 8; ++r) {
      if (!AddFlagKey(c, r, distinct, num)) return false;
    }
  }
  for (uint32_t r = n8; r < n; ++r) {
    if (!InBounds(c, r) || !AddFlagKey(c, r, distinct, num)) return false;
  }
  return true;
}

/// floor(v / 100) for v in [0, 2^32): the low 32 bits of each lane times
/// ceil(2^37 / 100), shifted right by 37.
DB_TARGET_AVX2 inline __m256i Div100(__m256i v) {
  return _mm256_srli_epi64(
      _mm256_mul_epu32(v, _mm256_set1_epi64x(0x51EB851F)), 37);
}

/// A pricing chunk as register-pass rows: the raw key and three lanes,
/// the packed lane, dp and charge. dp = price * (100 - disc) is a
/// 32 x 32 -> 64-bit multiply; with dp = 100a + r and t = 100 + tax,
///   dp * t / 100 = a * t + r * t / 100,
/// and within the InBounds bounds dp < 2^31 and r * t < 2^31, so both
/// divisions are in Div100's range and the result is C++'s.
struct PricingRows {
  static constexpr int kLanes = 3;
  PricingColumns c;

  DB_TARGET_AVX2 __m256i Key(uint32_t i) const {
    return _mm256_or_si256(_mm256_slli_epi64(Load4(c.returnflag + i), 8),
                           Load4(c.linestatus + i));
  }
  DB_TARGET_AVX2 void Lanes(uint32_t i, __m256i* lanes) const {
    const __m256i hundred = _mm256_set1_epi64x(100);
    const __m256i price = Load(c.extendedprice + i);
    const __m256i disc = Load4(c.discount + i);
    const __m256i t = _mm256_add_epi64(Load4(c.tax + i), hundred);
    lanes[0] = _mm256_or_si256(
        _mm256_or_si256(price,
                        _mm256_slli_epi64(Load4(c.quantity + i), kQtyShift)),
        _mm256_or_si256(_mm256_slli_epi64(disc, kDiscShift),
                        _mm256_set1_epi64x(int64_t(1) << kRowShift)));
    const __m256i dp =
        _mm256_mul_epu32(price, _mm256_sub_epi64(hundred, disc));
    const __m256i a = Div100(dp);
    const __m256i r = _mm256_sub_epi64(dp, _mm256_mul_epu32(a, hundred));
    lanes[1] = dp;
    lanes[2] = _mm256_add_epi64(_mm256_mul_epu32(a, t),
                                Div100(_mm256_mul_epu32(r, t)));
  }
};

/// One chunk with G distinct keys: the register passes (all three lanes in
/// one pass up to four slots, one lane per pass above that), then each
/// slot's lanes added into the grid. The last n % 4 rows go one by one.
template <int G>
DB_TARGET_AVX2 void PricingChunkAvx2(const PricingColumns& c, uint32_t n,
                                     const int32_t* distinct, int64_t* sums,
                                     int64_t* counts) {
  const PricingRows rows{c};
  __m256i lanes[G][3];
  if constexpr (G <= 4) {
    SlotPassAvx2<G, 0, 3>(rows, n, distinct, lanes);
  } else {
    SlotPassAvx2<G, 0, 1>(rows, n, distinct, lanes);
    SlotPassAvx2<G, 1, 1>(rows, n, distinct, lanes);
    SlotPassAvx2<G, 2, 1>(rows, n, distinct, lanes);
  }
  constexpr uint64_t kQtyMask = (uint64_t(1) << (kDiscShift - kQtyShift)) - 1;
  constexpr uint64_t kDiscMask = (uint64_t(1) << (kRowShift - kDiscShift)) - 1;
  for (int g = 0; g < G; ++g) {
    const size_t key = GridOfRaw(distinct[g]);
    int64_t* s = sums + key * kPricingSums;
    alignas(32) uint64_t packed[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(packed), lanes[g][0]);
    for (uint64_t p : packed) {
      s[kSumBasePrice] += int64_t(p & ((uint64_t(1) << kQtyShift) - 1));
      s[kSumQty] += int64_t((p >> kQtyShift) & kQtyMask);
      s[kSumDisc] += int64_t((p >> kDiscShift) & kDiscMask);
      counts[key] += int64_t(p >> kRowShift);
    }
    s[kSumDiscPrice] += HorizontalSum64(lanes[g][1]);
    s[kSumCharge] += HorizontalSum64(lanes[g][2]);
  }
  const uint32_t n4 = n & ~3u;
  PricingPerRow(Advance(c, n4), n - n4, sums, counts);
}

using PricingChunkFn = void (*)(const PricingColumns&, uint32_t,
                                const int32_t*, int64_t*, int64_t*);
constexpr PricingChunkFn kPricingChunkAvx2[kRegisterGroups] = {
    PricingChunkAvx2<1>, PricingChunkAvx2<2>, PricingChunkAvx2<3>,
    PricingChunkAvx2<4>, PricingChunkAvx2<5>, PricingChunkAvx2<6>,
    PricingChunkAvx2<7>, PricingChunkAvx2<8>};

// ---------------------------------------------------------------------------
// RunSums
// ---------------------------------------------------------------------------

/// run_sums holds the running sum at each run's last row; turns it into
/// the sums of the runs.
void RunEndsToSums(int64_t* run_sums, uint32_t runs) {
  int64_t prev = 0;
  for (uint32_t j = 0; j < runs; ++j) {
    const int64_t end = run_sums[j];
    run_sums[j] = end - prev;
    prev = end;
  }
}

/// The branch-free pass from row `i` on: every row writes its key and the
/// running sum at index `runs`, and a row whose successor has another key
/// moves `runs` on, so the last row of each run leaves the run's entry.
uint32_t RunEndsScalar(const int64_t* keys, const int32_t* vals, uint32_t i,
                       uint32_t n, int64_t prefix, uint32_t runs,
                       int64_t* run_keys, int64_t* run_sums) {
  for (; i + 1 < n; ++i) {
    prefix += vals[i];
    run_keys[runs] = keys[i];
    run_sums[runs] = prefix;
    runs += keys[i] != keys[i + 1];
  }
  run_keys[runs] = keys[i];
  run_sums[runs] = prefix + vals[i];
  return runs + 1;
}

/// kCompress64[m]: _mm256_permutevar8x32_epi32 indices that move the 64-bit
/// lanes set in the 4-bit mask m to the front, in order.
struct Compress64 {
  alignas(32) int32_t idx[8];
};
consteval std::array<Compress64, 16> BuildCompress64() {
  std::array<Compress64, 16> table{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        table[m].idx[2 * k] = 2 * lane;
        table[m].idx[2 * k + 1] = 2 * lane + 1;
        ++k;
      }
    }
    for (; k < 4; ++k) {
      table[m].idx[2 * k] = 0;
      table[m].idx[2 * k + 1] = 1;
    }
  }
  return table;
}
constexpr std::array<Compress64, 16> kCompress64 = BuildCompress64();

/// RunEndsScalar four rows at a time: a compare of each key with its
/// successor gives the run ends, an in-register prefix sum the running
/// sums, and one permute each compresses both to the run ends' entries.
/// The stores may write up to three entries past the last run end, which
/// the next group overwrites; they stay below row i + 4 < n.
DB_TARGET_AVX2 uint32_t RunEndsAvx2(const int64_t* keys, const int32_t* vals,
                                    uint32_t n, int64_t* run_keys,
                                    int64_t* run_sums) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i carry = zero;  // running sum before row i, in every lane
  uint32_t runs = 0;
  uint32_t i = 0;
  for (; i + 5 <= n; i += 4) {
    const __m256i k0 = Load(keys + i);
    const unsigned ends =
        ~unsigned(_mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpeq_epi64(k0, Load(keys + i + 1))))) &
        0xF;
    __m256i x = Load4(vals + i);
    x = _mm256_add_epi64(x, _mm256_slli_si256(x, 8));
    x = _mm256_add_epi64(
        x, _mm256_blend_epi32(
               zero, _mm256_permute4x64_epi64(x, _MM_SHUFFLE(1, 1, 1, 1)),
               0xF0));
    x = _mm256_add_epi64(x, carry);
    carry = _mm256_permute4x64_epi64(x, _MM_SHUFFLE(3, 3, 3, 3));
    const __m256i idx = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompress64[ends].idx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(run_keys + runs),
                        _mm256_permutevar8x32_epi32(k0, idx));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(run_sums + runs),
                        _mm256_permutevar8x32_epi32(x, idx));
    runs += unsigned(std::popcount(ends));
  }
  return RunEndsScalar(keys, vals, i, n, _mm256_extract_epi64(carry, 0),
                       runs, run_keys, run_sums);
}

}  // namespace

void PricingSums(const PricingColumns& rows, uint32_t n, int64_t* sums,
                 int64_t* counts, Isa isa) {
  if (ClampIsa(isa) != Isa::kAvx2) {
    PricingPerRow(rows, n, sums, counts);
    return;
  }
  int32_t distinct[kRegisterGroups];
  uint32_t num = 0;
  for (uint32_t off = 0; off < n; off += kPricingChunk) {
    const uint32_t m = std::min(kPricingChunk, n - off);
    const PricingColumns chunk = Advance(rows, off);
    if (PricingScan(chunk, m, distinct, &num)) {
      kPricingChunkAvx2[num - 1](chunk, m, distinct, sums, counts);
    } else {
      PricingPerRow(chunk, m, sums, counts);
      num = 0;
    }
  }
}

uint32_t RunSums(const int64_t* keys, const int32_t* vals, uint32_t n,
                 int64_t* run_keys, int64_t* run_sums, Isa isa) {
  if (n == 0) return 0;
  const uint32_t runs =
      ClampIsa(isa) == Isa::kAvx2
          ? RunEndsAvx2(keys, vals, n, run_keys, run_sums)
          : RunEndsScalar(keys, vals, 0, n, 0, 0, run_keys, run_sums);
  RunEndsToSums(run_sums, runs);
  return runs;
}

}  // namespace datablocks
