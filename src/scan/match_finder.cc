#include "scan/match_finder.h"

#include <immintrin.h>

#include <type_traits>

#include "scan/match_table.h"
#include "util/cpu.h"
#include "util/macros.h"

// The library is compiled for baseline x86-64; every function that touches
// AVX2/BMI2 or SSE4.2 instructions is annotated with a `target` attribute so
// the compiler enables those ISAs for that function only. Selection happens
// at run time (BestIsa / ClampIsa), so the same binary runs — and the tests
// pass — on hosts without AVX2. All vector-typed (`__m256i`/`__m128i`)
// signatures stay on internal-linkage helpers inside this translation unit,
// which keeps the -Wpsabi ABI warnings (vector argument passing without the
// matching ISA enabled globally) out of the build.
#define DB_TARGET_AVX2 __attribute__((target("avx2,bmi2")))
#define DB_TARGET_SSE42 __attribute__((target("sse4.2")))

namespace datablocks {

Isa BestIsa() {
  if (cpu::HasAvx2()) return Isa::kAvx2;
  if (cpu::HasSse42()) return Isa::kSse;
  return Isa::kScalar;
}

bool IsaSupported(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kSse: return cpu::HasSse42();
    case Isa::kAvx2: return cpu::HasAvx2();
  }
  return false;
}

Isa ClampIsa(Isa isa) {
  if (isa == Isa::kAvx2 && !cpu::HasAvx2()) isa = Isa::kSse;
  if (isa == Isa::kSse && !cpu::HasSse42()) isa = Isa::kScalar;
  return isa;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "x86";
    case Isa::kSse: return "SSE";
    case Isa::kAvx2: return "AVX2";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Position emission from comparison bit-masks via the precomputed table
// (Appendix C). Each call consumes an (up to) 8-bit mask whose bit j set
// means "lane j at absolute position base + j matches".
// ---------------------------------------------------------------------------

DB_TARGET_AVX2 inline uint32_t* EmitAvx2(uint32_t mask8, uint32_t base,
                                         uint32_t* writer) {
  const MatchTableEntry& e = kMatchTable[mask8];
  __m256i entry =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e.cell));
  __m256i pos = _mm256_srai_epi32(entry, 8);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(writer),
                      _mm256_add_epi32(pos, _mm256_set1_epi32(int(base))));
  return writer + MatchCount(e);
}

DB_TARGET_SSE42 inline uint32_t* EmitSse(uint32_t mask8, uint32_t base,
                                         uint32_t* writer) {
  const MatchTableEntry& e = kMatchTable[mask8];
  __m128i lo = _mm_srai_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(e.cell)), 8);
  __m128i hi = _mm_srai_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(e.cell + 4)), 8);
  __m128i basev = _mm_set1_epi32(int(base));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(writer),
                   _mm_add_epi32(lo, basev));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(writer + 4),
                   _mm_add_epi32(hi, basev));
  return writer + MatchCount(e);
}

// ---------------------------------------------------------------------------
// Scalar kernels (branch-free, the paper's "x86" baseline). These are also
// the portable fallback selected on hosts without SSE4.2/AVX2 or under
// DATABLOCKS_FORCE_SCALAR.
// ---------------------------------------------------------------------------

// Positions in [from, to) whose value passes keep.
template <typename T, typename Keep>
uint32_t FindScalar(const T* data, uint32_t from, uint32_t to, Keep keep,
                    uint32_t* out) {
  uint32_t* w = out;
  for (uint32_t i = from; i < to; ++i) {
    *w = i;
    w += keep(data[i]);
  }
  return static_cast<uint32_t>(w - out);
}

// The positions[0..n) whose value passes keep.
template <typename T, typename Keep>
uint32_t ReduceScalar(const T* data, const uint32_t* positions, uint32_t n,
                      Keep keep, uint32_t* out) {
  uint32_t* w = out;
  for (uint32_t j = 0; j < n; ++j) {
    uint32_t p = positions[j];
    *w = p;
    w += keep(data[p]);
  }
  return static_cast<uint32_t>(w - out);
}

// Whether v equals one of set[0..k): an OR over the whole set, no early exit.
template <typename T>
inline bool InSet(T v, const T* set, uint32_t k) {
  bool hit = false;
  for (uint32_t s = 0; s < k; ++s) hit |= v == set[s];
  return hit;
}

// The per-value tests of the scalar kernels.
template <typename T>
auto BetweenTest(T lo, T hi) {
  return [lo, hi](T v) { return (v >= lo) & (v <= hi); };
}
template <typename T>
auto NeTest(T ne) {
  return [ne](T v) { return v != ne; };
}
template <typename T>
auto InTest(const T* set, uint32_t k) {
  return [set, k](T v) { return InSet(v, set, k); };
}

// ---------------------------------------------------------------------------
// SIMD comparison helpers. Unsigned element types are compared with signed
// compare instructions after flipping the sign bit of both operands
// (order-preserving bijection unsigned -> signed).
// ---------------------------------------------------------------------------

template <typename T>
constexpr T SignFlip() {
  if constexpr (std::is_signed_v<T>) {
    return T(0);
  } else {
    return T(T(1) << (sizeof(T) * 8 - 1));
  }
}

// Returns a bit mask (one bit per lane, lane 0 = LSB) of lanes where
// lo <= data[i] <= hi, for one 256-bit vector of width-W elements.
// kAvx2Between<W> and kSseBetween<W> below.

template <int W>
struct Avx2;

template <>
struct Avx2<1> {
  static constexpr uint32_t kLanes = 32;
  using Reg = __m256i;
  DB_TARGET_AVX2 static Reg Splat(int64_t v) {
    return _mm256_set1_epi8(char(v));
  }
  DB_TARGET_AVX2 static Reg Load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  DB_TARGET_AVX2 static Reg Gt(Reg a, Reg b) {
    return _mm256_cmpgt_epi8(a, b);
  }
  DB_TARGET_AVX2 static Reg Eq(Reg a, Reg b) {
    return _mm256_cmpeq_epi8(a, b);
  }
  DB_TARGET_AVX2 static uint32_t Mask(Reg m) {
    return static_cast<uint32_t>(_mm256_movemask_epi8(m));
  }
};

template <>
struct Avx2<2> {
  static constexpr uint32_t kLanes = 16;
  using Reg = __m256i;
  DB_TARGET_AVX2 static Reg Splat(int64_t v) {
    return _mm256_set1_epi16(short(v));
  }
  DB_TARGET_AVX2 static Reg Load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  DB_TARGET_AVX2 static Reg Gt(Reg a, Reg b) {
    return _mm256_cmpgt_epi16(a, b);
  }
  DB_TARGET_AVX2 static Reg Eq(Reg a, Reg b) {
    return _mm256_cmpeq_epi16(a, b);
  }
  DB_TARGET_AVX2 static uint32_t Mask(Reg m) {
    // One bit per 16-bit lane: extract the odd bits of the byte mask.
    return _pext_u32(static_cast<uint32_t>(_mm256_movemask_epi8(m)),
                     0xAAAAAAAAu);
  }
};

template <>
struct Avx2<4> {
  static constexpr uint32_t kLanes = 8;
  using Reg = __m256i;
  DB_TARGET_AVX2 static Reg Splat(int64_t v) {
    return _mm256_set1_epi32(int(v));
  }
  DB_TARGET_AVX2 static Reg Load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  DB_TARGET_AVX2 static Reg Gt(Reg a, Reg b) {
    return _mm256_cmpgt_epi32(a, b);
  }
  DB_TARGET_AVX2 static Reg Eq(Reg a, Reg b) {
    return _mm256_cmpeq_epi32(a, b);
  }
  DB_TARGET_AVX2 static uint32_t Mask(Reg m) {
    return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
  }
};

template <>
struct Avx2<8> {
  static constexpr uint32_t kLanes = 4;
  using Reg = __m256i;
  DB_TARGET_AVX2 static Reg Splat(int64_t v) { return _mm256_set1_epi64x(v); }
  DB_TARGET_AVX2 static Reg Load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  DB_TARGET_AVX2 static Reg Gt(Reg a, Reg b) {
    return _mm256_cmpgt_epi64(a, b);
  }
  DB_TARGET_AVX2 static Reg Eq(Reg a, Reg b) {
    return _mm256_cmpeq_epi64(a, b);
  }
  DB_TARGET_AVX2 static uint32_t Mask(Reg m) {
    return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
};

template <int W>
struct Sse;

template <>
struct Sse<1> {
  static constexpr uint32_t kLanes = 16;
  using Reg = __m128i;
  DB_TARGET_SSE42 static Reg Splat(int64_t v) { return _mm_set1_epi8(char(v)); }
  DB_TARGET_SSE42 static Reg Load(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  DB_TARGET_SSE42 static Reg Gt(Reg a, Reg b) { return _mm_cmpgt_epi8(a, b); }
  DB_TARGET_SSE42 static Reg Eq(Reg a, Reg b) { return _mm_cmpeq_epi8(a, b); }
  DB_TARGET_SSE42 static uint32_t Mask(Reg m) {
    return static_cast<uint32_t>(_mm_movemask_epi8(m));
  }
};

template <>
struct Sse<2> {
  static constexpr uint32_t kLanes = 8;
  using Reg = __m128i;
  DB_TARGET_SSE42 static Reg Splat(int64_t v) {
    return _mm_set1_epi16(short(v));
  }
  DB_TARGET_SSE42 static Reg Load(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  DB_TARGET_SSE42 static Reg Gt(Reg a, Reg b) { return _mm_cmpgt_epi16(a, b); }
  DB_TARGET_SSE42 static Reg Eq(Reg a, Reg b) { return _mm_cmpeq_epi16(a, b); }
  DB_TARGET_SSE42 static uint32_t Mask(Reg m) {
    // One bit per 16-bit lane. Saturating pack turns each 0x0000/0xFFFF lane
    // into a 0x00/0xFF byte; no PEXT, so the SSE flavor needs no BMI2.
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_packs_epi16(m, _mm_setzero_si128())));
  }
};

template <>
struct Sse<4> {
  static constexpr uint32_t kLanes = 4;
  using Reg = __m128i;
  DB_TARGET_SSE42 static Reg Splat(int64_t v) { return _mm_set1_epi32(int(v)); }
  DB_TARGET_SSE42 static Reg Load(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  DB_TARGET_SSE42 static Reg Gt(Reg a, Reg b) { return _mm_cmpgt_epi32(a, b); }
  DB_TARGET_SSE42 static Reg Eq(Reg a, Reg b) { return _mm_cmpeq_epi32(a, b); }
  DB_TARGET_SSE42 static uint32_t Mask(Reg m) {
    return static_cast<uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(m)));
  }
};

template <>
struct Sse<8> {
  static constexpr uint32_t kLanes = 2;
  using Reg = __m128i;
  DB_TARGET_SSE42 static Reg Splat(int64_t v) { return _mm_set1_epi64x(v); }
  DB_TARGET_SSE42 static Reg Load(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  DB_TARGET_SSE42 static Reg Gt(Reg a, Reg b) { return _mm_cmpgt_epi64(a, b); }
  DB_TARGET_SSE42 static Reg Eq(Reg a, Reg b) { return _mm_cmpeq_epi64(a, b); }
  DB_TARGET_SSE42 static uint32_t Mask(Reg m) {
    return static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(m)));
  }
};

// Width-agnostic vector helpers selected by overload resolution.
DB_TARGET_SSE42 inline __m128i SimdXor(__m128i a, __m128i b) {
  return _mm_xor_si128(a, b);
}
DB_TARGET_AVX2 inline __m256i SimdXor(__m256i a, __m256i b) {
  return _mm256_xor_si256(a, b);
}
DB_TARGET_SSE42 inline __m128i SimdOr(__m128i a, __m128i b) {
  return _mm_or_si128(a, b);
}
DB_TARGET_AVX2 inline __m256i SimdOr(__m256i a, __m256i b) {
  return _mm256_or_si256(a, b);
}

// Generic SIMD "find initial matches" loops over ops O (Avx2<W> or Sse<W>).
// Emit writes positions for one <=8 bit mask group.
//
// The loop bodies are defined once as a macro and stamped out per ISA family
// below: a single shared template cannot carry the `target` attribute,
// because the attribute would have to differ per instantiation (compiling
// the SSE flavor with AVX2 enabled would let the compiler emit AVX
// encodings that fault on SSE-only hosts, and vice versa loses inlining).

#define DB_DEFINE_FIND_DRIVERS(SUFFIX, TARGET, OPS, EMIT)                      \
  template <typename T>                                                        \
  TARGET uint32_t FindNe##SUFFIX(const T* data, uint32_t from, uint32_t to,    \
                                 T val, uint32_t* out) {                       \
    using O = OPS<sizeof(T)>;                                                  \
    using Reg = typename O::Reg;                                               \
    constexpr uint32_t kLanes = O::kLanes;                                     \
    using S = std::make_signed_t<T>;                                           \
    const Reg cv = O::Splat(int64_t(S(val)));                                  \
    const uint32_t kFullMask =                                                 \
        kLanes >= 32 ? 0xFFFFFFFFu : ((1u << kLanes) - 1);                     \
                                                                               \
    uint32_t* w = out;                                                         \
    uint32_t i = from;                                                         \
    for (; i + kLanes <= to; i += kLanes) {                                    \
      Reg v = O::Load(data + i);                                               \
      uint32_t mask = ~O::Mask(O::Eq(v, cv)) & kFullMask;                      \
      for (uint32_t g = 0; g < kLanes; g += 8) {                               \
        w = EMIT((mask >> g) & 0xFF, i + g, w);                                \
      }                                                                        \
    }                                                                          \
    for (; i < to; ++i) {                                                      \
      *w = i;                                                                  \
      w += (data[i] != val);                                                   \
    }                                                                          \
    return static_cast<uint32_t>(w - out);                                     \
  }                                                                            \
                                                                               \
  template <typename T>                                                        \
  TARGET uint32_t FindBetween##SUFFIX(const T* data, uint32_t from,            \
                                      uint32_t to, T lo, T hi,                 \
                                      uint32_t* out) {                         \
    using O = OPS<sizeof(T)>;                                                  \
    using Reg = typename O::Reg;                                               \
    constexpr uint32_t kLanes = O::kLanes;                                     \
    constexpr T kFlip = SignFlip<T>();                                         \
    using S = std::make_signed_t<T>;                                           \
    const Reg flip = O::Splat(int64_t(S(kFlip)));                              \
    const Reg lov = O::Splat(int64_t(S(T(lo ^ kFlip))));                       \
    const Reg hiv = O::Splat(int64_t(S(T(hi ^ kFlip))));                       \
    const uint32_t kFullMask =                                                 \
        kLanes >= 32 ? 0xFFFFFFFFu : ((1u << kLanes) - 1);                     \
                                                                               \
    uint32_t* w = out;                                                         \
    uint32_t i = from;                                                         \
    for (; i + kLanes <= to; i += kLanes) {                                    \
      Reg v = O::Load(data + i);                                               \
      v = SimdXor(v, flip);                                                    \
      Reg bad = SimdOr(O::Gt(lov, v), O::Gt(v, hiv));                          \
      uint32_t mask = ~O::Mask(bad) & kFullMask;                               \
      for (uint32_t g = 0; g < kLanes; g += 8) {                               \
        w = EMIT((mask >> g) & 0xFF, i + g, w);                                \
      }                                                                        \
    }                                                                          \
    for (; i < to; ++i) {                                                      \
      *w = i;                                                                  \
      w += (data[i] >= lo) & (data[i] <= hi);                                  \
    }                                                                          \
    return static_cast<uint32_t>(w - out);                                     \
  }                                                                            \
                                                                               \
  template <typename T>                                                        \
  TARGET uint32_t FindIn##SUFFIX(const T* data, uint32_t from, uint32_t to,    \
                                 const T* set, uint32_t k, uint32_t* out) {    \
    using O = OPS<sizeof(T)>;                                                  \
    using Reg = typename O::Reg;                                               \
    constexpr uint32_t kLanes = O::kLanes;                                     \
    using S = std::make_signed_t<T>;                                           \
    Reg sv[kMaxInKernelSet];                                                   \
    for (uint32_t s = 0; s < kMaxInKernelSet; ++s)                             \
      sv[s] = O::Splat(int64_t(S(set[s < k ? s : 0])));                       \
                                                                               \
    uint32_t* w = out;                                                         \
    uint32_t i = from;                                                         \
    for (; i + kLanes <= to; i += kLanes) {                                    \
      const Reg v = O::Load(data + i);                                         \
      Reg hit = O::Eq(v, sv[0]);                                               \
      for (uint32_t s = 1; s < k; ++s) hit = SimdOr(hit, O::Eq(v, sv[s]));     \
      const uint32_t mask = O::Mask(hit);                                      \
      for (uint32_t g = 0; g < kLanes; g += 8) {                               \
        w = EMIT((mask >> g) & 0xFF, i + g, w);                                \
      }                                                                        \
    }                                                                          \
    for (; i < to; ++i) {                                                      \
      *w = i;                                                                  \
      w += InSet(data[i], set, k);                                             \
    }                                                                          \
    return static_cast<uint32_t>(w - out);                                     \
  }

DB_DEFINE_FIND_DRIVERS(Avx2K, DB_TARGET_AVX2, Avx2, EmitAvx2)
DB_DEFINE_FIND_DRIVERS(SseK, DB_TARGET_SSE42, Sse, EmitSse)

#undef DB_DEFINE_FIND_DRIVERS

// ---------------------------------------------------------------------------
// AVX2 "reduce matches" (Figure 7(b)): gather values at the surviving match
// positions, compare, and use the positions-table entry as a shuffle control
// to compact the match vector in place.
// ---------------------------------------------------------------------------

// Gathers 8 elements of width W (1, 2 or 4 bytes) at byte granularity and
// returns them zero-extended (W<4) in 8 32-bit lanes.
template <int W>
DB_TARGET_AVX2 inline __m256i Gather32(const void* base, __m256i idx) {
  if constexpr (W == 1) {
    __m256i v = _mm256_i32gather_epi32(static_cast<const int*>(base), idx, 1);
    return _mm256_and_si256(v, _mm256_set1_epi32(0xFF));
  } else if constexpr (W == 2) {
    __m256i v = _mm256_i32gather_epi32(static_cast<const int*>(base), idx, 2);
    return _mm256_and_si256(v, _mm256_set1_epi32(0xFFFF));
  } else {
    return _mm256_i32gather_epi32(static_cast<const int*>(base), idx, 4);
  }
}

// Stores the lanes of `idx` whose `mask8` bit is set at w, packed to the
// front: the positions-table entry serves as the shuffle control.
DB_TARGET_AVX2 inline uint32_t* CompactAvx2(__m256i idx, uint32_t mask8,
                                            uint32_t* w) {
  const MatchTableEntry& e = kMatchTable[mask8];
  __m256i perm = _mm256_srai_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e.cell)), 8);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(w),
                      _mm256_permutevar8x32_epi32(idx, perm));
  return w + MatchCount(e);
}

// One bit per 32-bit lane of a compare result.
DB_TARGET_AVX2 inline uint32_t LaneMask(__m256i m) {
  return uint32_t(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
}

// T is uint8_t/uint16_t (zero-extended, compared unbias'd because values fit
// in int32) or uint32_t/int32_t (compared with sign-flip bias as needed).
template <typename T>
DB_TARGET_AVX2 uint32_t ReduceBetweenAvx2(const T* data,
                                          const uint32_t* positions,
                                          uint32_t n, T lo, T hi,
                                          uint32_t* out) {
  static_assert(sizeof(T) <= 4);
  constexpr int W = sizeof(T);
  // Bias for full-range 32-bit values; narrow codes are zero-extended and
  // compare correctly as signed int32 without bias.
  constexpr uint32_t kBias =
      (W == 4 && std::is_unsigned_v<T>) ? 0x80000000u : 0u;
  [[maybe_unused]] const __m256i biasv = _mm256_set1_epi32(int(kBias));
  const __m256i lov = _mm256_set1_epi32(int(uint32_t(lo) ^ kBias));
  const __m256i hiv = _mm256_set1_epi32(int(uint32_t(hi) ^ kBias));

  uint32_t* w = out;
  uint32_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(positions + j));
    __m256i v = Gather32<W>(data, idx);
    if constexpr (kBias != 0) v = _mm256_xor_si256(v, biasv);
    __m256i bad = _mm256_or_si256(_mm256_cmpgt_epi32(lov, v),
                                  _mm256_cmpgt_epi32(v, hiv));
    w = CompactAvx2(idx, ~LaneMask(bad) & 0xFFu, w);
  }
  for (; j < n; ++j) {
    uint32_t p = positions[j];
    *w = p;
    w += (data[p] >= lo) & (data[p] <= hi);
  }
  return static_cast<uint32_t>(w - out);
}

template <typename T>
DB_TARGET_AVX2 uint32_t ReduceNeAvx2(const T* data, const uint32_t* positions,
                                     uint32_t n, T val, uint32_t* out) {
  static_assert(sizeof(T) <= 4);
  constexpr int W = sizeof(T);
  const __m256i cv = _mm256_set1_epi32(int(uint32_t(val)));

  uint32_t* w = out;
  uint32_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(positions + j));
    __m256i v = Gather32<W>(data, idx);
    w = CompactAvx2(idx, ~LaneMask(_mm256_cmpeq_epi32(v, cv)) & 0xFFu, w);
  }
  for (; j < n; ++j) {
    uint32_t p = positions[j];
    *w = p;
    w += (data[p] != val);
  }
  return static_cast<uint32_t>(w - out);
}

// Set values compare zero-extended, like the gathered lanes.
template <typename T>
DB_TARGET_AVX2 uint32_t ReduceInAvx2(const T* data, const uint32_t* positions,
                                     uint32_t n, const T* set, uint32_t k,
                                     uint32_t* out) {
  static_assert(sizeof(T) <= 4);
  constexpr int W = sizeof(T);
  __m256i sv[kMaxInKernelSet];
  for (uint32_t s = 0; s < kMaxInKernelSet; ++s)
    sv[s] = _mm256_set1_epi32(int(uint32_t(set[s < k ? s : 0])));

  uint32_t* w = out;
  uint32_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(positions + j));
    const __m256i v = Gather32<W>(data, idx);
    __m256i hit = _mm256_cmpeq_epi32(v, sv[0]);
    for (uint32_t s = 1; s < k; ++s)
      hit = _mm256_or_si256(hit, _mm256_cmpeq_epi32(v, sv[s]));
    w = CompactAvx2(idx, LaneMask(hit), w);
  }
  for (; j < n; ++j) {
    uint32_t p = positions[j];
    *w = p;
    w += InSet(data[p], set, k);
  }
  return static_cast<uint32_t>(w - out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public dispatch. Requested ISAs above what the host supports are clamped
// down, so an explicit Isa::kAvx2 is safe (it silently runs the best
// available flavor instead of faulting).
// ---------------------------------------------------------------------------

template <typename T>
uint32_t FindMatchesBetween(const T* data, uint32_t from, uint32_t to, T lo,
                            T hi, Isa isa, uint32_t* out) {
  if (lo > hi || from >= to) return 0;
  switch (ClampIsa(isa)) {
    case Isa::kScalar:
      return FindScalar(data, from, to, BetweenTest(lo, hi), out);
    case Isa::kSse:
      return FindBetweenSseK(data, from, to, lo, hi, out);
    case Isa::kAvx2:
      return FindBetweenAvx2K(data, from, to, lo, hi, out);
  }
  return 0;
}

template <typename T>
uint32_t FindMatchesNe(const T* data, uint32_t from, uint32_t to, T v, Isa isa,
                       uint32_t* out) {
  if (from >= to) return 0;
  switch (ClampIsa(isa)) {
    case Isa::kScalar:
      return FindScalar(data, from, to, NeTest(v), out);
    case Isa::kSse:
      return FindNeSseK(data, from, to, v, out);
    case Isa::kAvx2:
      return FindNeAvx2K(data, from, to, v, out);
  }
  return 0;
}

template <typename T>
uint32_t ReduceMatchesBetween(const T* data, const uint32_t* positions,
                              uint32_t n, T lo, T hi, Isa isa, uint32_t* out) {
  if (lo > hi) return 0;
  // The SIMD gather path exists for <=32-bit elements and AVX2 only; the
  // paper reports that 64-bit reduction does not benefit from SIMD
  // (Section 4.2), and Figure 9 compares scalar vs AVX2.
  if constexpr (sizeof(T) <= 4) {
    if (ClampIsa(isa) == Isa::kAvx2) {
      return ReduceBetweenAvx2(data, positions, n, lo, hi, out);
    }
  }
  return ReduceScalar(data, positions, n, BetweenTest(lo, hi), out);
}

template <typename T>
uint32_t ReduceMatchesNe(const T* data, const uint32_t* positions, uint32_t n,
                         T v, Isa isa, uint32_t* out) {
  if constexpr (sizeof(T) <= 4) {
    if (ClampIsa(isa) == Isa::kAvx2) {
      return ReduceNeAvx2(data, positions, n, v, out);
    }
  }
  return ReduceScalar(data, positions, n, NeTest(v), out);
}

template <typename T>
uint32_t FindMatchesIn(const T* data, uint32_t from, uint32_t to,
                       const T* set, uint32_t k, Isa isa, uint32_t* out) {
  DB_DCHECK(k <= kMaxInKernelSet);
  if (k == 0 || from >= to) return 0;
  switch (ClampIsa(isa)) {
    case Isa::kScalar:
      return FindScalar(data, from, to, InTest(set, k), out);
    case Isa::kSse:
      return FindInSseK(data, from, to, set, k, out);
    case Isa::kAvx2:
      return FindInAvx2K(data, from, to, set, k, out);
  }
  return 0;
}

template <typename T>
uint32_t ReduceMatchesIn(const T* data, const uint32_t* positions, uint32_t n,
                         const T* set, uint32_t k, Isa isa, uint32_t* out) {
  DB_DCHECK(k <= kMaxInKernelSet);
  if (k == 0) return 0;
  if constexpr (sizeof(T) <= 4) {
    if (ClampIsa(isa) == Isa::kAvx2) {
      return ReduceInAvx2(data, positions, n, set, k, out);
    }
  }
  return ReduceScalar(data, positions, n, InTest(set, k), out);
}

uint32_t FindMatchesBetweenF64(const double* data, uint32_t from, uint32_t to,
                               double lo, double hi, uint32_t* out) {
  return FindScalar(data, from, to, BetweenTest(lo, hi), out);
}

uint32_t ReduceMatchesBetweenF64(const double* data, const uint32_t* positions,
                                 uint32_t n, double lo, double hi,
                                 uint32_t* out) {
  return ReduceScalar(data, positions, n, BetweenTest(lo, hi), out);
}

uint32_t FindMatchesNeF64(const double* data, uint32_t from, uint32_t to,
                          double v, uint32_t* out) {
  return FindScalar(data, from, to, NeTest(v), out);
}

uint32_t ReduceMatchesNeF64(const double* data, const uint32_t* positions,
                            uint32_t n, double v, uint32_t* out) {
  return ReduceScalar(data, positions, n, NeTest(v), out);
}

// Explicit instantiations: unsigned widths for compressed codes, signed for
// raw (uncompressed) storage.
#define DB_INSTANTIATE_KERNELS(T)                                             \
  template uint32_t FindMatchesBetween<T>(const T*, uint32_t, uint32_t, T, T, \
                                          Isa, uint32_t*);                    \
  template uint32_t FindMatchesNe<T>(const T*, uint32_t, uint32_t, T, Isa,    \
                                     uint32_t*);                              \
  template uint32_t ReduceMatchesBetween<T>(const T*, const uint32_t*,        \
                                            uint32_t, T, T, Isa, uint32_t*);  \
  template uint32_t ReduceMatchesNe<T>(const T*, const uint32_t*, uint32_t,   \
                                       T, Isa, uint32_t*);                    \
  template uint32_t FindMatchesIn<T>(const T*, uint32_t, uint32_t, const T*,  \
                                     uint32_t, Isa, uint32_t*);               \
  template uint32_t ReduceMatchesIn<T>(const T*, const uint32_t*, uint32_t,   \
                                       const T*, uint32_t, Isa, uint32_t*);

DB_INSTANTIATE_KERNELS(uint8_t)
DB_INSTANTIATE_KERNELS(uint16_t)
DB_INSTANTIATE_KERNELS(uint32_t)
DB_INSTANTIATE_KERNELS(uint64_t)
DB_INSTANTIATE_KERNELS(int32_t)
DB_INSTANTIATE_KERNELS(int64_t)

#undef DB_INSTANTIATE_KERNELS

}  // namespace datablocks
