#ifndef DATABLOCKS_SCAN_MATCH_FINDER_H_
#define DATABLOCKS_SCAN_MATCH_FINDER_H_

#include <cstdint>

namespace datablocks {

/// Instruction-set flavor of the predicate-evaluation kernels. The paper
/// compares scalar x86, SSE, and AVX2 implementations (Figures 8 and 9);
/// all three are selectable at run time.
enum class Isa : uint8_t { kScalar, kSse, kAvx2 };

/// Best ISA available on this CPU, detected at run time (util/cpu.h). The
/// library itself is compiled for baseline x86-64; the SIMD kernels carry
/// per-function `target` attributes and are only reached when the host
/// supports them. `DATABLOCKS_FORCE_SCALAR=1` in the environment forces
/// kScalar.
Isa BestIsa();

/// True if the host CPU can execute kernels of the given flavor (kAvx2 also
/// requires BMI2). Always true for kScalar.
bool IsaSupported(Isa isa);

/// Downgrades `isa` to the best flavor the host supports (kAvx2 -> kSse ->
/// kScalar). All public kernels clamp their `isa` argument with this, so an
/// unsupported request runs the fallback instead of faulting.
Isa ClampIsa(Isa isa);

const char* IsaName(Isa isa);

/// Finds the positions i in [from, to) with lo <= data[i] <= hi ("find
/// initial matches", Figure 7(a)). Writes absolute positions to `out` and
/// returns the match count. `data` must be readable up to
/// `to * sizeof(T) + kScanPadding` bytes; `out` must have room for
/// `to - from + 8` entries (SIMD stores may overshoot before the final count
/// is known).
///
/// Instantiated for uint8_t, uint16_t, uint32_t, uint64_t (compressed codes)
/// and int32_t, int64_t (raw storage).
template <typename T>
uint32_t FindMatchesBetween(const T* data, uint32_t from, uint32_t to, T lo,
                            T hi, Isa isa, uint32_t* out);

/// Finds positions with data[i] != v.
template <typename T>
uint32_t FindMatchesNe(const T* data, uint32_t from, uint32_t to, T v, Isa isa,
                       uint32_t* out);

/// Shrinks an existing match vector ("reduce matches", Figure 7(b)): keeps
/// the positions p in positions[0..n) with lo <= data[p] <= hi. `out` may
/// alias `positions` (in-place compaction). Returns the new count.
template <typename T>
uint32_t ReduceMatchesBetween(const T* data, const uint32_t* positions,
                              uint32_t n, T lo, T hi, Isa isa, uint32_t* out);

/// Shrinks a match vector keeping positions with data[p] != v.
template <typename T>
uint32_t ReduceMatchesNe(const T* data, const uint32_t* positions, uint32_t n,
                         T v, Isa isa, uint32_t* out);

/// Most set values the IN kernels take: one broadcast register each.
inline constexpr uint32_t kMaxInKernelSet = 8;

/// Finds positions whose value equals any of set[0..k), 1 <= k <=
/// kMaxInKernelSet (an OR of equality compares per vector). Same contract
/// as FindMatchesBetween otherwise.
template <typename T>
uint32_t FindMatchesIn(const T* data, uint32_t from, uint32_t to,
                       const T* set, uint32_t k, Isa isa, uint32_t* out);

/// Shrinks a match vector keeping positions whose value is in set[0..k).
/// `out` may alias `positions`.
template <typename T>
uint32_t ReduceMatchesIn(const T* data, const uint32_t* positions, uint32_t n,
                         const T* set, uint32_t k, Isa isa, uint32_t* out);

/// Scalar double kernels (the paper's SIMD algorithms target integer data;
/// doubles fall back to scalar code, Section 4.2).
uint32_t FindMatchesBetweenF64(const double* data, uint32_t from, uint32_t to,
                               double lo, double hi, uint32_t* out);
uint32_t ReduceMatchesBetweenF64(const double* data, const uint32_t* positions,
                                 uint32_t n, double lo, double hi,
                                 uint32_t* out);
uint32_t FindMatchesNeF64(const double* data, uint32_t from, uint32_t to,
                          double v, uint32_t* out);
uint32_t ReduceMatchesNeF64(const double* data, const uint32_t* positions,
                            uint32_t n, double v, uint32_t* out);

}  // namespace datablocks

#endif  // DATABLOCKS_SCAN_MATCH_FINDER_H_
