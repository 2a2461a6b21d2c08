#ifndef DATABLOCKS_UTIL_CPU_H_
#define DATABLOCKS_UTIL_CPU_H_

#include <vector>

namespace datablocks {
namespace cpu {

/// Host ISA features relevant to the scan kernels, resolved once at first
/// use. The library is compiled for baseline x86-64; every AVX2/BMI2/SSE4.2
/// kernel is reached only through this layer (or through an `Isa` value
/// clamped against it), so the binary runs on any x86-64 host.
///
/// Setting the environment variable `DATABLOCKS_FORCE_SCALAR` to a non-empty
/// value other than "0" masks all SIMD features, forcing every kernel onto
/// its scalar fallback — used by tests to compare the paths bit-for-bit and
/// by operators to rule SIMD in or out when debugging.
struct Features {
  bool sse42 = false;
  bool avx2 = false;
  bool bmi2 = false;
  bool forced_scalar = false;  ///< DATABLOCKS_FORCE_SCALAR was set.
};

/// The latched feature snapshot (env override already applied to the
/// ISA bits; `forced_scalar` records that it happened).
const Features& HostFeatures();

/// AVX2 kernels also use BMI2 (PEXT), so they require both.
inline bool HasAvx2() {
  const Features& f = HostFeatures();
  return f.avx2 && f.bmi2;
}

inline bool HasSse42() { return HostFeatures().sse42; }

inline bool ForcedScalar() { return HostFeatures().forced_scalar; }

/// Host execution topology, probed once at first use. The scheduler
/// (src/exec/scheduler.h) uses it to size the worker pool and to pin
/// workers to cores. Every field degrades gracefully: on hosts where the
/// affinity mask cannot be read, `cpus` stays empty (pinning becomes a
/// no-op) and `hardware_threads` falls back to
/// std::thread::hardware_concurrency(), and to 1 when even that is unknown
/// — this is the single place that guards the standard's
/// "hardware_concurrency() may return 0" escape hatch.
struct Topology {
  /// Usable logical CPUs; always >= 1.
  unsigned hardware_threads = 1;
  /// Logical CPU ids this process may run on, ascending. Empty when
  /// unprobeable.
  std::vector<unsigned> cpus;
};

/// The latched topology snapshot.
const Topology& HostTopology();

/// HostTopology().hardware_threads: the "how many workers" default, >= 1.
unsigned HardwareThreads();

/// Spin-wait hint (PAUSE on x86): frees the core's pipeline for its
/// sibling hyperthread while a waiter polls.
inline void Relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace cpu
}  // namespace datablocks

#endif  // DATABLOCKS_UTIL_CPU_H_
