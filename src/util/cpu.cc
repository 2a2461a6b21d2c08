#include "util/cpu.h"

#include <cstdlib>
#include <cstring>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace datablocks {
namespace cpu {

namespace {

Features Detect() {
  Features f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.sse42 = __builtin_cpu_supports("sse4.2");
  f.avx2 = __builtin_cpu_supports("avx2");
  f.bmi2 = __builtin_cpu_supports("bmi2");
#endif
  const char* force = std::getenv("DATABLOCKS_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0) {
    f.sse42 = f.avx2 = f.bmi2 = false;
    f.forced_scalar = true;
  }
  return f;
}

Topology DetectTopology() {
  Topology t;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) t.cpus.push_back(c);
    }
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  t.hardware_threads =
      !t.cpus.empty() ? unsigned(t.cpus.size()) : (hc != 0 ? hc : 1u);
  return t;
}

}  // namespace

const Features& HostFeatures() {
  static const Features features = Detect();
  return features;
}

const Topology& HostTopology() {
  static const Topology topology = DetectTopology();
  return topology;
}

unsigned HardwareThreads() { return HostTopology().hardware_threads; }

}  // namespace cpu
}  // namespace datablocks
