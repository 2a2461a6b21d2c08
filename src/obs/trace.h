#ifndef DATABLOCKS_OBS_TRACE_H_
#define DATABLOCKS_OBS_TRACE_H_

// Bounded in-memory event trace: the lifecycle manager and scheduler
// publish discrete events (freeze, evict, archive reads, installs,
// tombstone, release, tick durations, ...) into a fixed-capacity ring
// that overwrites its oldest entries — a flight recorder, not a log.
// Events are small PODs (no allocation on the publish path) and publishing
// takes one short mutex section, which is fine at lifecycle/scheduler
// event rates (these are per-chunk / per-tick operations, never per-row).
//
// Dump with ToJsonl()/DumpJsonl(): one JSON object per line, schema
//   {"seq": N, "ts_ns": N, "cat": "...", "name": "...", "a": N, "b": N}
// where ts_ns is monotonic time since the ring's creation, and a/b are
// per-event arguments documented in README "Observability" (chunk index,
// byte counts, durations). tools/profile_report.py pretty-prints it.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace datablocks::obs {

struct TraceEvent {
  uint64_t seq = 0;    // 0-based publish order, never reused
  uint64_t ts_ns = 0;  // monotonic, relative to the ring's creation
  char cat[16] = {};   // component, e.g. "lifecycle" (truncated copy)
  char name[24] = {};  // event, e.g. "evict" (truncated copy)
  int64_t a = 0;       // event args; meaning documented per event
  int64_t b = 0;
};

class TraceRing {
 public:
  explicit TraceRing(size_t capacity = kDefaultCapacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// The process-wide ring components publish into by default.
  static TraceRing& Default();

  void Publish(std::string_view cat, std::string_view name, int64_t a = 0,
               int64_t b = 0);

  size_t capacity() const { return ring_.size(); }
  /// Events ever published (>= Snapshot().size(); the excess was
  /// overwritten).
  uint64_t published() const;

  /// The retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  /// One JSON object per line, oldest first (see header comment).
  std::string ToJsonl() const;
  bool DumpJsonl(const std::string& path) const;

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // fixed size; slot = seq % capacity
  uint64_t next_seq_ = 0;
  const uint64_t epoch_ns_;
};

}  // namespace datablocks::obs

#endif  // DATABLOCKS_OBS_TRACE_H_
