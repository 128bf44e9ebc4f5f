#ifndef MLLIBSTAR_OBS_TELEMETRY_H_
#define MLLIBSTAR_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/membership.h"
#include "sim/trace.h"

namespace mllibstar {

/// One completed span on the dual clock: `track` names the logical
/// lane (a simulated node, "driver", "trainer", ...), host times are
/// microseconds since the telemetry epoch, sim times are virtual
/// seconds (negative = the span has no sim-time extent, e.g. pure
/// host-side work). `depth` is the nesting level on the recording
/// thread at open time (0 = top level).
struct SpanRecord {
  std::string name;
  std::string track;
  uint64_t host_start_us = 0;
  uint64_t host_end_us = 0;
  SimTime sim_start = -1.0;
  SimTime sim_end = -1.0;
  int depth = 0;
  uint64_t thread_id = 0;  ///< small per-process ordinal, not the OS tid
};

/// One instant event (fault injected, checkpoint restored, round
/// completed, ...). `attrs` are free-form key/value annotations.
struct EventRecord {
  std::string name;
  std::string track;
  uint64_t host_ts_us = 0;
  SimTime sim_ts = -1.0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// Process-wide telemetry sink: spans + events + a metrics registry.
///
/// Disabled by default; every recording entry point checks one relaxed
/// atomic and returns immediately when off, so instrumented hot paths
/// cost a load-and-branch in the (default) disabled state. Telemetry
/// NEVER touches the simulator's RNG streams or virtual clock —
/// enabling it must leave every trainer's weights and traces
/// bit-identical (enforced by obs_test).
///
/// Recording is thread-safe: metrics are lock-free, span/event capture
/// takes a short mutex. Span nesting depth is tracked per thread.
class Telemetry {
 public:
  /// The process-wide sink used by all instrumented code.
  static Telemetry& Get();

  Telemetry() = default;
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Also mirrors the flag into the EngineProfiler singleton so one
  /// switch arms all of telemetry.
  void set_enabled(bool on);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Microseconds since this sink's epoch (construction or Clear).
  uint64_t HostNowUs() const;

  void RecordSpan(SpanRecord span);
  void RecordEvent(EventRecord event);
  void RecordEvent(const std::string& name, const std::string& track,
                   SimTime sim_ts,
                   std::vector<std::pair<std::string, std::string>> attrs = {});

  std::vector<SpanRecord> spans() const;
  std::vector<EventRecord> events() const;

  /// Span/event buffers are bounded: once a buffer holds `capacity`
  /// records, further records are dropped (newest-dropped) and counted
  /// instead, so long path runs can't grow memory without limit.
  /// Setting a capacity does not discard already-held records.
  void set_span_capacity(size_t capacity);
  void set_event_capacity(size_t capacity);
  size_t span_capacity() const;
  size_t event_capacity() const;
  uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t events_dropped() const {
    return events_dropped_.load(std::memory_order_relaxed);
  }

  /// Drops all spans and events, zeroes the metrics registry, the
  /// dropped-record counters and the EngineProfiler, and restarts the
  /// host-clock epoch. Does not change enabled().
  void Clear();

  /// Small stable ordinal for the calling thread (0 for the first
  /// thread that records, 1 for the next, ...).
  static uint64_t ThreadOrdinal();

 private:
  friend class ScopedSpan;

  std::atomic<bool> enabled_{false};
  MetricsRegistry metrics_;

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::vector<EventRecord> events_;
  size_t span_capacity_ = 1 << 16;
  size_t event_capacity_ = 1 << 16;
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> events_dropped_{0};
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span: opens on construction, records into the sink on
/// destruction. When telemetry is disabled at construction time the
/// whole object is inert (no clock reads, no allocation beyond the
/// string copies the compiler elides). Host times are captured
/// automatically; sim times are attached via SetSimRange because only
/// the caller knows which virtual interval the work covered.
class ScopedSpan {
 public:
  ScopedSpan(const std::string& name, const std::string& track,
             Telemetry& sink = Telemetry::Get());
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches the virtual-time interval this span covered.
  void SetSimRange(SimTime start, SimTime end);

  bool active() const { return active_; }

 private:
  Telemetry* sink_ = nullptr;
  bool active_ = false;
  SpanRecord record_;
};

/// Records one membership transition of `node` (a worker or a PS
/// shard): its trace bars — leave then suspected for a departure, join
/// or rejoin for an admission — and, when telemetry is on, the
/// transition's membership.* counter and its instant on the
/// "membership" track at detection time, annotated with `attrs`.
void RecordMembershipTransition(
    TraceLog* trace, const MembershipEvent& ev, const std::string& node,
    std::vector<std::pair<std::string, std::string>> attrs);

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_TELEMETRY_H_
