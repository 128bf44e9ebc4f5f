#ifndef MLLIBSTAR_OBS_TELEMETRY_H_
#define MLLIBSTAR_OBS_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

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

/// Process-wide host-time sink: the spans of host work, and the switch
/// that arms the EngineProfiler. Everything a run did in virtual time
/// is in its own result (trace, round profiles, fault and membership
/// stats, curve), recorded whether or not telemetry is on.
///
/// Disabled by default; every recording entry point checks one relaxed
/// atomic and returns immediately when off, so instrumented hot paths
/// cost a load-and-branch in the (default) disabled state. Telemetry
/// NEVER touches the simulator's RNG streams or virtual clock —
/// enabling it must leave every trainer's weights and traces
/// bit-identical (enforced by obs_test).
///
/// Recording is thread-safe: span capture takes a short mutex. Span
/// nesting depth is tracked per thread.
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

  /// Microseconds since this sink's epoch (construction or Clear).
  uint64_t HostNowUs() const;

  void RecordSpan(SpanRecord span);

  std::vector<SpanRecord> spans() const;

  /// The span buffer is bounded: once it holds `capacity` records,
  /// further records are dropped (newest-dropped) and counted instead,
  /// so long path runs can't grow memory without limit. Setting a
  /// capacity does not discard already-held records.
  void set_span_capacity(size_t capacity);
  size_t span_capacity() const;
  uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }

  /// Drops all spans, zeroes the dropped-span counter and the
  /// EngineProfiler, and restarts the host-clock epoch. Does not change
  /// enabled().
  void Clear();

  /// Small stable ordinal for the calling thread (0 for the first
  /// thread that records, 1 for the next, ...).
  static uint64_t ThreadOrdinal();

 private:
  friend class ScopedSpan;

  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  size_t span_capacity_ = 1 << 16;
  std::atomic<uint64_t> spans_dropped_{0};
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

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_TELEMETRY_H_
