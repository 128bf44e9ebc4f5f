#ifndef MLLIBSTAR_OBS_ENGINE_PROFILER_H_
#define MLLIBSTAR_OBS_ENGINE_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mllibstar {

/// The simulator subsystems host time gets attributed to.
enum class Subsystem : int {
  kEngine = 0,      ///< Spark stage machinery + comm collectives
  kKernels = 1,     ///< gradient/loss math (phase-1 parallel work)
  kPs = 2,          ///< parameter-server event-queue drain
  /// Charged by nothing: it timed the lossy codecs, which are gone. It
  /// stays, named "codec", because perfbench reads that subsystem in
  /// every traced pass and CI's observability smoke checks the name; a
  /// benchmark change drops both, and then this value.
  kCodec = 3,
  kCheckpoint = 4,  ///< checkpoint serialize/write + read/restore
  kEval = 5,        ///< objective evaluation (Trainer::Eval)
  kCount = 6,
};

const char* SubsystemName(Subsystem s);

/// Per-subsystem totals captured by EngineProfiler::Snapshot().
struct SubsystemStats {
  std::string name;
  uint64_t host_us = 0;  ///< exclusive self-time (child scopes excluded)
  uint64_t events = 0;   ///< work items processed under this subsystem
};

/// Attributes host µs of simulator work to subsystems so "how much
/// wall time does one simulated second cost, and where" is a tracked
/// number (the RunReport's `profiler` section).
///
/// Attribution is *exclusive*: a Scope charges its parent scope up to
/// the moment it opens, so nested regions (a local pass inside the PS
/// event loop) never double-count. Each thread keeps its own
/// scope stack in TLS; totals are relaxed atomics. When profiling is
/// disabled every entry point is a cheap early-out and nothing —
/// including the TLS stack — is touched, preserving the
/// telemetry-off-is-invisible invariant.
class EngineProfiler {
 public:
  static EngineProfiler& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Counts `n` processed work items (tasks, queue events)
  /// against a subsystem without opening a scope.
  void AddEvents(Subsystem s, uint64_t n);

  /// Zeroes all totals. Scopes still open keep charging afterwards.
  void Reset();

  std::vector<SubsystemStats> Snapshot() const;
  uint64_t TotalHostUs() const;
  uint64_t TotalEvents() const;

  /// RAII region attributing exclusive host time to one subsystem.
  /// Inert (no clock reads, no TLS) when the profiler is disabled at
  /// construction; the destructor honors that initial decision even if
  /// the enabled flag flips mid-scope.
  class Scope {
   public:
    explicit Scope(Subsystem s);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_ = false;
    Subsystem subsystem_;
  };

 private:
  EngineProfiler() = default;

  std::atomic<bool> enabled_{false};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Subsystem::kCount)>
      host_us_{};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(Subsystem::kCount)>
      events_{};
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_ENGINE_PROFILER_H_
