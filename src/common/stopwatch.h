#ifndef MLLIBSTAR_COMMON_STOPWATCH_H_
#define MLLIBSTAR_COMMON_STOPWATCH_H_

#include <chrono>

namespace mllibstar {

/// Measures wall-clock time. Used only for reporting host-side cost;
/// all experiment timings come from the simulator's virtual clock.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement from now.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_STOPWATCH_H_
