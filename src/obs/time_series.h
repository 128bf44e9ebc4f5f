#ifndef MLLIBSTAR_OBS_TIME_SERIES_H_
#define MLLIBSTAR_OBS_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/convergence.h"
#include "obs/round_profile.h"

namespace mllibstar {

/// How a windowed series folds what happened inside one window into a
/// single value.
enum class SeriesAgg {
  kDelta,  ///< running totals: value = total at close - total at open
  kMean,   ///< mean of the values observed in the window
  kMax,    ///< max of the values observed in the window
};

/// One closed (or, for a series' last entry, partial) window, in
/// virtual seconds.
struct SeriesPoint {
  double t0 = 0.0;
  double t1 = 0.0;
  double value = 0.0;
  uint64_t count = 0;  ///< observations folded in (0 for kDelta)
};

/// One exported series: its newest closed windows (at most
/// kSeriesCapacity; `dropped` counts the older ones) plus, when the
/// window the run ended in has anything to show, one final partial
/// window ending at the run's last sample time.
struct SeriesSnapshot {
  std::string name;
  SeriesAgg agg = SeriesAgg::kDelta;
  double window_sec = 0.0;
  uint64_t dropped = 0;
  std::vector<SeriesPoint> points;
};

/// Window width of every series, in virtual seconds.
inline constexpr double kSeriesWindowSec = 0.25;
/// Closed windows kept per series.
inline constexpr size_t kSeriesCapacity = 512;

/// The run's windowed series, a pure function of its round record and
/// curve. Windows are the half-open intervals [i*w, (i+1)*w) of the
/// grid. The rounds are replayed in completion order; each one:
///   1. adds its share to the running totals bytes.wire (every path),
///      rounds and retries;
///   2. closes every window ending at or before its sim_end;
///   3. observes its staleness mean (rounds with staleness samples)
///      and its straggler spread (task_max - task_p50);
///   4. closes every window ending at or before the time of the curve
///      point taken at its close (comm_step round + 1), if any, and
///      observes that point as `objective`.
/// An observation folds into the window holding its time, the one the
/// round ended in (a round ending on a boundary files under the window
/// that boundary opens). A total's growth lands in the first window the
/// next close closes, so windows that elapse between two closes close
/// empty. The final partial window carries a total only when it grew
/// there, and an observed series whenever it holds an observation.
/// Series: the three totals (kDelta), then the observed ones
/// (staleness and objective kMean, straggler.spread kMax) in order of
/// first observation.
std::vector<SeriesSnapshot> WindowedSeries(
    const std::vector<RoundProfile>& rounds, const ConvergenceCurve* curve);

}  // namespace mllibstar

#endif  // MLLIBSTAR_OBS_TIME_SERIES_H_
