#include "obs/time_series.h"

#include <algorithm>
#include <utility>

namespace mllibstar {

namespace {

/// Replays the run's sample points in completion order onto the window
/// grid.
class WindowReplay {
 public:
  void Observe(const std::string& name, SeriesAgg agg, double t,
               double value) {
    high_water_ = std::max(high_water_, t);
    for (Observed& o : observed_) {
      if (o.snap.name != name) continue;
      o.sum += value;
      o.max = o.count == 0 ? value : std::max(o.max, value);
      ++o.count;
      return;
    }
    Observed o;
    o.snap.name = name;
    o.snap.agg = agg;
    o.sum = value;
    o.max = value;
    o.count = 1;
    observed_.push_back(std::move(o));
  }

  void AddTotals(const RoundProfile& r) {
    totals_[0].total += r.wire.total();
    totals_[1].total += r.wire.codec.raw;
    totals_[2].total += r.wire.codec.encoded;
    totals_[3].total += 1;
    totals_[4].total += r.wire.retries;
  }

  /// Closes every window whose end is <= now.
  void AdvanceTo(double now) {
    high_water_ = std::max(high_water_, now);
    while (now >= End(window_)) {
      const double t0 = Start(window_);
      const double t1 = End(window_);
      for (Total& s : totals_) {
        s.snap.points.push_back({t0, t1, Delta(s), 0});
        s.last = s.total;
      }
      for (Observed& o : observed_) {
        o.snap.points.push_back({t0, t1, Fold(o), o.count});
        o.sum = 0.0;
        o.max = 0.0;
        o.count = 0;
      }
      ++window_;
    }
  }

  /// Every series, trimmed to its newest kSeriesCapacity closed
  /// windows, plus the partial window the run ended in when it holds a
  /// total's growth or an observation.
  std::vector<SeriesSnapshot> Finish() {
    const double open_t0 = Start(window_);
    const bool partial = high_water_ > open_t0;
    std::vector<SeriesSnapshot> out;
    for (Total& s : totals_) {
      Trim(&s.snap);
      const double delta = Delta(s);
      if (partial && delta > 0.0) {
        s.snap.points.push_back({open_t0, high_water_, delta, 0});
      }
      out.push_back(std::move(s.snap));
    }
    for (Observed& o : observed_) {
      Trim(&o.snap);
      if (o.count > 0) {
        o.snap.points.push_back({open_t0, high_water_, Fold(o), o.count});
      }
      out.push_back(std::move(o.snap));
    }
    return out;
  }

 private:
  struct Total {
    SeriesSnapshot snap;
    uint64_t total = 0;
    uint64_t last = 0;  ///< total when the last window closed
  };
  struct Observed {
    SeriesSnapshot snap;
    double sum = 0.0;
    double max = 0.0;
    uint64_t count = 0;
  };

  static double Start(uint64_t window) {
    return static_cast<double>(window) * kSeriesWindowSec;
  }
  static double End(uint64_t window) { return Start(window + 1); }

  static double Delta(const Total& s) {
    return static_cast<double>(s.total - std::min(s.total, s.last));
  }

  static double Fold(const Observed& o) {
    if (o.count == 0) return 0.0;
    return o.snap.agg == SeriesAgg::kMax
               ? o.max
               : o.sum / static_cast<double>(o.count);
  }

  static void Trim(SeriesSnapshot* snap) {
    snap->window_sec = kSeriesWindowSec;
    if (snap->points.size() <= kSeriesCapacity) return;
    snap->dropped = snap->points.size() - kSeriesCapacity;
    snap->points.erase(snap->points.begin(),
                       snap->points.begin() + snap->dropped);
  }

  static Total MakeTotal(const char* name) {
    Total s;
    s.snap.name = name;
    return s;
  }

  Total totals_[5] = {MakeTotal("bytes.wire"), MakeTotal("bytes.raw"),
                      MakeTotal("bytes.encoded"), MakeTotal("rounds"),
                      MakeTotal("retries")};
  std::vector<Observed> observed_;
  uint64_t window_ = 0;      ///< the open window [i*w, (i+1)*w)
  double high_water_ = 0.0;  ///< latest sample or observation time
};

}  // namespace

std::vector<SeriesSnapshot> WindowedSeries(
    const std::vector<RoundProfile>& rounds, const ConvergenceCurve* curve) {
  static const std::vector<ConvergencePoint> kNoPoints;
  const std::vector<ConvergencePoint>& points =
      curve != nullptr ? curve->points() : kNoPoints;
  WindowReplay replay;
  size_t next = 0;  // the next curve point not yet observed
  for (const RoundProfile& r : rounds) {
    replay.AddTotals(r);
    replay.AdvanceTo(r.sim_end);
    if (r.staleness_samples > 0) {
      replay.Observe("staleness", SeriesAgg::kMean, r.sim_end,
                     r.staleness_mean);
    }
    replay.Observe("straggler.spread", SeriesAgg::kMax, r.sim_end,
                   r.task_max - r.task_p50);
    // Points before this round's evaluation (the starting objective)
    // are not observed.
    while (next < points.size() && points[next].comm_step < r.round + 1) {
      ++next;
    }
    if (next < points.size() && points[next].comm_step == r.round + 1) {
      const ConvergencePoint& p = points[next++];
      replay.AdvanceTo(p.time_sec);
      replay.Observe("objective", SeriesAgg::kMean, p.time_sec, p.objective);
    }
  }
  return replay.Finish();
}

}  // namespace mllibstar
