// Observability-layer tests: span nesting, Chrome-trace and RunReport
// export well-formedness (each export is parsed back), and the hard
// invariant that enabling telemetry leaves every trainer's results —
// weights, curve, clocks, byte counts, and full trace — and every
// RunReport section it does not own bit-identical, including under
// host parallelism, fault injection and churn. Telemetry consumes no
// RNG; EXPECT_EQ on doubles is deliberate.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "data/synthetic.h"
#include "obs/chrome_trace.h"
#include "obs/engine_profiler.h"
#include "obs/report_view.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/time_series.h"
#include "train/report.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

/// Restores the process-wide sink to disabled-and-empty on scope exit
/// so obs tests cannot leak state into each other.
struct TelemetryGuard {
  TelemetryGuard() {
    Telemetry::Get().set_enabled(false);
    Telemetry::Get().Clear();
  }
  ~TelemetryGuard() {
    Telemetry::Get().set_enabled(false);
    Telemetry::Get().Clear();
  }
};

// ---------------------------------------------------------------------------
// Telemetry spans

TEST(TelemetryTest, DisabledSinkRecordsNothing) {
  TelemetryGuard guard;
  Telemetry& obs = Telemetry::Get();
  ASSERT_FALSE(obs.enabled());
  {
    ScopedSpan span("noop", "test");
    EXPECT_FALSE(span.active());
    span.SetSimRange(0.0, 1.0);
  }
  EXPECT_TRUE(obs.spans().empty());
}

TEST(TelemetryTest, SpansNestWithDepths) {
  TelemetryGuard guard;
  Telemetry& obs = Telemetry::Get();
  obs.set_enabled(true);
  {
    ScopedSpan outer("outer", "test");
    EXPECT_TRUE(outer.active());
    {
      ScopedSpan inner("inner", "test");
      inner.SetSimRange(1.0, 2.0);
    }
  }
  {
    ScopedSpan next("next", "test");
  }
  const std::vector<SpanRecord> spans = obs.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Inner closes first; depths reflect nesting at open time.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_EQ(spans[0].sim_start, 1.0);
  EXPECT_EQ(spans[0].sim_end, 2.0);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0);
  EXPECT_LT(spans[1].sim_start, 0.0);  // no sim range attached
  EXPECT_EQ(spans[2].name, "next");
  EXPECT_EQ(spans[2].depth, 0);  // depth fully unwound
  EXPECT_LE(spans[0].host_start_us, spans[0].host_end_us);
}

TEST(TelemetryTest, BoundedBuffersDropNewestAndAccount) {
  TelemetryGuard guard;
  Telemetry& obs = Telemetry::Get();
  obs.set_enabled(true);
  const size_t old_span_cap = obs.span_capacity();
  obs.set_span_capacity(4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(std::string("s") + std::to_string(i), "test");
  }
  ASSERT_EQ(obs.spans().size(), 4u);
  EXPECT_EQ(obs.spans_dropped(), 6u);
  // Drop-newest: the records kept are the earliest ones, so the head
  // of a long run (setup, first rounds) survives.
  EXPECT_EQ(obs.spans()[0].name, "s0");

  RunInfo info;
  info.system = "drop-test";
  const JsonValue report = BuildRunReport(info, &obs);
  const JsonValue* buffers = report.Find("telemetry");
  ASSERT_NE(buffers, nullptr);
  EXPECT_EQ(buffers->Find("spans")->number_value(), 4.0);
  EXPECT_EQ(buffers->Find("span_capacity")->number_value(), 4.0);
  EXPECT_EQ(buffers->Find("spans_dropped")->number_value(), 6.0);

  // Clear zeroes the drop counter along with the buffer.
  obs.Clear();
  EXPECT_EQ(obs.spans_dropped(), 0u);
  obs.set_span_capacity(old_span_cap);
}

// ---------------------------------------------------------------------------
// Windowed series, computed from the round record

RoundProfile RoundClosingAt(int round, double sim_end) {
  RoundProfile r;
  r.round = round;
  r.sim_end = sim_end;
  return r;
}

/// The series `name` of `all`; fails the test when it is missing.
SeriesSnapshot SeriesNamed(const std::vector<SeriesSnapshot>& all,
                           const std::string& name) {
  for (const SeriesSnapshot& s : all) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no series " << name;
  return {};
}

TEST(TimeSeriesTest, WindowsAlignToGridAndDeltasLandInFirstClosedWindow) {
  std::vector<RoundProfile> rounds = {RoundClosingAt(0, 0.3),
                                      RoundClosingAt(1, 1.05)};
  rounds[0].wire.broadcast = 100;  // closes [0, 0.25)
  rounds[1].wire.pull = 50;        // closes [0.25, 0.5) .. [0.75, 1.0)
  const SeriesSnapshot bytes =
      SeriesNamed(WindowedSeries(rounds, nullptr), "bytes.wire");
  ASSERT_EQ(bytes.points.size(), 4u);
  EXPECT_EQ(bytes.window_sec, kSeriesWindowSec);
  EXPECT_EQ(bytes.points[0].t0, 0.0);
  EXPECT_EQ(bytes.points[0].t1, 0.25);
  EXPECT_EQ(bytes.points[0].value, 100.0);
  // Totals are only seen at round closes: the whole 50-byte delta
  // lands in the first window the second close closes, the rest are 0,
  // and the partial window [1.0, 1.05) has nothing left to show.
  EXPECT_EQ(bytes.points[1].value, 50.0);
  EXPECT_EQ(bytes.points[2].value, 0.0);
  EXPECT_EQ(bytes.points[3].value, 0.0);
  EXPECT_EQ(bytes.points[3].t1, 1.0);
}

TEST(TimeSeriesTest, ObservedAggregationsFoldPerWindow) {
  std::vector<RoundProfile> rounds = {RoundClosingAt(0, 0.1),
                                      RoundClosingAt(1, 0.2),
                                      RoundClosingAt(2, 0.25)};
  rounds[0].task_max = 3.0;  // spread 3
  rounds[1].task_max = 7.0;  // spread 7
  ConvergenceCurve curve;
  curve.Add(0, 0.0, 100.0);  // the starting objective: not observed
  curve.Add(1, 0.1, 2.0);
  curve.Add(2, 0.2, 4.0);
  const std::vector<SeriesSnapshot> all = WindowedSeries(rounds, &curve);
  const SeriesSnapshot mean = SeriesNamed(all, "objective");
  const SeriesSnapshot max = SeriesNamed(all, "straggler.spread");
  EXPECT_EQ(mean.agg, SeriesAgg::kMean);
  ASSERT_EQ(mean.points.size(), 1u);
  EXPECT_EQ(mean.points[0].value, 3.0);
  EXPECT_EQ(mean.points[0].count, 2u);
  // The third round ends on the boundary 0.25: its close closes
  // [0, 0.25), and its spread files under [0.25, 0.5), the window it
  // ended in. The run ends there too, so that window is emitted with
  // zero width to keep the observation.
  ASSERT_EQ(max.points.size(), 2u);
  EXPECT_EQ(max.points[0].value, 7.0);
  EXPECT_EQ(max.points[0].count, 2u);
  EXPECT_EQ(max.points[1].t0, 0.25);
  EXPECT_EQ(max.points[1].t1, 0.25);
  EXPECT_EQ(max.points[1].value, 0.0);
  EXPECT_EQ(max.points[1].count, 1u);
  EXPECT_EQ(SeriesNamed(all, "rounds").points[0].value, 3.0);
}

TEST(TimeSeriesTest, RoundObservationsFileUnderTheWindowTheRoundEndedIn) {
  // A round spanning several windows reports its spread and staleness
  // where it ended, not in the window the previous round ended in.
  std::vector<RoundProfile> rounds = {RoundClosingAt(0, 0.1),
                                      RoundClosingAt(1, 0.9)};
  rounds[0].task_max = 2.0;
  rounds[1].task_max = 5.0;
  for (RoundProfile& r : rounds) {
    r.staleness_samples = 4;
    r.staleness_mean = r.task_max / 2.0;
  }
  const std::vector<SeriesSnapshot> all = WindowedSeries(rounds, nullptr);
  for (const char* name : {"straggler.spread", "staleness"}) {
    SCOPED_TRACE(name);
    const SeriesSnapshot s = SeriesNamed(all, name);
    // [0, 0.25) holds round 0; [0.25, 0.5) and [0.5, 0.75) close
    // empty; round 1 ends in the partial window [0.75, 0.9].
    ASSERT_EQ(s.points.size(), 4u);
    EXPECT_EQ(s.points[0].count, 1u);
    EXPECT_EQ(s.points[1].count, 0u);
    EXPECT_EQ(s.points[2].count, 0u);
    EXPECT_EQ(s.points[3].t0, 0.75);
    EXPECT_EQ(s.points[3].t1, 0.9);
    EXPECT_EQ(s.points[3].count, 1u);
    EXPECT_EQ(s.points[3].value, s.points[0].value * 2.5);
  }
}

TEST(TimeSeriesTest, RingDropsOldestPastCapacityAndCounts) {
  const double end = kSeriesWindowSec * (kSeriesCapacity + 6);
  const std::vector<SeriesSnapshot> all =
      WindowedSeries({RoundClosingAt(0, end)}, nullptr);
  const SeriesSnapshot v = SeriesNamed(all, "rounds");
  ASSERT_EQ(v.points.size(), kSeriesCapacity);
  EXPECT_EQ(v.dropped, 6u);
  // The retained tail is the newest windows; the round's count landed
  // in the first window its close closed, which fell off.
  EXPECT_EQ(v.points.front().t0, 6 * kSeriesWindowSec);
  EXPECT_EQ(v.points.back().t1, end);
  for (const SeriesPoint& p : v.points) EXPECT_EQ(p.value, 0.0);
  // The round's spread files under the window it ended in, which
  // starts at `end`, so it survives the ring's bound.
  const SeriesSnapshot spread = SeriesNamed(all, "straggler.spread");
  ASSERT_EQ(spread.points.size(), 1u);
  EXPECT_EQ(spread.dropped, 0u);
  EXPECT_EQ(spread.points[0].t0, end);
  EXPECT_EQ(spread.points[0].count, 1u);
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST(ChromeTraceTest, ParsesBackWithTrackPerNodeAndStageMarkers) {
  TelemetryGuard guard;
  TraceLog trace;
  trace.Record("driver", 0.0, 1.0, ActivityKind::kUpdate, "step");
  trace.Record("executor1", 0.0, 2.0, ActivityKind::kCompute, "grad");
  trace.Record("executor2", 0.5, 2.5, ActivityKind::kCommunicate,
               "push, \"quoted\"");
  trace.MarkStage(1.0, "stage 1");

  Telemetry& obs = Telemetry::Get();
  obs.set_enabled(true);
  { ScopedSpan span("host work", "test"); }

  const JsonValue doc = ChromeTraceJson(trace, &obs);
  // Serialization must survive a parse round-trip.
  const Result<JsonValue> parsed = JsonValue::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> sim_tracks;
  std::set<std::string> host_tracks;
  size_t stage_markers = 0;
  size_t slices = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.Find("ph")->string_value();
    const int pid = static_cast<int>(e.Find("pid")->number_value());
    if (ph == "M" && e.Find("name")->string_value() == "thread_name") {
      const std::string track =
          e.Find("args")->Find("name")->string_value();
      (pid == 1 ? sim_tracks : host_tracks).insert(track);
    }
    if (ph == "i" && e.Find("cat") != nullptr &&
        e.Find("cat")->string_value() == "stage") {
      ++stage_markers;
    }
    if (ph == "X" && pid == 1) ++slices;
  }
  EXPECT_EQ(sim_tracks,
            (std::set<std::string>{"driver", "executor1", "executor2"}));
  EXPECT_EQ(host_tracks.size(), 1u);
  EXPECT_EQ(stage_markers, 1u);
  EXPECT_EQ(slices, 3u);
}

TEST(ChromeTraceTest, SimSecondsMapToMicroseconds) {
  TraceLog trace;
  trace.Record("n", 1.0, 3.0, ActivityKind::kCompute, "");
  const JsonValue doc = ChromeTraceJson(trace);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    if (e.Find("ph")->string_value() != "X") continue;
    EXPECT_EQ(e.Find("ts")->number_value(), 1e6);
    EXPECT_EQ(e.Find("dur")->number_value(), 2e6);
  }
}

// ---------------------------------------------------------------------------
// RunReport export

Dataset ObsData() {
  SyntheticSpec spec;
  spec.name = "obs";
  spec.num_instances = 600;
  spec.num_features = 120;
  spec.avg_nnz = 10;
  spec.seed = 31;
  return GenerateSynthetic(spec);
}

/// Nonzero jitter, task failures, and executor crashes: the RNG-heavy
/// regime where an instrumentation point that consumed randomness
/// would be caught immediately.
ClusterConfig FaultyCluster() {
  ClusterConfig config = ClusterConfig::Cluster1(8);
  config.straggler_sigma = 0.08;
  config.task_failure_prob = 0.05;
  config.faults.worker_crash_prob = 0.05;
  config.faults.executor_restart_seconds = 2.0;
  return config;
}

/// FaultyCluster plus scripted churn through the failure detector: two
/// leaves, two joins, one rejoin — every membership code path fires
/// while telemetry records.
ClusterConfig ChurnyCluster() {
  ClusterConfig config = FaultyCluster();
  ChurnPlan plan;
  plan.heartbeat_interval_sec = 0.25;
  plan.suspicion_timeout_sec = 0.5;
  plan.initial_active = 6;
  plan.leaves = {{0, 1.0}, {1, 2.0}};
  plan.joins = {{6, 3.0}, {7, 4.0}};
  plan.rejoins = {{0, 5.0}};
  config.churn = plan;
  return config;
}

TrainerConfig ObsConfig(SystemKind kind) {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = kind == SystemKind::kPetuum ? 0.04 : 0.3;
  config.lr_schedule = LrScheduleKind::kInverseSqrt;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 6;
  config.seed = 5;
  config.host_threads = 2;  // telemetry must also be inert off-thread
  return config;
}

TEST(RunReportTest, RoundTripsTrainResult) {
  TelemetryGuard guard;
  Telemetry::Get().set_enabled(true);
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, ObsConfig(SystemKind::kMllibStar))
          ->Train(ObsData(), ChurnyCluster());
  const std::string path = testing::TempDir() + "/run_report.json";
  ASSERT_TRUE(WriteRunReport(result, path).ok());

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<JsonValue> parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok());
  const JsonValue& report = *parsed;

  EXPECT_EQ(report.Find("schema")->string_value(), "mllibstar.run_report.v2");
  EXPECT_EQ(report.Find("system")->string_value(), result.system);
  const JsonValue* headline = report.Find("result");
  ASSERT_NE(headline, nullptr);
  EXPECT_EQ(headline->Find("comm_steps")->number_value(), result.comm_steps);
  EXPECT_EQ(headline->Find("sim_seconds")->number_value(),
            result.sim_seconds);
  EXPECT_EQ(headline->Find("total_bytes")->number_value(),
            static_cast<double>(result.total_bytes));
  const JsonValue* curve = report.Find("curve");
  ASSERT_NE(curve, nullptr);
  EXPECT_EQ(curve->Find("points")->size(), result.curve.points().size());
  const JsonValue* util = report.Find("utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_GT(util->Find("per_node")->size(), 0u);
  const JsonValue* faults = report.Find("faults");
  ASSERT_NE(faults, nullptr);
  EXPECT_EQ(faults->Find("worker_crashes")->number_value(),
            static_cast<double>(result.faults.worker_crashes));
  // The churn fired, and the membership section is the run's own
  // MembershipStats.
  const MembershipStats& m = result.membership;
  ASSERT_GT(m.leaves, 0u);
  ASSERT_GT(m.joins, 0u);
  const JsonValue* membership = report.Find("membership");
  ASSERT_NE(membership, nullptr);
  EXPECT_EQ(membership->Find("joins")->number_value(), m.joins);
  EXPECT_EQ(membership->Find("leaves")->number_value(), m.leaves);
  EXPECT_EQ(membership->Find("rejoins")->number_value(), m.rejoins);
  EXPECT_EQ(membership->Find("suspicions")->number_value(), m.suspicions);
  EXPECT_EQ(membership->Find("partitions_migrated")->number_value(),
            m.partitions_migrated);
  EXPECT_EQ(membership->Find("degraded_rounds")->number_value(),
            m.degraded_rounds);
  EXPECT_EQ(membership->Find("catchup_latency_sum")->number_value(),
            m.catchup_latency_sum);
  EXPECT_EQ(membership->Find("catchup_count")->number_value(),
            m.catchup_count);
  EXPECT_EQ(membership->Find("min_active")->number_value(), m.min_active);
  EXPECT_EQ(membership->Find("max_active")->number_value(), m.max_active);
  EXPECT_EQ(membership->items().size(), 10u);
  EXPECT_FALSE(report.Has("metrics"));

  // v2 sections: at least three windowed series with points (bytes on
  // the wire, the objective, the straggler spread), per-round profiles
  // with the compute/wait/comm split, the simulator self-profile, and
  // telemetry buffer accounting.
  const JsonValue* series = report.Find("series");
  ASSERT_NE(series, nullptr);
  std::set<std::string> series_with_points;
  for (size_t i = 0; i < series->size(); ++i) {
    const JsonValue& s = series->at(i);
    if (s.Find("points")->size() > 0) {
      series_with_points.insert(s.Find("name")->string_value());
    }
  }
  EXPECT_GE(series_with_points.size(), 3u);
  EXPECT_TRUE(series_with_points.count("bytes.wire"));
  EXPECT_TRUE(series_with_points.count("objective"));
  EXPECT_TRUE(series_with_points.count("straggler.spread"));

  const JsonValue* rounds = report.Find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_EQ(rounds->size(), static_cast<size_t>(result.comm_steps));
  double wire = 0.0;
  for (size_t i = 0; i < rounds->size(); ++i) {
    const JsonValue& r = rounds->at(i);
    EXPECT_EQ(r.Find("system")->string_value(), result.system);
    EXPECT_GT(r.Find("tasks")->number_value(), 0.0);
    EXPECT_GT(r.Find("compute_sec")->number_value(), 0.0);
    EXPECT_GE(r.Find("task_max")->number_value(),
              r.Find("task_p50")->number_value());
    EXPECT_GE(r.Find("sim_end")->number_value(),
              r.Find("sim_start")->number_value());
    const JsonValue* bytes = r.Find("bytes");
    ASSERT_NE(bytes, nullptr);
    // The per-path bytes are the one byte count.
    EXPECT_EQ(bytes->items().size(), 5u);
    for (const char* path :
         {"broadcast", "tree_aggregate", "shuffle", "pull", "push"}) {
      ASSERT_NE(bytes->Find(path), nullptr) << path;
      wire += bytes->Find(path)->number_value();
    }
  }
  EXPECT_GT(wire, 0.0);
  EXPECT_EQ(wire, static_cast<double>(result.total_bytes));

  const JsonValue* profiler = report.Find("profiler");
  ASSERT_NE(profiler, nullptr);
  EXPECT_GT(profiler->Find("total_events")->number_value(), 0.0);
  const JsonValue* subsystems = profiler->Find("subsystems");
  ASSERT_EQ(subsystems->size(), 6u);
  // Every objective evaluation of the run is one `eval` event.
  const JsonValue& eval = subsystems->at(5);
  EXPECT_EQ(eval.Find("name")->string_value(), "eval");
  EXPECT_GT(eval.Find("events")->number_value(), 0.0);
  EXPECT_GT(profiler->Find("host_us_per_sim_sec")->number_value(), 0.0);

  const JsonValue* buffers = report.Find("telemetry");
  ASSERT_NE(buffers, nullptr);
  EXPECT_GT(buffers->Find("spans")->number_value(), 0.0);
  EXPECT_EQ(buffers->Find("spans_dropped")->number_value(), 0.0);
}

TEST(RunReportTest, SectionsOmittedForNullPointers) {
  RunInfo info;
  info.system = "bare";
  const JsonValue report = BuildRunReport(info);
  EXPECT_TRUE(report.Has("result"));
  EXPECT_FALSE(report.Has("curve"));
  EXPECT_FALSE(report.Has("utilization"));
  EXPECT_FALSE(report.Has("faults"));
  EXPECT_FALSE(report.Has("membership"));
  EXPECT_FALSE(report.Has("profiler"));
}

/// `path`'s RunReport without the two sections telemetry owns
/// (`profiler`, `telemetry`), as a byte string.
std::string ReportWithoutHostSections(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<JsonValue> parsed = JsonValue::Parse(buffer.str());
  EXPECT_TRUE(parsed.ok()) << path;
  if (!parsed.ok()) return "";
  JsonValue kept = JsonValue::Object();
  for (const auto& [key, value] : parsed->items()) {
    if (key != "profiler" && key != "telemetry") kept.Set(key, value);
  }
  return kept.Dump(2);
}

// Everything a RunReport says about the run comes from its result, so
// the report written with telemetry off is the one written with it on,
// apart from the host-time sections.
TEST(RunReportTest, ReportDoesNotDependOnTelemetry) {
  TelemetryGuard guard;
  const Dataset data = ObsData();
  const std::string off_path = testing::TempDir() + "/report_off.json";
  const std::string on_path = testing::TempDir() + "/report_on.json";
  for (const ClusterConfig& cluster : {FaultyCluster(), ChurnyCluster()}) {
    for (SystemKind kind :
         {SystemKind::kMllib, SystemKind::kMllibMa, SystemKind::kMllibStar,
          SystemKind::kPetuum, SystemKind::kPetuumStar, SystemKind::kAngel,
          SystemKind::kMllibLbfgs}) {
      SCOPED_TRACE(SystemName(kind));
      const TrainerConfig config = ObsConfig(kind);
      Telemetry::Get().set_enabled(false);
      ASSERT_TRUE(
          WriteRunReport(MakeTrainer(kind, config)->Train(data, cluster),
                         off_path)
              .ok());
      Telemetry::Get().set_enabled(true);
      Telemetry::Get().Clear();
      ASSERT_TRUE(
          WriteRunReport(MakeTrainer(kind, config)->Train(data, cluster),
                         on_path)
              .ok());
      Telemetry::Get().set_enabled(false);
      const std::string off = ReportWithoutHostSections(off_path);
      EXPECT_NE(off.find("\"membership\""), std::string::npos);
      EXPECT_EQ(off, ReportWithoutHostSections(on_path));
    }
  }
}

// A traced run's Chrome trace: the simulated cluster (pid 1) keeps the
// stage marks and every fault and membership bar the run recorded; the
// host process (pid 2) holds only its spans.
TEST(ChromeTraceTest, HostProcessHoldsOnlySpans) {
  TelemetryGuard guard;
  Telemetry::Get().set_enabled(true);
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, ObsConfig(SystemKind::kMllibStar))
          ->Train(ObsData(), ChurnyCluster());
  const JsonValue doc = ChromeTraceJson(result.trace, &Telemetry::Get());
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> sim_slices;
  size_t stage_marks = 0;
  size_t host_spans = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& e = events->at(i);
    const std::string ph = e.Find("ph")->string_value();
    const int pid = static_cast<int>(e.Find("pid")->number_value());
    if (pid == 2) {
      EXPECT_TRUE(ph == "X" || ph == "M") << ph;
      if (ph == "X") ++host_spans;
      continue;
    }
    ASSERT_EQ(pid, 1);
    if (ph == "X") sim_slices.insert(e.Find("name")->string_value());
    if (ph == "i" && e.Find("cat")->string_value() == "stage") ++stage_marks;
  }
  EXPECT_EQ(host_spans, Telemetry::Get().spans().size());
  EXPECT_GT(host_spans, 0u);
  EXPECT_EQ(stage_marks, result.trace.stages().size());
  EXPECT_GT(stage_marks, 0u);
  for (const char* bar : {"fault", "leave", "suspected", "join"}) {
    EXPECT_TRUE(sim_slices.count(bar)) << bar;
  }
}

// ---------------------------------------------------------------------------
// The hard invariant: telemetry on/off is bit-identical, all systems.

void ExpectBitIdentical(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.comm_steps, b.comm_steps);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_model_updates, b.total_model_updates);
  EXPECT_EQ(a.diverged, b.diverged);
  ASSERT_EQ(a.curve.points().size(), b.curve.points().size());
  for (size_t i = 0; i < a.curve.points().size(); ++i) {
    EXPECT_EQ(a.curve.points()[i].comm_step, b.curve.points()[i].comm_step);
    EXPECT_EQ(a.curve.points()[i].time_sec, b.curve.points()[i].time_sec);
    EXPECT_EQ(a.curve.points()[i].objective, b.curve.points()[i].objective);
  }
  ASSERT_EQ(a.final_weights.dim(), b.final_weights.dim());
  for (size_t i = 0; i < a.final_weights.dim(); ++i) {
    EXPECT_EQ(a.final_weights[i], b.final_weights[i]) << "coordinate " << i;
  }
  EXPECT_EQ(a.faults.worker_crashes, b.faults.worker_crashes);
  EXPECT_EQ(a.faults.lineage_recomputes, b.faults.lineage_recomputes);
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (size_t i = 0; i < a.trace.events().size(); ++i) {
    const TraceEvent& ea = a.trace.events()[i];
    const TraceEvent& eb = b.trace.events()[i];
    EXPECT_EQ(ea.node, eb.node);
    EXPECT_EQ(ea.start, eb.start);
    EXPECT_EQ(ea.end, eb.end);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.detail, eb.detail);
  }
}

/// The exported series + rounds sections of `result`'s RunReport as a
/// byte string (the profiler/telemetry sections carry host-time
/// numbers and are legitimately run-dependent, so they are excluded).
std::string SeriesAndRoundsDump(const TrainResult& result) {
  RunInfo info;
  info.curve = &result.curve;
  info.rounds = &result.rounds;
  const JsonValue report = BuildRunReport(info);
  return report.Find("series")->Dump(2) + "\n" +
         report.Find("rounds")->Dump(2);
}

/// Points in `result`'s exported series `name`; 0 when the run never
/// recorded it.
size_t SeriesPoints(const TrainResult& result, const std::string& name) {
  for (const SeriesSnapshot& s : WindowedSeries(result.rounds, &result.curve)) {
    if (s.name == name) return s.points.size();
  }
  return 0;
}

/// The round record covers the whole run: one profile per
/// communication step, and the per-path bytes of all rounds add up to
/// the run's total.
void ExpectRoundsCoverRun(const TrainResult& result) {
  EXPECT_EQ(result.rounds.size(), static_cast<size_t>(result.comm_steps));
  uint64_t bytes = 0;
  for (const RoundProfile& r : result.rounds) {
    bytes += r.wire.broadcast + r.wire.tree_aggregate + r.wire.shuffle +
             r.wire.pull + r.wire.push;
  }
  EXPECT_EQ(bytes, result.total_bytes);
}

class TelemetryIdentityTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(TelemetryIdentityTest, EnablingTelemetryIsBitInvisible) {
  TelemetryGuard guard;
  const Dataset data = ObsData();
  const ClusterConfig cluster = FaultyCluster();
  const TrainerConfig config = ObsConfig(GetParam());

  Telemetry::Get().set_enabled(false);
  const TrainResult off = MakeTrainer(GetParam(), config)->Train(data, cluster);

  Telemetry::Get().set_enabled(true);
  Telemetry::Get().Clear();
  const TrainResult on = MakeTrainer(GetParam(), config)->Train(data, cluster);

  // The instrumentation actually fired...
  EXPECT_FALSE(Telemetry::Get().spans().empty());
  EXPECT_GT(EngineProfiler::Get().TotalEvents(), 0u);
  // ...and changed nothing, the round record included.
  ExpectBitIdentical(off, on);
  EXPECT_EQ(SeriesAndRoundsDump(off), SeriesAndRoundsDump(on));
  ExpectRoundsCoverRun(on);
}

TEST_P(TelemetryIdentityTest, BitInvisibleUnderChurnAndHostThreads) {
  // The strongest regime: 8 host threads, crash faults, and scripted
  // worker churn, with the full v2 recording stack (windowed series,
  // round profiles, EngineProfiler) live.
  TelemetryGuard guard;
  const Dataset data = ObsData();
  const ClusterConfig cluster = ChurnyCluster();
  TrainerConfig config = ObsConfig(GetParam());
  config.host_threads = 8;

  Telemetry::Get().set_enabled(false);
  const TrainResult off = MakeTrainer(GetParam(), config)->Train(data, cluster);

  Telemetry::Get().set_enabled(true);
  Telemetry::Get().Clear();
  const TrainResult on = MakeTrainer(GetParam(), config)->Train(data, cluster);

  EXPECT_FALSE(Telemetry::Get().spans().empty());
  ExpectBitIdentical(off, on);
  EXPECT_EQ(SeriesAndRoundsDump(off), SeriesAndRoundsDump(on));
  ExpectRoundsCoverRun(on);
}

TEST_P(TelemetryIdentityTest, WindowedSeriesByteIdenticalAcrossHostThreads) {
  // Round profiles come from deterministic round closes and the series
  // are computed from them and the curve, so both must be
  // byte-identical for any host_threads value.
  TelemetryGuard guard;
  const Dataset data = ObsData();
  const ClusterConfig cluster = FaultyCluster();
  TrainerConfig config = ObsConfig(GetParam());
  Telemetry::Get().set_enabled(true);

  config.host_threads = 1;
  Telemetry::Get().Clear();
  const TrainResult single =
      MakeTrainer(GetParam(), config)->Train(data, cluster);

  config.host_threads = 8;
  Telemetry::Get().Clear();
  const TrainResult threaded =
      MakeTrainer(GetParam(), config)->Train(data, cluster);

  const std::string dump = SeriesAndRoundsDump(single);
  EXPECT_EQ(dump, SeriesAndRoundsDump(threaded));
  EXPECT_NE(dump.find("\"points\""), std::string::npos);
  ExpectRoundsCoverRun(single);
  ExpectRoundsCoverRun(threaded);
  // Every system records its evaluations as the objective trajectory.
  EXPECT_GE(SeriesPoints(single, "objective"), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, TelemetryIdentityTest,
    ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                      SystemKind::kMllibStar, SystemKind::kPetuum,
                      SystemKind::kPetuumStar, SystemKind::kAngel,
                      SystemKind::kMllibLbfgs),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name = SystemName(info.param);
      for (char& c : name) {
        if (c == '*') {
          c = 'S';
        } else if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// A PS run under SSP that stops at its target: ShouldStop lowers the
// round budget while workers up to `staleness` rounds ahead still pull
// and push. That trailing traffic is charged to the last completed
// round, so the record still covers the run.
class EarlyStopRoundsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(EarlyStopRoundsTest, SspRunThatStopsEarlyKeepsTrailingTraffic) {
  const Dataset data = ObsData();
  ClusterConfig cluster = ClusterConfig::Cluster1(8);
  cluster.straggler_sigma = 0.3;
  TrainerConfig config = ObsConfig(GetParam());
  config.max_comm_steps = 30;
  config.ps.staleness = 2;
  const TrainResult full =
      MakeTrainer(GetParam(), config)->Train(data, cluster);
  const std::vector<ConvergencePoint>& curve = full.curve.points();
  config.target_objective = curve[curve.size() / 3].objective;
  const TrainResult early =
      MakeTrainer(GetParam(), config)->Train(data, cluster);
  ASSERT_LT(early.comm_steps, full.comm_steps);
  ExpectRoundsCoverRun(early);
}

INSTANTIATE_TEST_SUITE_P(
    PsSystems, EarlyStopRoundsTest,
    ::testing::Values(SystemKind::kPetuum, SystemKind::kPetuumStar,
                      SystemKind::kAngel),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      std::string name = SystemName(info.param);
      if (name.back() == '*') name.back() = 'S';
      return name;
    });

// ---------------------------------------------------------------------------
// Offline report renderer

TEST(ReportViewTest, SparklineScalesAndHandlesEdgeCases) {
  EXPECT_EQ(Sparkline({}), "");
  EXPECT_FALSE(Sparkline({5.0, 5.0}).empty());  // flat -> mid-level bars
  const std::string line = Sparkline({0.0, 1.0, 2.0, 3.0});
  // One glyph per value; the first maps to the lowest level, the last
  // to the highest.
  EXPECT_EQ(line.size(), 4 * std::string("▁").size());
  EXPECT_EQ(line.substr(0, std::string("▁").size()), "▁");
  EXPECT_EQ(line.substr(line.size() - std::string("█").size()), "█");
}

TEST(ReportViewTest, RendersV2ReportWithSeriesRoundsAndProfiler) {
  TelemetryGuard guard;
  Telemetry::Get().set_enabled(true);
  const TrainResult result =
      MakeTrainer(SystemKind::kMllibStar, ObsConfig(SystemKind::kMllibStar))
          ->Train(ObsData(), FaultyCluster());
  const std::string path = testing::TempDir() + "/view_report.json";
  ASSERT_TRUE(WriteRunReport(result, path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Result<JsonValue> parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok());

  const std::string rendered = RenderRunReport(*parsed);
  EXPECT_NE(rendered.find("mllibstar.run_report.v2"), std::string::npos);
  EXPECT_NE(rendered.find("system mllib*"), std::string::npos);
  EXPECT_NE(rendered.find("series ("), std::string::npos);
  EXPECT_NE(rendered.find("bytes.wire"), std::string::npos);
  EXPECT_NE(rendered.find("straggler.spread"), std::string::npos);
  EXPECT_NE(rendered.find("rounds ("), std::string::npos);
  EXPECT_NE(rendered.find("profiler:"), std::string::npos);
  EXPECT_NE(rendered.find("engine"), std::string::npos);
  EXPECT_NE(rendered.find("telemetry: spans="), std::string::npos);
}

TEST(ReportViewTest, RendersV1SubsetWithoutNewSections) {
  // A v1-era report (no series/rounds/profiler) must still render its
  // subset — the viewer is schema-tolerant, not schema-gated.
  const char* v1 =
      R"({"schema": "mllibstar.run_report.v1", "system": "mllib",)"
      R"( "result": {"comm_steps": 3, "sim_seconds": 1.5,)"
      R"( "total_bytes": 2048, "total_model_updates": 7,)"
      R"( "diverged": false}})";
  const Result<JsonValue> parsed = JsonValue::Parse(v1);
  ASSERT_TRUE(parsed.ok());
  const std::string rendered = RenderRunReport(*parsed);
  EXPECT_NE(rendered.find("mllibstar.run_report.v1"), std::string::npos);
  EXPECT_NE(rendered.find("comm_steps=3"), std::string::npos);
  EXPECT_NE(rendered.find("2 KiB"), std::string::npos);
  EXPECT_EQ(rendered.find("series ("), std::string::npos);
  EXPECT_EQ(rendered.find("profiler:"), std::string::npos);
}

}  // namespace
}  // namespace mllibstar
