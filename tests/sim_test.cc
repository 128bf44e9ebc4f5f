#include "sim/sim_cluster.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>

#include "sim/network.h"

namespace mllibstar {
namespace {

ClusterConfig NoJitterConfig(size_t workers) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;
  return config;
}

TEST(NetworkModelTest, TransferTime) {
  NetworkModel net(0.001, 1000.0);
  EXPECT_DOUBLE_EQ(net.TransferTime(500), 0.001 + 0.5);
  EXPECT_DOUBLE_EQ(net.SerializedTransferTime(500, 4), 0.001 + 2.0);
  EXPECT_DOUBLE_EQ(net.SerializedTransferTime(500, 0), 0.0);
}

TEST(NetworkModelTest, DenseBytes) {
  EXPECT_EQ(NetworkModel::DenseBytes(1000), 8000u);
}

TEST(SimClusterTest, NodeNamesAndCounts) {
  ClusterConfig config = NoJitterConfig(3);
  config.num_servers = 2;
  SimCluster sim(config);
  EXPECT_EQ(sim.num_workers(), 3u);
  EXPECT_EQ(sim.num_servers(), 2u);
  EXPECT_EQ(sim.driver().name, "driver");
  EXPECT_EQ(sim.worker(0).name, "executor1");
  EXPECT_EQ(sim.server(1).name, "server2");
}

TEST(SimClusterTest, ComputeAdvancesClockProportionally) {
  SimCluster sim(NoJitterConfig(2));
  const double speed = sim.config().compute_speed;
  sim.Compute(&sim.worker(0), static_cast<uint64_t>(speed), "work");
  EXPECT_NEAR(sim.worker(0).clock, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(sim.worker(1).clock, 0.0);
}

TEST(SimClusterTest, BarrierAlignsEveryone) {
  SimCluster sim(NoJitterConfig(3));
  sim.Compute(&sim.worker(0), 100, "a");
  sim.Compute(&sim.worker(1), 500, "b");
  const SimTime t = sim.Barrier();
  EXPECT_DOUBLE_EQ(sim.worker(0).clock, t);
  EXPECT_DOUBLE_EQ(sim.worker(1).clock, t);
  EXPECT_DOUBLE_EQ(sim.worker(2).clock, t);
  EXPECT_DOUBLE_EQ(sim.driver().clock, t);
  EXPECT_DOUBLE_EQ(t, sim.Now());
}

TEST(SimClusterTest, BarrierRecordsWaitEvents) {
  SimCluster sim(NoJitterConfig(2));
  sim.Compute(&sim.worker(0), 1000, "long");
  sim.Barrier();
  bool saw_wait = false;
  for (const TraceEvent& e : sim.trace().events()) {
    if (e.kind == ActivityKind::kWait && e.node == "executor2") {
      saw_wait = true;
    }
  }
  EXPECT_TRUE(saw_wait);
}

TEST(SimClusterTest, JitterIsDeterministic) {
  ClusterConfig config = ClusterConfig::Cluster2(4);
  SimCluster a(config);
  SimCluster b(config);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.NextJitter(), b.NextJitter());
  }
}

TEST(SimClusterTest, ZeroSigmaMeansNoJitter) {
  SimCluster sim(NoJitterConfig(1));
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(sim.NextJitter(), 1.0);
}

TEST(SimClusterTest, Cluster2HasHighVariance) {
  SimCluster sim(ClusterConfig::Cluster2(4));
  double min_j = 1e9;
  double max_j = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double j = sim.NextJitter();
    min_j = std::min(min_j, j);
    max_j = std::max(max_j, j);
  }
  EXPECT_GT(max_j / min_j, 2.0);  // heterogeneous machines
}

TEST(TraceLogTest, RecordsAndDropsEmptyIntervals) {
  TraceLog log;
  log.Record("n", 0.0, 1.0, ActivityKind::kCompute, "x");
  log.Record("n", 1.0, 1.0, ActivityKind::kCompute, "empty");
  log.Record("n", 2.0, 1.0, ActivityKind::kCompute, "negative");
  EXPECT_EQ(log.events().size(), 1u);
  EXPECT_DOUBLE_EQ(log.EndTime(), 1.0);
}

TEST(TraceLogTest, ActivityCodes) {
  EXPECT_EQ(ActivityCode(ActivityKind::kCompute), 'C');
  EXPECT_EQ(ActivityCode(ActivityKind::kCommunicate), 'M');
  EXPECT_EQ(ActivityCode(ActivityKind::kAggregate), 'A');
  EXPECT_EQ(ActivityCode(ActivityKind::kUpdate), 'U');
  EXPECT_EQ(ActivityCode(ActivityKind::kWait), '.');
}

TEST(TraceLogTest, AsciiGanttContainsNodesAndLegend) {
  TraceLog log;
  log.Record("executor1", 0.0, 5.0, ActivityKind::kCompute, "c");
  log.Record("driver", 5.0, 10.0, ActivityKind::kUpdate, "u");
  const std::string gantt = log.RenderAscii(40);
  EXPECT_NE(gantt.find("executor1"), std::string::npos);
  EXPECT_NE(gantt.find("driver"), std::string::npos);
  EXPECT_NE(gantt.find("legend"), std::string::npos);
  EXPECT_NE(gantt.find('C'), std::string::npos);
  EXPECT_NE(gantt.find('U'), std::string::npos);
}

TEST(TraceLogTest, EmptyGanttIsEmpty) {
  TraceLog log;
  EXPECT_EQ(log.RenderAscii(40), "");
}

TEST(TraceLogTest, CsvRoundTrip) {
  TraceLog log;
  log.Record("n1", 0.5, 1.5, ActivityKind::kCommunicate, "send");
  const std::string path = testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(log.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "node,start,end,kind,detail");
  EXPECT_EQ(row, "n1,0.5,1.5,M,send");
}

TEST(TraceLogTest, CsvQuotesDetailPerRfc4180) {
  TraceLog log;
  log.Record("n1", 0.0, 1.0, ActivityKind::kCompute,
             "retry 2, cause=\"timeout\"");
  const std::string path = testing::TempDir() + "/trace_quoted.csv";
  ASSERT_TRUE(log.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string header;
  std::string row;
  std::getline(in, header);
  std::getline(in, row);
  // The comma-and-quote detail must come out as one quoted field with
  // doubled inner quotes, not as extra columns.
  EXPECT_EQ(row, "n1,0,1,C,\"retry 2, cause=\"\"timeout\"\"\"");
}

TEST(TraceLogTest, TinyWidthGanttDoesNotUnderflow) {
  TraceLog log;
  log.Record("n", 0.0, 1.0, ActivityKind::kCompute, "c");
  // width=4 < 8 used to underflow the size_t axis padding and attempt
  // a ~2^64-char string.
  const std::string gantt = log.RenderAscii(4);
  EXPECT_LT(gantt.size(), 1000u);
  EXPECT_NE(gantt.find("legend"), std::string::npos);
}

TEST(TraceLogTest, ActivityNames) {
  EXPECT_STREQ(ActivityName(ActivityKind::kCompute), "compute");
  EXPECT_STREQ(ActivityName(ActivityKind::kCommunicate), "communicate");
  EXPECT_STREQ(ActivityName(ActivityKind::kRecompute), "recompute");
}

TEST(TraceLogTest, StageMarks) {
  TraceLog log;
  log.MarkStage(1.0, "s1");
  log.MarkStage(2.0, "s2");
  ASSERT_EQ(log.stages().size(), 2u);
  EXPECT_EQ(log.stages()[0].second, "s1");
  EXPECT_DOUBLE_EQ(log.stages()[1].first, 2.0);
}

TEST(SimClusterTest, NoFailuresWhenProbabilityZero) {
  SimCluster sim(NoJitterConfig(1));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(sim.NextTaskFailure());
}

TEST(SimClusterTest, FailureRateRoughlyMatchesProbability) {
  ClusterConfig config = NoJitterConfig(1);
  config.task_failure_prob = 0.2;
  SimCluster sim(config);
  int failures = 0;
  for (int i = 0; i < 5000; ++i) {
    if (sim.NextTaskFailure()) ++failures;
  }
  EXPECT_NEAR(failures / 5000.0, 0.2, 0.03);
}

TEST(ClusterConfigTest, PresetsAreSane) {
  const ClusterConfig c1 = ClusterConfig::Cluster1();
  EXPECT_EQ(c1.num_workers, 8u);
  EXPECT_GT(c1.bandwidth_bytes_per_sec, 0.0);
  const ClusterConfig c2 = ClusterConfig::Cluster2(64);
  EXPECT_EQ(c2.num_workers, 64u);
  // Cluster 2 is 10x faster network but much more heterogeneous.
  EXPECT_GT(c2.bandwidth_bytes_per_sec, c1.bandwidth_bytes_per_sec);
  EXPECT_GT(c2.straggler_sigma, c1.straggler_sigma);
}

TEST(ClusterConfigTest, FigureAndBenchmarkClustersPass) {
  // Cluster 1 at 8 executors runs Figs. 3-5, the ablations and the
  // fig4/fig5 benchmark workloads; Cluster 2 runs Fig. 6 at 32, 64 and
  // 128 machines (fig6-wx128).
  std::vector<ClusterConfig> clusters = {
      ClusterConfig::Cluster1(), ClusterConfig::Cluster1(8),
      ClusterConfig::Cluster2(8), ClusterConfig::Cluster2(32),
      ClusterConfig::Cluster2(64), ClusterConfig::Cluster2(128)};
  for (const ClusterConfig& c : clusters) {
    EXPECT_TRUE(ValidateClusterConfig(c).ok()) << c.num_workers;
  }
}

/// Expects `config` to be rejected with a message naming `field`.
void ExpectRejected(const ClusterConfig& config, const std::string& field) {
  const Status status = ValidateClusterConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
  EXPECT_NE(status.message().find(field), std::string::npos)
      << status.message();
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ClusterConfigTest, RejectsNoWorkers) {
  ExpectRejected(ClusterConfig::Cluster1(0), "num_workers");
}

TEST(ClusterConfigTest, RejectsComputeSpeedNotFiniteAndPositive) {
  for (double speed : {0.0, -2e4, kInf, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.compute_speed = speed;
    ExpectRejected(config, "compute_speed");
  }
}

TEST(ClusterConfigTest, RejectsBandwidthNotFiniteAndPositive) {
  for (double bandwidth : {0.0, -125e3, kInf, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.bandwidth_bytes_per_sec = bandwidth;
    ExpectRejected(config, "bandwidth_bytes_per_sec");
  }
}

TEST(ClusterConfigTest, RejectsNegativeLatency) {
  for (double latency : {-1e-3, -kInf, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.latency_sec = latency;
    ExpectRejected(config, "latency_sec");
  }
  ClusterConfig zero = ClusterConfig::Cluster1(8);
  zero.latency_sec = 0.0;
  EXPECT_TRUE(ValidateClusterConfig(zero).ok());
}

TEST(ClusterConfigTest, RejectsTaskFailureProbOutsideHalfOpenUnitInterval) {
  // A failed task is retried until a draw succeeds: at 1 no draw ever
  // does, and RunOnWorkers would loop forever.
  for (double prob : {-0.25, 1.0, 1.5, kInf, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.task_failure_prob = prob;
    ExpectRejected(config, "task_failure_prob");
  }
  for (double prob : {0.0, 0.05, 0.999}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.task_failure_prob = prob;
    EXPECT_TRUE(ValidateClusterConfig(config).ok()) << prob;
  }
}

TEST(ClusterConfigTest, RejectsJitterAndRestartTimesNotFiniteAndNonNegative) {
  for (double bad : {-1.0, kInf, kNaN}) {
    ClusterConfig sigma = ClusterConfig::Cluster1(8);
    sigma.straggler_sigma = bad;
    ExpectRejected(sigma, "straggler_sigma");
    ClusterConfig task = ClusterConfig::Cluster1(8);
    task.task_restart_seconds = bad;
    ExpectRejected(task, "task_restart_seconds");
    ClusterConfig executor = ClusterConfig::Cluster1(8);
    executor.faults.executor_restart_seconds = bad;
    ExpectRejected(executor, "executor_restart_seconds");
  }
  ClusterConfig zero = ClusterConfig::Cluster1(8);
  zero.straggler_sigma = 0.0;
  zero.task_restart_seconds = 0.0;
  zero.faults.executor_restart_seconds = 0.0;
  EXPECT_TRUE(ValidateClusterConfig(zero).ok());
}

TEST(ClusterConfigTest, RejectsCrashAndDropProbabilitiesOutsideUnitInterval) {
  for (double prob : {-0.5, 1.5, kNaN}) {
    ClusterConfig crash = ClusterConfig::Cluster1(8);
    crash.faults.worker_crash_prob = prob;
    ExpectRejected(crash, "worker_crash_prob");
    ClusterConfig drop = ClusterConfig::Cluster1(8);
    drop.faults.message_drops = {{prob, 0.0, 1.0}};
    ExpectRejected(drop, "message_drops");
  }
  ClusterConfig certain = ClusterConfig::Cluster1(8);
  certain.faults.worker_crash_prob = 1.0;
  certain.faults.message_drops = {{1.0, 0.0, 0.05}};
  EXPECT_TRUE(ValidateClusterConfig(certain).ok());
}

TEST(ClusterConfigTest, RejectsBadFaultWindows) {
  for (double factor : {0.0, -4.0, kInf, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.faults.degraded_links = {{factor, 0.0, 1.0}};
    ExpectRejected(config, "degraded_links");
  }
  ClusterConfig link = ClusterConfig::Cluster1(8);
  link.faults.degraded_links = {{4.0, 0.0, 1.0}, {2.0, 3.0, 2.0}};
  ExpectRejected(link, "degraded_links[1]");
  ClusterConfig drop = ClusterConfig::Cluster1(8);
  drop.faults.message_drops = {{0.5, 1.0, kNaN}};
  ExpectRejected(drop, "message_drops[0]");
  // An empty window is allowed; it never fires.
  ClusterConfig empty = ClusterConfig::Cluster1(8);
  empty.faults.degraded_links = {{4.0, 1.0, 1.0}};
  empty.faults.message_drops = {{0.5, 2.0, 2.0}};
  EXPECT_TRUE(ValidateClusterConfig(empty).ok());
}

TEST(ClusterConfigTest, RejectsBadChurnRatesAndDetectorTimes) {
  for (double rate : {-0.1, kInf, kNaN}) {
    ClusterConfig leave = ClusterConfig::Cluster1(8);
    leave.churn.leave_rate_per_sec = rate;
    ExpectRejected(leave, "leave_rate_per_sec");
    ClusterConfig join = ClusterConfig::Cluster1(8);
    join.churn.join_rate_per_sec = rate;
    ExpectRejected(join, "join_rate_per_sec");
  }
  for (double heartbeat : {0.0, -0.5, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.churn.heartbeat_interval_sec = heartbeat;
    ExpectRejected(config, "heartbeat_interval_sec");
  }
  for (double timeout : {-1.0, kNaN}) {
    ClusterConfig config = ClusterConfig::Cluster1(8);
    config.churn.suspicion_timeout_sec = timeout;
    ExpectRejected(config, "suspicion_timeout_sec");
  }
  ClusterConfig immediate = ClusterConfig::Cluster1(8);
  immediate.churn.suspicion_timeout_sec = 0.0;
  EXPECT_TRUE(ValidateClusterConfig(immediate).ok());
}

TEST(ClusterConfigDeathTest, SimClusterChecksItsConfig) {
  ClusterConfig config = ClusterConfig::Cluster1(8);
  config.task_failure_prob = 1.0;
  EXPECT_DEATH(SimCluster{config}, "task_failure_prob");
  // A bad churn plan fails with the validation message, before the
  // membership tracker built from it runs its own checks.
  ClusterConfig churn = ClusterConfig::Cluster1(8);
  churn.churn.heartbeat_interval_sec = 0.0;
  EXPECT_DEATH(SimCluster{churn}, "heartbeat_interval_sec must be > 0");
}

}  // namespace
}  // namespace mllibstar
