#include "engine/spark_cluster.h"

#include <gtest/gtest.h>

#include "sim/network.h"

namespace mllibstar {
namespace {

ClusterConfig TestConfig(size_t workers) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;  // deterministic timing for assertions
  return config;
}

/// A task result that charges only `units` of work.
WorkerStats Work(uint64_t units) {
  WorkerStats stats;
  stats.work_units = units;
  return stats;
}

TEST(SparkClusterTest, RunOnWorkersChargesReturnedWork) {
  SparkCluster spark(TestConfig(3));
  const double speed = spark.sim().config().compute_speed;
  spark.RunOnWorkers("w", [&](size_t r) {
    return Work(static_cast<uint64_t>(speed) * (r + 1));
  });
  EXPECT_NEAR(spark.sim().worker(0).clock, 1.0, 1e-9);
  EXPECT_NEAR(spark.sim().worker(1).clock, 2.0, 1e-9);
  EXPECT_NEAR(spark.sim().worker(2).clock, 3.0, 1e-9);
}

TEST(SparkClusterTest, RunOnWorkersExecutesHostSide) {
  SparkCluster spark(TestConfig(4));
  std::vector<bool> ran(4, false);
  spark.RunOnWorkers("mark", [&](size_t r) {
    ran[r] = true;
    return Work(0);
  });
  for (bool r : ran) EXPECT_TRUE(r);
}

TEST(SparkClusterTest, BroadcastSequentialSerializesAtDriver) {
  SparkCluster spark(TestConfig(4));
  const NetworkModel& net = spark.network();
  const uint64_t bytes = 100000;
  spark.Broadcast(bytes, "bcast");
  // Driver outbound pushed 4 copies.
  EXPECT_NEAR(spark.sim().driver().clock,
              net.SerializedTransferTime(bytes, 4), 1e-9);
  // The last worker receives after all 4 payloads.
  EXPECT_NEAR(spark.sim().worker(3).clock,
              net.latency() + 4.0 * bytes / net.bandwidth(), 1e-9);
  // The first worker receives earlier than the last: the bottleneck
  // grows linearly with k.
  EXPECT_LT(spark.sim().worker(0).clock, spark.sim().worker(3).clock);
}

TEST(SparkClusterTest, TreeAggregateEndsAtDriver) {
  SparkCluster spark(TestConfig(8));
  spark.TreeAggregate(1000, 2, 100, "agg");
  EXPECT_GT(spark.sim().driver().clock, 0.0);
  // Non-aggregator workers only paid their send.
  EXPECT_GT(spark.sim().worker(0).clock, 0.0);  // aggregator worked more
  EXPECT_GT(spark.sim().worker(0).clock, spark.sim().worker(7).clock);
}

TEST(SparkClusterTest, MoreAggregatorsReduceDriverWaitForLargeK) {
  const uint64_t bytes = 1000000;
  SparkCluster one(TestConfig(16));
  one.TreeAggregate(bytes, 1, 0, "agg");
  SparkCluster four(TestConfig(16));
  four.TreeAggregate(bytes, 4, 0, "agg");
  // With one aggregator, 15 payloads serialize into one executor then
  // one more hop; with four, groups run in parallel.
  EXPECT_LT(four.Barrier(), one.Barrier());
}

TEST(SparkClusterTest, ShuffleAdvancesAllWorkersEqually) {
  SparkCluster spark(TestConfig(4));
  spark.ShuffleAllToAll(1000, "sh");
  const SimTime t0 = spark.sim().worker(0).clock;
  EXPECT_GT(t0, 0.0);
  for (size_t r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(spark.sim().worker(r).clock, t0);
  }
  // Driver is not involved.
  EXPECT_DOUBLE_EQ(spark.sim().driver().clock, 0.0);
}

TEST(SparkClusterTest, ShuffleWithOneWorkerIsFree) {
  SparkCluster spark(TestConfig(1));
  spark.ShuffleAllToAll(1000, "sh");
  EXPECT_DOUBLE_EQ(spark.sim().worker(0).clock, 0.0);
  EXPECT_EQ(spark.total_bytes(), 0u);
}

TEST(SparkClusterTest, ByteAccountingMatchesPaper) {
  // Paper claim (§IV-B2): with k executors and model size m, both the
  // driver-centric pattern and the two-phase shuffle move 2km bytes
  // per communication step.
  const size_t k = 8;
  const size_t m = 54686;  // kdd12-shaped model, in doubles
  const uint64_t model_bytes = NetworkModel::DenseBytes(m);

  // Driver-centric: broadcast + treeAggregate.
  SparkCluster driver_centric(TestConfig(k));
  driver_centric.Broadcast(model_bytes, "b");
  driver_centric.TreeAggregate(model_bytes, 2, 0, "agg");
  const uint64_t driver_bytes = driver_centric.total_bytes();

  // MLlib*: two all-to-all shuffles of m/k-sized pieces.
  SparkCluster allreduce(TestConfig(k));
  const uint64_t piece = NetworkModel::DenseBytes((m + k - 1) / k);
  allreduce.ShuffleAllToAll(piece, "rs");
  allreduce.ShuffleAllToAll(piece, "ag");
  const uint64_t allreduce_bytes = allreduce.total_bytes();

  EXPECT_EQ(driver_bytes, 2 * k * model_bytes);
  // Shuffle moves (k-1)/k of the model per phase per worker; within
  // rounding, also ~2km.
  EXPECT_NEAR(static_cast<double>(allreduce_bytes),
              2.0 * (k - 1) * model_bytes, model_bytes);
  // ...but MLlib* finishes the step much faster (driver link removed).
  EXPECT_LT(allreduce.Barrier(), driver_centric.Barrier());
}

TEST(SparkClusterTest, TaskFailuresExtendTheStage) {
  ClusterConfig failing = TestConfig(2);
  failing.task_failure_prob = 0.3;
  failing.task_restart_seconds = 0.5;
  SparkCluster with(failing);
  SparkCluster without(TestConfig(2));
  int host_executions_with = 0;
  const auto task = [&](size_t) { return Work(100000); };
  for (int step = 0; step < 20; ++step) {
    with.RunOnWorkers("w", [&](size_t r) {
      ++host_executions_with;
      return task(r);
    });
    without.RunOnWorkers("w", task);
    with.Barrier();
    without.Barrier();
  }
  // Host-side the function body ran exactly once per task (the retry
  // only recomputes virtual time)...
  EXPECT_EQ(host_executions_with, 40);
  // ...but the failing cluster spent strictly more virtual time.
  EXPECT_GT(with.Now(), without.Now());
  bool saw_retry = false;
  for (const TraceEvent& e : with.trace().events()) {
    if (e.detail.find("task-retry") != std::string::npos) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
}

TEST(SparkClusterTest, StagesAreMarked) {
  SparkCluster spark(TestConfig(2));
  spark.BeginStage("s0");
  spark.RunOnWorkers("w", [](size_t) { return Work(1000); });
  spark.BeginStage("s1");
  ASSERT_EQ(spark.trace().stages().size(), 2u);
  EXPECT_LT(spark.trace().stages()[0].first,
            spark.trace().stages()[1].first);
}

}  // namespace
}  // namespace mllibstar
