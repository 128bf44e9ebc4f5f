#include "ps/parameter_server.h"

#include <gtest/gtest.h>

#include "sim/network.h"

namespace mllibstar {
namespace {

ClusterConfig PsClusterConfig(size_t workers, size_t shards) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;
  config.num_servers = shards;
  return config;
}

PsConfig DefaultPs(size_t shards) {
  PsConfig ps;
  ps.num_shards = shards;
  return ps;
}

TEST(PsContextTest, ModelStartsAtZero) {
  SimCluster sim(PsClusterConfig(2, 2));
  PsContext ps(&sim, 10, DefaultPs(2));
  EXPECT_EQ(ps.dim(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(ps.model()[i], 0.0);
}

TEST(PsContextTest, PullAdvancesWorkerAndShards) {
  SimCluster sim(PsClusterConfig(2, 2));
  PsContext ps(&sim, 1000, DefaultPs(2));
  const SimTime done = ps.TimePull(&sim.worker(0));
  EXPECT_GT(done, 0.0);
  EXPECT_DOUBLE_EQ(sim.worker(0).clock, done);
  EXPECT_GT(sim.server(0).clock, 0.0);
  EXPECT_GT(sim.server(1).clock, 0.0);
  EXPECT_DOUBLE_EQ(sim.worker(1).clock, 0.0);
}

TEST(PsContextTest, ConcurrentPullsQueueAtShards) {
  SimCluster sim(PsClusterConfig(2, 1));
  PsConfig ps_config = DefaultPs(1);
  PsContext ps(&sim, 100000, ps_config);
  const SimTime first = ps.TimePull(&sim.worker(0));
  const SimTime second = ps.TimePull(&sim.worker(1));
  // The single shard's link serializes the two transfers.
  EXPECT_GT(second, first);
}

TEST(PsContextTest, MoreShardsServeFaster) {
  // Two workers pulling a large model: with 4 shards the per-shard
  // slices are smaller and queueing shrinks.
  SimCluster sim1(PsClusterConfig(4, 1));
  PsContext one(&sim1, 400000, DefaultPs(1));
  SimTime one_done = 0.0;
  for (size_t r = 0; r < 4; ++r) {
    one_done = std::max(one_done, one.TimePull(&sim1.worker(r)));
  }

  SimCluster sim4(PsClusterConfig(4, 4));
  PsContext four(&sim4, 400000, DefaultPs(4));
  SimTime four_done = 0.0;
  for (size_t r = 0; r < 4; ++r) {
    four_done = std::max(four_done, four.TimePull(&sim4.worker(r)));
  }
  EXPECT_LT(four_done, one_done);
}

TEST(PsContextTest, PushCountsBytes) {
  SimCluster sim(PsClusterConfig(1, 2));
  PsContext ps(&sim, 1000, DefaultPs(2));
  EXPECT_EQ(ps.total_bytes(), 0u);
  ps.TimePull(&sim.worker(0));
  ps.TimePush(&sim.worker(0), NetworkModel::DenseBytes(ps.dim()));
  EXPECT_EQ(ps.total_bytes(), 2u * 8u * 1000u);
}

TEST(PsContextTest, ApplyDeltaSums) {
  SimCluster sim(PsClusterConfig(1, 1));
  PsContext ps(&sim, 3, DefaultPs(1));
  DenseVector delta(std::vector<double>{2.0, 0.0, -4.0});
  ps.ApplyDelta(delta, 0.5);
  ps.ApplyDelta(delta, 0.5);
  EXPECT_DOUBLE_EQ(ps.model()[0], 2.0);
  EXPECT_DOUBLE_EQ(ps.model()[2], -4.0);
}

// Pulls at one model version share a snapshot; every mutator moves the
// version, so no pull can see a stale model.
TEST(PsContextTest, PullSnapshotsFollowModelVersion) {
  SimCluster sim(PsClusterConfig(1, 1));
  PsContext ps(&sim, 2, DefaultPs(1));
  const auto first = ps.PullSnapshot();
  EXPECT_EQ(ps.PullSnapshot(), first);

  auto previous = first;
  auto expect_fresh = [&](std::vector<double> model) {
    const auto snap = ps.PullSnapshot();
    EXPECT_NE(snap, previous);
    EXPECT_EQ(snap->values(), model);
    EXPECT_EQ(ps.PullSnapshot(), snap);
    previous = snap;
  };
  ps.ApplyDelta(DenseVector(std::vector<double>{1.0, 2.0}), 1.0);
  expect_fresh({1.0, 2.0});
  ps.ApplyRoundAverage(DenseVector(std::vector<double>{0.5, -2.0}));
  expect_fresh({1.5, 0.0});
  ps.ResetModel(DenseVector(std::vector<double>{3.0, 4.0}));
  expect_fresh({3.0, 4.0});
  // The first snapshot outlives the model it was taken from.
  EXPECT_EQ(first->values(), (std::vector<double>{0.0, 0.0}));
}

// ----------------------------------------------------- consistency model
// One SSP bound covers all three schemes: staleness 0 is BSP, and a
// bound the round budget never reaches is ASP.

TEST(ConsistencyTest, AspNeverWaitsOnOthers) {
  // A three-round budget (rounds 0..2): staleness 3 gates none of them,
  // so worker 0 starts its last round as soon as its own round 1 ends.
  std::vector<std::vector<SimTime>> finish = {{1.0, 2.0}, {10.0, 20.0}};
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(3, 0, 2, finish), 2.0);
}

TEST(ConsistencyTest, BspWaitsForSlowestPreviousRound) {
  std::vector<std::vector<SimTime>> finish = {{1.0}, {5.0}};
  // Worker 0 starting round 1 must wait for worker 1's round 0.
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(0, 0, 1, finish), 5.0);
}

TEST(ConsistencyTest, FirstRoundStartsImmediately) {
  std::vector<std::vector<SimTime>> finish = {{}, {}};
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(0, 0, 0, finish), 0.0);
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(2, 1, 0, finish), 0.0);
}

TEST(ConsistencyTest, SspAllowsBoundedLead) {
  // Worker 0 finished rounds at t=1,2,3; worker 1 only round 0 at t=10.
  std::vector<std::vector<SimTime>> finish = {{1.0, 2.0, 3.0}, {10.0}};
  // With staleness 2, worker 0 starting round 3 waits for everyone's
  // round 0 only: max(own 3.0, other 10.0) = 10.
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(2, 0, 3, finish), 10.0);
  // Starting round 2 needs everyone's round -1: no constraint.
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(2, 0, 2, finish), 2.0);
}

TEST(ConsistencyTest, SspZeroStalenessEqualsBsp) {
  // Staleness 0 is a barrier every round: round r starts once every
  // worker, the slowest included, has finished round r - 1.
  std::vector<std::vector<SimTime>> finish = {{1.0, 4.0}, {3.0, 6.0}};
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(0, 0, 0, finish), 0.0);
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(0, 0, 1, finish), 3.0);
  EXPECT_DOUBLE_EQ(ConsistencyStartTime(0, 0, 2, finish), 6.0);
}

}  // namespace
}  // namespace mllibstar
