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
  ps.ApplyDelta(DenseVector(std::vector<double>{0.5, -2.0}), 1.0);
  expect_fresh({1.5, 0.0});
  ps.ResetModel(DenseVector(std::vector<double>{3.0, 4.0}));
  expect_fresh({3.0, 4.0});
  // The first snapshot outlives the model it was taken from.
  EXPECT_EQ(first->values(), (std::vector<double>{0.0, 0.0}));
}

// ------------------------------------------------------ transfer rule
// PsContext::TimeTransfer in closed form. A request of T bytes sent at
// t over s shards: each shard serves a ceil(T / s) slice from
// max(t + L, its clock) for slice / B, and a push then charges the
// slice's apply work, (slice / 8 / 16) / speed (16 server cores). The
// request is done at max(latest shard end + L, t + L + T / B).

constexpr double kLatency = 2e-3;
constexpr double kBandwidth = 1e5;
constexpr double kSpeed = 1e4;

ClusterConfig TransferCluster(size_t workers, size_t shards) {
  ClusterConfig config = PsClusterConfig(workers, shards);
  config.latency_sec = kLatency;
  config.bandwidth_bytes_per_sec = kBandwidth;
  config.compute_speed = kSpeed;
  return config;
}

void ExpectClose(double actual, double expected) {
  EXPECT_NEAR(actual, expected, 1e-12 * expected);
}

// One idle request: every shard is free, so the slices land at
// t + L + slice / B, and the worker's link, which carries all T bytes,
// finishes last.
TEST(PsTransferTest, IdlePullIsPacedByTheWorkerLink) {
  SimCluster sim(TransferCluster(1, 4));
  PsContext ps(&sim, 1000, DefaultPs(4));
  const double t = 0.25;
  sim.worker(0).clock = t;
  const double bytes = 8000.0;
  const double slice = 2000.0;

  const SimTime done = ps.TimePull(&sim.worker(0));

  for (size_t s = 0; s < 4; ++s) {
    ExpectClose(sim.server(s).clock, t + kLatency + slice / kBandwidth);
  }
  ExpectClose(done, t + kLatency + bytes / kBandwidth);
  EXPECT_EQ(sim.worker(0).clock, done);
}

// Three workers pull at t = 0 over two shards. The first is paced by
// its own link; each later one waits for the slices queued ahead of it
// on the shard links, which then finish last.
TEST(PsTransferTest, QueuedPullsArePacedByTheShardLinks) {
  SimCluster sim(TransferCluster(3, 2));
  PsContext ps(&sim, 1000, DefaultPs(2));
  const double bytes = 8000.0;
  const double slice = 4000.0;

  const SimTime first = ps.TimePull(&sim.worker(0));
  const SimTime second = ps.TimePull(&sim.worker(1));
  const SimTime third = ps.TimePull(&sim.worker(2));

  ExpectClose(first, kLatency + bytes / kBandwidth);
  ExpectClose(second, kLatency + 2.0 * slice / kBandwidth + kLatency);
  ExpectClose(third, kLatency + 3.0 * slice / kBandwidth + kLatency);
  for (size_t s = 0; s < 2; ++s) {
    ExpectClose(sim.server(s).clock, kLatency + 3.0 * slice / kBandwidth);
  }
}

// A push also applies its slice on the shard; with one shard that
// apply work and the return latency put the shard past the worker's
// link.
TEST(PsTransferTest, PushAddsTheShardsApplyWork) {
  SimCluster sim(TransferCluster(1, 1));
  PsContext ps(&sim, 1000, DefaultPs(1));
  const uint64_t bytes = 8000;
  const double apply = static_cast<double>(bytes / 8 / 16) / kSpeed;

  const SimTime done = ps.TimePush(&sim.worker(0), bytes);

  const double shard_end =
      kLatency + static_cast<double>(bytes) / kBandwidth + apply;
  ExpectClose(sim.server(0).clock, shard_end);
  ExpectClose(done, shard_end + kLatency);
}

// Pulls tally the dense model, pushes the bytes they were given; an
// uneven split serves ceil(T / s) bytes per shard. Requests are never
// retried.
TEST(PsTransferTest, TalliesBytesByPathAndCeilsTheSlices) {
  SimCluster sim(TransferCluster(1, 2));
  PsContext ps(&sim, 1001, DefaultPs(2));
  ps.TimePull(&sim.worker(0));
  const SimTime pulled = sim.worker(0).clock;
  const SimTime shard_free = sim.server(0).clock;
  const SimTime done = ps.TimePush(&sim.worker(0), 123);

  EXPECT_EQ(ps.wire().pull, 8008u);
  EXPECT_EQ(ps.wire().push, 123u);
  EXPECT_EQ(ps.wire().retries, 0u);
  EXPECT_EQ(ps.total_bytes(), 8131u);
  ExpectClose(shard_free, kLatency + 4004.0 / kBandwidth);
  // 62 bytes per shard; 62 / 8 / 16 rounds the apply work down to 0.
  // So small a push is paced by the latency both ways.
  ExpectClose(sim.server(1).clock, pulled + kLatency + 62.0 / kBandwidth);
  ExpectClose(done, pulled + kLatency + 62.0 / kBandwidth + kLatency);
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
