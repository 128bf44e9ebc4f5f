// Elastic membership: workers join/leave mid-training behind a
// virtual-time heartbeat failure detector. Invariants pinned here:
//   1. Churn costs virtual time, never numerics given a fixed final
//      membership trace — a Spark run with leaves, rejoins and joins
//      finishes with the exact same weights as a churn-free run.
//   2. A fixed seed plus a fixed ChurnPlan reproduces byte-identical
//      results, across repeated runs and across host_threads values;
//      a plan that never fires is byte-identical to no plan at all.
//   3. Checkpoint/resume is bit-identical mid-churn: a run resumed
//      between two membership transitions finishes with EXPECT_EQ
//      weights against the uninterrupted run, for all seven systems.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <tuple>

#include "data/synthetic.h"
#include "sim/membership.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

Dataset ChurnData() {
  SyntheticSpec spec;
  spec.name = "churn";
  spec.num_instances = 400;
  spec.num_features = 80;
  spec.avg_nnz = 10;
  spec.seed = 91;
  return GenerateSynthetic(spec);
}

ClusterConfig BaseCluster(size_t workers = 6) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.08;
  return config;
}

TrainerConfig BaseConfig() {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.3;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 8;
  config.seed = 17;
  return config;
}

// A mid-run churn script: two leaves early, two joins shortly after,
// rejoins later. The failure detector runs on a fast heartbeat so the
// core transitions land inside even the shortest (PS) 8-step runs
// here (~0.22 virtual seconds); the late leave/rejoin pair only fires
// in the longer Spark runs, exercising post-checkpoint churn there.
ChurnPlan MidRunChurn() {
  ChurnPlan plan;
  plan.heartbeat_interval_sec = 0.01;
  plan.suspicion_timeout_sec = 0.02;
  plan.initial_active = 4;              // workers 4 and 5 start pending
  plan.leaves = {{0, 0.02}, {1, 0.05}, {2, 0.35}};
  plan.joins = {{4, 0.08}, {5, 0.10}};
  plan.rejoins = {{0, 0.14}, {1, 0.45}};
  return plan;
}

void ExpectSameWeights(const DenseVector& a, const DenseVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "coordinate " << i;
  }
}

// ---------------------------------------------------------------------
// Tracker units: heartbeat math, ordering, Poisson determinism,
// checkpoint words.

TEST(MembershipTrackerTest, EmptyPlanIsDisabledAndInert) {
  MembershipTracker tracker(ChurnPlan{}, 4, 2);
  EXPECT_FALSE(tracker.enabled());
  EXPECT_EQ(tracker.num_active(), 4u);
  EXPECT_TRUE(tracker.AdvanceTo(1e9).empty());
  EXPECT_TRUE(std::isinf(tracker.NextEventTime()));
  for (size_t w = 0; w < 4; ++w) EXPECT_TRUE(tracker.IsActive(w));
}

TEST(MembershipTrackerTest, DetectionAlignsToHeartbeatTicks) {
  ChurnPlan plan;
  plan.heartbeat_interval_sec = 0.5;
  plan.suspicion_timeout_sec = 2.0;
  plan.initial_active = 3;  // worker 3 pending
  plan.leaves = {{0, 0.3}};
  plan.joins = {{3, 0.7}};
  MembershipTracker tracker(plan, 4, 2);
  ASSERT_TRUE(tracker.enabled());
  EXPECT_EQ(tracker.num_active(), 3u);

  const std::vector<MembershipEvent> events = tracker.AdvanceTo(10.0);
  ASSERT_EQ(events.size(), 2u);
  // The join announces at 0.7 and is admitted at the next tick, 1.0 —
  // before the leave's suspicion window closes.
  EXPECT_EQ(events[0].kind, MembershipEvent::Kind::kJoin);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_DOUBLE_EQ(events[0].detected_at, 1.0);
  // The leave at 0.3 misses its first heartbeat at 0.5 (suspicion
  // opens) and is evicted at the first tick with >= 2.0s of silence:
  // ceil((0.3 + 2.0) / 0.5) * 0.5 = 2.5.
  EXPECT_EQ(events[1].kind, MembershipEvent::Kind::kLeave);
  EXPECT_EQ(events[1].node, 0u);
  EXPECT_DOUBLE_EQ(events[1].suspect_at, 0.5);
  EXPECT_DOUBLE_EQ(events[1].detected_at, 2.5);

  EXPECT_FALSE(tracker.IsActive(0));
  EXPECT_TRUE(tracker.IsActive(3));
  EXPECT_EQ(tracker.num_active(), 3u);
  EXPECT_EQ(tracker.stats().joins, 1u);
  EXPECT_EQ(tracker.stats().leaves, 1u);
  EXPECT_EQ(tracker.stats().suspicions, 1u);
}

TEST(MembershipTrackerTest, AdvanceGranularityDoesNotChangeEvents) {
  ChurnPlan plan;
  plan.heartbeat_interval_sec = 0.05;
  plan.suspicion_timeout_sec = 0.1;
  plan.leave_rate_per_sec = 0.8;
  plan.join_rate_per_sec = 0.8;
  plan.min_active_workers = 2;
  MembershipTracker coarse(plan, 6, 2);
  MembershipTracker fine(plan, 6, 2);

  std::vector<MembershipEvent> a = coarse.AdvanceTo(20.0);
  std::vector<MembershipEvent> b;
  for (int i = 1; i <= 2000; ++i) {
    for (const MembershipEvent& ev : fine.AdvanceTo(0.01 * i)) {
      b.push_back(ev);
    }
  }
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "event " << i;
    EXPECT_EQ(a[i].node, b[i].node) << "event " << i;
    EXPECT_EQ(a[i].at, b[i].at) << "event " << i;
    EXPECT_EQ(a[i].detected_at, b[i].detected_at) << "event " << i;
  }
  EXPECT_EQ(coarse.num_active(), fine.num_active());

  // Poisson departures never shrink the fleet below the floor.
  size_t active = 6;
  for (const MembershipEvent& ev : a) {
    if (ev.kind == MembershipEvent::Kind::kLeave) --active;
    if (ev.kind == MembershipEvent::Kind::kJoin ||
        ev.kind == MembershipEvent::Kind::kRejoin) {
      ++active;
    }
    EXPECT_GE(active, plan.min_active_workers);
  }
}

TEST(MembershipTrackerTest, SaveWordsRoundTripContinuesExactly) {
  ChurnPlan plan;
  plan.heartbeat_interval_sec = 0.05;
  plan.suspicion_timeout_sec = 0.1;
  plan.leave_rate_per_sec = 0.6;
  plan.join_rate_per_sec = 0.6;
  plan.min_active_workers = 2;
  plan.leaves = {{2, 4.0}};
  plan.rejoins = {{2, 9.0}};

  MembershipTracker full(plan, 6, 2);
  MembershipTracker half(plan, 6, 2);
  (void)full.AdvanceTo(6.0);
  (void)half.AdvanceTo(6.0);

  MembershipTracker restored(plan, 6, 2);
  restored.RestoreWords(half.SaveWords());
  for (size_t w = 0; w < 6; ++w) {
    EXPECT_EQ(restored.IsActive(w), half.IsActive(w)) << "worker " << w;
  }

  const std::vector<MembershipEvent> expect = full.AdvanceTo(20.0);
  const std::vector<MembershipEvent> got = restored.AdvanceTo(20.0);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(expect[i].kind, got[i].kind) << "event " << i;
    EXPECT_EQ(expect[i].node, got[i].node) << "event " << i;
    EXPECT_EQ(expect[i].detected_at, got[i].detected_at) << "event " << i;
  }
  EXPECT_EQ(full.num_active(), restored.num_active());
}

// ---------------------------------------------------------------------
// Trainer-level invariants, parameterized over the seven systems.

class MembershipSystemsTest : public ::testing::TestWithParam<SystemKind> {};

std::string ParamName(const ::testing::TestParamInfo<SystemKind>& info) {
  std::string name = SystemName(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  if (name.back() == '_') name += "S";  // "mllib*" -> "mllib_S"
  return name;
}

// A plan whose only event sits far beyond the end of the run behaves
// byte-for-byte like no plan at all: enabling the membership machinery
// consumes nothing from the jitter/failure streams and charges nothing.
TEST_P(MembershipSystemsTest, ChurnThatNeverFiresIsByteIdentical) {
  const Dataset data = ChurnData();
  const ClusterConfig clean = BaseCluster();
  ClusterConfig armed = clean;
  armed.churn.leaves = {{0, 1e15}};

  const TrainResult a = MakeTrainer(GetParam(), BaseConfig())->Train(data, clean);
  const TrainResult b = MakeTrainer(GetParam(), BaseConfig())->Train(data, armed);

  ExpectSameWeights(a.final_weights, b.final_weights);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
  EXPECT_EQ(b.membership.leaves, 0u);
  EXPECT_EQ(b.membership.joins, 0u);
}

// All seven systems keep training through two leaves, two joins and a
// rejoin, and still reach the objective target.
TEST_P(MembershipSystemsTest, ReachesTargetUnderChurn) {
  const Dataset data = ChurnData();
  ClusterConfig cluster = BaseCluster();
  cluster.churn = MidRunChurn();

  const TrainResult result =
      MakeTrainer(GetParam(), BaseConfig())->Train(data, cluster);
  ASSERT_FALSE(result.curve.empty());
  EXPECT_FALSE(result.diverged);
  const double initial = result.curve.points().front().objective;
  EXPECT_LT(result.curve.BestObjective(), initial * 0.95)
      << SystemName(GetParam());

  EXPECT_GE(result.membership.leaves, 2u) << SystemName(GetParam());
  EXPECT_GE(result.membership.joins, 2u) << SystemName(GetParam());
  EXPECT_GE(result.membership.rejoins, 1u) << SystemName(GetParam());
  EXPECT_GE(result.membership.suspicions, 2u);
  EXPECT_LE(result.membership.min_active, 2u);
  EXPECT_GE(result.membership.max_active, 5u);
}

// Repeated churn runs are byte-identical, and host parallelism is a
// pure wall-clock knob under churn too.
TEST_P(MembershipSystemsTest, ChurnIsDeterministicAcrossHostThreads) {
  const Dataset data = ChurnData();
  ClusterConfig cluster = BaseCluster();
  cluster.churn = MidRunChurn();

  TrainerConfig sequential = BaseConfig();
  TrainerConfig parallel = BaseConfig();
  parallel.host_threads = 8;

  const TrainResult a =
      MakeTrainer(GetParam(), sequential)->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(GetParam(), sequential)->Train(data, cluster);
  const TrainResult c =
      MakeTrainer(GetParam(), parallel)->Train(data, cluster);

  ExpectSameWeights(a.final_weights, b.final_weights);
  ExpectSameWeights(a.final_weights, c.final_weights);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.sim_seconds, c.sim_seconds);
  ASSERT_EQ(a.curve.points().size(), c.curve.points().size());
  for (size_t i = 0; i < a.curve.points().size(); ++i) {
    EXPECT_EQ(a.curve.points()[i].objective, c.curve.points()[i].objective);
  }
  EXPECT_EQ(a.membership.leaves, c.membership.leaves);
  EXPECT_EQ(a.membership.joins, c.membership.joins);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, MembershipSystemsTest,
    ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                      SystemKind::kMllibStar, SystemKind::kPetuum,
                      SystemKind::kPetuumStar, SystemKind::kAngel,
                      SystemKind::kMllibLbfgs),
    ParamName);

// ---------------------------------------------------------------------
// The headline robustness invariant: churn moves virtual time, never
// the Spark trainers' numerics. Every partition's contribution is
// computed every superstep regardless of which executor hosts it, so
// the weights match the churn-free run bit-for-bit while the clock
// pays for suspicion windows, lineage rebuilds and catch-up.

class SparkChurnTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(SparkChurnTest, ChurnNeverChangesSparkWeights) {
  const Dataset data = ChurnData();
  const ClusterConfig clean = BaseCluster();
  ClusterConfig churny = clean;
  churny.churn = MidRunChurn();

  const TrainResult a = MakeTrainer(GetParam(), BaseConfig())->Train(data, clean);
  const TrainResult b =
      MakeTrainer(GetParam(), BaseConfig())->Train(data, churny);

  ExpectSameWeights(a.final_weights, b.final_weights);
  EXPECT_GE(b.membership.leaves, 2u);
  EXPECT_GE(b.membership.partitions_migrated, 1u);
  // Churn moves the clock (survivors host evicted partitions and pay
  // lineage rebuilds; a smaller fleet also means a cheaper sequential
  // broadcast, so the net sign varies) but never the weights above.
  EXPECT_NE(b.sim_seconds, a.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(SparkSystems, SparkChurnTest,
                         ::testing::Values(SystemKind::kMllib,
                                           SystemKind::kMllibMa,
                                           SystemKind::kMllibStar,
                                           SystemKind::kMllibLbfgs),
                         ParamName);

// ---------------------------------------------------------------------
// PS shard departure: the next alive shard serves the departed range
// (slower — its link carries both slices), numerics untouched.

TEST(PsServerLeaveTest, ShardMigrationDegradesGracefully) {
  const Dataset data = ChurnData();
  const ClusterConfig clean = BaseCluster();
  ClusterConfig churny = clean;
  churny.churn.heartbeat_interval_sec = 0.01;
  churny.churn.suspicion_timeout_sec = 0.02;
  churny.churn.server_leaves = {{1, 0.05}};

  TrainerConfig config = BaseConfig();
  config.ps.num_shards = 2;
  const TrainResult a =
      MakeTrainer(SystemKind::kPetuum, config)->Train(data, clean);
  const TrainResult b =
      MakeTrainer(SystemKind::kPetuum, config)->Train(data, churny);

  ExpectSameWeights(a.final_weights, b.final_weights);
  EXPECT_EQ(b.membership.server_leaves, 1u);
  EXPECT_GE(b.membership.shard_migrations, 1u);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);
}

// ---------------------------------------------------------------------
// Mid-churn checkpoint/resume: snapshot between transitions (one leave
// fires before the step-4 checkpoint, the joins/rejoin after), resume,
// and finish bit-identical to the uninterrupted churn run — for all
// seven systems, sequential and host-parallel.

class MidChurnResumeTest
    : public ::testing::TestWithParam<std::tuple<SystemKind, size_t>> {};

TEST_P(MidChurnResumeTest, ResumedRunMatchesUninterruptedBitForBit) {
  const SystemKind kind = std::get<0>(GetParam());
  const size_t host_threads = std::get<1>(GetParam());
  const Dataset data = ChurnData();
  ClusterConfig cluster = BaseCluster();
  cluster.churn = MidRunChurn();

  std::string name = SystemName(kind);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string path = testing::TempDir() + "/churn_resume_" + name + "_" +
                           std::to_string(host_threads) + ".bin";
  std::remove(path.c_str());

  TrainerConfig full = BaseConfig();
  full.host_threads = host_threads;
  const TrainResult uninterrupted =
      MakeTrainer(kind, full)->Train(data, cluster);
  // The script really does straddle the run.
  EXPECT_GE(uninterrupted.membership.leaves, 2u);
  EXPECT_GE(uninterrupted.membership.joins, 2u);

  TrainerConfig first = full;
  first.max_comm_steps = 4;
  first.checkpoint.path = path;
  first.checkpoint.every_steps = 4;
  first.checkpoint.resume = true;  // no file yet: starts fresh
  (void)MakeTrainer(kind, first)->Train(data, cluster);
  ASSERT_TRUE(Checkpoint::Exists(path));

  TrainerConfig second = full;
  second.checkpoint = first.checkpoint;  // resumes from step 4
  const TrainResult resumed = MakeTrainer(kind, second)->Train(data, cluster);

  ExpectSameWeights(uninterrupted.final_weights, resumed.final_weights);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, MidChurnResumeTest,
    ::testing::Combine(
        ::testing::Values(SystemKind::kMllib, SystemKind::kMllibMa,
                          SystemKind::kMllibStar, SystemKind::kPetuum,
                          SystemKind::kPetuumStar, SystemKind::kAngel,
                          SystemKind::kMllibLbfgs),
        ::testing::Values<size_t>(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<SystemKind, size_t>>& info) {
      std::string name = SystemName(std::get<0>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

// ---- Elastic words of a crafted checkpoint ----------------------------
// A real MLlib run's step-3 snapshot, re-written through
// Checkpoint::WriteFile (so its checksum holds) with `edit` applied to
// its elastic words: [membership count, membership words, one host
// index per partition, rebuild flags, admit times, catch-up flags].
// Returns the config that resumes from it.
template <typename Edit>
TrainerConfig WriteEditedElasticCheckpoint(const Dataset& data,
                                           const ClusterConfig& cluster,
                                           const std::string& file,
                                           Edit edit) {
  const std::string path = testing::TempDir() + "/" + file;
  std::remove(path.c_str());
  TrainerConfig config;
  config.max_comm_steps = 3;
  config.checkpoint.path = path;
  config.checkpoint.every_steps = 3;
  (void)MakeTrainer(SystemKind::kMllib, config)->Train(data, cluster);

  Checkpoint in;
  EXPECT_TRUE(in.ReadFile(path).ok());
  Checkpoint out;
  for (int i = 0; i < 3; ++i) out.PutU64(in.TakeU64());  // tag, reserved, step
  out.PutVector(in.TakeVector());                        // model
  const uint64_t rngs = in.TakeU64();
  out.PutU64(rngs);
  for (uint64_t r = 0; r < rngs; ++r) out.PutRngState(in.TakeRngState());
  out.PutU64(in.TakeU64());  // reserved residual-count word
  std::vector<uint64_t> elastic = in.TakeWords();
  EXPECT_TRUE(in.exhausted());
  edit(&elastic);
  out.PutWords(elastic);
  EXPECT_TRUE(out.WriteFile(path).ok());

  config.max_comm_steps = 6;
  config.checkpoint.every_steps = 0;
  config.checkpoint.resume = true;
  return config;
}

TEST(ElasticResumeDeathTest, RejectsAHostIndexPastTheExecutors) {
  const Dataset data = ChurnData();
  const ClusterConfig cluster = BaseCluster(4);
  const TrainerConfig config = WriteEditedElasticCheckpoint(
      data, cluster, "elastic_host.ckpt", [](std::vector<uint64_t>* words) {
        const size_t first_host = 1 + (*words)[0];
        ASSERT_LT(first_host, words->size());
        ASSERT_EQ((*words)[first_host], 0u);
        (*words)[first_host] = 1000;  // partition 0's host, of 4 executors
      });
  EXPECT_DEATH(MakeTrainer(SystemKind::kMllib, config)->Train(data, cluster),
               "host index is not an executor");
}

TEST(ElasticResumeDeathTest, RejectsAMembershipBlockPastTheWords) {
  const Dataset data = ChurnData();
  const ClusterConfig cluster = BaseCluster(4);
  // 2^62 words: more than any vector of them can hold, so the count
  // must be refused before anything is sized from it.
  const TrainerConfig config = WriteEditedElasticCheckpoint(
      data, cluster, "elastic_membership.ckpt",
      [](std::vector<uint64_t>* words) { (*words)[0] = uint64_t{1} << 62; });
  EXPECT_DEATH(MakeTrainer(SystemKind::kMllib, config)->Train(data, cluster),
               "membership block runs past the elastic words");
}

// ---- The PS resume's membership block ----------------------------------
// A real Petuum run's step-4 snapshot, re-written with the length word
// of its membership block set to 2^64 - 1, 2^63 and one past the words
// behind it. The resume must stop at the word store's CHECK before it
// sizes anything.
TEST(PsResumeDeathTest, RejectsAMembershipLengthPastTheWords) {
  const Dataset data = ChurnData();
  const ClusterConfig cluster = BaseCluster(4);
  const std::string path = testing::TempDir() + "/ps_membership.ckpt";
  std::remove(path.c_str());
  TrainerConfig config = BaseConfig();
  config.max_comm_steps = 4;
  config.checkpoint.path = path;
  config.checkpoint.every_steps = 4;
  (void)MakeTrainer(SystemKind::kPetuum, config)->Train(data, cluster);

  Checkpoint in;
  ASSERT_TRUE(in.ReadFile(path).ok());
  Checkpoint head;
  for (int i = 0; i < 3; ++i) head.PutU64(in.TakeU64());  // tag, reserved, round
  head.PutVector(in.TakeVector());                        // model
  const uint64_t rngs = in.TakeU64();
  head.PutU64(rngs);
  // The worker streams, then the jitter, failure and fault streams.
  for (uint64_t r = 0; r < rngs + 3; ++r) head.PutRngState(in.TakeRngState());
  head.PutDoubles(in.TakeDoubles());  // clocks
  const uint64_t k = in.TakeU64();
  head.PutU64(k);
  for (uint64_t v = 0; v < k; ++v) head.PutDoubles(in.TakeDoubles());
  head.PutU64(in.TakeU64());  // reserved residual-count word
  const std::vector<uint64_t> membership = in.TakeWords();
  std::vector<uint64_t> rest;
  while (!in.exhausted()) rest.push_back(in.TakeU64());

  config.checkpoint.every_steps = 0;
  config.checkpoint.resume = true;
  for (uint64_t length : {~uint64_t{0}, uint64_t{1} << 63,
                          membership.size() + rest.size() + 1}) {
    Checkpoint out = head;
    out.PutU64(length);
    for (uint64_t w : membership) out.PutU64(w);
    for (uint64_t w : rest) out.PutU64(w);
    ASSERT_TRUE(out.WriteFile(path).ok());
    EXPECT_DEATH(MakeTrainer(SystemKind::kPetuum, config)->Train(data, cluster),
                 "length word runs past")
        << length;
  }
}

}  // namespace
}  // namespace mllibstar
