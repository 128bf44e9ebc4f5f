// Host parallelism must be invisible in every simulated result: the
// same config trained with host_threads=1 and host_threads=8 has to
// produce bit-identical TrainResults — curve, clocks, bytes, update
// counts and final weights — because callbacks only touch per-worker
// state and all shared-stream draws happen on the host thread in
// fixed worker order. These tests use EXPECT_EQ on doubles on
// purpose: tolerance would hide a broken schedule.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/fnv1a.h"
#include "data/synthetic.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

Dataset HostparData() {
  SyntheticSpec spec;
  spec.name = "hostpar";
  spec.num_instances = 600;
  spec.num_features = 120;
  spec.avg_nnz = 10;
  spec.seed = 31;
  return GenerateSynthetic(spec);
}

// Nonzero jitter and task failures on purpose: both draw from the
// cluster's shared RNG streams, which is exactly where a careless
// parallelization would reorder draws.
ClusterConfig JitteryCluster() {
  ClusterConfig config = ClusterConfig::Cluster1(8);
  config.straggler_sigma = 0.08;
  config.task_failure_prob = 0.05;
  return config;
}

TrainerConfig BaseConfig(size_t host_threads) {
  TrainerConfig config;
  config.loss = LossKind::kLogistic;
  config.base_lr = 0.5;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.batch_fraction = 0.1;
  config.max_comm_steps = 10;
  config.seed = 5;
  config.host_threads = host_threads;
  return config;
}

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
}

class HostParallelismTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(HostParallelismTest, EightThreadsMatchesSequentialBitForBit) {
  const Dataset data = HostparData();
  // Two inputs: the jittery cluster alone, and the fault gauntlet, which
  // adds probabilistic worker crashes and L2 on top of its stragglers
  // and task failures.
  for (const bool gauntlet : {false, true}) {
    SCOPED_TRACE(gauntlet ? "fault gauntlet" : "jittery cluster");
    ClusterConfig cluster = JitteryCluster();
    TrainerConfig sequential = BaseConfig(1);
    if (gauntlet) {
      cluster.faults.worker_crash_prob = 0.02;
      sequential.regularizer = RegularizerKind::kL2;
      sequential.lambda = 1e-3;
    }
    if (GetParam() == SystemKind::kPetuum) {
      // SSP exercises the parked-worker gate in the PS event loop.
      sequential.ps.staleness = 1;
    }
    TrainerConfig parallel = sequential;
    parallel.host_threads = 8;

    const TrainResult a =
        MakeTrainer(GetParam(), sequential)->Train(data, cluster);
    const TrainResult b =
        MakeTrainer(GetParam(), parallel)->Train(data, cluster);
    ExpectBitIdentical(a, b);
    EXPECT_EQ(a.faults.worker_crashes, b.faults.worker_crashes);
    if (gauntlet) {
      EXPECT_GE(a.faults.worker_crashes, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, HostParallelismTest,
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

TEST(HostParallelismTest, AsyncPsMatchesUnderAsp) {
  // ASP maximizes event-loop interleaving (no gates at all), the
  // hardest case for the speculative dispatch.
  const Dataset data = HostparData();
  const ClusterConfig cluster = JitteryCluster();
  TrainerConfig sequential = BaseConfig(1);
  // ASP: a staleness bound the round budget never reaches.
  sequential.ps.staleness = sequential.max_comm_steps;
  TrainerConfig parallel = sequential;
  parallel.host_threads = 8;
  const TrainResult a =
      MakeTrainer(SystemKind::kPetuumStar, sequential)->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(SystemKind::kPetuumStar, parallel)->Train(data, cluster);
  ExpectBitIdentical(a, b);
}

TEST(HostParallelismTest, AutoThreadCountMatchesSequential) {
  // host_threads = 0 resolves to the hardware concurrency; whatever
  // that is on the machine running the test, results must not move.
  const Dataset data = HostparData();
  const ClusterConfig cluster = JitteryCluster();
  const TrainResult a =
      MakeTrainer(SystemKind::kMllibStar, BaseConfig(1))->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(SystemKind::kMllibStar, BaseConfig(0))->Train(data, cluster);
  ExpectBitIdentical(a, b);
}

TEST(ResolveHostThreadsTest, ZeroMeansHardware) {
  EXPECT_GE(ResolveHostThreads(0), 1u);
  EXPECT_EQ(ResolveHostThreads(1), 1u);
  EXPECT_EQ(ResolveHostThreads(6), 6u);
}

// ------------------------------------------------ host-work golden pins
// The touched-coordinate gradient flushes and shared PS pull snapshots
// (DESIGN §16) must leave every simulated result bit-identical to the
// dense host paths they replaced. The digests below were recorded with
// those dense paths: FNV-1a over the exact bits of the final weights
// and the whole curve. Each system runs at a batch fraction whose
// batches take the listed sweep (4 % of 250 rows × ~10 nnz ≪ 4000 / 4)
// and at one whose batches take the dense sweep (50 %). MLlib+MA,
// MLlib* and L-BFGS pass over whole partitions (the batch fraction is
// unused); their rows pin the Spark driver loop they share with MLlib.
// The unregularized and eager-L2 rows, recorded after the dense paths
// were gone, pin what the L2 rows do not reach: MLlib's driver step and
// the L-BFGS oracle with no regularizer, Petuum/Petuum*'s per-point
// SGD, and the eager L2 step that runs densely per update.

std::string HexDigest(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string ResultDigest(const TrainResult& r) {
  uint64_t h = kFnv1aBasis;
  for (size_t i = 0; i < r.final_weights.dim(); ++i) {
    Fnv1aMix(r.final_weights[i], &h);
  }
  for (const ConvergencePoint& p : r.curve.points()) {
    Fnv1aMix(static_cast<uint64_t>(p.comm_step), &h);
    Fnv1aMix(p.time_sec, &h);
    Fnv1aMix(p.objective, &h);
  }
  return HexDigest(h);
}

Dataset HostWorkData() {
  SyntheticSpec spec;
  spec.name = "hostwork";
  spec.num_instances = 2000;
  spec.num_features = 4000;
  spec.avg_nnz = 10;
  spec.seed = 41;
  return GenerateSynthetic(spec);
}

struct GoldenCase {
  SystemKind system;
  double batch_fraction;
  const char* digest;
  RegularizerKind regularizer = RegularizerKind::kL2;
  bool lazy_regularization = true;
};

TEST(HostWorkGoldenTest, DigestsMatchDenseHostPaths) {
  const Dataset data = HostWorkData();
  const ClusterConfig cluster = JitteryCluster();

  const GoldenCase cases[] = {
      {SystemKind::kMllib, 0.04, "4a77eb1bebe86b84"},
      {SystemKind::kMllib, 0.5, "bb1a337646de453e"},
      {SystemKind::kPetuumStar, 0.04, "96afb4289fbacb85"},
      {SystemKind::kPetuumStar, 0.5, "b6088c7d76d11563"},
      {SystemKind::kAngel, 0.04, "2645278c7f8017ab"},
      {SystemKind::kAngel, 0.5, "ffb7f6e23206cfa9"},
      {SystemKind::kMllibMa, 0.04, "9c160d053b80820c"},
      {SystemKind::kMllibStar, 0.04, "1dcdb3e5e41339c0"},
      {SystemKind::kMllibLbfgs, 0.04, "b04f5f87dfb922a3"},
      // No regularizer; its λ is ignored.
      {SystemKind::kMllib, 0.04, "8f746016c3bdc438", RegularizerKind::kNone},
      {SystemKind::kMllibMa, 0.04, "cc2dc20724373404", RegularizerKind::kNone},
      {SystemKind::kMllibStar, 0.04, "7d6101a8aac4ac67", RegularizerKind::kNone},
      {SystemKind::kPetuum, 0.04, "a0320c35d9a87ad8", RegularizerKind::kNone},
      {SystemKind::kPetuumStar, 0.04, "c2ce09ba12f8ba10", RegularizerKind::kNone},
      {SystemKind::kAngel, 0.04, "05123e6ac244a195", RegularizerKind::kNone},
      {SystemKind::kMllibLbfgs, 0.04, "8a15c6f4a2993e1a", RegularizerKind::kNone},
      // The eager L2 step (lazy regularization off).
      {SystemKind::kMllibStar, 0.04, "1bc484152ebb0b72", RegularizerKind::kL2, false},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << SystemName(c.system) << " fraction " << c.batch_fraction
                 << " regularizer " << static_cast<int>(c.regularizer)
                 << " lazy " << c.lazy_regularization);
    TrainerConfig config = BaseConfig(1);
    config.loss = LossKind::kHinge;
    // L2 sends Petuum* through batch GD; without a regularizer it runs
    // per-point SGD, which has no gradient buffer.
    config.regularizer = c.regularizer;
    config.lambda = 0.01;
    config.lazy_regularization = c.lazy_regularization;
    config.batch_fraction = c.batch_fraction;
    config.max_comm_steps = 6;
    TrainerConfig parallel = config;
    parallel.host_threads = 8;
    const TrainResult a = MakeTrainer(c.system, config)->Train(data, cluster);
    const TrainResult b =
        MakeTrainer(c.system, parallel)->Train(data, cluster);
    EXPECT_EQ(ResultDigest(a), c.digest);
    ExpectBitIdentical(a, b);
  }
}

// The checkpoint word layout of each Spark mode (tag, reserved 0 word,
// step, model, worker RNG cursors, reserved 0 word, elastic words):
// FNV-1a over the bytes of the file written after step 3. The L-BFGS
// row pins the smooth solver's layout (step, objective, iterate,
// gradient, history). Same-build resume tests cannot see a reordered
// word; this pin does.
TEST(HostWorkGoldenTest, SparkCheckpointFilesMatchPins) {
  const Dataset data = HostWorkData();
  const ClusterConfig cluster = JitteryCluster();

  const std::pair<SystemKind, const char*> cases[] = {
      {SystemKind::kMllib, "cfe02060f49e6b67"},
      {SystemKind::kMllibMa, "55bbe9bd9e8ff166"},
      {SystemKind::kMllibStar, "3bb1acf43ac6fdc6"},
      {SystemKind::kMllibLbfgs, "1cb1e831e63efcef"},
  };
  for (const auto& [system, digest] : cases) {
    SCOPED_TRACE(SystemName(system));
    const std::string path = testing::TempDir() + "/golden_ckpt.bin";
    std::remove(path.c_str());
    TrainerConfig config = BaseConfig(1);
    config.loss = LossKind::kHinge;
    config.regularizer = RegularizerKind::kL2;
    config.lambda = 0.01;
    config.batch_fraction = 0.04;
    config.max_comm_steps = 4;
    config.checkpoint.path = path;
    config.checkpoint.every_steps = 3;
    (void)MakeTrainer(system, config)->Train(data, cluster);

    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    uint64_t h = kFnv1aBasis;
    uint64_t word = 0;
    while (std::fread(&word, sizeof(word), 1, file) == 1) Fnv1aMix(word, &h);
    std::fclose(file);
    EXPECT_EQ(HexDigest(h), digest);
  }
}

// ------------------------------------------------ PS consistency pins
// The PS event loop under SSP (staleness 2) and under ASP, where no
// worker ever waits on another, on the jittery cluster plus a scripted
// shard crash and a message-drop window: FNV-1a over the final weights,
// the whole curve, the virtual end time and the bytes moved. ASP is a
// staleness bound the round budget never reaches: the ASP rows run at
// staleness = max_comm_steps. Recorded while ASP was a separate
// consistency mode. The shard links pace these rounds, so no worker
// gets three rounds ahead and each system's two rows agree.

std::string PsRunDigest(const TrainResult& r) {
  uint64_t h = kFnv1aBasis;
  for (size_t i = 0; i < r.final_weights.dim(); ++i) {
    Fnv1aMix(r.final_weights[i], &h);
  }
  for (const ConvergencePoint& p : r.curve.points()) {
    Fnv1aMix(static_cast<uint64_t>(p.comm_step), &h);
    Fnv1aMix(p.time_sec, &h);
    Fnv1aMix(p.objective, &h);
  }
  Fnv1aMix(r.sim_seconds, &h);
  Fnv1aMix(r.total_bytes, &h);
  return HexDigest(h);
}

struct PsPinCase {
  SystemKind system;
  bool asp;
  const char* digest;
};

TEST(PsConsistencyPinTest, SspAndAspRunsMatchPins) {
  const Dataset data = HostparData();
  ClusterConfig cluster = JitteryCluster();
  cluster.faults.server_crashes = {{1, 0.2}};
  cluster.faults.message_drops = {{0.3, 0.05, 0.25}};

  const PsPinCase cases[] = {
      {SystemKind::kPetuum, false, "764410b3c9325797"},
      {SystemKind::kPetuum, true, "764410b3c9325797"},
      {SystemKind::kPetuumStar, false, "ecdc47181171e821"},
      {SystemKind::kPetuumStar, true, "ecdc47181171e821"},
      {SystemKind::kAngel, false, "60796c11825ec3a2"},
      {SystemKind::kAngel, true, "60796c11825ec3a2"},
  };
  for (const PsPinCase& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << SystemName(c.system) << (c.asp ? " asp" : " ssp 2"));
    TrainerConfig config = BaseConfig(1);
    config.ps.staleness = c.asp ? config.max_comm_steps : 2;
    TrainerConfig parallel = config;
    parallel.host_threads = 8;
    const TrainResult a = MakeTrainer(c.system, config)->Train(data, cluster);
    const TrainResult b =
        MakeTrainer(c.system, parallel)->Train(data, cluster);
    EXPECT_EQ(a.faults.server_crashes, 1u);
    EXPECT_GT(a.faults.messages_dropped, 0u);
    EXPECT_EQ(PsRunDigest(a), c.digest);
    ExpectBitIdentical(a, b);
  }
}

// Staleness 2 against ASP where the bound binds: compute-heavy rounds
// on Cluster 2's fast links with heavy straggler jitter let a fast
// worker run three rounds ahead, which staleness 2 forbids and ASP
// allows, so each system's two digests differ. A change that made
// staleness 2 act as ASP (or the reverse) moves one of them.
struct StalenessPinCase {
  SystemKind system;
  const char* ssp2;
  const char* asp;
};

TEST(PsConsistencyPinTest, StalenessTwoAndAspRunsDiffer) {
  const Dataset data = HostparData();
  ClusterConfig cluster = ClusterConfig::Cluster2(8);
  cluster.straggler_sigma = 0.3;

  const StalenessPinCase cases[] = {
      {SystemKind::kPetuum, "265b636460fa53df", "bb83aca317252b50"},
      {SystemKind::kPetuumStar, "00e67a925aa11dae", "1a6be01d3ae049fe"},
      {SystemKind::kAngel, "705e723adf496981", "226a504e8dcc0131"},
  };
  for (const StalenessPinCase& c : cases) {
    SCOPED_TRACE(SystemName(c.system));
    std::string digests[2];  // staleness 2, ASP
    for (const bool asp : {false, true}) {
      SCOPED_TRACE(asp ? "asp" : "ssp 2");
      TrainerConfig config = BaseConfig(1);
      config.ps.staleness = asp ? config.max_comm_steps : 2;
      TrainerConfig parallel = config;
      parallel.host_threads = 8;
      const TrainResult a =
          MakeTrainer(c.system, config)->Train(data, cluster);
      const TrainResult b =
          MakeTrainer(c.system, parallel)->Train(data, cluster);
      digests[asp ? 1 : 0] = PsRunDigest(a);
      EXPECT_EQ(PsRunDigest(a), asp ? c.asp : c.ssp2);
      ExpectBitIdentical(a, b);
    }
    EXPECT_NE(digests[0], digests[1]);
  }
}

// The PS checkpoint word layout (tag, reserved 0 word, round, model,
// worker and shared RNG cursors, clocks, finish times, reserved 0
// word, membership block), written at the quiescent point after BSP
// round 3: FNV-1a over the file's bytes.
TEST(PsConsistencyPinTest, BspCheckpointFilesMatchPins) {
  const Dataset data = HostparData();
  const ClusterConfig cluster = JitteryCluster();

  const std::pair<SystemKind, const char*> cases[] = {
      {SystemKind::kPetuum, "b9d8c88277d6ad3e"},
      {SystemKind::kPetuumStar, "8436ffa5e4087ce1"},
      {SystemKind::kAngel, "b51b1b9e8b5206ff"},
  };
  for (const auto& [system, digest] : cases) {
    SCOPED_TRACE(SystemName(system));
    const std::string path = testing::TempDir() + "/golden_ps_ckpt.bin";
    std::remove(path.c_str());
    TrainerConfig config = BaseConfig(1);
    config.max_comm_steps = 4;
    config.checkpoint.path = path;
    config.checkpoint.every_steps = 3;
    (void)MakeTrainer(system, config)->Train(data, cluster);

    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    uint64_t h = kFnv1aBasis;
    uint64_t word = 0;
    while (std::fread(&word, sizeof(word), 1, file) == 1) Fnv1aMix(word, &h);
    std::fclose(file);
    EXPECT_EQ(HexDigest(h), digest);
  }
}

}  // namespace
}  // namespace mllibstar
