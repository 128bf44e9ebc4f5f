// Host parallelism must be invisible in every simulated result: the
// same config trained with host_threads=1 and host_threads=8 has to
// produce bit-identical TrainResults — curve, clocks, bytes, update
// counts and final weights — because callbacks only touch per-worker
// state and all shared-stream draws happen on the host thread in
// fixed worker order. These tests use EXPECT_EQ on doubles on
// purpose: tolerance would hide a broken schedule.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

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
  const ClusterConfig cluster = JitteryCluster();

  TrainerConfig sequential = BaseConfig(1);
  TrainerConfig parallel = BaseConfig(8);
  if (GetParam() == SystemKind::kPetuum) {
    // SSP exercises the parked-worker gate in the PS event loop.
    sequential.ps.consistency = ConsistencyKind::kSsp;
    sequential.ps.staleness = 1;
    parallel.ps = sequential.ps;
  }
  if (GetParam() == SystemKind::kAngel) {
    sequential.ps.sparse_pull = true;
    parallel.ps = sequential.ps;
  }

  const TrainResult a =
      MakeTrainer(GetParam(), sequential)->Train(data, cluster);
  const TrainResult b = MakeTrainer(GetParam(), parallel)->Train(data, cluster);
  ExpectBitIdentical(a, b);
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
  sequential.ps.consistency = ConsistencyKind::kAsp;
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
// The touched-coordinate gradient flushes, copy-free lossless
// transmits and shared PS pull snapshots (DESIGN §16) must leave every
// simulated result bit-identical to the dense host paths they
// replaced. The digests below were recorded with those dense paths:
// FNV-1a over the exact bits of the final weights and the whole curve.
// Each system runs at a batch fraction whose batches take the listed
// sweep (4 % of 250 rows × ~10 nnz ≪ 4000 / 4) and at one whose
// batches take the dense sweep (50 %), over the lossless DenseF64 wire
// and over int8 with error feedback, which keeps the dense path.

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void Fnv1a(uint64_t word, uint64_t* h) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (word >> (8 * b)) & 0xffu;
    *h *= 1099511628211ull;
  }
}

std::string ResultDigest(const TrainResult& r) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < r.final_weights.dim(); ++i) {
    Fnv1a(Bits(r.final_weights[i]), &h);
  }
  for (const ConvergencePoint& p : r.curve.points()) {
    Fnv1a(static_cast<uint64_t>(p.comm_step), &h);
    Fnv1a(Bits(p.time_sec), &h);
    Fnv1a(Bits(p.objective), &h);
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

struct GoldenCase {
  SystemKind system;
  double batch_fraction;
  CodecKind codec;
  const char* digest;
};

TEST(HostWorkGoldenTest, DigestsMatchDenseHostPaths) {
  SyntheticSpec spec;
  spec.name = "hostwork";
  spec.num_instances = 2000;
  spec.num_features = 4000;
  spec.avg_nnz = 10;
  spec.seed = 41;
  const Dataset data = GenerateSynthetic(spec);
  const ClusterConfig cluster = JitteryCluster();

  const CodecKind kF64 = CodecKind::kDenseF64;
  const CodecKind kInt8 = CodecKind::kInt8Linear;
  const GoldenCase cases[] = {
      {SystemKind::kMllib, 0.04, kF64, "4a77eb1bebe86b84"},
      {SystemKind::kMllib, 0.5, kF64, "bb1a337646de453e"},
      {SystemKind::kMllib, 0.04, kInt8, "f46108095e7ddccf"},
      {SystemKind::kMllib, 0.5, kInt8, "fca47ecdf07e368f"},
      {SystemKind::kPetuumStar, 0.04, kF64, "96afb4289fbacb85"},
      {SystemKind::kPetuumStar, 0.5, kF64, "b6088c7d76d11563"},
      {SystemKind::kPetuumStar, 0.04, kInt8, "d4bec3172e8d34cb"},
      {SystemKind::kPetuumStar, 0.5, kInt8, "89b9a003acaae3f5"},
      {SystemKind::kAngel, 0.04, kF64, "2645278c7f8017ab"},
      {SystemKind::kAngel, 0.5, kF64, "ffb7f6e23206cfa9"},
      {SystemKind::kAngel, 0.04, kInt8, "d0154f68997c7eab"},
      {SystemKind::kAngel, 0.5, kInt8, "09d0e89bbe4356d9"},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << SystemName(c.system) << " fraction " << c.batch_fraction
                 << " codec " << CodecName(c.codec));
    TrainerConfig config = BaseConfig(1);
    config.loss = LossKind::kHinge;
    // L2 sends Petuum* through batch GD (its no-regularizer path is
    // per-point SGD, which has no gradient buffer).
    config.regularizer = RegularizerKind::kL2;
    config.lambda = 0.01;
    config.batch_fraction = c.batch_fraction;
    config.max_comm_steps = 6;
    config.codec.kind = c.codec;
    TrainerConfig parallel = config;
    parallel.host_threads = 8;
    const TrainResult a = MakeTrainer(c.system, config)->Train(data, cluster);
    const TrainResult b =
        MakeTrainer(c.system, parallel)->Train(data, cluster);
    EXPECT_EQ(ResultDigest(a), c.digest);
    ExpectBitIdentical(a, b);
  }
}

}  // namespace
}  // namespace mllibstar
