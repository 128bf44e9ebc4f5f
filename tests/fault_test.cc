// Fault injection and crash recovery. Three invariants anchor every
// test here:
//   1. Faults cost virtual time but never perturb the host-side
//      numerics — so a run with executor crashes finishes with the
//      exact same weights as a fault-free run.
//   2. A fixed seed plus a fixed FaultPlan reproduces byte-identical
//      traces, across repeated runs and across host_threads values.
//   3. Checkpoint/resume is bit-identical: a run interrupted at a
//      snapshot and resumed finishes with EXPECT_EQ weights against
//      the uninterrupted run, for all seven systems.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "data/synthetic.h"
#include "sim/sim_cluster.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

Dataset FaultData() {
  SyntheticSpec spec;
  spec.name = "faults";
  spec.num_instances = 400;
  spec.num_features = 80;
  spec.avg_nnz = 10;
  spec.seed = 91;
  return GenerateSynthetic(spec);
}

ClusterConfig BaseCluster(size_t workers = 4) {
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

void ExpectSameWeights(const DenseVector& a, const DenseVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "coordinate " << i;
  }
}

void ExpectSameTrace(const TraceLog& a, const TraceLog& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    const TraceEvent& ea = a.events()[i];
    const TraceEvent& eb = b.events()[i];
    EXPECT_EQ(ea.node, eb.node) << "event " << i;
    EXPECT_EQ(ea.start, eb.start) << "event " << i;
    EXPECT_EQ(ea.end, eb.end) << "event " << i;
    EXPECT_EQ(ea.kind, eb.kind) << "event " << i;
    EXPECT_EQ(ea.detail, eb.detail) << "event " << i;
  }
  EXPECT_EQ(a.RenderAscii(160), b.RenderAscii(160));
}

// ---------------------------------------------------------------------
// RNG stream separation (the bugfix this PR carries): task failures,
// retries and recoveries draw from a dedicated failure stream, so the
// primary jitter sequence is pinned regardless of failures.

TEST(FaultRegressionTest, JitterSequenceIdenticalWithFailuresOnOrOff) {
  ClusterConfig with_failures = BaseCluster();
  with_failures.straggler_sigma = 0.1;
  with_failures.task_failure_prob = 0.5;
  ClusterConfig without = with_failures;
  without.task_failure_prob = 0.0;
  SimCluster a(with_failures);
  SimCluster b(without);
  for (int i = 0; i < 64; ++i) {
    (void)a.NextTaskFailure();  // consumes the failure stream only
    (void)b.NextTaskFailure();  // no-op draw-wise when prob == 0
    EXPECT_EQ(a.NextJitter(), b.NextJitter()) << "draw " << i;
  }
}

TEST(FaultRegressionTest, RetryJitterDoesNotMoveThePrimaryStream) {
  ClusterConfig config = BaseCluster();
  config.straggler_sigma = 0.1;
  SimCluster a(config);
  SimCluster b(config);
  for (int i = 0; i < 64; ++i) {
    (void)a.NextRetryJitter();  // failure stream
    EXPECT_EQ(a.NextJitter(), b.NextJitter()) << "draw " << i;
  }
}

// ---------------------------------------------------------------------
// Checkpoint word store.

TEST(CheckpointTest, WordStoreRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "/ck_roundtrip.bin";
  std::remove(path.c_str());

  Rng rng(9);
  (void)rng.NextGaussian();  // leave a cached gaussian in the state
  Checkpoint out;
  out.PutU64(42);
  out.PutDouble(-3.25);
  out.PutVector(DenseVector(std::vector<double>{1.5, -2.5, 0.0}));
  out.PutRngState(rng.SaveState());
  ASSERT_TRUE(out.WriteFile(path).ok());
  ASSERT_TRUE(Checkpoint::Exists(path));

  Checkpoint in;
  ASSERT_TRUE(in.ReadFile(path).ok());
  EXPECT_EQ(in.TakeU64(), 42u);
  EXPECT_EQ(in.TakeDouble(), -3.25);
  const DenseVector v = in.TakeVector();
  ASSERT_EQ(v.dim(), 3u);
  EXPECT_EQ(v[0], 1.5);
  EXPECT_EQ(v[1], -2.5);
  EXPECT_EQ(v[2], 0.0);
  Rng restored(1);
  restored.RestoreState(in.TakeRngState());
  EXPECT_TRUE(in.exhausted());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.NextDouble(), rng.NextDouble());
    EXPECT_EQ(restored.NextGaussian(), rng.NextGaussian());
  }
}

TEST(CheckpointTest, CorruptFileIsRejected) {
  const std::string path = testing::TempDir() + "/ck_corrupt.bin";
  Checkpoint out;
  out.PutU64(7);
  out.PutDouble(2.5);
  ASSERT_TRUE(out.WriteFile(path).ok());
  {
    // Flip one payload byte behind the checksum's back.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(3 * sizeof(uint64_t));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x1);
    f.seekp(3 * sizeof(uint64_t));
    f.write(&byte, 1);
  }
  Checkpoint in;
  EXPECT_EQ(in.ReadFile(path).code(), StatusCode::kIoError);
}

TEST(CheckpointTest, EveryHeaderBitFlipIsRejected) {
  // Header: magic, word count, FNV-1a of the words (24 bytes). A flipped
  // word count must fail on the file size, never size an allocation.
  const std::string path = testing::TempDir() + "/ck_header.bin";
  Checkpoint out;
  out.PutU64(7);
  out.PutDouble(2.5);
  out.PutVector(DenseVector(std::vector<double>{1.0, -1.0}));
  ASSERT_TRUE(out.WriteFile(path).ok());
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  ASSERT_GE(bytes.size(), 3 * sizeof(uint64_t));
  for (size_t bit = 0; bit < 3 * sizeof(uint64_t) * 8; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    Checkpoint in;
    EXPECT_FALSE(in.ReadFile(path).ok()) << "bit " << bit;
  }
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  const std::string path = testing::TempDir() + "/ck_missing.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(Checkpoint::Exists(path));
  Checkpoint in;
  EXPECT_EQ(in.ReadFile(path).code(), StatusCode::kNotFound);
  CheckpointConfig config;
  config.path = path;
  config.resume = true;
  Checkpoint ck;
  EXPECT_FALSE(TryResume(config, &ck));  // first run, not an error
}

TEST(CheckpointTest, WordBlocksAreALengthWordAndTheWords) {
  // PutWords writes what a length word and a loop of PutU64 wrote, so
  // snapshots keep their bytes.
  const std::string blocks = testing::TempDir() + "/ck_blocks.bin";
  const std::string loose = testing::TempDir() + "/ck_loose.bin";
  Checkpoint out;
  out.PutWords({});
  out.PutWords({5, 6, 7});
  Checkpoint by_hand;
  for (uint64_t w : {0, 3, 5, 6, 7}) by_hand.PutU64(w);
  ASSERT_TRUE(out.WriteFile(blocks).ok());
  ASSERT_TRUE(by_hand.WriteFile(loose).ok());
  std::ifstream a(blocks, std::ios::binary);
  std::ifstream b(loose, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(a), {}),
            std::string(std::istreambuf_iterator<char>(b), {}));

  Checkpoint in;
  ASSERT_TRUE(in.ReadFile(blocks).ok());
  EXPECT_TRUE(in.TakeWords().empty());
  EXPECT_EQ(in.TakeWords(), (std::vector<uint64_t>{5, 6, 7}));
  EXPECT_TRUE(in.exhausted());
}

// A length word must not outrun the words behind it, and must stop at
// the CHECK before it sizes anything: 2^64 - 1 wrapped the old
// cursor + n bound, 2^63 asks for more than any vector holds, and one
// past the remaining words is the smallest bad value.
constexpr uint64_t kBadLengths[] = {~uint64_t{0}, uint64_t{1} << 63, 3};

// A store whose length word sits at cursor 1, with two words behind it.
Checkpoint WithLengthWord(uint64_t length) {
  Checkpoint ck;
  for (uint64_t w : {uint64_t{7}, length, uint64_t{1}, uint64_t{2}}) {
    ck.PutU64(w);
  }
  (void)ck.TakeU64();
  return ck;
}

TEST(CheckpointDeathTest, LengthWordsPastTheWordsHitTheCheck) {
  for (uint64_t length : kBadLengths) {
    Checkpoint doubles = WithLengthWord(length);
    EXPECT_DEATH(doubles.TakeDoubles(), "length word runs past") << length;
    Checkpoint words = WithLengthWord(length);
    EXPECT_DEATH(words.TakeWords(), "length word runs past") << length;
    Checkpoint elastic = WithLengthWord(length);
    SparkCluster spark(BaseCluster());
    EXPECT_DEATH(TakeElasticWords(&elastic, &spark), "length word runs past")
        << length;
  }
  // The largest good value takes every remaining word.
  Checkpoint exact = WithLengthWord(2);
  EXPECT_EQ(exact.TakeDoubles().size(), 2u);
  EXPECT_TRUE(exact.exhausted());
}

// ---------------------------------------------------------------------
// Checkpoint/resume bit-identity for all seven systems: train 8 steps
// straight vs. train 4 steps (snapshotting at step 4), then resume to
// 8 from the file. Weights must match to the last bit.

class CheckpointResumeTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(CheckpointResumeTest, ResumedRunMatchesUninterruptedBitForBit) {
  const Dataset data = FaultData();
  const ClusterConfig cluster = BaseCluster();
  std::string name = SystemName(GetParam());
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string path = testing::TempDir() + "/resume_" + name + ".bin";
  std::remove(path.c_str());

  TrainerConfig full = BaseConfig();
  const TrainResult uninterrupted =
      MakeTrainer(GetParam(), full)->Train(data, cluster);

  TrainerConfig first = full;
  first.max_comm_steps = 4;
  first.checkpoint.path = path;
  first.checkpoint.every_steps = 4;
  first.checkpoint.resume = true;  // no file yet: starts fresh
  (void)MakeTrainer(GetParam(), first)->Train(data, cluster);
  ASSERT_TRUE(Checkpoint::Exists(path));

  TrainerConfig second = full;
  second.checkpoint = first.checkpoint;  // resumes from step 4
  const TrainResult resumed =
      MakeTrainer(GetParam(), second)->Train(data, cluster);

  ExpectSameWeights(uninterrupted.final_weights, resumed.final_weights);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, CheckpointResumeTest,
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

// ---------------------------------------------------------------------
// Executor crashes: lineage recovery, determinism, numeric neutrality.

TEST(ExecutorCrashTest, ScriptedCrashIsRecoveredAndDeterministic) {
  const Dataset data = FaultData();
  ClusterConfig cluster = BaseCluster();
  cluster.faults.worker_crashes = {{2, 0.0005}};

  TrainerConfig sequential = BaseConfig();
  TrainerConfig parallel = sequential;
  parallel.host_threads = 4;

  const TrainResult a =
      MakeTrainer(SystemKind::kMllibStar, sequential)->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(SystemKind::kMllibStar, parallel)->Train(data, cluster);

  EXPECT_EQ(a.faults.worker_crashes, 1u);
  EXPECT_EQ(a.faults.lineage_recomputes, 1u);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  ExpectSameWeights(a.final_weights, b.final_weights);
  ExpectSameTrace(a.trace, b.trace);

  bool saw_fault_bar = false;
  bool saw_rebuild_bar = false;
  for (const TraceEvent& e : a.trace.events()) {
    saw_fault_bar = saw_fault_bar || e.kind == ActivityKind::kFault;
    saw_rebuild_bar = saw_rebuild_bar || e.kind == ActivityKind::kRecompute;
  }
  EXPECT_TRUE(saw_fault_bar);
  EXPECT_TRUE(saw_rebuild_bar);
}

TEST(ExecutorCrashTest, CrashesCostTimeButNeverWeights) {
  const Dataset data = FaultData();
  const ClusterConfig clean = BaseCluster();
  ClusterConfig crashy = clean;
  crashy.faults.worker_crashes = {{1, 0.0005}, {3, 0.01}};

  const TrainerConfig config = BaseConfig();
  const TrainResult a =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, clean);
  const TrainResult b =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, crashy);

  EXPECT_GT(b.sim_seconds, a.sim_seconds);
  ExpectSameWeights(a.final_weights, b.final_weights);
}

TEST(ExecutorCrashTest, ProbabilisticCrashTraceIsByteIdenticalAcrossRuns) {
  const Dataset data = FaultData();
  ClusterConfig cluster = BaseCluster();
  cluster.faults.worker_crash_prob = 0.15;

  TrainerConfig sequential = BaseConfig();
  TrainerConfig parallel = sequential;
  parallel.host_threads = 4;

  const TrainResult a =
      MakeTrainer(SystemKind::kMllib, sequential)->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(SystemKind::kMllib, sequential)->Train(data, cluster);
  const TrainResult c =
      MakeTrainer(SystemKind::kMllib, parallel)->Train(data, cluster);

  EXPECT_GT(a.faults.worker_crashes, 0u);
  ExpectSameTrace(a.trace, b.trace);
  ExpectSameTrace(a.trace, c.trace);
  ExpectSameWeights(a.final_weights, c.final_weights);
}

TEST(ExecutorCrashTest, PsWorkerCrashRecoversOnTheSameNode) {
  const Dataset data = FaultData();
  ClusterConfig cluster = BaseCluster();
  cluster.faults.worker_crashes = {{1, 0.001}};

  TrainerConfig sequential = BaseConfig();
  sequential.max_comm_steps = 6;
  TrainerConfig parallel = sequential;
  parallel.host_threads = 4;

  const TrainResult a =
      MakeTrainer(SystemKind::kPetuum, sequential)->Train(data, cluster);
  const TrainResult b =
      MakeTrainer(SystemKind::kPetuum, parallel)->Train(data, cluster);

  EXPECT_EQ(a.faults.worker_crashes, 1u);
  EXPECT_GE(a.faults.lineage_recomputes, 1u);
  ExpectSameWeights(a.final_weights, b.final_weights);
  ExpectSameTrace(a.trace, b.trace);
}

}  // namespace
}  // namespace mllibstar
