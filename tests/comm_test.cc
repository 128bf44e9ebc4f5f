#include "comm/codec.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "comm/error_feedback.h"
#include "data/synthetic.h"
#include "sim/network.h"
#include "train/trainer.h"

namespace mllibstar {
namespace {

DenseVector TestVector(size_t dim, uint64_t seed = 17) {
  // Deterministic mix of signs, magnitudes, and exact zeros — the
  // shapes gradients and model deltas actually take.
  DenseVector v(dim);
  uint64_t state = seed;
  for (size_t i = 0; i < dim; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u =
        static_cast<double>(state >> 11) / static_cast<double>(1ull << 53);
    if (i % 7 == 0) {
      v[i] = 0.0;
    } else {
      v[i] = (u - 0.5) * std::pow(10.0, static_cast<double>(i % 5) - 2.0);
    }
  }
  return v;
}

CodecConfig ConfigFor(CodecKind kind) {
  CodecConfig config;
  config.kind = kind;
  config.quant_chunk = 64;  // several chunks even at small test dims
  config.topk_ratio = 0.1;
  return config;
}

const CodecKind kAllKinds[] = {CodecKind::kDenseF64, CodecKind::kDenseF32,
                               CodecKind::kInt16Linear,
                               CodecKind::kInt8Linear, CodecKind::kTopK};

TEST(CodecTest, DenseF64RoundTripIsBitExact) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kDenseF64));
  const DenseVector v = TestVector(301);
  const EncodedChunk chunk = codec->Encode(v);
  EXPECT_EQ(chunk.bytes, NetworkModel::DenseBytes(301));
  const DenseVector back = codec->Decode(chunk);
  ASSERT_EQ(back.dim(), v.dim());
  EXPECT_EQ(std::memcmp(back.data(), v.data(), 8 * v.dim()), 0);
}

TEST(CodecTest, DenseF32RoundTripWithinFloatPrecision) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kDenseF32));
  const DenseVector v = TestVector(301);
  const DenseVector back = codec->Decode(codec->Encode(v));
  for (size_t i = 0; i < v.dim(); ++i) {
    // float32 keeps ~7 significant digits.
    EXPECT_NEAR(back[i], v[i], 1e-6 * std::fabs(v[i]) + 1e-30) << "i=" << i;
  }
}

// The linear quantizers' contract: per chunk, the error is at most
// half a quantization step of that chunk's [min, max] range (plus the
// float32 rounding of the endpoints themselves).
void ExpectQuantErrorBounded(CodecKind kind, double levels) {
  CodecConfig config = ConfigFor(kind);
  const auto codec = MakeCodec(config);
  const DenseVector v = TestVector(1000);
  const DenseVector back = codec->Decode(codec->Encode(v));
  for (size_t begin = 0; begin < v.dim(); begin += config.quant_chunk) {
    const size_t end = std::min(v.dim(), begin + config.quant_chunk);
    double lo = v[begin];
    double hi = v[begin];
    for (size_t i = begin; i < end; ++i) {
      lo = std::min(lo, v[i]);
      hi = std::max(hi, v[i]);
    }
    const double bound =
        0.5 * (hi - lo) / levels + 1e-6 * (std::fabs(lo) + std::fabs(hi));
    for (size_t i = begin; i < end; ++i) {
      EXPECT_NEAR(back[i], v[i], bound) << "i=" << i;
    }
  }
}

TEST(CodecTest, Int8MaxErrorBoundedByChunkStep) {
  ExpectQuantErrorBounded(CodecKind::kInt8Linear, 255.0);
}

TEST(CodecTest, Int16MaxErrorBoundedByChunkStep) {
  ExpectQuantErrorBounded(CodecKind::kInt16Linear, 65535.0);
}

TEST(CodecTest, QuantizationHandlesConstantChunks) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kInt8Linear));
  DenseVector v(130);
  for (size_t i = 0; i < v.dim(); ++i) v[i] = -3.25;
  const DenseVector back = codec->Decode(codec->Encode(v));
  for (size_t i = 0; i < v.dim(); ++i) {
    EXPECT_NEAR(back[i], -3.25, 1e-6);
  }
}

TEST(CodecTest, TopKPreservesTopMagnitudesExactly) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kTopK));  // keeps 10%
  const DenseVector v = TestVector(500);
  const DenseVector back = codec->Decode(codec->Encode(v));

  // Find the 50th largest magnitude: everything strictly above it must
  // survive bit-exactly; everything not kept must decode to zero.
  std::vector<double> mags;
  for (size_t i = 0; i < v.dim(); ++i) mags.push_back(std::fabs(v[i]));
  std::sort(mags.begin(), mags.end(), std::greater<double>());
  const double threshold = mags[49];

  size_t kept = 0;
  for (size_t i = 0; i < v.dim(); ++i) {
    if (back[i] != 0.0) {
      EXPECT_EQ(back[i], v[i]) << "kept coordinate altered at i=" << i;
      ++kept;
    } else if (std::fabs(v[i]) > threshold) {
      ADD_FAILURE() << "top-magnitude coordinate dropped at i=" << i;
    }
  }
  EXPECT_EQ(kept, 50u);
}

TEST(CodecTest, EncodedBytesMatchesActualEncodeForAllKinds) {
  for (CodecKind kind : kAllKinds) {
    const auto codec = MakeCodec(ConfigFor(kind));
    for (size_t dim : {1, 5, 64, 65, 301, 1000}) {
      const EncodedChunk chunk = codec->Encode(TestVector(dim));
      EXPECT_EQ(chunk.bytes, codec->EncodedBytes(dim))
          << codec->name() << " dim=" << dim;
      EXPECT_EQ(chunk.bytes, chunk.payload.size())
          << codec->name() << " dim=" << dim;
    }
  }
}

TEST(CodecTest, CompressionRatiosAreAsAdvertised) {
  const size_t dim = 10000;
  const uint64_t dense = MakeCodec(ConfigFor(CodecKind::kDenseF64))
                             ->EncodedBytes(dim);
  EXPECT_EQ(MakeCodec(ConfigFor(CodecKind::kDenseF32))->EncodedBytes(dim),
            dense / 2);
  // Int8 is ~8x smaller; the per-chunk min/max headers cost a bit.
  const uint64_t int8 =
      MakeCodec(ConfigFor(CodecKind::kInt8Linear))->EncodedBytes(dim);
  EXPECT_GE(dense / int8, 7u);
  EXPECT_LE(int8, dense / 4);  // the ablation's headline claim
}

TEST(CodecTest, SparseEncodedBytesMatchesLegacyPsAccounting) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kDenseF64));
  EXPECT_EQ(codec->SparseEncodedBytes(10, 1000), 120u);  // 12 per pair
  // Capped by the dense encoding when nnz is large.
  EXPECT_EQ(codec->SparseEncodedBytes(900, 1000),
            NetworkModel::DenseBytes(1000));
  EXPECT_EQ(PassthroughCodec().SparseEncodedBytes(10, 1000), 120u);
}

TEST(CodecTest, SparseEncodedBytesShrinksWithValueWidth) {
  const size_t dim = 100000;
  const size_t nnz = 100;
  const uint64_t f64 = MakeCodec(ConfigFor(CodecKind::kDenseF64))
                           ->SparseEncodedBytes(nnz, dim);
  const uint64_t f32 = MakeCodec(ConfigFor(CodecKind::kDenseF32))
                           ->SparseEncodedBytes(nnz, dim);
  const uint64_t i8 = MakeCodec(ConfigFor(CodecKind::kInt8Linear))
                          ->SparseEncodedBytes(nnz, dim);
  EXPECT_GT(f64, f32);
  EXPECT_GT(f32, i8);
  EXPECT_EQ(i8, 5u * nnz);  // 4-byte index + 1-byte value
}

TEST(ErrorFeedbackTest, ResidualHoldsWhatTheWireDropped) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kTopK));
  ErrorFeedback ef(2, 500);
  const DenseVector v = TestVector(500);
  DenseVector sent = v;
  CodecTransmit(*codec, &ef, 1, &sent);
  // residual + sent == original, coordinate by coordinate. (Copy: the
  // accumulator overwrites its residual on the next transmit.)
  const DenseVector r = ef.residual(1);
  for (size_t i = 0; i < v.dim(); ++i) {
    EXPECT_DOUBLE_EQ(r[i] + sent[i], v[i]) << "i=" << i;
  }
  // A second round re-ships the dropped mass: compensation means the
  // encoded vector is v + residual, so previously dropped coordinates
  // grow until they make the top-K cut.
  DenseVector sent2 = v;
  CodecTransmit(*codec, &ef, 1, &sent2);
  const DenseVector& r2 = ef.residual(1);
  for (size_t i = 0; i < v.dim(); ++i) {
    EXPECT_NEAR(r2[i] + sent2[i], v[i] + r[i], 1e-12) << "i=" << i;
  }
}

TEST(ErrorFeedbackTest, DisabledForLosslessCodecs) {
  const CodecConfig config = ConfigFor(CodecKind::kDenseF64);
  const auto codec = MakeCodec(config);
  const ErrorFeedback ef = MakeErrorFeedback(*codec, config, 8, 100);
  EXPECT_FALSE(ef.enabled());
}

TEST(ErrorFeedbackTest, LosslessTransmitIsIdentity) {
  const auto codec = MakeCodec(ConfigFor(CodecKind::kDenseF64));
  const DenseVector v = TestVector(301);
  CodecTally tally;
  DenseVector sent = v;
  const double* storage = sent.data();
  const uint64_t bytes = CodecTransmit(*codec, nullptr, 0, &sent, &tally);
  EXPECT_EQ(std::memcmp(sent.data(), v.data(), 8 * v.dim()), 0);
  EXPECT_EQ(sent.data(), storage);  // in place: nothing copied
  EXPECT_EQ(bytes, NetworkModel::DenseBytes(301));
  EXPECT_EQ(tally.encoded, bytes);
  EXPECT_EQ(tally.raw, 8u * 301);
  // A lossless broadcast hands the receivers the sender's own vector.
  DenseVector unused;
  EXPECT_EQ(&CodecBroadcast(*codec, v, &unused), &v);
  EXPECT_EQ(unused.dim(), 0u);
}

// A broadcast decodes once; later receivers of the same vector are
// accounted without re-encoding, and the codec tally cannot tell the
// two apart.
TEST(ErrorFeedbackTest, BroadcastAccountingMatchesTransmit) {
  for (CodecKind kind : {CodecKind::kDenseF64, CodecKind::kInt8Linear}) {
    const auto codec = MakeCodec(ConfigFor(kind));
    const DenseVector v = TestVector(300);
    CodecTally broadcast;
    DenseVector received;
    const DenseVector& first = CodecBroadcast(*codec, v, &received, &broadcast);
    AccountBroadcast(*codec, v.dim(), &broadcast);
    EXPECT_EQ(broadcast.raw, 2u * 8 * v.dim());
    EXPECT_EQ(broadcast.encoded, 2 * codec->EncodedBytes(v.dim()));
    CodecTally transmit;
    DenseVector again = v;
    const uint64_t bytes = CodecTransmit(*codec, nullptr, 0, &again, &transmit);
    EXPECT_EQ(std::memcmp(again.data(), first.data(), 8 * v.dim()), 0);
    EXPECT_EQ(2 * bytes, broadcast.encoded);
    EXPECT_EQ(2 * transmit.raw, broadcast.raw);
    EXPECT_EQ(2 * transmit.encoded, broadcast.encoded);
  }
}

// The convergence claim behind the whole subsystem: int8-quantized
// training with error feedback lands within a whisker of the dense
// objective while moving far fewer bytes.
TEST(ErrorFeedbackTest, QuantizedMgdMatchesDenseObjective) {
  SyntheticSpec spec = AvazuSpec(2e-4);
  const Dataset data = GenerateSynthetic(spec);
  ClusterConfig cluster = ClusterConfig::Cluster1(4);

  TrainerConfig config;
  config.loss = LossKind::kHinge;
  config.base_lr = 0.3;
  config.lr_schedule = LrScheduleKind::kConstant;
  config.max_comm_steps = 25;
  config.seed = 7;

  const TrainResult dense =
      MakeTrainer(SystemKind::kMllibStar, config)->Train(data, cluster);

  TrainerConfig int8 = config;
  int8.codec.kind = CodecKind::kInt8Linear;
  const TrainResult quant =
      MakeTrainer(SystemKind::kMllibStar, int8)->Train(data, cluster);

  ASSERT_FALSE(quant.diverged);
  EXPECT_LT(quant.total_bytes, dense.total_bytes / 4);
  EXPECT_NEAR(quant.curve.BestObjective(), dense.curve.BestObjective(),
              0.01 * std::fabs(dense.curve.BestObjective()));

  // Without error feedback the quantization bias is free to
  // accumulate; with it, the run must do at least as well.
  TrainerConfig no_ef = int8;
  no_ef.codec.error_feedback = false;
  const TrainResult biased =
      MakeTrainer(SystemKind::kMllibStar, no_ef)->Train(data, cluster);
  EXPECT_LE(quant.curve.BestObjective(),
            biased.curve.BestObjective() + 1e-6);
}

}  // namespace
}  // namespace mllibstar
