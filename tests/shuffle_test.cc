#include "engine/shuffle.h"

#include <cmath>
#include <gtest/gtest.h>

#include "comm/codec.h"
#include "core/vector.h"
#include "data/partition.h"

namespace mllibstar {
namespace {

ClusterConfig TestConfig(size_t workers) {
  ClusterConfig config = ClusterConfig::Cluster1(workers);
  config.straggler_sigma = 0.0;
  return config;
}

TEST(ShuffleExchangeTest, RoutesValuesToDestinations) {
  SparkCluster cluster(TestConfig(3));
  std::vector<std::vector<ShuffleMessage<int>>> outgoing(3);
  outgoing[0].push_back({1, 8, 100});
  outgoing[0].push_back({2, 8, 200});
  outgoing[1].push_back({2, 8, 300});
  outgoing[2].push_back({0, 8, 400});
  const auto received = ShuffleExchange(&cluster, std::move(outgoing), "t");
  ASSERT_EQ(received[0].size(), 1u);
  EXPECT_EQ(received[0][0], 400);
  ASSERT_EQ(received[1].size(), 1u);
  EXPECT_EQ(received[1][0], 100);
  ASSERT_EQ(received[2].size(), 2u);
  EXPECT_EQ(received[2][0], 200);
  EXPECT_EQ(received[2][1], 300);
}

TEST(ShuffleExchangeTest, SelfSendsAreFree) {
  SparkCluster cluster(TestConfig(2));
  std::vector<std::vector<ShuffleMessage<int>>> outgoing(2);
  outgoing[0].push_back({0, 1000000, 7});
  const auto received = ShuffleExchange(&cluster, std::move(outgoing), "t");
  EXPECT_EQ(received[0][0], 7);
  EXPECT_EQ(cluster.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(cluster.sim().worker(0).clock, 0.0);
}

TEST(ShuffleExchangeTest, SkewedLoadGatesTheSkewedLink) {
  // Worker 0 sends 10x the bytes of the others; its link finishes
  // last and its clock reflects that, while lightly loaded links
  // finish early — this is what the uniform ShuffleAllToAll cannot
  // express.
  SparkCluster cluster(TestConfig(3));
  std::vector<std::vector<ShuffleMessage<int>>> outgoing(3);
  outgoing[0].push_back({1, 1000000, 0});
  outgoing[1].push_back({2, 100000, 0});
  ShuffleExchange(&cluster, std::move(outgoing), "t");
  const SimTime heavy_sender = cluster.sim().worker(0).clock;
  const SimTime heavy_receiver = cluster.sim().worker(1).clock;
  const SimTime light = cluster.sim().worker(2).clock;
  EXPECT_GT(heavy_sender, light);
  EXPECT_DOUBLE_EQ(heavy_receiver, heavy_sender);  // same 1 MB load
}

TEST(ShuffleExchangeTest, StartsAfterSlowestMapOutput) {
  SparkCluster cluster(TestConfig(2));
  cluster.RunOnWorkers("compute", [](size_t r) {
    WorkerStats stats;
    stats.work_units = r == 0 ? 1000000 : 0;
    return stats;
  });
  const SimTime slowest = cluster.sim().worker(0).clock;
  std::vector<std::vector<ShuffleMessage<int>>> outgoing(2);
  outgoing[1].push_back({0, 1000, 1});
  ShuffleExchange(&cluster, std::move(outgoing), "t");
  // Worker 1's transfer could not start before worker 0's map ended.
  EXPECT_GT(cluster.sim().worker(1).clock, slowest);
}

TEST(ShuffleExchangeTest, ByteAccountingExcludesSelf) {
  SparkCluster cluster(TestConfig(2));
  std::vector<std::vector<ShuffleMessage<int>>> outgoing(2);
  outgoing[0].push_back({1, 500, 0});
  outgoing[1].push_back({1, 999, 0});  // self
  ShuffleExchange(&cluster, std::move(outgoing), "t");
  EXPECT_EQ(cluster.total_bytes(), 500u);
}

TEST(ShuffleExchangeTest, ReduceScatterAllGatherEqualsAverage) {
  // Full MLlib* averaging through the typed exchange: each worker
  // owns a model range, ships the other ranges, averages its own,
  // then broadcasts it back — the result must equal the plain mean.
  const size_t k = 4;
  const size_t d = 10;
  SparkCluster cluster(TestConfig(k));
  const auto ranges = PartitionModel(d, k);

  // Worker r's local model: all components equal to r+1.
  std::vector<DenseVector> locals;
  for (size_t r = 0; r < k; ++r) {
    DenseVector w(d);
    for (size_t i = 0; i < d; ++i) w[i] = static_cast<double>(r + 1);
    locals.push_back(std::move(w));
  }

  // Reduce-Scatter: send range p of my model to worker p.
  struct Piece {
    size_t range;
    std::vector<double> values;
  };
  std::vector<std::vector<ShuffleMessage<Piece>>> scatter(k);
  for (size_t r = 0; r < k; ++r) {
    for (size_t p = 0; p < k; ++p) {
      Piece piece{p, {}};
      for (FeatureIndex i = ranges[p].begin; i < ranges[p].end; ++i) {
        piece.values.push_back(locals[r][i]);
      }
      scatter[r].push_back(
          {p, 8 * static_cast<uint64_t>(piece.values.size()),
           std::move(piece)});
    }
  }
  auto pieces = ShuffleExchange(&cluster, std::move(scatter), "rs");

  // Each worker averages its range over the k contributions.
  std::vector<std::vector<double>> averaged(k);
  for (size_t p = 0; p < k; ++p) {
    averaged[p].assign(ranges[p].size(), 0.0);
    for (const Piece& piece : pieces[p]) {
      for (size_t i = 0; i < piece.values.size(); ++i) {
        averaged[p][i] += piece.values[i] / static_cast<double>(k);
      }
    }
  }

  // AllGather: every owner broadcasts its averaged range.
  std::vector<std::vector<ShuffleMessage<Piece>>> gather(k);
  for (size_t p = 0; p < k; ++p) {
    for (size_t dest = 0; dest < k; ++dest) {
      gather[p].push_back(
          {dest, 8 * static_cast<uint64_t>(averaged[p].size()),
           Piece{p, averaged[p]}});
    }
  }
  auto full = ShuffleExchange(&cluster, std::move(gather), "ag");

  // Reassemble on worker 0 and compare with the direct average.
  DenseVector reassembled(d);
  for (const Piece& piece : full[0]) {
    for (size_t i = 0; i < piece.values.size(); ++i) {
      reassembled[ranges[piece.range].begin + i] = piece.values[i];
    }
  }
  const DenseVector expected = Average(locals);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_DOUBLE_EQ(reassembled[i], expected[i]) << "i=" << i;
  }
}

TEST(ShuffleExchangeTest, CodecShrunkMessagesShiftTheBottleneckLink) {
  // Workers ship real encoded payloads of heterogeneous sizes: worker
  // 0 still sends dense float64, worker 1 int8-quantized. The codec
  // derives each ShuffleMessage's bytes, so worker 0's link becomes
  // the bottleneck and the exchange's byte accounting shrinks by
  // exactly the compression the codec delivered.
  const size_t dim = 4096;
  SparkCluster cluster(TestConfig(3));

  CodecConfig int8_config;
  int8_config.kind = CodecKind::kInt8Linear;
  const auto dense = MakeCodec(CodecConfig{});
  const auto int8 = MakeCodec(int8_config);

  DenseVector payload(dim);
  for (size_t i = 0; i < dim; ++i) {
    payload[i] = std::sin(static_cast<double>(i)) * 0.01;
  }
  EncodedChunk heavy = dense->Encode(payload);
  EncodedChunk light = int8->Encode(payload);
  ASSERT_GT(heavy.bytes / light.bytes, 4u);

  const uint64_t heavy_bytes = heavy.bytes;
  const uint64_t light_bytes = light.bytes;
  std::vector<std::vector<ShuffleMessage<EncodedChunk>>> outgoing(3);
  outgoing[0].push_back({2, heavy_bytes, std::move(heavy)});
  outgoing[1].push_back({2, light_bytes, std::move(light)});
  const auto received = ShuffleExchange(&cluster, std::move(outgoing), "t");

  EXPECT_EQ(cluster.total_bytes(), heavy_bytes + light_bytes);
  // The uncompressed sender's link finishes last among the senders.
  EXPECT_GT(cluster.sim().worker(0).clock, cluster.sim().worker(1).clock);

  // The receiver decodes what actually crossed the wire; the
  // quantized copy is close to (but cheaper than) the dense one.
  ASSERT_EQ(received[2].size(), 2u);
  const DenseVector from_dense = dense->Decode(received[2][0]);
  const DenseVector from_int8 = int8->Decode(received[2][1]);
  for (size_t i = 0; i < dim; ++i) {
    EXPECT_DOUBLE_EQ(from_dense[i], payload[i]);
    EXPECT_NEAR(from_int8[i], payload[i], 0.02 / 255.0 + 1e-9);
  }
}

}  // namespace
}  // namespace mllibstar
