// Ablation: treeAggregate fan-in. MLlib shifts aggregation load off
// the driver through intermediate aggregators; this sweep shows how
// the per-step latency of the driver-centric pattern depends on the
// aggregator count, and why none of it matches AllReduce.
#include <cstdio>

#include "engine/spark_cluster.h"
#include "sim/network.h"

int main() {
  using namespace mllibstar;

  const size_t k = 16;
  const size_t model_dim = 54686;  // kdd12-shaped
  const uint64_t bytes = NetworkModel::DenseBytes(model_dim);

  std::printf(
      "Ablation — treeAggregate aggregator count (k=%zu executors, "
      "%.2f MB model)\n\n",
      k, static_cast<double>(bytes) / 1e6);
  std::printf("%-14s %16s\n", "aggregators", "step latency(s)");

  ClusterConfig config = ClusterConfig::Cluster1(k);
  config.straggler_sigma = 0.0;

  for (size_t aggs : {1, 2, 4, 8, 16}) {
    SparkCluster spark(config);
    spark.Broadcast(bytes, "bcast");
    spark.TreeAggregate(bytes, aggs, model_dim, "agg");
    std::printf("%-14zu %16.2f\n", aggs, spark.Barrier());
  }

  // The AllReduce alternative for reference.
  SparkCluster allreduce(config);
  const uint64_t piece = NetworkModel::DenseBytes((model_dim + k - 1) / k);
  allreduce.ShuffleAllToAll(piece, "rs");
  allreduce.ShuffleAllToAll(piece, "ag");
  std::printf("%-14s %16.2f\n", "allreduce", allreduce.Barrier());
  std::printf(
      "\nExpected shape: more aggregators help the driver-centric "
      "pattern, with diminishing returns; the two-phase shuffle beats "
      "every setting because no single link carries k payloads.\n");
  return 0;
}
