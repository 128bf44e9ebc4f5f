// Ablation: SSP staleness bound on the heterogeneous cluster.
// Staleness trades blocked time (stragglers gate BSP barriers) for
// update quality (stale reads). Sweep s on Cluster 2's jittery nodes.
#include <cstdio>

#include "data/synthetic.h"
#include "train/trainer.h"

int main() {
  using namespace mllibstar;

  // Compute-heavy rounds (big batches on the full-scale synthetic
  // avazu) on the jittery Cluster 2: this is where BSP pays the
  // sum-of-per-round-maxima straggler tax that SSP amortizes.
  const Dataset data = GenerateSynthetic(AvazuSpec());
  ClusterConfig cluster = ClusterConfig::Cluster2(8);
  cluster.straggler_sigma = 0.5;

  std::printf(
      "Ablation — SSP staleness (petuum*, heterogeneous Cluster 2)\n\n");
  std::printf("%-10s %12s %12s %12s\n", "staleness", "best-obj",
              "sim-time(s)", "wait-time(s)");

  for (int staleness : {0, 1, 2, 4, 8}) {
    TrainerConfig config;
    config.loss = LossKind::kLogistic;
    config.base_lr = 0.3;
    config.lr_schedule = LrScheduleKind::kConstant;
    config.batch_fraction = 0.5;
    config.max_comm_steps = 40;
    config.eval_every = 5;
    config.ps.staleness = staleness;

    const TrainResult result =
        MakeTrainer(SystemKind::kPetuumStar, config)->Train(data, cluster);

    double wait = 0.0;
    for (const TraceEvent& e : result.trace.events()) {
      if (e.kind == ActivityKind::kWait) wait += e.end - e.start;
    }
    std::printf("%-10d %12.4f %12.2f %12.2f\n", staleness,
                result.curve.BestObjective(), result.sim_seconds, wait);
  }
  std::printf(
      "\nExpected shape: blocked time and total time drop monotonically "
      "with the staleness bound, while the reached objective degrades "
      "as reads get staler — mild at s=1, visible by s=4. Picking s is "
      "the time-vs-quality tradeoff the paper tunes by grid search.\n");
  return 0;
}
