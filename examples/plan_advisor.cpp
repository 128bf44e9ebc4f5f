// Plan advisor: pick the right training system for a workload before
// running anything — the cost-based-optimizer idea the paper's related
// work attributes to Kaoudi et al. [11], built on this repository's
// analytic cost model. Prints the predicted per-step cost breakdown
// for every system on every paper dataset, then validates the top
// recommendation by simulating it.
#include <cstdio>

#include "data/synthetic.h"
#include "train/plan_optimizer.h"

int main() {
  using namespace mllibstar;

  const ClusterConfig cluster = ClusterConfig::Cluster1(8);
  TrainerConfig config;
  config.base_lr = 0.3;
  config.lr_schedule = LrScheduleKind::kConstant;

  for (const char* name : {"avazu", "url", "kddb", "kdd12"}) {
    const Dataset data = GenerateSynthetic(SpecByName(name, 3e-4).value());
    const DatasetStats stats = data.Stats();
    std::printf("\n=== %s (%zu x %zu) ===\n", name, stats.num_instances,
                stats.num_features);
    std::printf("%-12s %10s %10s %10s %12s %14s\n", "system", "compute",
                "network", "driver", "step(s)", "updates/step");

    const PlanRecommendation rec = RecommendPlan(stats, cluster, config);
    for (const PlanCost& cost : rec.ranked) {
      std::printf("%-12s %10.3f %10.3f %10.3f %12.3f %14.0f\n",
                  SystemName(cost.system).c_str(), cost.compute_seconds,
                  cost.network_seconds, cost.driver_seconds,
                  cost.step_seconds, cost.updates_per_step);
    }
    std::printf("-> %s\n", rec.rationale.c_str());

    // Validate the winner with one short simulated run.
    TrainerConfig run = config;
    run.max_comm_steps = 5;
    const TrainResult result =
        MakeTrainer(rec.ranked.front().system, run)->Train(data, cluster);
    std::printf("   simulated check: %.3fs/step (predicted %.3fs)\n",
                result.sim_seconds / result.comm_steps,
                rec.ranked.front().step_seconds);
  }
  return 0;
}
