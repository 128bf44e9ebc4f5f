// Figure 4: MLlib vs MLlib* on four datasets, with and without L2
// regularization. As in the paper (§V-A), hyperparameters are tuned
// per workload by grid search; we then regenerate both series
// (objective vs #communication steps, objective vs simulated time)
// and report the step/time speedups at 0.01 accuracy loss.
//
// Paper shapes to reproduce:
//  * MLlib* needs orders of magnitude fewer communication steps;
//  * the time speedup exceeds the step speedup on high-dimensional
//    data (AllReduce removes the driver bottleneck — kdd12: 80x steps
//    but 240x time);
//  * without L2, MLlib fails to reach the optimum on the
//    underdetermined datasets (url, kddb) within the step budget;
//  * with L2 = 0.1 the problem is better conditioned and the gap
//    narrows (paper: avazu 7x, kdd12 21x).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "train/grid_search.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

void RunSubfigure(const char* dataset, double lambda) {
  const Dataset data = GenerateSynthetic(SpecByName(dataset).value());
  const ClusterConfig cluster = ClusterConfig::Cluster1(8);

  TrainerConfig base;
  base.loss = LossKind::kHinge;
  base.regularizer =
      lambda > 0 ? RegularizerKind::kL2 : RegularizerKind::kNone;
  base.lambda = lambda;
  base.lr_schedule = LrScheduleKind::kInverseSqrt;

  // Tune and run MLlib*.
  GridSearchSpec star_grid;
  star_grid.learning_rates = {0.1, 0.3, 1.0};
  star_grid.batch_fractions = {0.01};  // unused by MLlib*
  star_grid.trial_comm_steps = 10;
  TrainerConfig star_config = base;
  star_config.max_comm_steps = 40;
  star_config =
      GridSearch(SystemKind::kMllibStar, star_config, star_grid, data,
                 cluster)
          .best_config;
  const TrainResult star =
      MakeTrainer(SystemKind::kMllibStar, star_config)->Train(data, cluster);

  // Tune and run MLlib. Without regularization the SendGradient
  // paradigm needs thousands of steps, so the grid trials must be long
  // enough to rank learning rates by long-run progress; with L2 the
  // problem is strongly convex and short trials suffice.
  GridSearchSpec mllib_grid;
  mllib_grid.learning_rates = lambda > 0
                                  ? std::vector<double>{1.0, 4.0, 16.0}
                                  : std::vector<double>{16.0, 64.0, 256.0,
                                                        512.0};
  mllib_grid.batch_fractions = {0.01, 0.1};
  mllib_grid.trial_comm_steps = lambda > 0 ? 150 : 1000;
  TrainerConfig mllib_config = base;
  mllib_config.eval_every = lambda > 0 ? 10 : 50;
  // The paper reports MLlib needing 80-200x more steps than MLlib*'s
  // ~30; give it room to actually converge on the determined datasets.
  mllib_config.max_comm_steps = lambda > 0 ? 600 : 8000;
  mllib_config =
      GridSearch(SystemKind::kMllib, mllib_config, mllib_grid, data, cluster)
          .best_config;
  mllib_config.target_objective = star.curve.BestObjective() + 0.005;
  const TrainResult mllib =
      MakeTrainer(SystemKind::kMllib, mllib_config)->Train(data, cluster);

  const double target = TargetObjective({star.curve, mllib.curve}, 0.01);
  std::printf("\n--- %s, L2=%.2g ---\n", dataset, lambda);
  std::printf("  tuned: mllib lr=%.1f batch=%.0f%%; mllib* lr=%.1f\n",
              mllib_config.base_lr, mllib_config.batch_fraction * 100,
              star_config.base_lr);
  std::printf("  target objective (optimum+0.01):   %8.4f\n", target);
  std::printf("  mllib : best %.4f after %d steps / %.1fs\n",
              mllib.curve.BestObjective(), mllib.comm_steps,
              mllib.sim_seconds);
  std::printf("  mllib*: best %.4f after %d steps / %.1fs\n",
              star.curve.BestObjective(), star.comm_steps,
              star.sim_seconds);
  bench::PrintSpeedup("speedup in communication steps:",
                      StepSpeedupAtTarget(mllib.curve, star.curve, target));
  bench::PrintSpeedup("speedup in time:",
                      SpeedupAtTarget(mllib.curve, star.curve, target));
  bench::SaveCurves(std::string("fig4_") + dataset + "_l2_" +
                        (lambda > 0 ? "0.1" : "0"),
                    {mllib.curve, star.curve});
}

}  // namespace

int main() {
  std::printf(
      "Figure 4 — MLlib vs MLlib*, SVM, 8 executors (Cluster 1), "
      "grid-searched hyperparameters\n");
  for (const char* dataset : {"avazu", "url", "kddb", "kdd12"}) {
    RunSubfigure(dataset, /*lambda=*/0.0);  // Figures 4(b)(d)(f)(h)
    RunSubfigure(dataset, /*lambda=*/0.1);  // Figures 4(a)(c)(e)(g)
  }
  return 0;
}
