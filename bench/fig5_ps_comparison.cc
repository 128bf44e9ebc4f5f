// Figure 5: MLlib* vs parameter servers (Petuum*, Angel), with MLlib
// as the reference, on four datasets with and without L2. As in the
// paper (§V-A), every system's hyperparameters are grid-searched per
// workload (including SSP staleness for the PS systems).
//
// Paper shapes to reproduce:
//  * Petuum* and Angel are far faster than MLlib;
//  * MLlib* is comparable to or better than both when L2 = 0 (all of
//    them run parallel SGD + model averaging in some form);
//  * with L2 != 0, MLlib* wins clearly — its lazy sparse updates pack
//    many more updates per communication step — and Angel beats
//    Petuum* (per-epoch vs per-batch communication when every Petuum
//    step buys only one expensive batch-GD update).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/strings.h"
#include "data/synthetic.h"
#include "train/grid_search.h"
#include "train/trainer.h"

namespace {

using namespace mllibstar;

TrainResult TunedRun(SystemKind kind, const TrainerConfig& base,
                     const GridSearchSpec& grid, const Dataset& data,
                     const ClusterConfig& cluster,
                     std::optional<double> stop_at = std::nullopt) {
  TrainerConfig best = GridSearch(kind, base, grid, data, cluster).best_config;
  best.target_objective = stop_at;
  return MakeTrainer(kind, best)->Train(data, cluster);
}

void RunSubfigure(const char* dataset, double lambda) {
  const Dataset data = GenerateSynthetic(SpecByName(dataset).value());
  const ClusterConfig cluster = ClusterConfig::Cluster1(8);
  const bool regularized = lambda > 0;

  TrainerConfig base;
  base.loss = LossKind::kHinge;
  base.regularizer =
      regularized ? RegularizerKind::kL2 : RegularizerKind::kNone;
  base.lambda = lambda;
  base.lr_schedule = LrScheduleKind::kInverseSqrt;
  base.ps.num_shards = 2;

  // MLlib*.
  GridSearchSpec star_grid;
  star_grid.learning_rates = {0.1, 0.3, 1.0};
  star_grid.batch_fractions = {0.01};  // unused
  star_grid.trial_comm_steps = 10;
  TrainerConfig star_base = base;
  star_base.max_comm_steps = 40;
  const TrainResult star =
      TunedRun(SystemKind::kMllibStar, star_base, star_grid, data, cluster);
  const double stop_at = star.curve.BestObjective() + 0.005;

  // Petuum*: per-batch communication; SSP staleness is tuned too.
  GridSearchSpec petuum_grid;
  petuum_grid.learning_rates = {0.1, 0.3, 1.0};
  petuum_grid.batch_fractions = {0.05, 0.2};
  petuum_grid.stalenesses = {0, 2};
  petuum_grid.trial_comm_steps = 60;
  TrainerConfig petuum_base = base;
  petuum_base.max_comm_steps = regularized ? 600 : 1200;
  petuum_base.eval_every = 10;
  const TrainResult petuum =
      TunedRun(SystemKind::kPetuumStar, petuum_base, petuum_grid, data,
               cluster, stop_at);

  // Angel: per-epoch communication.
  GridSearchSpec angel_grid;
  angel_grid.learning_rates = {0.1, 0.3, 1.0};
  angel_grid.batch_fractions = {0.01, 0.05};
  angel_grid.trial_comm_steps = 5;
  TrainerConfig angel_base = base;
  angel_base.max_comm_steps = 40;
  const TrainResult angel = TunedRun(SystemKind::kAngel, angel_base,
                                     angel_grid, data, cluster, stop_at);

  // MLlib reference.
  GridSearchSpec mllib_grid;
  mllib_grid.learning_rates =
      regularized ? std::vector<double>{1.0, 4.0, 16.0}
                  : std::vector<double>{16.0, 64.0, 256.0};
  mllib_grid.batch_fractions = {0.01, 0.1};
  mllib_grid.trial_comm_steps = regularized ? 150 : 500;
  TrainerConfig mllib_base = base;
  mllib_base.max_comm_steps = regularized ? 600 : 4000;
  mllib_base.eval_every = regularized ? 10 : 25;
  const TrainResult mllib = TunedRun(SystemKind::kMllib, mllib_base,
                                     mllib_grid, data, cluster, stop_at);

  const std::vector<ConvergenceCurve> curves = {
      mllib.curve, angel.curve, petuum.curve, star.curve};
  const double target = TargetObjective(curves, 0.01);

  std::printf("\n--- %s, L2=%.2g (target objective %.4f) ---\n", dataset,
              lambda, target);
  std::printf("  %-9s %10s %12s %12s\n", "system", "best-obj",
              "steps->tgt", "time->tgt(s)");
  for (const TrainResult* r : {&mllib, &angel, &petuum, &star}) {
    const auto steps = r->curve.StepsToReach(target);
    const auto time = r->curve.TimeToReach(target);
    std::printf("  %-9s %10.4f %12s %12s\n", r->system.c_str(),
                r->curve.BestObjective(),
                steps ? std::to_string(*steps).c_str() : "n/a",
                time ? FormatDouble(*time, 4).c_str() : "n/a");
  }
  std::string stem = std::string("fig5_") + dataset + "_l2_" +
                     (lambda > 0 ? "0.1" : "0");
  bench::SaveCurves(stem, curves);
}

}  // namespace

int main() {
  std::printf(
      "Figure 5 — MLlib* vs parameter servers, SVM, 8 executors + "
      "2 PS shards, grid-searched hyperparameters\n");
  for (const char* dataset : {"avazu", "url", "kddb", "kdd12"}) {
    RunSubfigure(dataset, /*lambda=*/0.0);
    RunSubfigure(dataset, /*lambda=*/0.1);
  }
  return 0;
}
