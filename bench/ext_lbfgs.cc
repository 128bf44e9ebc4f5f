// Extension (paper §VII): does the MLlib* recipe matter once spark.ml
// replaces GD with L-BFGS? Compares spark.ml-style distributed L-BFGS
// (one full cluster pass per function evaluation, driver-centric
// aggregation) against MLlib GD and MLlib* on smooth logistic
// objectives.
#include <cstdio>

#include "bench/bench_util.h"
#include "data/synthetic.h"
#include "train/trainer.h"

int main() {
  using namespace mllibstar;

  std::printf(
      "Extension — L-BFGS (spark.ml) vs GD (MLlib) vs MLlib*, logistic "
      "loss, L2=0.01, 8 executors\n");

  for (const char* dataset : {"avazu", "kdd12"}) {
    const Dataset data = GenerateSynthetic(SpecByName(dataset).value());
    const ClusterConfig cluster = ClusterConfig::Cluster1(8);

    TrainerConfig base;
    base.loss = LossKind::kLogistic;
    base.regularizer = RegularizerKind::kL2;
    base.lambda = 0.01;

    TrainerConfig lbfgs_config = base;
    lbfgs_config.max_comm_steps = 25;
    const TrainResult lbfgs = MakeTrainer(SystemKind::kMllibLbfgs,
                                          lbfgs_config)
                                  ->Train(data, cluster);

    TrainerConfig gd_config = base;
    gd_config.base_lr = 4.0;
    gd_config.lr_schedule = LrScheduleKind::kInverseSqrt;
    gd_config.batch_fraction = 0.1;
    gd_config.max_comm_steps = 400;
    gd_config.eval_every = 5;
    const TrainResult gd =
        MakeTrainer(SystemKind::kMllib, gd_config)->Train(data, cluster);

    TrainerConfig star_config = base;
    star_config.base_lr = 0.1;
    star_config.lr_schedule = LrScheduleKind::kInverseSqrt;
    star_config.max_comm_steps = 25;
    const TrainResult star = MakeTrainer(SystemKind::kMllibStar,
                                         star_config)
                                 ->Train(data, cluster);

    const std::vector<ConvergenceCurve> curves = {gd.curve, lbfgs.curve,
                                                  star.curve};
    const double target = TargetObjective(curves, 0.01);
    std::printf("\n--- %s (target %.4f) ---\n", dataset, target);
    std::printf("  %-12s %10s %14s %14s\n", "system", "best-obj",
                "passes->tgt", "time->tgt(s)");
    for (const TrainResult* r : {&gd, &lbfgs, &star}) {
      const auto steps = r->curve.StepsToReach(target);
      const auto time = r->curve.TimeToReach(target);
      std::printf("  %-12s %10.4f %14s %14s\n", r->system.c_str(),
                  r->curve.BestObjective(),
                  steps ? std::to_string(*steps).c_str() : "n/a",
                  time ? std::to_string(*time).c_str() : "n/a");
    }
    bench::SaveCurves(std::string("ext_lbfgs_") + dataset, curves);
  }
  std::printf(
      "\nExpected shape: L-BFGS needs far fewer passes than batch GD "
      "(curvature), but every pass is a full broadcast + treeAggregate "
      "through the driver, so MLlib*'s cheap steps keep it competitive "
      "or ahead in wall-clock — the techniques are complementary, as "
      "the paper conjectures in Section VII.\n");
  return 0;
}
