#include "train/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "train/lbfgs_trainer.h"
#include "train/mllib_trainer.h"
#include "train/ps_trainer.h"

namespace mllibstar {

std::string SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMllib:
      return "mllib";
    case SystemKind::kMllibMa:
      return "mllib+ma";
    case SystemKind::kMllibStar:
      return "mllib*";
    case SystemKind::kPetuum:
      return "petuum";
    case SystemKind::kPetuumStar:
      return "petuum*";
    case SystemKind::kAngel:
      return "angel";
    case SystemKind::kMllibLbfgs:
      return "mllib-lbfgs";
  }
  return "unknown";
}

Status ValidateTrainerConfig(const TrainerConfig& config) {
  if (!std::isfinite(config.base_lr) || config.base_lr <= 0.0) {
    return Status::InvalidArgument("base_lr must be finite and > 0, got " +
                                   FormatDouble(config.base_lr));
  }
  if (!std::isfinite(config.lambda) || config.lambda < 0.0) {
    return Status::InvalidArgument("lambda must be finite and >= 0, got " +
                                   FormatDouble(config.lambda));
  }
  if (config.max_comm_steps < 0) {
    return Status::InvalidArgument("max_comm_steps must be >= 0, got " +
                                   std::to_string(config.max_comm_steps));
  }
  if (config.target_objective.has_value() &&
      std::isnan(*config.target_objective)) {
    return Status::InvalidArgument("target_objective must not be NaN");
  }
  if (config.eval_every < 1) {
    return Status::InvalidArgument("eval_every must be at least 1, got " +
                                   std::to_string(config.eval_every));
  }
  if (!std::isfinite(config.batch_fraction) || config.batch_fraction <= 0.0) {
    return Status::InvalidArgument(
        "batch_fraction must be finite and > 0, got " +
        FormatDouble(config.batch_fraction));
  }
  if (config.ps.num_shards < 1) {
    return Status::InvalidArgument("ps.num_shards must be at least 1");
  }
  if (config.ps.staleness < 0) {
    return Status::InvalidArgument("ps.staleness must be >= 0, got " +
                                   std::to_string(config.ps.staleness));
  }
  return Status::Ok();
}

Trainer::Trainer(TrainerConfig config)
    : config_(std::move(config)),
      loss_(MakeLoss(config_.loss)),
      reg_(MakeRegularizer(config_.regularizer, config_.lambda)),
      objective_(MakeBinaryObjective(loss_.get(), reg_.get(),
                                     config_.lazy_regularization)),
      schedule_(config_.lr_schedule, config_.base_lr) {
  MLLIBSTAR_CHECK_OK(ValidateTrainerConfig(config_));
}

double Trainer::Eval(const std::vector<CsrBlock>& partitions,
                     const DenseVector& w) {
  return objective_->MeanPartitionLoss(partitions, w, &eval_losses_) +
         reg_->Value(w);
}

bool Trainer::ShouldStop(int step, double objective) const {
  if (step >= config_.max_comm_steps) return true;
  if (config_.target_objective.has_value() &&
      objective <= *config_.target_objective) {
    return true;
  }
  return IsDiverged(objective);
}

bool Trainer::IsDiverged(double objective) {
  return !std::isfinite(objective) || objective > 1e9;
}

size_t Trainer::NumAggregators(size_t k) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(k))));
}

std::vector<Rng> Trainer::WorkerRngs(uint64_t seed, size_t k) {
  Rng root(seed);
  std::vector<Rng> rngs;
  rngs.reserve(k);
  for (size_t r = 0; r < k; ++r) rngs.push_back(root.Fork());
  return rngs;
}

size_t Trainer::BatchSize(size_t partition_size, double fraction) {
  if (partition_size == 0) return 0;
  // Capped before the cast, which is defined only for values in range.
  const double rows = static_cast<double>(partition_size);
  const double raw = std::min(fraction * rows, rows);
  return std::clamp<size_t>(static_cast<size_t>(raw), 1, partition_size);
}

void Trainer::FinishResult(SparkCluster* spark, TrainResult* result) {
  result->sim_seconds = spark->Now();
  result->total_bytes = spark->total_bytes();
  result->faults = spark->sim().faults().stats();
  result->membership = spark->membership().stats();
  result->trace = std::move(spark->trace());
  result->rounds = std::move(spark->rounds());
}

std::unique_ptr<Trainer> MakeTrainer(SystemKind kind, TrainerConfig config) {
  switch (kind) {
    case SystemKind::kMllib:
      return std::make_unique<MllibTrainer>(MllibTrainer::Mode::kMllib,
                                            std::move(config));
    case SystemKind::kMllibMa:
      return std::make_unique<MllibTrainer>(MllibTrainer::Mode::kMllibMa,
                                            std::move(config));
    case SystemKind::kMllibStar:
      return std::make_unique<MllibTrainer>(MllibTrainer::Mode::kMllibStar,
                                            std::move(config));
    case SystemKind::kPetuum:
      return std::make_unique<PsTrainer>(PsTrainer::Mode::kPetuum,
                                         std::move(config));
    case SystemKind::kPetuumStar:
      return std::make_unique<PsTrainer>(PsTrainer::Mode::kPetuumStar,
                                         std::move(config));
    case SystemKind::kAngel:
      return std::make_unique<PsTrainer>(PsTrainer::Mode::kAngel,
                                         std::move(config));
    case SystemKind::kMllibLbfgs:
      return std::make_unique<MllibLbfgsTrainer>(std::move(config));
  }
  return nullptr;
}

}  // namespace mllibstar
