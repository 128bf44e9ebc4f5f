#include "train/grid_search.h"

#include <limits>

namespace mllibstar {

GridSearchOutcome GridSearch(SystemKind kind, const TrainerConfig& base,
                             const GridSearchSpec& spec, const Dataset& data,
                             const ClusterConfig& cluster) {
  GridSearchOutcome outcome;
  outcome.best_config = base;
  outcome.best_objective = std::numeric_limits<double>::infinity();

  const bool is_ps = kind == SystemKind::kPetuum ||
                     kind == SystemKind::kPetuumStar ||
                     kind == SystemKind::kAngel;
  const std::vector<int> stalenesses =
      is_ps ? spec.stalenesses : std::vector<int>{0};

  for (double lr : spec.learning_rates) {
    for (double fraction : spec.batch_fractions) {
      for (int staleness : stalenesses) {
        TrainerConfig candidate = base;
        candidate.base_lr = lr;
        candidate.batch_fraction = fraction;
        candidate.max_comm_steps = spec.trial_comm_steps;
        if (is_ps) candidate.ps.staleness = staleness;
        TrainResult result =
            MakeTrainer(kind, candidate)->Train(data, cluster);
        ++outcome.candidates_evaluated;
        if (result.diverged) continue;
        const double best = result.curve.BestObjective();
        if (best < outcome.best_objective) {
          outcome.best_objective = best;
          outcome.best_config = candidate;
          outcome.best_config.max_comm_steps = base.max_comm_steps;
        }
      }
    }
  }
  return outcome;
}

}  // namespace mllibstar
