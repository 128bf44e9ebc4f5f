#ifndef MLLIBSTAR_TRAIN_MLLIB_TRAINER_H_
#define MLLIBSTAR_TRAIN_MLLIB_TRAINER_H_

#include <string>

#include "train/trainer.h"

namespace mllibstar {

/// The Spark trainers on one driver loop (broadcast + treeAggregate,
/// paper §III-A). MLlib* is MLlib with two changes (§IV-B), and the
/// modes are exactly those steps:
///
///  * MLlib    — SendGradient: the driver broadcasts the model, every
///    executor computes the gradient of a sampled batch of its
///    partition, gradients flow back through treeAggregate, and the
///    driver applies exactly one model update per step.
///  * MLlib+MA — the first change only (Figure 3b): SendModel via model
///    averaging, still broadcast and treeAggregated by the driver. It
///    separates the two techniques' contributions in Figure 4.
///  * MLlib*   — both changes (Algorithm 3): SendModel with model
///    averaging, the global model maintained by the executors through
///    the two-phase shuffle (Reduce-Scatter then AllGather). No driver
///    on the data path.
class MllibTrainer final : public Trainer {
 public:
  enum class Mode { kMllib, kMllibMa, kMllibStar };

  MllibTrainer(Mode mode, TrainerConfig config);

  std::string name() const override;

  TrainResult Train(const Dataset& data,
                    const ClusterConfig& cluster) override;

 private:
  Mode mode_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_TRAIN_MLLIB_TRAINER_H_
