#ifndef MLLIBSTAR_DATA_SPLIT_H_
#define MLLIBSTAR_DATA_SPLIT_H_

#include <utility>

#include "common/random.h"
#include "data/dataset.h"

namespace mllibstar {

/// A train/test pair produced by RandomSplit.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Randomly assigns each point to train with probability
/// `train_fraction` (clamped to [0, 1]); deterministic given the rng
/// state. Names become "<name>/train" and "<name>/test".
TrainTestSplit RandomSplit(const Dataset& data, double train_fraction,
                           Rng* rng);

}  // namespace mllibstar

#endif  // MLLIBSTAR_DATA_SPLIT_H_
