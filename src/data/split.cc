#include "data/split.h"

#include <algorithm>

namespace mllibstar {

TrainTestSplit RandomSplit(const Dataset& data, double train_fraction,
                           Rng* rng) {
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  TrainTestSplit split{Dataset(data.num_features(), data.name() + "/train"),
                       Dataset(data.num_features(), data.name() + "/test")};
  for (const DataPoint& p : data.points()) {
    if (rng->NextBool(train_fraction)) {
      split.train.Add(p);
    } else {
      split.test.Add(p);
    }
  }
  return split;
}

}  // namespace mllibstar
