#include "data/split.h"

#include <algorithm>

namespace mllibstar {

TrainTestSplit RandomSplit(const Dataset& data, double train_fraction,
                           Rng* rng) {
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  const CsrBlock& rows = data.rows();
  CsrBlock train;
  CsrBlock test;
  for (size_t i = 0; i < rows.rows(); ++i) {
    (rng->NextBool(train_fraction) ? train : test).AppendRow(rows, i);
  }
  return {Dataset(data.num_features(), data.name() + "/train",
                  std::move(train)),
          Dataset(data.num_features(), data.name() + "/test",
                  std::move(test))};
}

}  // namespace mllibstar
