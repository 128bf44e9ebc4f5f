#include "data/dataset.h"

#include "common/logging.h"

namespace mllibstar {

Dataset::Dataset(size_t num_features, std::string name, CsrBlock rows)
    : rows_(std::move(rows)),
      num_features_(num_features),
      name_(std::move(name)) {
  for (size_t i = 0; i < rows_.rows(); ++i) {
    const size_t n = rows_.row_nnz(i);
    if (n > 0) {
      MLLIBSTAR_CHECK_LT(rows_.row_indices(i)[n - 1], num_features_)
          << "row " << i << " has a feature outside the feature space";
    }
  }
}

void Dataset::Add(const DataPoint& point) {
  if (!point.features.indices.empty()) {
    MLLIBSTAR_CHECK_LT(point.features.indices.back(), num_features_);
  }
  rows_.AppendRow(point);
}

DatasetStats Dataset::Stats() const {
  DatasetStats stats;
  stats.name = name_;
  stats.num_instances = size();
  stats.num_features = num_features_;
  stats.total_nnz = TotalNnz();
  stats.avg_nnz_per_row =
      empty() ? 0.0
              : static_cast<double>(stats.total_nnz) /
                    static_cast<double>(stats.num_instances);
  // LIBSVM text stores roughly "index:value " per nnz (~12 bytes for
  // the index/value widths seen in these datasets) plus the label.
  stats.approx_bytes = stats.total_nnz * 12 + stats.num_instances * 3;
  stats.underdetermined = stats.num_features > stats.num_instances;
  return stats;
}

}  // namespace mllibstar
