#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "core/vector.h"

namespace mllibstar {
namespace {

size_t Scaled(double count, double scale, size_t minimum) {
  const double value = count * scale;
  return std::max(minimum, static_cast<size_t>(value));
}

}  // namespace

Dataset GenerateSynthetic(const SyntheticSpec& spec) {
  MLLIBSTAR_CHECK_GT(spec.num_instances, 0u);
  MLLIBSTAR_CHECK_GT(spec.num_features, 0u);
  Rng rng(spec.seed);

  // Hidden ground-truth model. Low indices are the popular features
  // (the Zipf draw favors them); truth_decay concentrates the signal
  // there, as in real click/CTR data.
  DenseVector truth(spec.num_features);
  for (size_t i = 0; i < spec.num_features; ++i) {
    truth[i] = rng.NextGaussian() /
               std::pow(1.0 + static_cast<double>(i), spec.truth_decay);
  }

  // First pass: draw the rows, straight into the packed block, and
  // their teacher margins. Labels are assigned against the *median*
  // margin so the classes stay balanced regardless of how the truth
  // vector interacts with the popular features.
  const ZipfSampler zipf(spec.num_features, spec.feature_skew);
  // No row is wider than this, so the block never reallocates; the
  // reserved room past the rows actually drawn is never touched.
  const size_t widest = std::min(
      spec.num_features,
      std::max<size_t>(1, spec.avg_nnz + spec.avg_nnz / 2 - spec.avg_nnz / 4));
  CsrBlock rows;
  rows.Reserve(spec.num_instances, spec.num_instances * widest);
  std::vector<double> margins;
  margins.reserve(spec.num_instances);
  std::vector<FeatureIndex> row;
  std::vector<double> values;
  for (size_t i = 0; i < spec.num_instances; ++i) {
    // Row sparsity jitters around avg_nnz (at least 1).
    const size_t target_nnz = std::max<size_t>(
        1, spec.avg_nnz + static_cast<size_t>(rng.NextUint64(
               std::max<size_t>(1, spec.avg_nnz / 2 + 1))) -
               spec.avg_nnz / 4);
    row.clear();
    while (row.size() < target_nnz && row.size() < spec.num_features) {
      const FeatureIndex idx = static_cast<FeatureIndex>(zipf.Draw(&rng));
      if (std::find(row.begin(), row.end(), idx) == row.end()) {
        row.push_back(idx);
      }
    }
    std::sort(row.begin(), row.end());

    values.clear();
    if (spec.gaussian_values) {
      for (size_t k = 0; k < row.size(); ++k) {
        values.push_back(rng.NextGaussian());
      }
    }
    rows.AppendRow(row.data(), spec.gaussian_values ? values.data() : nullptr,
                   row.size(), 0.0);
    margins.push_back(
        truth.Dot(rows.row_indices(i), rows.row_values(i), rows.row_nnz(i)));
  }

  // Second pass: label = sign(margin - median + noise).
  std::vector<double> sorted = margins;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double threshold = sorted[sorted.size() / 2];
  for (size_t i = 0; i < spec.num_instances; ++i) {
    double label =
        margins[i] - threshold + 0.1 * rng.NextGaussian() >= 0.0 ? 1.0
                                                                 : -1.0;
    if (rng.NextBool(spec.label_noise)) label = -label;
    rows.labels[i] = label;
  }
  return Dataset(spec.num_features, spec.name, std::move(rows));
}

SyntheticSpec AvazuSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "avazu";
  spec.num_instances = Scaled(40428967, scale, 1000);
  spec.num_features = Scaled(1000000, scale, 100);
  spec.avg_nnz = 15;
  spec.feature_skew = 1.1;
  spec.truth_decay = 0.5;  // CTR signal concentrates on hot features
  spec.seed = 1001;
  return spec;
}

SyntheticSpec UrlSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "url";
  spec.num_instances = Scaled(2396130, scale, 500);
  spec.num_features = Scaled(3231961, scale, 1000);
  spec.avg_nnz = 30;
  spec.feature_skew = 1.2;
  spec.truth_decay = 0.1;  // diffuse tail signal: ill-conditioned
  spec.seed = 1002;
  return spec;
}

SyntheticSpec KddbSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "kddb";
  spec.num_instances = Scaled(19264097, scale, 1000);
  spec.num_features = Scaled(29890095, scale, 2000);
  spec.avg_nnz = 30;
  spec.feature_skew = 1.15;
  spec.truth_decay = 0.1;  // diffuse tail signal: ill-conditioned
  spec.seed = 1003;
  return spec;
}

SyntheticSpec Kdd12Spec(double scale) {
  SyntheticSpec spec;
  spec.name = "kdd12";
  spec.num_instances = Scaled(149639105, scale, 2000);
  spec.num_features = Scaled(54686452, scale, 1000);
  spec.avg_nnz = 11;
  spec.feature_skew = 1.1;
  spec.truth_decay = 0.6;  // CTR signal concentrates on hot features
  spec.seed = 1004;
  return spec;
}

SyntheticSpec WxSpec(double scale) {
  SyntheticSpec spec;
  spec.name = "wx";
  spec.num_instances = Scaled(231937380, scale, 2000);
  spec.num_features = Scaled(51121518, scale, 1000);
  spec.avg_nnz = 20;
  spec.feature_skew = 1.1;
  spec.truth_decay = 0.5;  // CTR-like production workload
  spec.seed = 1005;
  return spec;
}

Result<SyntheticSpec> SpecByName(const std::string& name, double scale) {
  if (name == "avazu") return AvazuSpec(scale);
  if (name == "url") return UrlSpec(scale);
  if (name == "kddb") return KddbSpec(scale);
  if (name == "kdd12") return Kdd12Spec(scale);
  if (name == "wx") return WxSpec(scale);
  return Status::InvalidArgument("unknown dataset '" + name +
                                 "'; expected avazu|url|kddb|kdd12|wx");
}

}  // namespace mllibstar
