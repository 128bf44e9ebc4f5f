#ifndef MLLIBSTAR_DATA_SYNTHETIC_H_
#define MLLIBSTAR_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace mllibstar {

/// Recipe for a synthetic sparse binary-classification dataset.
///
/// Points are generated from a hidden ground-truth linear model: each
/// row draws ~avg_nnz feature indices from a Zipf(feature_skew)
/// popularity distribution (sparse, skewed — like hashed categorical
/// CTR features), values are 1.0 (binary features) unless
/// gaussian_values is set, and the label is sign(w*·x + ε) with a
/// fraction label_noise of labels flipped. The resulting problem is
/// linearly separable up to the noise, so convex GLM training drives
/// the objective toward a dataset-dependent floor — matching how the
/// paper's curves behave.
struct SyntheticSpec {
  std::string name;
  size_t num_instances = 0;
  size_t num_features = 0;
  size_t avg_nnz = 10;          ///< mean nonzeros per row (min 1)
  double feature_skew = 1.1;    ///< Zipf alpha for index popularity
  double label_noise = 0.02;    ///< fraction of flipped labels
  bool gaussian_values = false; ///< N(0,1) values instead of 1.0
  /// Ground-truth weight of feature i is scaled by (1+i)^-truth_decay,
  /// concentrating the signal on popular features the way real CTR /
  /// click data does. 0 = uniform signal across all features.
  double truth_decay = 0.35;
  uint64_t seed = 42;
};

/// Generates the dataset described by `spec`.
Dataset GenerateSynthetic(const SyntheticSpec& spec);

/// Presets shaped like the paper's Table I datasets, scaled down by
/// `scale` (default 1/1000) while preserving the #instances:#features
/// ratio (determined vs underdetermined) and row sparsity.
///
/// Table I:  avazu 40.4M x 1M,  url 2.4M x 3.2M,  kddb 19.3M x 29.9M,
///           kdd12 149.6M x 54.7M,  WX 231.9M x 51.1M.
SyntheticSpec AvazuSpec(double scale = 1e-3);
SyntheticSpec UrlSpec(double scale = 1e-3);
SyntheticSpec KddbSpec(double scale = 1e-3);
SyntheticSpec Kdd12Spec(double scale = 1e-3);
SyntheticSpec WxSpec(double scale = 1e-3);

/// Looks a preset up by name ("avazu", "url", "kddb", "kdd12", "wx").
/// An unknown name is an InvalidArgument that names it and the accepted
/// ones.
Result<SyntheticSpec> SpecByName(const std::string& name,
                                 double scale = 1e-3);

}  // namespace mllibstar

#endif  // MLLIBSTAR_DATA_SYNTHETIC_H_
