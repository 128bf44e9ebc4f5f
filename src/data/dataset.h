#ifndef MLLIBSTAR_DATA_DATASET_H_
#define MLLIBSTAR_DATA_DATASET_H_

#include <cstdint>
#include <string>

#include "core/csr_block.h"
#include "core/datapoint.h"

namespace mllibstar {

/// Summary statistics in the style of the paper's Table I.
struct DatasetStats {
  std::string name;
  size_t num_instances = 0;
  size_t num_features = 0;
  uint64_t total_nnz = 0;
  double avg_nnz_per_row = 0.0;
  uint64_t approx_bytes = 0;  ///< LIBSVM-text-like size estimate
  bool underdetermined = false;  ///< #features > #instances
};

/// An in-memory labeled sparse dataset. Its rows live in one packed
/// CsrBlock, value-free when every value is 1.0 (core/csr_block.h):
/// the generator, the LIBSVM reader and RandomSplit write into it,
/// PartitionCsr deals from it and evaluation walks it.
class Dataset {
 public:
  Dataset() = default;
  /// Creates an empty dataset whose feature space is [0, num_features).
  explicit Dataset(size_t num_features, std::string name = "")
      : num_features_(num_features), name_(std::move(name)) {}
  /// Takes rows packed elsewhere. Each row's indices must be strictly
  /// increasing and < num_features (its last one is checked).
  Dataset(size_t num_features, std::string name, CsrBlock rows);

  /// Appends a point. Feature indices must be < num_features().
  void Add(const DataPoint& point);

  size_t size() const { return rows_.rows(); }
  bool empty() const { return size() == 0; }
  size_t num_features() const { return num_features_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// The rows, in dataset order.
  const CsrBlock& rows() const { return rows_; }
  /// Row `i` as a DataPoint (a copy).
  DataPoint point(size_t i) const { return rows_.PointAt(i); }

  /// Total number of stored nonzero feature values.
  uint64_t TotalNnz() const { return rows_.nnz(); }

  /// Computes Table-I-style statistics.
  DatasetStats Stats() const;

 private:
  CsrBlock rows_;
  size_t num_features_ = 0;
  std::string name_;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_DATA_DATASET_H_
