#include "core/csr_block.h"

namespace mllibstar {

namespace {

// True when every value is exactly 1.0; NaN, 0.0 and 1.0 ± 1 ulp are not.
bool AllOnes(const double* values, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    if (values[j] != 1.0) return false;
  }
  return true;
}

}  // namespace

void CsrBlock::Reserve(size_t rows, size_t nnz) {
  offsets.reserve(offsets.size() + rows);
  indices.reserve(indices.size() + nnz);
  labels.reserve(labels.size() + rows);
}

void CsrBlock::AppendRow(const FeatureIndex* index_span,
                         const double* value_span, size_t nnz, double label) {
  if (value_free && value_span != nullptr && !AllOnes(value_span, nnz)) {
    value_free = false;
    AlignedVector<double>().swap(ones);
    values.reserve(indices.capacity());
    values.assign(indices.size(), 1.0);
  }
  indices.insert(indices.end(), index_span, index_span + nnz);
  if (value_free) {
    if (ones.size() < nnz) ones.resize(nnz, 1.0);
  } else if (value_span != nullptr) {
    values.insert(values.end(), value_span, value_span + nnz);
  } else {
    values.insert(values.end(), nnz, 1.0);
  }
  offsets.push_back(indices.size());
  labels.push_back(label);
}

CsrBlock CsrBlock::FromPoints(const std::vector<DataPoint>& points) {
  CsrBlock block;
  size_t total = 0;
  for (const DataPoint& p : points) total += p.nnz();
  block.Reserve(points.size(), total);
  for (const DataPoint& p : points) block.AppendRow(p);
  return block;
}

DataPoint CsrBlock::PointAt(size_t i) const {
  DataPoint p;
  p.label = labels[i];
  const size_t n = row_nnz(i);
  p.features.indices.assign(row_indices(i), row_indices(i) + n);
  p.features.values.assign(row_values(i), row_values(i) + n);
  return p;
}

}  // namespace mllibstar
