#include "core/csr_block.h"

#include <algorithm>

#include "common/logging.h"

namespace mllibstar {

namespace {

// True when every value is exactly 1.0; NaN, 0.0 and 1.0 ± 1 ulp are not.
bool IsOneHot(const DataPoint& point) {
  for (double v : point.features.values) {
    if (v != 1.0) return false;
  }
  return true;
}

}  // namespace

void CsrBlock::AppendRow(const DataPoint& point) {
  if (value_free && !IsOneHot(point)) {
    value_free = false;
    values.reserve(indices.capacity());
    values.assign(indices.size(), 1.0);
  }
  indices.insert(indices.end(), point.features.indices.begin(),
                 point.features.indices.end());
  if (!value_free) {
    values.insert(values.end(), point.features.values.begin(),
                  point.features.values.end());
  }
  offsets.push_back(indices.size());
  labels.push_back(point.label);
}

void CsrBlock::Finalize() {
  if (value_free) {
    size_t widest = 0;
    for (size_t i = 0; i < rows(); ++i) widest = std::max(widest, row_nnz(i));
    ones.assign(widest, 1.0);
  }
#ifndef NDEBUG
  // The aligned allocator makes these structurally true; the asserts
  // catch a block assembled with the wrong container type.
  MLLIBSTAR_CHECK(IsAligned(offsets.data()));
  MLLIBSTAR_CHECK(IsAligned(indices.data()));
  MLLIBSTAR_CHECK(IsAligned(values.data()));
  MLLIBSTAR_CHECK(IsAligned(labels.data()));
  MLLIBSTAR_CHECK(IsAligned(ones.data()));
#endif
}

CsrBlock CsrBlock::FromPoints(const std::vector<DataPoint>& points) {
  CsrBlock block;
  size_t total = 0;
  for (const DataPoint& p : points) total += p.nnz();
  block.offsets.reserve(points.size() + 1);
  block.indices.reserve(total);
  block.labels.reserve(points.size());

  block.offsets.push_back(0);
  for (const DataPoint& p : points) block.AppendRow(p);
  block.Finalize();
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
