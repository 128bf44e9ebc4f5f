#ifndef MLLIBSTAR_CORE_CSR_BLOCK_H_
#define MLLIBSTAR_CORE_CSR_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "core/datapoint.h"
#include "core/vector.h"

namespace mllibstar {

/// A partition of labeled examples packed into one contiguous CSR
/// block: flat arrays instead of two heap vectors per point.
///
/// The `vector<DataPoint>` layout scatters every example's indices and
/// values across the heap (one SparseVector = two separately allocated
/// vectors), so a pass over a partition chases ~2n pointers. Packing
/// once into offsets/indices/values/labels makes every training pass a
/// linear scan — the single biggest cache win in the host hot path.
/// Rows keep their order and indices within a row keep theirs, so a
/// kernel walking a CsrBlock performs the same floating-point
/// operations, in the same order, as a walk over the points it was
/// packed from (the partition objective relies on this, DESIGN §17).
///
/// All arrays are 64-byte aligned (`AlignedVector`) so the SIMD
/// kernels' vector loads never straddle a cache line.
///
/// One-hot rows (DESIGN §17): a block whose every value is exactly 1.0
/// is *value-free*. It stores no `values` at all; every row view
/// returns the same per-block run of 1.0s (`ones`), as long as the
/// widest row. The kernels multiply by the same 1.0s they would have
/// read from the array, now from L1, so results are unchanged bit for
/// bit while a pass streams 4 bytes per nonzero instead of 12. The
/// packers decide this per block from the input alone, as they append
/// its rows (AppendRow). Only this struct's own code touches the value
/// array; all other code reads values through the row views.
struct CsrBlock {
  AlignedVector<uint64_t> offsets;      ///< rows()+1 entries; offsets[0] == 0
  AlignedVector<FeatureIndex> indices;  ///< column ids, row-major
  AlignedVector<double> values;  ///< parallel to `indices`; empty if value_free
  AlignedVector<double> labels;  ///< one per row
  /// Every value is exactly 1.0 (so far, while packing): `values` stays
  /// empty and the row views read `ones`.
  bool value_free = true;
  AlignedVector<double> ones;  ///< widest row's 1.0s, built by Finalize()

  size_t rows() const { return labels.size(); }
  size_t nnz() const { return indices.size(); }
  size_t row_nnz(size_t i) const { return offsets[i + 1] - offsets[i]; }
  double label(size_t i) const { return labels[i]; }
  const FeatureIndex* row_indices(size_t i) const {
    return indices.data() + offsets[i];
  }
  /// Row view over the values; for a value-free block, Finalize()
  /// must have run.
  const double* row_values(size_t i) const {
    return value_free ? ones.data() : values.data() + offsets[i];
  }

  /// Appends `point` as the next row (offsets must already hold its
  /// leading 0). The block stays value-free while every value is
  /// exactly 1.0; the first other value gives it a `values` array,
  /// filled with the 1.0s of the rows before it. Packers reserve
  /// `indices` to the block's nnz first, which also sizes `values` if it
  /// is needed.
  void AppendRow(const DataPoint& point);

  /// Builds a value-free block's run of `ones` and (debug builds)
  /// asserts the 64-byte alignment invariant. Every packer must call
  /// this last.
  void Finalize();

  /// Packs `points` (row order preserved). One pass to size, one to
  /// fill; no per-row allocation.
  static CsrBlock FromPoints(const std::vector<DataPoint>& points);

  /// Reconstructs row `i` as a DataPoint (round-trip check in tests).
  DataPoint PointAt(size_t i) const;
};

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_CSR_BLOCK_H_
