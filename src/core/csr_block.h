#ifndef MLLIBSTAR_CORE_CSR_BLOCK_H_
#define MLLIBSTAR_CORE_CSR_BLOCK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "core/datapoint.h"
#include "core/vector.h"

namespace mllibstar {

/// Labeled examples packed into one contiguous CSR block: flat arrays
/// instead of two heap vectors per point. A Dataset keeps all its rows
/// in one block, and PartitionCsr deals them into one block per worker.
///
/// A `vector<DataPoint>` scatters every example's indices and values
/// across the heap (one SparseVector = two separately allocated
/// vectors), so a pass over it chases ~2n pointers and pays a few dozen
/// bytes of allocator overhead per row. Packed into offsets/indices/
/// values/labels, every pass is a linear scan. Rows keep their order
/// and indices within a row keep theirs, so a kernel walking a block
/// performs the same floating-point operations, in the same order, as a
/// walk over the same rows held as points (DESIGN §17).
///
/// All arrays are 64-byte aligned (`AlignedVector`) so the SIMD
/// kernels' vector loads never straddle a cache line.
///
/// One-hot rows (DESIGN §17): a block whose every value is exactly 1.0
/// is *value-free*. It stores no `values` at all; every row view
/// returns the same per-block run of 1.0s (`ones`), as long as the
/// widest row. The kernels multiply by the same 1.0s they would have
/// read from the array, now from L1, so results are unchanged bit for
/// bit while a pass streams 4 bytes per nonzero instead of 12. A block
/// decides this from its rows alone, as they are appended (AppendRow),
/// and is a valid block after every append. Only this struct's own code
/// touches the value array; all other code reads values through the row
/// views.
struct CsrBlock {
  /// rows()+1 entries; offsets[0] == 0, so an empty block holds one.
  AlignedVector<uint64_t> offsets = AlignedVector<uint64_t>(1, 0);
  AlignedVector<FeatureIndex> indices;  ///< column ids, row-major
  AlignedVector<double> values;  ///< parallel to `indices`; empty if value_free
  AlignedVector<double> labels;  ///< one per row
  /// Every value appended so far is exactly 1.0: `values` stays empty
  /// and the row views read `ones`.
  bool value_free = true;
  AlignedVector<double> ones;  ///< 1.0s, at least as many as the widest row

  size_t rows() const { return labels.size(); }
  size_t nnz() const { return indices.size(); }
  size_t row_nnz(size_t i) const { return offsets[i + 1] - offsets[i]; }
  double label(size_t i) const { return labels[i]; }
  const FeatureIndex* row_indices(size_t i) const {
    return indices.data() + offsets[i];
  }
  const double* row_values(size_t i) const {
    return value_free ? ones.data() : values.data() + offsets[i];
  }

  /// The arrays as the block kernel (simd row_margins) reads them.
  simd::RowSpans spans() const {
    return {offsets.data(), indices.data(),
            value_free ? nullptr : values.data(), ones.data(),
            labels.data()};
  }

  /// Reserves room for `rows` more rows holding `nnz` more nonzeros,
  /// so appending them never reallocates (a `values` array, if one is
  /// needed, is sized from `indices`' capacity).
  void Reserve(size_t rows, size_t nnz);

  /// Appends a row of `nnz` entries with label `label`. A null
  /// `value_span` stands for `nnz` 1.0s. The block stays value-free
  /// while every value is exactly 1.0; the first other value gives it a
  /// `values` array, filled with the 1.0s of the rows before it.
  void AppendRow(const FeatureIndex* index_span, const double* value_span,
                 size_t nnz, double label);

  /// Appends `point` as the next row.
  void AppendRow(const DataPoint& point) {
    AppendRow(point.features.indices.data(), point.features.values.data(),
              point.nnz(), point.label);
  }

  /// Appends row `i` of `block`: its index span, its label and, if
  /// `block` is valued, its value span (a value-free block's rows need
  /// no value check).
  void AppendRow(const CsrBlock& block, size_t i) {
    const double* value_span =
        block.value_free ? nullptr : block.values.data() + block.offsets[i];
    AppendRow(block.row_indices(i), value_span, block.row_nnz(i),
              block.label(i));
  }

  /// Packs `points` (row order preserved). One pass to size, one to
  /// fill; no per-row allocation.
  static CsrBlock FromPoints(const std::vector<DataPoint>& points);

  /// Row `i` as a DataPoint (a copy).
  DataPoint PointAt(size_t i) const;
};

/// Margins one ForEachMargin chunk holds on the stack (256 bytes).
inline constexpr size_t kMarginChunk = 32;

/// Calls visit(r, w · row r) for the `count` rows r = list[j] of
/// `block` (a sampled or shuffled row list), or r = j when `list` is
/// null, in that order. The margins come from the block kernel
/// (simd row_margins) a chunk at a time, each bit-equal to
/// w.Dot(row r's spans); a listed walk prefetches its rows ahead of
/// their dots. A chunk's margins are all taken before the first visit,
/// so `visit` must not write `w`.
template <typename Visit>
void ForEachMargin(const CsrBlock& block, const size_t* list, size_t count,
                   const DenseVector& w, Visit&& visit) {
  const simd::KernelDispatch& kernels = simd::Kernels();
  const simd::RowSpans spans = block.spans();
  double margins[kMarginChunk] = {};
  for (size_t begin = 0; begin < count; begin += kMarginChunk) {
    const size_t n = std::min(kMarginChunk, count - begin);
    kernels.row_margins(w.data(), spans, list, count, begin, n, margins);
    for (size_t j = 0; j < n; ++j) {
      visit(list == nullptr ? begin + j : list[begin + j], margins[j]);
    }
  }
}

/// Every row of `block`, in row order.
template <typename Visit>
void ForEachMargin(const CsrBlock& block, const DenseVector& w,
                   Visit&& visit) {
  ForEachMargin(block, nullptr, block.rows(), w, visit);
}

/// The listed rows `rows`, in list order.
template <typename Visit>
void ForEachMargin(const CsrBlock& block, const std::vector<size_t>& rows,
                   const DenseVector& w, Visit&& visit) {
  ForEachMargin(block, rows.data(), rows.size(), w, visit);
}

}  // namespace mllibstar

#endif  // MLLIBSTAR_CORE_CSR_BLOCK_H_
