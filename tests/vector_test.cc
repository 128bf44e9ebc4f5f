#include "core/vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/random.h"
#include "core/csr_block.h"

namespace mllibstar {
namespace {

SparseVector MakeSparse(std::vector<FeatureIndex> indices,
                        std::vector<double> values) {
  SparseVector v;
  v.indices = std::move(indices);
  v.values = std::move(values);
  return v;
}

TEST(SparseVectorTest, PushAndNnz) {
  SparseVector v;
  EXPECT_EQ(v.nnz(), 0u);
  v.Push(1, 0.5);
  v.Push(4, -2.0);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_TRUE(v.IsSorted());
}

TEST(SparseVectorTest, IsSortedDetectsViolations) {
  EXPECT_TRUE(MakeSparse({}, {}).IsSorted());
  EXPECT_TRUE(MakeSparse({3}, {1.0}).IsSorted());
  EXPECT_FALSE(MakeSparse({3, 3}, {1.0, 1.0}).IsSorted());
  EXPECT_FALSE(MakeSparse({5, 2}, {1.0, 1.0}).IsSorted());
}

TEST(SparseVectorTest, SquaredNorm) {
  const SparseVector v = MakeSparse({0, 2}, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
}

TEST(DenseVectorTest, ConstructZeroed) {
  DenseVector v(5);
  EXPECT_EQ(v.dim(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(DenseVectorTest, SparseAxpy) {
  DenseVector v(4);
  v.AddScaled(MakeSparse({1, 3}, {2.0, -1.0}), 3.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 6.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
  EXPECT_DOUBLE_EQ(v[3], -3.0);
}

TEST(DenseVectorTest, DenseAxpy) {
  DenseVector v(std::vector<double>{1.0, 2.0});
  DenseVector x(std::vector<double>{10.0, 20.0});
  v.AddScaled(x, 0.5);
  EXPECT_DOUBLE_EQ(v[0], 6.0);
  EXPECT_DOUBLE_EQ(v[1], 12.0);
}

TEST(DenseVectorTest, DotWithSparse) {
  DenseVector v(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(v.Dot(MakeSparse({0, 3}, {2.0, -1.0})), -2.0);
  EXPECT_DOUBLE_EQ(v.Dot(MakeSparse({}, {})), 0.0);
}

TEST(DenseVectorTest, DotWithDense) {
  DenseVector a(std::vector<double>{1.0, -1.0, 2.0});
  DenseVector b(std::vector<double>{3.0, 3.0, 0.5});
  EXPECT_DOUBLE_EQ(a.Dot(b), 1.0);
}

TEST(DenseVectorTest, Norms) {
  DenseVector v(std::vector<double>{3.0, -4.0});
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(v.Norm2(), 5.0);
}

TEST(DenseVectorTest, ScaleAndZero) {
  DenseVector v(std::vector<double>{1.0, 2.0});
  v.Scale(-2.0);
  EXPECT_DOUBLE_EQ(v[0], -2.0);
  EXPECT_DOUBLE_EQ(v[1], -4.0);
  v.SetZero();
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(DenseVectorTest, CountNonZeros) {
  DenseVector v(std::vector<double>{0.0, 1e-12, 0.5, -0.5});
  EXPECT_EQ(v.CountNonZeros(), 3u);
  EXPECT_EQ(v.CountNonZeros(1e-6), 2u);
}

TEST(DenseVectorTest, AverageOfVectors) {
  std::vector<DenseVector> vs;
  vs.emplace_back(std::vector<double>{1.0, 0.0});
  vs.emplace_back(std::vector<double>{3.0, 2.0});
  const DenseVector avg = Average(vs);
  EXPECT_DOUBLE_EQ(avg[0], 2.0);
  EXPECT_DOUBLE_EQ(avg[1], 1.0);
}

TEST(DenseVectorTest, AverageOfOneIsIdentity) {
  std::vector<DenseVector> vs;
  vs.emplace_back(std::vector<double>{7.0, -3.0});
  const DenseVector avg = Average(vs);
  EXPECT_DOUBLE_EQ(avg[0], 7.0);
  EXPECT_DOUBLE_EQ(avg[1], -3.0);
}

// Property: dot is linear — (a + c·x)·s == a·s + c·(x·s) for sparse s.
TEST(DenseVectorProperty, DotLinearInAxpy) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t dim = 32;
    DenseVector a(dim);
    DenseVector x(dim);
    for (size_t i = 0; i < dim; ++i) {
      a[i] = rng.NextGaussian();
      x[i] = rng.NextGaussian();
    }
    SparseVector s;
    for (size_t i = 0; i < dim; i += 1 + rng.NextUint64(4)) {
      s.Push(static_cast<FeatureIndex>(i), rng.NextGaussian());
    }
    const double c = rng.NextDouble(-2.0, 2.0);
    const double lhs_before = a.Dot(s);
    DenseVector sum = a;
    // Convert sparse s to dense to exercise dense axpy too.
    DenseVector s_dense(dim);
    s_dense.AddScaled(s, 1.0);
    sum.AddScaled(s_dense, c);
    EXPECT_NEAR(sum.Dot(s), lhs_before + c * s_dense.Dot(s), 1e-9);
  }
}

// ---------------------------------------------------------- TouchedBuffer
// Every flush must equal the dense reference (AddScaled, then SetZero)
// bit for bit, signed zeros included, whichever sweep it picks.

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBits(const DenseVector& got, const DenseVector& want) {
  ASSERT_EQ(got.dim(), want.dim());
  for (size_t i = 0; i < got.dim(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << "coordinate " << i << ": " << got[i] << " vs " << want[i];
  }
}

void ExpectAllPositiveZero(const DenseVector& v) {
  for (size_t i = 0; i < v.dim(); ++i) {
    EXPECT_EQ(Bits(v[i]), 0u) << "coordinate " << i;
  }
}

// +0.0 and −0.0 at listed and unlisted coordinates alike, between
// ordinary values of both signs.
DenseVector SignedZeroDestination(size_t dim) {
  DenseVector dst(dim);
  for (size_t i = 0; i < dim; ++i) {
    switch (i % 4) {
      case 0: dst[i] = 0.0; break;
      case 1: dst[i] = -0.0; break;
      case 2: dst[i] = 0.25 * static_cast<double>(i); break;
      default: dst[i] = -1.5 / static_cast<double>(i + 1); break;
    }
  }
  return dst;
}

// `n` batch rows of `width` feature indices in [0, dim), drawn with
// replacement so the list carries duplicates; row 1 repeats row 0
// outright.
std::vector<std::vector<FeatureIndex>> BatchRows(size_t n, size_t width,
                                                 size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<FeatureIndex>> rows(n);
  for (std::vector<FeatureIndex>& row : rows) {
    for (size_t i = 0; i < width; ++i) {
      row.push_back(static_cast<FeatureIndex>(rng.NextUint64(dim)));
    }
  }
  if (n >= 2) rows[1] = rows[0];
  return rows;
}

// Writes one batch the way the kernels do: each row's values added at
// its listed indices. Values include exact zeros (a −0.0 product), and
// rows 0 and 1 cancel exactly, so written coordinates land on +0.0 too.
void WriteBatch(const std::vector<std::vector<FeatureIndex>>& rows,
                DenseVector* buf) {
  for (size_t r = 0; r < rows.size(); ++r) {
    std::vector<double> values(rows[r].size());
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = i % 5 == 0 ? 0.0 : 0.125 * static_cast<double>(i + r / 2);
    }
    buf->AddScaled(rows[r].data(), values.data(), rows[r].size(),
                   r % 2 == 0 ? -0.75 : 0.75);
  }
}

// `rows` packed as a CsrBlock, the layout TouchRows lists from.
CsrBlock BlockOf(const std::vector<std::vector<FeatureIndex>>& rows) {
  std::vector<DataPoint> points(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (FeatureIndex j : rows[r]) points[r].features.Push(j, 1.0);
  }
  return CsrBlock::FromPoints(points);
}

// Lists the whole batch with one TouchRows call, as the trainers do,
// then writes it.
void FillBuffer(const std::vector<std::vector<FeatureIndex>>& rows,
                TouchedBuffer* tb) {
  std::vector<size_t> batch(rows.size());
  std::iota(batch.begin(), batch.end(), size_t{0});
  tb->TouchRows(BlockOf(rows), batch);
  WriteBatch(rows, tb->mutable_vector());
}

TEST(TouchedBufferTest, FlushScaledMatchesDenseReferenceBitForBit) {
  const size_t dim = 240;
  const size_t width = 4;
  // Listed counts on both sides of the threshold, the boundary itself
  // included (15 rows × 4 indices × 4 == 240).
  const struct {
    size_t rows;
    bool sparse;  // listed × kSparseFactor ≤ dim
  } cases[] = {{2, true}, {15, true}, {16, false}, {60, false}};
  const double alphas[] = {-0.37,
                           -0.0,
                           0.5,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::infinity()};
  for (const auto& c : cases) {
    for (double alpha : alphas) {
      SCOPED_TRACE(testing::Message() << "rows " << c.rows << " alpha "
                                      << alpha);
      ASSERT_EQ(c.rows * width * TouchedBuffer::kSparseFactor <= dim,
                c.sparse);
      TouchedBuffer tb(dim);
      DenseVector dst = SignedZeroDestination(dim);
      DenseVector ref_dst = dst;
      DenseVector ref_buf(dim);
      // Two rounds: the second reuses the re-zeroed buffer.
      for (uint64_t round = 0; round < 2; ++round) {
        const auto rows = BatchRows(c.rows, width, dim, 7 + round);
        FillBuffer(rows, &tb);
        WriteBatch(rows, &ref_buf);
        ExpectSameBits(tb.vector(), ref_buf);
        tb.FlushScaled(alpha, &dst);
        ref_dst.AddScaled(ref_buf, alpha);
        ref_buf.SetZero();
        ExpectSameBits(dst, ref_dst);
        ExpectAllPositiveZero(tb.vector());
      }
    }
  }
}

TEST(TouchedBufferTest, FlushSumMatchesDenseFoldBitForBit) {
  const size_t dim = 240;
  for (size_t rows_per_worker : {size_t{2}, size_t{40}}) {
    SCOPED_TRACE(testing::Message() << "rows " << rows_per_worker);
    std::vector<TouchedBuffer> workers(3, TouchedBuffer(dim));
    std::vector<DenseVector> ref_workers(3, DenseVector(dim));
    for (size_t r = 0; r < workers.size(); ++r) {
      const auto rows = BatchRows(rows_per_worker, 4, dim, 20 + r);
      FillBuffer(rows, &workers[r]);
      WriteBatch(rows, &ref_workers[r]);
    }
    // The driver's fold: a sum that starts at +0.0, in worker order.
    DenseVector sum(dim);
    DenseVector ref_sum(dim);
    for (size_t r = 0; r < workers.size(); ++r) {
      workers[r].FlushSum(&sum);
      ref_sum.AddScaled(ref_workers[r], 1.0);
      ExpectAllPositiveZero(workers[r].vector());
    }
    ExpectSameBits(sum, ref_sum);
  }
}

TEST(TouchedBufferTest, TouchRowsDecidesTheSweepOncePerBatch) {
  // Which sweep a flush takes shows at a coordinate no row listed: the
  // dense sweep picks a write there up, the listed sweep leaves it in
  // the buffer. At dim 240, 15 rows × 4 indices × kSparseFactor == 240
  // still lists; 16 rows, or two calls of 8 rows before one flush,
  // sweep the whole vector.
  const size_t dim = 240;
  const auto rows = BatchRows(16, 4, dim, 7);
  const CsrBlock block = BlockOf(rows);
  std::vector<bool> listed(dim, false);
  for (const std::vector<FeatureIndex>& row : rows) {
    for (FeatureIndex j : row) listed[j] = true;
  }
  const size_t unlisted =
      std::find(listed.begin(), listed.end(), false) - listed.begin();
  ASSERT_LT(unlisted, dim);
  std::vector<size_t> first15(15);
  std::iota(first15.begin(), first15.end(), size_t{0});
  std::vector<size_t> all16 = first15;
  all16.push_back(15);
  const std::vector<size_t> first8(first15.begin(), first15.begin() + 8);
  const std::vector<size_t> last8(all16.begin() + 8, all16.end());
  const struct {
    std::vector<std::vector<size_t>> calls;
    bool dense;
  } cases[] = {{{first15}, false}, {{all16}, true}, {{first8, last8}, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "calls " << c.calls.size()
                                    << " dense " << c.dense);
    TouchedBuffer tb(dim);
    for (const std::vector<size_t>& batch : c.calls) tb.TouchRows(block, batch);
    (*tb.mutable_vector())[unlisted] = 1.0;
    DenseVector sum(dim);
    tb.FlushSum(&sum);
    EXPECT_EQ(sum[unlisted], c.dense ? 1.0 : 0.0);
    EXPECT_EQ(tb.vector()[unlisted], c.dense ? 0.0 : 1.0);
  }
}

TEST(TouchedBufferTest, TouchAllSweepsWritesAnywhere) {
  // A kernel that writes outside the listed coordinates calls TouchAll
  // first; the flush must then pick up coordinates no row listed.
  TouchedBuffer tb(8);
  tb.TouchRows(BlockOf({{2}}), {0});
  tb.TouchAll();
  for (size_t i = 0; i < 8; ++i) (*tb.mutable_vector())[i] = 1.0;
  DenseVector sum(8);
  tb.FlushSum(&sum);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(sum[i], 1.0) << i;
  ExpectAllPositiveZero(tb.vector());
}

}  // namespace
}  // namespace mllibstar
