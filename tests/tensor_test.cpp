// Unit tests for the tensor substrate: Tensor, GEMM kernels, Rng,
// serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace salnov {
namespace {

TEST(Shape, NumelOfEmptyShapeIsOne) { EXPECT_EQ(shape_numel({}), 1); }

TEST(Shape, NumelMultipliesDimensions) { EXPECT_EQ(shape_numel({2, 3, 4}), 24); }

TEST(Shape, NumelZeroDimension) { EXPECT_EQ(shape_numel({5, 0, 3}), 0); }

TEST(Shape, NegativeDimensionThrows) { EXPECT_THROW(shape_numel({2, -1}), std::invalid_argument); }

TEST(Shape, ToStringFormatsBrackets) { EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]"); }

TEST(Tensor, DefaultConstructedIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(Tensor, ConstructedZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ConstructFromDataValidatesSize) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, MultiIndexAccess) {
  Tensor t({2, 3});
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
}

TEST(Tensor, MultiIndexWrongRankThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({1}), std::invalid_argument);
}

TEST(Tensor, MultiIndexOutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({1, 3}), std::out_of_range);
}

TEST(Tensor, DimSupportsNegativeIndex) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.at({2, 1}), 6.0f);
}

TEST(Tensor, ReshapeInfersDimension) {
  Tensor t({2, 6});
  const Tensor r = t.reshape({-1, 3});
  EXPECT_EQ(r.shape(), (Shape{4, 3}));
}

TEST(Tensor, ReshapeTwoInferredThrows) {
  Tensor t({4});
  EXPECT_THROW(t.reshape({-1, -1}), std::invalid_argument);
}

TEST(Tensor, ReshapeWrongCountThrows) {
  Tensor t({4});
  EXPECT_THROW(t.reshape({3}), std::invalid_argument);
}

TEST(Tensor, TransposedSwapsRowsCols) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor tt = t.transposed();
  EXPECT_EQ(tt.shape(), (Shape{3, 2}));
  EXPECT_EQ(tt.at({0, 1}), 4.0f);
  EXPECT_EQ(tt.at({2, 0}), 3.0f);
}

TEST(Tensor, TransposedRequiresRank2) {
  Tensor t({2, 2, 2});
  EXPECT_THROW(t.transposed(), std::logic_error);
}

TEST(Tensor, Slice0ExtractsRow) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor row = t.slice0(1);
  EXPECT_EQ(row.shape(), (Shape{3}));
  EXPECT_EQ(row[0], 4.0f);
}

TEST(Tensor, SetSlice0Writes) {
  Tensor t({2, 2});
  t.set_slice0(1, Tensor({2}, {9, 8}));
  EXPECT_EQ(t.at({1, 0}), 9.0f);
  EXPECT_EQ(t.at({1, 1}), 8.0f);
}

TEST(Tensor, SetSlice0WrongSizeThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(t.set_slice0(0, Tensor({3})), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 5});
  EXPECT_EQ((a + b)[1], 7.0f);
  EXPECT_EQ((b - a)[0], 2.0f);
  EXPECT_EQ((a * b)[1], 10.0f);
  EXPECT_EQ((a * 2.0f)[0], 2.0f);
  EXPECT_EQ((3.0f * a)[1], 6.0f);
}

TEST(Tensor, MismatchedShapesThrow) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a *= b, std::invalid_argument);
}

TEST(Tensor, ApplyTransformsElementsInPlace) {
  Tensor t({3}, {1, -2, 3});
  t.apply([](float v) { return v * v; });
  EXPECT_EQ(t[2], 9.0f);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, {1, -2, 3, 2});
  EXPECT_FLOAT_EQ(t.sum(), 4.0f);
  EXPECT_FLOAT_EQ(t.mean(), 1.0f);
  EXPECT_FLOAT_EQ(t.min(), -2.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
}

TEST(Tensor, EmptyReductionsThrow) {
  Tensor t(Shape{0});
  EXPECT_THROW(t.mean(), std::logic_error);
  EXPECT_THROW(t.min(), std::logic_error);
  EXPECT_THROW(t.max(), std::logic_error);
}

TEST(Tensor, KahanSumStaysAccurate) {
  // One large value followed by many tiny ones; naive float accumulation
  // loses the tiny ones entirely.
  Tensor t({100001});
  t[0] = 1e8f;
  for (int64_t i = 1; i < t.numel(); ++i) t[i] = 1.0f;
  EXPECT_NEAR(t.sum(), 1e8f + 100000.0f, 16.0f);
}

TEST(Tensor, EqualityIsExactNotApproximate) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f, 2.00002f});
  EXPECT_NE(a, b);
}

TEST(Tensor, EqualityIsFloatEquality) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor with_nan({3}, {1.0f, nan, 2.0f});
  EXPECT_NE(with_nan, with_nan) << "NaN != NaN, even against itself";
  EXPECT_EQ(Tensor({2}, {0.0f, 1.0f}), Tensor({2}, {-0.0f, 1.0f})) << "-0 == +0";
  EXPECT_EQ(Tensor({0}), Tensor({0}));
}

TEST(Tensor, EqualityNeedsTheSameShape) {
  const std::vector<float> values = {1, 2, 3, 4, 5, 6};
  EXPECT_NE(Tensor({2, 3}, values), Tensor({3, 2}, values));
  EXPECT_NE(Tensor({6}, values), Tensor({1, 6}, values));
  EXPECT_EQ(Tensor({2, 3}, values), Tensor({2, 3}, values));
}

TEST(Tensor, EqualityFindsOneDifferenceAnywhere) {
  // Equality compares in blocks of 256: a single differing element at each
  // block edge, inside a block, and at the last index must all be seen.
  for (const int64_t n : {1, 7, 255, 256, 257, 1000, 9600}) {
    Tensor a({n});
    for (int64_t i = 0; i < n; ++i) a[i] = static_cast<float>(i % 97) * 0.01f;
    const Tensor same = a;
    EXPECT_EQ(a, same) << "n=" << n;
    for (const int64_t at : {int64_t{0}, int64_t{1}, int64_t{128}, int64_t{255}, int64_t{256},
                             int64_t{511}, int64_t{512}, int64_t{767}, int64_t{768}, n - 2,
                             n - 1}) {
      if (at < 0 || at >= n) continue;
      Tensor b = a;
      b[at] = std::nextafter(b[at], 2.0f);
      EXPECT_NE(a, b) << "n=" << n << " at=" << at;
      b[at] = std::numeric_limits<float>::quiet_NaN();
      EXPECT_NE(a, b) << "n=" << n << " NaN at=" << at;
    }
  }
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({2}, {1, 5});
  Tensor b({2}, {2, 3});
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, b), 2.0f);
}

TEST(Matmul, SmallKnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  test::expect_tensors_near(c, Tensor({2, 2}, {58, 64, 139, 154}));
}

TEST(Matmul, InnerDimensionMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 2})), std::invalid_argument);
}

TEST(Matmul, RankCheck) { EXPECT_THROW(matmul(Tensor({2}), Tensor({2, 2})), std::invalid_argument); }

TEST(Gemm, MatchesNaiveOnRandomMatrices) {
  Rng rng(7);
  const int64_t m = 13, k = 17, n = 11;
  const Tensor a = rng.uniform_tensor({m, k}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({k, n}, -1.0, 1.0);
  Tensor naive({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      naive[i * n + j] = static_cast<float>(acc);
    }
  }
  test::expect_tensors_near(matmul(a, b), naive, 1e-4f);
}

TEST(Gemm, NtVariantMatchesExplicitTranspose) {
  Rng rng(11);
  const Tensor a = rng.uniform_tensor({5, 7}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({4, 7}, -1.0, 1.0);
  Tensor c({5, 4});
  gemm_nt_accumulate(a.data(), b.data(), c.data(), 5, 4, 7);
  test::expect_tensors_near(c, matmul(a, b.transposed()), 1e-4f);
}

TEST(Gemm, TnVariantMatchesExplicitTranspose) {
  Rng rng(13);
  const Tensor a = rng.uniform_tensor({7, 5}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({7, 4}, -1.0, 1.0);
  Tensor c({5, 4});
  gemm_tn_accumulate(a.data(), b.data(), c.data(), 5, 4, 7);
  test::expect_tensors_near(c, matmul(a.transposed(), b), 1e-4f);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) any_diff |= a.next_u64() != b.next_u64();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntInvalidRangeThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int64_t> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v);
  std::vector<int64_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng b = a.split();
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Serialize, PrimitivesRoundTrip) {
  std::stringstream ss;
  write_u32(ss, 123u);
  write_i64(ss, -456);
  write_f32(ss, 7.25f);
  write_string(ss, "hello");
  EXPECT_EQ(read_u32(ss), 123u);
  EXPECT_EQ(read_i64(ss), -456);
  EXPECT_FLOAT_EQ(read_f32(ss), 7.25f);
  EXPECT_EQ(read_string(ss), "hello");
}

TEST(Serialize, TensorRoundTrip) {
  Rng rng(5);
  const Tensor t = rng.uniform_tensor({3, 4, 5}, -2.0, 2.0);
  std::stringstream ss;
  write_tensor(ss, t);
  EXPECT_EQ(read_tensor(ss), t);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  write_u32(ss, 10u);
  EXPECT_THROW(read_i64(ss), SerializationError);
}

TEST(Serialize, HeaderValidatesMagic) {
  std::stringstream ss;
  write_header(ss, "right-magic", 1);
  EXPECT_THROW(read_header(ss, "wrong-magic", 1), SerializationError);
}

TEST(Serialize, HeaderValidatesVersion) {
  std::stringstream ss;
  write_header(ss, "magic", 2);
  EXPECT_THROW(read_header(ss, "magic", 1), SerializationError);
}

TEST(Serialize, ImplausibleTensorRejected) {
  std::stringstream ss;
  write_u32(ss, 99u);  // rank 99
  EXPECT_THROW(read_tensor(ss), SerializationError);
}

}  // namespace
}  // namespace salnov
