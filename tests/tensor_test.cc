#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace causalformer {
namespace {

TEST(ShapeTest, NumelAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s.dim(-1), 4);
}

TEST(ShapeTest, ScalarShape) {
  Shape s{};
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, BroadcastRules) {
  EXPECT_EQ(BroadcastShapes(Shape{3, 1}, Shape{1, 4}), (Shape{3, 4}));
  EXPECT_EQ(BroadcastShapes(Shape{5}, Shape{2, 5}), (Shape{2, 5}));
  EXPECT_EQ(BroadcastShapes(Shape{}, Shape{2, 3}), (Shape{2, 3}));
  EXPECT_TRUE(BroadcastableTo(Shape{1, 4}, Shape{3, 4}));
  EXPECT_FALSE(BroadcastableTo(Shape{2, 4}, Shape{3, 4}));
}

TEST(TensorTest, FactoriesFillValues) {
  Tensor z = Tensor::Zeros(Shape{2, 2});
  Tensor o = Tensor::Ones(Shape{2, 2});
  Tensor f = Tensor::Full(Shape{2, 2}, 3.5f);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(z.data()[i], 0.0f);
    EXPECT_EQ(o.data()[i], 1.0f);
    EXPECT_EQ(f.data()[i], 3.5f);
  }
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({1, 2}), 6.0f);
  t.at({1, 0}) = 9.0f;
  EXPECT_EQ(t.at({1, 0}), 9.0f);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor e = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(e.at({i, j}), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, HandleSharesStorageCloneDoesNot) {
  Tensor a = Tensor::Zeros(Shape{2});
  Tensor b = a;           // shares
  Tensor c = a.Clone();   // deep copy
  a.data()[0] = 5.0f;
  EXPECT_EQ(b.data()[0], 5.0f);
  EXPECT_EQ(c.data()[0], 0.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).item(), 2.5f);
}

TEST(TensorTest, RandnIsSeeded) {
  Rng r1(5), r2(5);
  Tensor a = Tensor::Randn(Shape{10}, &r1);
  Tensor b = Tensor::Randn(Shape{10}, &r2);
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(OpsTest, AddSubMulDivElementwise) {
  Tensor a = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector(Shape{2, 2}, {4, 3, 2, 1});
  EXPECT_EQ(Add(a, b).at({0, 0}), 5.0f);
  EXPECT_EQ(Sub(a, b).at({0, 1}), -1.0f);
  EXPECT_EQ(Mul(a, b).at({1, 0}), 6.0f);
  EXPECT_EQ(Div(a, b).at({1, 1}), 4.0f);
}

TEST(OpsTest, BroadcastRowVector) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(OpsTest, BroadcastColumnVector) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{2, 1}, {10, 100});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.at({0, 2}), 30.0f);
  EXPECT_EQ(c.at({1, 0}), 400.0f);
}

TEST(OpsTest, BroadcastScalarOperand) {
  Tensor a = Tensor::FromVector(Shape{3}, {1, 2, 3});
  Tensor s = Tensor::Scalar(2.0f);
  Tensor c = Mul(a, s);
  EXPECT_EQ(c.at({2}), 6.0f);
}

TEST(OpsTest, LeakyReluForwardMatchesBranchyFormBitForBit) {
  // Forward and VJP are bitwise selects (so they vectorize); they must give
  // the bits of `v > 0 ? v : slope * v` and, through a ones cotangent, of
  // `v > 0 ? 1 : slope`, for NaN payloads, ±0, ±inf and denormals too, in
  // the vector body and the tail.
  const uint32_t patterns[] = {0x00000000u, 0x80000000u, 0x7F800000u,
                               0xFF800000u, 0x7FC00000u, 0xFFC00001u,
                               0x7FA5A5A5u, 0x00000001u, 0x807FFFFFu,
                               0x3F800000u, 0xBF000000u, 0x7F7FFFFFu,
                               0xFF7FFFFFu};
  const size_t kinds = sizeof(patterns) / sizeof(patterns[0]);
  for (const float slope : {0.1f, -0.5f, 0.0f, 1.0f, 3.0e38f}) {
    for (int64_t n = 1; n <= 37; ++n) {
      Tensor x = Tensor::Empty(Shape{n});
      for (int64_t i = 0; i < n; ++i) {
        std::memcpy(x.data() + i, &patterns[static_cast<size_t>(i) % kinds],
                    sizeof(uint32_t));
      }
      x.set_requires_grad(true);
      const Tensor y = LeakyRelu(x, slope);
      y.Backward(Tensor::Ones(Shape{n}));
      ASSERT_TRUE(x.grad().defined());
      for (int64_t i = 0; i < n; ++i) {
        const float v = x.data()[i];
        const float expected = v > 0.0f ? v : slope * v;
        EXPECT_EQ(std::memcmp(&y.data()[i], &expected, sizeof(float)), 0)
            << "slope " << slope << " n " << n << " element " << i;
        const float expected_grad = v > 0.0f ? 1.0f : slope;
        EXPECT_EQ(
            std::memcmp(&x.grad().data()[i], &expected_grad, sizeof(float)), 0)
            << "grad: slope " << slope << " n " << n << " element " << i;
      }
    }
  }
}

TEST(OpsTest, UnaryFunctions) {
  Tensor x = Tensor::FromVector(Shape{4}, {-2, -0.5, 0.5, 2});
  EXPECT_FLOAT_EQ(Relu(x).at({0}), 0.0f);
  EXPECT_FLOAT_EQ(Relu(x).at({3}), 2.0f);
  EXPECT_FLOAT_EQ(LeakyRelu(x, 0.1f).at({0}), -0.2f);
  EXPECT_FLOAT_EQ(Abs(x).at({1}), 0.5f);
  EXPECT_NEAR(Sigmoid(x).at({3}), 1.0f / (1.0f + std::exp(-2.0f)), 1e-6);
  EXPECT_NEAR(Tanh(x).at({2}), std::tanh(0.5f), 1e-6);
  EXPECT_NEAR(Exp(x).at({0}), std::exp(-2.0f), 1e-6);
  EXPECT_FLOAT_EQ(Square(x).at({3}), 4.0f);
  EXPECT_FLOAT_EQ(Neg(x).at({0}), 2.0f);
  EXPECT_FLOAT_EQ(Scale(x, 3.0f).at({2}), 1.5f);
  EXPECT_FLOAT_EQ(AddScalar(x, 1.0f).at({0}), -1.0f);
}

TEST(OpsTest, MatMul2d) {
  Tensor a = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  // [[58, 64], [139, 154]]
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(OpsTest, MatMulBatchedLhs) {
  // [2, 2, 2] @ [2, 2]
  Tensor a = Tensor::FromVector(Shape{2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_FLOAT_EQ(c.at({0, 0, 1}), 2.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1, 0}), 6.0f);
}

TEST(OpsTest, MatMul2dLhsBatchedRhs) {
  Tensor a = Tensor::Eye(2);
  Tensor b = Tensor::FromVector(Shape{3, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 2}));
  for (int64_t i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(c.data()[i], b.data()[i]);
}

TEST(OpsTest, SumMeanAll) {
  Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(x).item(), 2.5f);
  EXPECT_FLOAT_EQ(L1Norm(Neg(x)).item(), 10.0f);
}

TEST(OpsTest, SumAlongAxis) {
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(x, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0.at({0}), 5.0f);
  Tensor s1 = Sum(x, 1, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.at({1, 0}), 15.0f);
  Tensor m1 = Mean(x, -1);
  EXPECT_FLOAT_EQ(m1.at({0}), 2.0f);
}

TEST(OpsTest, ReshapeTransposeSliceConcat) {
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(x, Shape{3, 2});
  EXPECT_FLOAT_EQ(r.at({2, 1}), 6.0f);
  Tensor t = Transpose(x, 0, 1);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at({2, 0}), 3.0f);
  EXPECT_FLOAT_EQ(t.at({1, 1}), 5.0f);
  Tensor s = Slice(x, 1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(s.at({0, 0}), 2.0f);
  Tensor c = Concat({x, x}, 0);
  EXPECT_EQ(c.shape(), (Shape{4, 3}));
  EXPECT_FLOAT_EQ(c.at({3, 2}), 6.0f);
  Tensor c1 = Concat({x, s}, 1);
  EXPECT_EQ(c1.shape(), (Shape{2, 5}));
  EXPECT_FLOAT_EQ(c1.at({0, 4}), 3.0f);
}

TEST(OpsTest, Transpose3dMiddleDims) {
  Tensor x = Tensor::FromVector(Shape{2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor t = Transpose(x, 1, 2);
  EXPECT_FLOAT_EQ(t.at({0, 1, 0}), x.at({0, 0, 1}));
  EXPECT_FLOAT_EQ(t.at({1, 0, 1}), x.at({1, 1, 0}));
}

TEST(OpsTest, UnsqueezeSqueeze) {
  Tensor x = Tensor::FromVector(Shape{3}, {1, 2, 3});
  Tensor u = Unsqueeze(x, 0);
  EXPECT_EQ(u.shape(), (Shape{1, 3}));
  Tensor s = Squeeze(u, 0);
  EXPECT_EQ(s.shape(), (Shape{3}));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor x = Tensor::FromVector(Shape{2, 3}, {1, 2, 3, 0, 0, 0});
  Tensor y = Softmax(x, 1);
  for (int64_t i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 3; ++j) sum += y.at({i, j});
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  // Uniform logits -> uniform distribution.
  EXPECT_NEAR(y.at({1, 0}), 1.0f / 3.0f, 1e-6);
  // Monotonicity.
  EXPECT_GT(y.at({0, 2}), y.at({0, 1}));
}

TEST(OpsTest, SoftmaxIsNumericallyStableForLargeLogits) {
  Tensor x = Tensor::FromVector(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = Softmax(x, 1);
  EXPECT_NEAR(y.at({0, 0}), 1.0f / 3.0f, 1e-6);
}

TEST(OpsTest, SoftmaxAlongNonTrailingAxis) {
  Tensor x = Tensor::FromVector(Shape{2, 2}, {0, 10, 0, 10});
  Tensor y = Softmax(x, 0);
  EXPECT_NEAR(y.at({0, 0}) + y.at({1, 0}), 1.0f, 1e-6);
  EXPECT_NEAR(y.at({0, 0}), 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxFullyMaskedRowIsUniformNotNaN) {
  // Regression: an axis that is entirely -inf (a fully masked attention row)
  // used to produce exp(-inf - -inf) = NaN across the row. It must yield the
  // uniform distribution, and unmasked rows must be unaffected.
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::FromVector(Shape{2, 4},
                                {ninf, ninf, ninf, ninf, 1.0f, 2.0f, 3.0f, 4.0f});
  Tensor y = Softmax(x, 1);
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_FALSE(std::isnan(y.at({0, j})));
    EXPECT_FLOAT_EQ(y.at({0, j}), 0.25f);
  }
  float sum = 0.0f;
  for (int64_t j = 0; j < 4; ++j) sum += y.at({1, j});
  EXPECT_NEAR(sum, 1.0f, 1e-6);
  EXPECT_GT(y.at({1, 3}), y.at({1, 2}));
}

TEST(OpsTest, SoftmaxPartiallyMaskedRowIgnoresMaskedEntries) {
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::FromVector(Shape{1, 4}, {ninf, 0.0f, 0.0f, ninf});
  Tensor y = Softmax(x, 1);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 0.0f);
  EXPECT_FLOAT_EQ(y.at({0, 3}), 0.0f);
  EXPECT_NEAR(y.at({0, 1}), 0.5f, 1e-6);
  EXPECT_NEAR(y.at({0, 2}), 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxFullyMaskedStridedAxisIsUniform) {
  // Same regression along a non-trailing (strided) axis: lane 0 fully masked,
  // lane 1 ordinary.
  const float ninf = -std::numeric_limits<float>::infinity();
  Tensor x = Tensor::FromVector(Shape{2, 2}, {ninf, 5.0f, ninf, 7.0f});
  Tensor y = Softmax(x, 0);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 0.5f);
  EXPECT_FLOAT_EQ(y.at({1, 0}), 0.5f);
  EXPECT_NEAR(y.at({0, 1}) + y.at({1, 1}), 1.0f, 1e-6);
  EXPECT_GT(y.at({1, 1}), y.at({0, 1}));
}

TEST(TensorTest, OversizedShapeDiesAtConstruction) {
  // Index-arithmetic overflow must be caught at tensor construction (the
  // TensorBuffer byte cap), not surface as a wild pointer inside a kernel.
  EXPECT_DEATH(Tensor::Zeros(Shape{int64_t{1} << 30, int64_t{1} << 30}),
               "size cap");
  // numel() itself refuses products that overflow int64.
  EXPECT_DEATH(Shape({int64_t{1} << 40, int64_t{1} << 40}).numel(),
               "overflows");
}

TEST(OpsTest, ArgMaxIndex) {
  Tensor x = Tensor::FromVector(Shape{5}, {1, 9, 3, 9, 2});
  EXPECT_EQ(ArgMaxIndex(x), 1);  // first max wins
}

TEST(OpsTest, ReduceToShapeSumsBroadcastAxes) {
  Tensor t = Tensor::Ones(Shape{2, 3, 4});
  Tensor r = ReduceToShape(t, Shape{3, 1});
  EXPECT_EQ(r.shape(), (Shape{3, 1}));
  EXPECT_FLOAT_EQ(r.at({0, 0}), 8.0f);  // 2 * 4
  Tensor r2 = ReduceToShape(t, Shape{});
  EXPECT_FLOAT_EQ(r2.item(), 24.0f);
}

// ---- Broadcast and reduce against a naive index walk -------------------------

// Offset into a contiguous tensor of shape `s` for the multi-index `idx` of a
// broadcast result (aligned to the trailing dims; size-1 dims broadcast).
int64_t BroadcastOffset(const Shape& s, const std::vector<int64_t>& idx) {
  int64_t off = 0;
  int64_t stride = 1;
  for (int d = s.ndim() - 1; d >= 0; --d) {
    const size_t k = idx.size() - static_cast<size_t>(s.ndim() - d);
    if (s[d] != 1) off += idx[k] * stride;
    stride *= s[d];
  }
  return off;
}

// The multi-index of flat position `flat` in `shape`.
std::vector<int64_t> Unravel(const Shape& shape, int64_t flat) {
  std::vector<int64_t> idx(static_cast<size_t>(shape.ndim()));
  for (int d = shape.ndim() - 1; d >= 0; --d) {
    idx[static_cast<size_t>(d)] = flat % shape[d];
    flat /= shape[d];
  }
  return idx;
}

// Random values with about a quarter of them ±0, ±inf or NaN (one NaN bit
// pattern, so every level propagates the same payload).
Tensor SpecialData(const Shape& shape, Rng* rng) {
  const float kSpecial[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  std::vector<float> v(static_cast<size_t>(shape.numel()));
  for (float& x : v) {
    x = rng->Bernoulli(0.25) ? kSpecial[rng->UniformInt(5)]
                             : static_cast<float>(rng->Normal());
  }
  return Tensor::FromVector(shape, std::move(v));
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// SameBits, except that any two NaNs match. A sum can meet two different
// NaNs (an input NaN and inf + -inf); IEEE-754 leaves which payload survives
// to the operand order, which the compiler may swap for a float add.
bool SameBitsAnyNaN(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(float)) != 0) return false;
  }
  return true;
}

// a op b for every element of the broadcast shape, one index at a time.
template <typename Fn>
Tensor NaiveBroadcast(const Tensor& a, const Tensor& b, Fn fn) {
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Zeros(out_shape);
  for (int64_t i = 0; i < out.numel(); ++i) {
    const std::vector<int64_t> idx = Unravel(out_shape, i);
    out.data()[i] = fn(a.data()[BroadcastOffset(a.shape(), idx)],
                       b.data()[BroadcastOffset(b.shape(), idx)]);
  }
  return out;
}

// Sum of t into `target`, from +0 and in ascending flat order of t; t itself
// when there is nothing to reduce.
Tensor NaiveReduce(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  Tensor out = Tensor::Zeros(target);
  for (int64_t i = 0; i < t.numel(); ++i) {
    out.data()[BroadcastOffset(target, Unravel(t.shape(), i))] += t.data()[i];
  }
  return out;
}

// A random shape of 1..4 dims of sizes 1..5.
Shape RandomShape(Rng* rng) {
  std::vector<int64_t> dims(static_cast<size_t>(1 + rng->UniformInt(4)));
  for (int64_t& d : dims) d = 1 + rng->UniformInt(5);
  return Shape(dims);
}

// The last `keep` dims of `whole` behind `lead` leading 1s.
Shape TrailingPart(const Shape& whole, int keep, int lead) {
  std::vector<int64_t> dims(static_cast<size_t>(lead), 1);
  for (int d = whole.ndim() - keep; d < whole.ndim(); ++d) {
    dims.push_back(whole[d]);
  }
  return Shape(dims);
}

// Every kernel table this build and CPU can run.
std::vector<simd::IsaLevel> AvailableLevels() {
  std::vector<simd::IsaLevel> levels;
  for (const simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
        simd::IsaLevel::kNeon}) {
    if (simd::TableForLevel(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

class BroadcastPropertyTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::SetLevelForTesting(saved_level_); }
  const simd::IsaLevel saved_level_ = simd::ActiveLevel();
};

TEST_F(BroadcastPropertyTest, TrailingOperandMatchesIndexWalkBitForBit) {
  Rng rng(11);
  for (const simd::IsaLevel level : AvailableLevels()) {
    simd::SetLevelForTesting(level);
    for (int trial = 0; trial < 200; ++trial) {
      const Shape whole = RandomShape(&rng);
      const Shape part = TrailingPart(
          whole, static_cast<int>(rng.UniformInt(whole.ndim() + 1)),
          static_cast<int>(rng.UniformInt(3)));
      const Tensor full = SpecialData(whole, &rng);
      const Tensor row = SpecialData(part, &rng);
      SCOPED_TRACE(std::string(simd::LevelName(level)) + " " +
                   whole.ToString() + " with " + part.ToString());
      for (const bool row_first : {false, true}) {
        const Tensor& a = row_first ? row : full;
        const Tensor& b = row_first ? full : row;
        EXPECT_TRUE(SameBits(
            Add(a, b), NaiveBroadcast(a, b, [](float x, float y) {
              return x + y;
            })));
        EXPECT_TRUE(SameBits(
            Sub(a, b), NaiveBroadcast(a, b, [](float x, float y) {
              return x - y;
            })));
        EXPECT_TRUE(SameBits(
            Mul(a, b), NaiveBroadcast(a, b, [](float x, float y) {
              return x * y;
            })));
        EXPECT_TRUE(SameBits(
            Div(a, b), NaiveBroadcast(a, b, [](float x, float y) {
              return x / y;
            })));
      }
    }
  }
}

TEST_F(BroadcastPropertyTest, ReduceToShapeMatchesIndexWalkBitForBit) {
  Rng rng(12);
  for (const simd::IsaLevel level : AvailableLevels()) {
    simd::SetLevelForTesting(level);
    for (int trial = 0; trial < 200; ++trial) {
      const Shape whole = RandomShape(&rng);
      const Tensor t = SpecialData(whole, &rng);
      // A suffix target (no more dims than t), and one with a random subset
      // of dims set to 1 (a suffix only by chance).
      const int keep = static_cast<int>(rng.UniformInt(whole.ndim() + 1));
      const Shape suffix = TrailingPart(
          whole, keep,
          static_cast<int>(rng.UniformInt(whole.ndim() - keep + 1)));
      std::vector<int64_t> dims = whole.dims();
      for (int64_t& d : dims) {
        if (rng.Bernoulli(0.5)) d = 1;
      }
      const Shape ones_in(dims);
      for (const Shape& target : {suffix, ones_in}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " " +
                     whole.ToString() + " to " + target.ToString());
        EXPECT_TRUE(
            SameBitsAnyNaN(ReduceToShape(t, target), NaiveReduce(t, target)));
      }
    }
  }
}

TEST(OpsTest, ColumnBroadcastKeepsTheIndexWalk) {
  // [3,1] against [3,4] is not a trailing run, so it takes the general path.
  Tensor col = Tensor::FromVector(Shape{3, 1}, {1, 2, 3});
  Tensor m = Tensor::FromVector(Shape{3, 4},
                                {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  const Tensor sum = Add(col, m);
  const Tensor diff = Sub(m, col);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      const float v = static_cast<float>(i * 4 + j + 1);
      EXPECT_EQ(sum.at({i, j}), v + static_cast<float>(i + 1));
      EXPECT_EQ(diff.at({i, j}), v - static_cast<float>(i + 1));
    }
  }
  const Tensor r = ReduceToShape(m, Shape{3, 1});
  EXPECT_EQ(r.at({0, 0}), 10.0f);
  EXPECT_EQ(r.at({1, 0}), 26.0f);
  EXPECT_EQ(r.at({2, 0}), 42.0f);
}

}  // namespace
}  // namespace causalformer
