#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/causal_attention.h"
#include "core/causal_conv.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace causalformer {
namespace {

using core::AttentionCombine;
using core::GroupedMultiKernelCausalConv;
using core::MultiKernelCausalConv;
using core::ShiftRightDiagonal;

TEST(CausalConvTest, OutputShape) {
  Rng rng(1);
  Tensor x = Tensor::Randn(Shape{2, 3, 5}, &rng);
  Tensor k = Tensor::Randn(Shape{3, 3, 5}, &rng);
  Tensor y = MultiKernelCausalConv(x, k);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 3, 5}));
}

TEST(CausalConvTest, Eq3HandComputedValues) {
  // Single series, T=3, kernel [k0, k1, k2] (tap 2 = lag 0).
  Tensor x = Tensor::FromVector(Shape{1, 1, 3}, {1.0f, 2.0f, 3.0f});
  Tensor k = Tensor::FromVector(Shape{1, 1, 3}, {0.5f, 1.0f, 2.0f});
  Tensor y = MultiKernelCausalConv(x, k);
  // t=0: k[2]*x0 / 1 = 2
  // t=1: (k[1]*x0 + k[2]*x1) / 2 = (1 + 4)/2 = 2.5
  // t=2: (k[0]*x0 + k[1]*x1 + k[2]*x2) / 3 = (0.5 + 2 + 6)/3 = 8.5/3
  EXPECT_NEAR(y.at({0, 0, 0, 0}), 2.0f, 1e-5);
  EXPECT_NEAR(y.at({0, 0, 0, 1}), 2.5f, 1e-5);
  EXPECT_NEAR(y.at({0, 0, 0, 2}), 8.5f / 3.0f, 1e-5);
}

TEST(CausalConvTest, TemporalPriorityHoldsEverywhere) {
  // Perturbing x at time t must leave conv outputs at times < t unchanged.
  Rng rng(2);
  const int64_t n = 3, steps = 6;
  Tensor k = Tensor::Randn(Shape{n, n, steps}, &rng);
  Tensor x = Tensor::Randn(Shape{1, n, steps}, &rng);
  Tensor base = MultiKernelCausalConv(x, k);
  for (int64_t tp = 0; tp < steps; ++tp) {
    Tensor x2 = x.Clone();
    x2.at({0, 1, tp}) += 7.0f;
    Tensor pert = MultiKernelCausalConv(x2, k);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        for (int64_t t = 0; t < tp; ++t) {
          EXPECT_FLOAT_EQ(base.at({0, i, j, t}), pert.at({0, i, j, t}))
              << "future leak: perturb t=" << tp << " changed t=" << t;
        }
      }
    }
  }
}

TEST(CausalConvTest, PerPairKernelsAreIndependent) {
  // Changing kernel (i=0, j=1) must only affect channel (0, 1).
  Rng rng(3);
  Tensor x = Tensor::Randn(Shape{1, 2, 4}, &rng);
  Tensor k = Tensor::Randn(Shape{2, 2, 4}, &rng);
  Tensor base = MultiKernelCausalConv(x, k);
  Tensor k2 = k.Clone();
  k2.at({0, 1, 3}) += 5.0f;
  Tensor pert = MultiKernelCausalConv(x, k2);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      for (int64_t t = 0; t < 4; ++t) {
        if (i == 0 && j == 1) continue;
        EXPECT_FLOAT_EQ(base.at({0, i, j, t}), pert.at({0, i, j, t}));
      }
    }
  }
  EXPECT_NE(base.at({0, 0, 1, 0}), pert.at({0, 0, 1, 0}));
}

TEST(CausalConvTest, SharedKernelBroadcastsAcrossTargets) {
  Rng rng(4);
  Tensor x = Tensor::Randn(Shape{1, 2, 4}, &rng);
  Tensor k = Tensor::Randn(Shape{2, 1, 4}, &rng);
  Tensor y = MultiKernelCausalConv(x, k, /*shared_kernel=*/true);
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_FLOAT_EQ(y.at({0, 0, 0, t}), y.at({0, 0, 1, t}));
    EXPECT_FLOAT_EQ(y.at({0, 1, 0, t}), y.at({0, 1, 1, t}));
  }
}

TEST(CausalConvTest, GradCheck) {
  Rng rng(5);
  Tensor x = Tensor::Randn(Shape{2, 2, 4}, &rng, true);
  Tensor k = Tensor::Randn(Shape{2, 2, 4}, &rng, true);
  auto f = [&]() { return Sum(Square(MultiKernelCausalConv(x, k))); };
  f().Backward();
  const float eps = 1e-2f;
  for (Tensor* t : {&x, &k}) {
    const Tensor g = t->grad();
    ASSERT_TRUE(g.defined());
    for (int64_t i = 0; i < t->numel(); ++i) {
      const float orig = t->data()[i];
      t->data()[i] = orig + eps;
      const float up = f().item();
      t->data()[i] = orig - eps;
      const float down = f().item();
      t->data()[i] = orig;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(g.data()[i], numeric,
                  3e-2f * std::max(1.0f, std::fabs(numeric)));
    }
  }
}

TEST(ShiftRightDiagonalTest, ShiftsOnlyDiagonalChannels) {
  Tensor conv = Tensor::Zeros(Shape{1, 2, 2, 3});
  // Fill with distinct values.
  for (int64_t i = 0; i < conv.numel(); ++i) {
    conv.data()[i] = static_cast<float>(i + 1);
  }
  Tensor out = ShiftRightDiagonal(conv);
  // Diagonal (i == j): first slot zero, rest shifted.
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_FLOAT_EQ(out.at({0, i, i, 0}), 0.0f);
    EXPECT_FLOAT_EQ(out.at({0, i, i, 1}), conv.at({0, i, i, 0}));
    EXPECT_FLOAT_EQ(out.at({0, i, i, 2}), conv.at({0, i, i, 1}));
  }
  // Off-diagonal untouched.
  for (int64_t t = 0; t < 3; ++t) {
    EXPECT_FLOAT_EQ(out.at({0, 0, 1, t}), conv.at({0, 0, 1, t}));
    EXPECT_FLOAT_EQ(out.at({0, 1, 0, t}), conv.at({0, 1, 0, t}));
  }
}

TEST(ShiftRightDiagonalTest, GradCheck) {
  Rng rng(6);
  Tensor x = Tensor::Randn(Shape{1, 2, 2, 3}, &rng, true);
  Tensor w = Tensor::Randn(Shape{1, 2, 2, 3}, &rng);
  auto f = [&]() { return Sum(Mul(ShiftRightDiagonal(x), w)); };
  f().Backward();
  const Tensor g = x.grad();
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up = f().item();
    x.data()[i] = orig - eps;
    const float down = f().item();
    x.data()[i] = orig;
    EXPECT_NEAR(g.data()[i], (up - down) / (2 * eps), 2e-2f);
  }
}

TEST(AttentionCombineTest, HandComputedValues) {
  // out[b,i,t] = sum_j A[b,i,j] * V[b,j,i,t].
  Tensor a = Tensor::FromVector(Shape{1, 2, 2}, {0.25f, 0.75f, 0.5f, 0.5f});
  Tensor v = Tensor::Zeros(Shape{1, 2, 2, 2});
  v.at({0, 0, 0, 0}) = 1.0f;  // source 0 -> target 0
  v.at({0, 1, 0, 0}) = 3.0f;  // source 1 -> target 0
  v.at({0, 0, 1, 1}) = 2.0f;  // source 0 -> target 1
  Tensor out = AttentionCombine(a, v);
  // out[0,0,0] = A00*V[0,0,0] + A01*V[1,0,0] = 0.25*1 + 0.75*3 = 2.5
  EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 2.5f);
  // out[0,1,1] = A10*V[0,1,1] + A11*V[1,1,1] = 0.5*2 + 0 = 1.0
  EXPECT_FLOAT_EQ(out.at({0, 1, 1}), 1.0f);
}

TEST(AttentionCombineTest, GradCheck) {
  Rng rng(7);
  Tensor a = Tensor::Randn(Shape{2, 2, 2}, &rng, true);
  Tensor v = Tensor::Randn(Shape{2, 2, 2, 3}, &rng, true);
  auto f = [&]() { return Sum(Square(AttentionCombine(a, v))); };
  f().Backward();
  const float eps = 1e-2f;
  for (Tensor* t : {&a, &v}) {
    const Tensor g = t->grad();
    for (int64_t i = 0; i < t->numel(); ++i) {
      const float orig = t->data()[i];
      t->data()[i] = orig + eps;
      const float up = f().item();
      t->data()[i] = orig - eps;
      const float down = f().item();
      t->data()[i] = orig;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(g.data()[i], numeric,
                  3e-2f * std::max(1.0f, std::fabs(numeric)));
    }
  }
}

TEST(AttentionCombineTest, UniformAttentionAveragesSources) {
  Tensor a = Tensor::Full(Shape{1, 2, 2}, 0.5f);
  Tensor v = Tensor::Ones(Shape{1, 2, 2, 4});
  Tensor out = AttentionCombine(a, v);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t t = 0; t < 4; ++t) {
      EXPECT_FLOAT_EQ(out.at({0, i, t}), 1.0f);
    }
  }
}

// Temporal-priority property sweep across (N, T) grid.
class ConvPriorityTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConvPriorityTest, NoFutureLeak) {
  const auto [n, steps] = GetParam();
  Rng rng(100 + n * 10 + steps);
  Tensor x = Tensor::Randn(Shape{1, n, steps}, &rng);
  Tensor k = Tensor::Randn(Shape{n, n, steps}, &rng);
  Tensor base = ShiftRightDiagonal(MultiKernelCausalConv(x, k));
  const int64_t tp = steps / 2;
  Tensor x2 = x.Clone();
  for (int64_t i = 0; i < n; ++i) x2.at({0, i, tp}) += 3.0f;
  Tensor pert = ShiftRightDiagonal(MultiKernelCausalConv(x2, k));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t t = 0; t < tp; ++t) {
        EXPECT_FLOAT_EQ(base.at({0, i, j, t}), pert.at({0, i, j, t}));
      }
      // Self channel additionally hides the present (shift): value at tp
      // itself must be unchanged on the diagonal.
      EXPECT_FLOAT_EQ(base.at({0, i, i, tp}), pert.at({0, i, i, tp}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ConvPriorityTest,
                         testing::Combine(testing::Values(2, 3, 5),
                                          testing::Values(4, 8, 12)));


// ---- Conv VJP exactness ------------------------------------------------------

// The conv VJP as one ranged axpy pair per (b, i, j, t), in that order: the
// loop the padded rows replaced, kept as the reference. `kernel_row(b, i, j)`
// is the kernel row that pairs with source i, target j of batch row b.
template <typename RowOf>
std::vector<Tensor> RangedConvVjp(const Tensor& x, const Tensor& kernel,
                                  const Tensor& cot, bool want_x,
                                  RowOf kernel_row) {
  const simd::KernelTable& K = simd::Active();
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t steps = x.dim(2);
  Tensor gx = Tensor::Zeros(x.shape());
  Tensor gk = Tensor::Zeros(kernel.shape());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      const float* xrow = x.data() + (b * n + i) * steps;
      float* gxrow = gx.data() + (b * n + i) * steps;
      for (int64_t j = 0; j < n; ++j) {
        const int64_t row = kernel_row(b, i, j) * steps;
        const float* crow = cot.data() + ((b * n + i) * n + j) * steps;
        for (int64_t t = 0; t < steps; ++t) {
          const float c = crow[t] / static_cast<float>(t + 1);
          if (c == 0.0f) continue;
          if (want_x) {
            K.axpy(c, kernel.data() + row + steps - 1 - t, gxrow, t + 1);
          }
          K.axpy(c, xrow, gk.data() + row + steps - 1 - t, t + 1);
        }
      }
    }
  }
  return {want_x ? gx : Tensor(), gk};
}

// A cotangent of normal values, about a third of them exact zeros, with one
// entry of one row set to +inf (the non-finite branch).
Tensor ConvCotangent(const Shape& shape, Rng* rng) {
  Tensor cot = Tensor::Randn(shape, rng);
  for (int64_t i = 0; i < cot.numel(); ++i) {
    if (rng->Bernoulli(0.3)) cot.data()[i] = 0.0f;
  }
  cot.data()[cot.numel() / 2 + 3] = std::numeric_limits<float>::infinity();
  return cot;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Runs the op's VJP on `cot` and compares both cotangents with the reference.
template <typename RowOf>
void ExpectVjpMatchesRanged(const Tensor& y, const Tensor& x,
                            const Tensor& kernel, const Tensor& cot,
                            bool want_x, RowOf kernel_row) {
  const std::vector<Tensor> got =
      y.grad_fn()->vjp(y, cot, NeededMask{want_x, true});
  const std::vector<Tensor> want =
      RangedConvVjp(x, kernel, cot, want_x, kernel_row);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].defined(), want_x);
  if (want_x) {
    EXPECT_TRUE(SameBits(got[0], want[0]));
  }
  EXPECT_TRUE(SameBits(got[1], want[1]));
}

TEST(CausalConvTest, PaddedVjpEqualsRangedAxpysBitForBit) {
  const int64_t batch = 3, n = 4;
  Rng rng(21);
  // Window lengths below, at and off the 8-lane rounding.
  for (const int64_t steps : {5, 8, 16, 19}) {
    const Tensor x = Tensor::Randn(Shape{batch, n, steps}, &rng, true);
    const Tensor cot = ConvCotangent(Shape{batch, n, n, steps}, &rng);
    for (const bool shared : {false, true}) {
      const Tensor k =
          Tensor::Randn(Shape{n, shared ? 1 : n, steps}, &rng, true);
      const Tensor y = MultiKernelCausalConv(x, k, shared);
      for (const bool want_x : {false, true}) {
        SCOPED_TRACE("T=" + std::to_string(steps) +
                     (shared ? " shared" : " multi") +
                     (want_x ? " want_x" : ""));
        ExpectVjpMatchesRanged(y, x, k, cot, want_x,
                               [&](int64_t, int64_t i, int64_t j) {
                                 return shared ? i : i * n + j;
                               });
      }
    }
    for (const int64_t groups : {1, 2}) {
      const Tensor k = Tensor::Randn(Shape{groups, n, n, steps}, &rng, true);
      const std::vector<int> row_groups =
          groups == 1 ? std::vector<int>{0, 0, 0} : std::vector<int>{0, 1, 0};
      const Tensor y = GroupedMultiKernelCausalConv(x, k, row_groups);
      for (const bool want_x : {false, true}) {
        SCOPED_TRACE("T=" + std::to_string(steps) + " groups=" +
                     std::to_string(groups) + (want_x ? " want_x" : ""));
        ExpectVjpMatchesRanged(
            y, x, k, cot, want_x, [&](int64_t b, int64_t i, int64_t j) {
              return (row_groups[static_cast<size_t>(b)] * n + i) * n + j;
            });
      }
    }
  }
}

}  // namespace
}  // namespace causalformer
