#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/causality_transformer.h"
#include "interpret/gradient_modulation.h"
#include "interpret/relevance.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace causalformer {
namespace {

using interpret::PropagateRelevance;
using interpret::RelevanceMap;
using interpret::RelevanceOf;
using interpret::RelevanceOptions;

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.defined() && b.defined() && a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

double SumOf(const Tensor& t) {
  double s = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) s += t.data()[i];
  return s;
}

TEST(RelevanceTest, LinearLayerMatchesEq15ClosedForm) {
  // out_j = sum_i x_i W_ij + b_j;  R_i = sum_j x_i W_ij R_j / out_j (Eq. 15).
  Tensor x = Tensor::FromVector(Shape{1, 2}, {2.0f, 3.0f}).set_requires_grad(true);
  Tensor w = Tensor::FromVector(Shape{2, 2}, {1.0f, -1.0f, 0.5f, 2.0f})
                 .set_requires_grad(true);
  Tensor b = Tensor::FromVector(Shape{2}, {0.5f, 1.0f}).set_requires_grad(true);
  Tensor out = Add(MatMul(x, w), b);
  // out = [2*1+3*0.5+0.5, 2*(-1)+3*2+1] = [4.0, 5.0]
  ASSERT_FLOAT_EQ(out.at({0, 0}), 4.0f);
  ASSERT_FLOAT_EQ(out.at({0, 1}), 5.0f);

  Tensor seed = Tensor::FromVector(Shape{1, 2}, {1.0f, 1.0f});
  const RelevanceMap map = PropagateRelevance(out, seed);
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  // R_x0 = 2*1*1/4 + 2*(-1)*1/5 = 0.5 - 0.4 = 0.1
  // R_x1 = 3*0.5/4 + 3*2/5     = 0.375 + 1.2 = 1.575
  EXPECT_NEAR(rx.at({0, 0}), 0.1f, 1e-4);
  EXPECT_NEAR(rx.at({0, 1}), 1.575f, 1e-4);

  // Bias relevance (Eq. 16): R_b = b_j * R_j / out_j.
  const Tensor rb = RelevanceOf(map, b);
  ASSERT_TRUE(rb.defined());
  EXPECT_NEAR(rb.at({0}), 0.5f / 4.0f, 1e-4);
  EXPECT_NEAR(rb.at({1}), 1.0f / 5.0f, 1e-4);
}

TEST(RelevanceTest, WithoutBiasAbsorptionRoutesAllToData) {
  Tensor x = Tensor::FromVector(Shape{1, 2}, {2.0f, 3.0f}).set_requires_grad(true);
  Tensor w = Tensor::FromVector(Shape{2, 2}, {1.0f, -1.0f, 0.5f, 2.0f})
                 .set_requires_grad(true);
  Tensor b = Tensor::FromVector(Shape{2}, {0.5f, 1.0f}).set_requires_grad(true);
  Tensor h = MatMul(x, w);  // [3.5, 4.0]
  Tensor out = Add(h, b);

  RelevanceOptions opts;
  opts.bias_absorption = false;
  const RelevanceMap map =
      PropagateRelevance(out, Tensor::Ones(out.shape()), opts);
  // Bias receives nothing.
  const Tensor rb = RelevanceOf(map, b);
  if (rb.defined()) {
    EXPECT_NEAR(SumOf(rb), 0.0, 1e-6);
  }
  // Data path: denominator is h (bias-free): R_x0 = 2/3.5 - 2/4.
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  EXPECT_NEAR(rx.at({0, 0}), 2.0f / 3.5f - 2.0f / 4.0f, 1e-4);
}

TEST(RelevanceTest, MatMulMatchesEq18) {
  // R_A(n,k) = sum_m A_nk B_km R_nm / (AB)_nm  (Eq. 18).
  Tensor a = Tensor::FromVector(Shape{1, 2}, {1.0f, 2.0f}).set_requires_grad(true);
  Tensor b = Tensor::FromVector(Shape{2, 2}, {3.0f, 1.0f, 1.0f, 2.0f})
                 .set_requires_grad(true);
  Tensor c = MatMul(a, b);  // [5, 5]
  Tensor seed = Tensor::FromVector(Shape{1, 2}, {1.0f, 2.0f});
  const RelevanceMap map = PropagateRelevance(c, seed);
  const Tensor ra = RelevanceOf(map, a);
  ASSERT_TRUE(ra.defined());
  // R_a0 = a0*b00*R0/c0 + a0*b01*R1/c1 = 3/5 + 1*2/5 = 1.0
  // R_a1 = a1*b10*R0/c0 + a1*b11*R1/c1 = 2/5 + 4*2/5 = 2.0
  EXPECT_NEAR(ra.at({0, 0}), 1.0f, 1e-4);
  EXPECT_NEAR(ra.at({0, 1}), 2.0f, 1e-4);
  // Relevance is conserved through matmul onto each operand (Eq. 10 per path).
  const Tensor rb = RelevanceOf(map, b);
  ASSERT_TRUE(rb.defined());
  EXPECT_NEAR(SumOf(ra), 3.0, 1e-4);
  EXPECT_NEAR(SumOf(rb), 3.0, 1e-4);
}

TEST(RelevanceTest, RoutingOpsAreExact) {
  Tensor x = Tensor::FromVector(Shape{2, 2}, {1, 2, 3, 4}).set_requires_grad(true);
  Tensor y = Transpose(Reshape(x, Shape{4, 1}), 0, 1);  // [1, 4]
  Tensor seed = Tensor::FromVector(Shape{1, 4}, {10, 20, 30, 40});
  const RelevanceMap map = PropagateRelevance(y, seed);
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  EXPECT_NEAR(rx.at({0, 0}), 10.0f, 1e-3);
  EXPECT_NEAR(rx.at({1, 1}), 40.0f, 1e-3);
}

TEST(RelevanceTest, SliceDropsOutOfRangeRelevance) {
  Tensor x = Tensor::FromVector(Shape{4}, {1, 2, 3, 4}).set_requires_grad(true);
  Tensor y = Slice(x, 0, 1, 3);
  const RelevanceMap map = PropagateRelevance(y, Tensor::Ones(y.shape()));
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  EXPECT_NEAR(rx.at({0}), 0.0f, 1e-6);
  EXPECT_NEAR(rx.at({1}), 1.0f, 1e-4);
  EXPECT_NEAR(rx.at({3}), 0.0f, 1e-6);
}

TEST(RelevanceTest, ReluPassThroughForActiveUnits) {
  Tensor x = Tensor::FromVector(Shape{3}, {2.0f, -1.0f, 0.5f})
                 .set_requires_grad(true);
  Tensor y = Relu(x);
  const RelevanceMap map = PropagateRelevance(y, Tensor::Ones(y.shape()));
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  EXPECT_NEAR(rx.at({0}), 1.0f, 1e-3);
  EXPECT_NEAR(rx.at({1}), 0.0f, 1e-3);  // inactive unit gets none
  EXPECT_NEAR(rx.at({2}), 1.0f, 1e-3);
}

TEST(RelevanceTest, LeakyReluPassThroughBothSides) {
  Tensor x = Tensor::FromVector(Shape{2}, {2.0f, -2.0f}).set_requires_grad(true);
  Tensor y = LeakyRelu(x, 0.1f);
  const RelevanceMap map = PropagateRelevance(y, Tensor::Ones(y.shape()));
  const Tensor rx = RelevanceOf(map, x);
  // x * slope * R / (slope * x) = R on the negative side too.
  EXPECT_NEAR(rx.at({0}), 1.0f, 1e-3);
  EXPECT_NEAR(rx.at({1}), 1.0f, 1e-3);
}

TEST(RelevanceTest, ConservationThroughBiasFreeChain) {
  Rng rng(5);
  Tensor x = Tensor::Randn(Shape{1, 4}, &rng, true);
  // Keep values positive so no output sits near zero (stabiliser noise).
  for (int64_t i = 0; i < 4; ++i) x.data()[i] = std::fabs(x.data()[i]) + 1.0f;
  Tensor w1 = Tensor::Rand(Shape{4, 5}, 0.1f, 1.0f, &rng, true);
  Tensor w2 = Tensor::Rand(Shape{5, 3}, 0.1f, 1.0f, &rng, true);
  Tensor out = MatMul(Relu(MatMul(x, w1)), w2);
  Tensor seed = Tensor::Ones(out.shape());
  const RelevanceMap map = PropagateRelevance(out, seed);
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  EXPECT_NEAR(SumOf(rx), SumOf(seed), 1e-2);
}

TEST(RelevanceTest, SoftmaxRelevanceIsFinite) {
  Rng rng(6);
  Tensor x = Tensor::Randn(Shape{2, 5}, &rng, true);
  Tensor y = Softmax(x, 1);
  const RelevanceMap map = PropagateRelevance(y, Tensor::Ones(y.shape()));
  const Tensor rx = RelevanceOf(map, x);
  ASSERT_TRUE(rx.defined());
  for (int64_t i = 0; i < rx.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(rx.data()[i]));
  }
}

TEST(RelevanceTest, SeedShapeMismatchIsFatal) {
  Tensor x = Tensor::Ones(Shape{2}).set_requires_grad(true);
  Tensor y = Scale(x, 2.0f);
  EXPECT_DEATH(PropagateRelevance(y, Tensor::Ones(Shape{3})), "seed");
}

TEST(GradientModulationTest, Eq19Rectification) {
  Tensor r = Tensor::FromVector(Shape{4}, {1.0f, -1.0f, 2.0f, 0.5f});
  Tensor g = Tensor::FromVector(Shape{4}, {-2.0f, 3.0f, 0.0f, 1.0f});
  Tensor s = interpret::ModulateByGradient(r, g);
  EXPECT_FLOAT_EQ(s.at({0}), 2.0f);   // |−2| * 1
  EXPECT_FLOAT_EQ(s.at({1}), 0.0f);   // negative relevance rectified
  EXPECT_FLOAT_EQ(s.at({2}), 0.0f);   // zero gradient
  EXPECT_FLOAT_EQ(s.at({3}), 0.5f);
}

TEST(GradientModulationTest, AblationVariants) {
  Tensor r = Tensor::FromVector(Shape{2}, {-3.0f, 2.0f});
  Tensor g = Tensor::FromVector(Shape{2}, {-4.0f, 0.5f});
  Tensor ag = interpret::AbsGradientScore(g);
  EXPECT_FLOAT_EQ(ag.at({0}), 4.0f);
  Tensor rr = interpret::RectifiedRelevanceScore(r);
  EXPECT_FLOAT_EQ(rr.at({0}), 0.0f);
  EXPECT_FLOAT_EQ(rr.at({1}), 2.0f);
}

// ---- Pruned reverse walks ---------------------------------------------------

struct PrunedWalkCase {
  bool multi_kernel;
  bool bias_absorption;
  int requests;  ///< row groups in the grouped forward (1 or 2)
};

class PrunedWalkTest : public ::testing::TestWithParam<PrunedWalkCase> {};

// The 4-series model the walk tests differentiate, over 6 windows that form
// `requests` row groups of the grouped forward.
core::ModelOptions WalkModelOptions(const PrunedWalkCase& c) {
  core::ModelOptions mopt;
  mopt.num_series = 4;
  mopt.window = 8;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.heads = 2;
  mopt.d_ffn = 8;
  mopt.multi_kernel = c.multi_kernel;
  return mopt;
}

std::vector<int> WalkRowGroups(const PrunedWalkCase& c) {
  return c.requests == 2 ? std::vector<int>{0, 0, 0, 1, 1, 1}
                         : std::vector<int>(6, 0);
}

// The detector's seed for one target: ones on that series' rows, zeros
// elsewhere (Fig. 6a).
Tensor OneHotSeed(const Shape& shape, int64_t target) {
  Tensor seed = Tensor::Zeros(shape);
  for (int64_t b = 0; b < shape[0]; ++b) {
    for (int64_t t = 0; t < shape[2]; ++t) seed.at({b, target, t}) = 1.0f;
  }
  return seed;
}

// The detector's walks, pruned to {attention..., kernel_groups}, must give
// every wanted tensor exactly — memcmp-equal — the gradient and relevance of
// the full walk, and so the same score under every ablation combination.
TEST_P(PrunedWalkTest, WantedTensorsMatchFullWalkBitForBit) {
  const PrunedWalkCase c = GetParam();
  Rng rng(21);
  const core::CausalityTransformer model(WalkModelOptions(c), &rng);
  const Tensor x = Tensor::Randn(Shape{6, 4, 8}, &rng);
  const core::ForwardResult fwd =
      model.ForwardGrouped(x, WalkRowGroups(c), c.requests);

  std::vector<Tensor> wanted = fwd.attention;
  wanted.push_back(fwd.kernel_groups);
  const TapePlan full(fwd.prediction);
  const TapePlan pruned(fwd.prediction, wanted);
  ASSERT_FALSE(full.pruned());
  ASSERT_TRUE(pruned.pruned());
  RelevanceOptions ropts;
  ropts.bias_absorption = c.bias_absorption;

  for (int target = 0; target < 4; ++target) {
    const Tensor seed = OneHotSeed(fwd.prediction.shape(), target);
    const GradientMap g_full = ComputeGradients(fwd.prediction, seed, full);
    const GradientMap g_pruned =
        ComputeGradients(fwd.prediction, seed, pruned);
    const RelevanceMap r_full =
        PropagateRelevance(fwd.prediction, seed, ropts, full);
    const RelevanceMap r_pruned =
        PropagateRelevance(fwd.prediction, seed, ropts, pruned);
    // A pruned walk releases every value it does not hand back.
    EXPECT_EQ(g_pruned.size(), wanted.size());
    EXPECT_EQ(r_pruned.size(), wanted.size());
    for (const Tensor& w : wanted) {
      const Tensor g = GradientOf(g_full, w);
      const Tensor r = RelevanceOf(r_full, w);
      ASSERT_TRUE(BitEqual(g, GradientOf(g_pruned, w))) << "target " << target;
      ASSERT_TRUE(BitEqual(r, RelevanceOf(r_pruned, w))) << "target " << target;
      // The Table 3 score variants: both, use_relevance off, use_gradient off.
      const Tensor rp = RelevanceOf(r_pruned, w);
      const Tensor gp = GradientOf(g_pruned, w);
      EXPECT_TRUE(BitEqual(interpret::ModulateByGradient(r, g),
                           interpret::ModulateByGradient(rp, gp)));
      EXPECT_TRUE(BitEqual(interpret::AbsGradientScore(g),
                           interpret::AbsGradientScore(gp)));
      EXPECT_TRUE(BitEqual(interpret::RectifiedRelevanceScore(r),
                           interpret::RectifiedRelevanceScore(rp)));
    }
  }
}

// The detector runs one all-ones-seeded walk of each kind instead of one
// one-hot-seeded walk per target: every layer above the attention acts on each
// (window, series) row separately and the walks are linear in the seed, so
// target i's results must sit, memcmp-equal, in row i of every attention
// gradient and relevance and in column i of kernel_groups. A layer that mixed
// series rows above the attention would break this.
TEST_P(PrunedWalkTest, AllOnesWalkEqualsOneHotWalksRowByRow) {
  const PrunedWalkCase c = GetParam();
  Rng rng(23);
  const core::CausalityTransformer model(WalkModelOptions(c), &rng);
  const Tensor x = Tensor::Randn(Shape{6, 4, 8}, &rng);
  const core::ForwardResult fwd =
      model.ForwardGrouped(x, WalkRowGroups(c), c.requests);
  std::vector<Tensor> wanted = fwd.attention;
  wanted.push_back(fwd.kernel_groups);
  const TapePlan plan(fwd.prediction, wanted);
  RelevanceOptions ropts;
  ropts.bias_absorption = c.bias_absorption;

  const Tensor ones = Tensor::Ones(fwd.prediction.shape());
  const GradientMap g_all = ComputeGradients(fwd.prediction, ones, plan);
  const RelevanceMap r_all =
      PropagateRelevance(fwd.prediction, ones, ropts, plan);

  const int64_t n = 4;
  const int64_t steps = 8;
  // Row `target` of a [B, N, N] attention tensor, batch row b.
  auto attention_row = [&](const Tensor& t, int64_t b, int64_t target) {
    return t.data() + (b * n + target) * n;
  };
  // Column `target` of a [G, N, N, T] kernel tensor: the taps of (g, from).
  auto kernel_taps = [&](const Tensor& t, int64_t g, int64_t from,
                         int64_t target) {
    return t.data() + ((g * n + from) * n + target) * steps;
  };
  for (int64_t target = 0; target < n; ++target) {
    const Tensor seed = OneHotSeed(fwd.prediction.shape(), target);
    const GradientMap g_one = ComputeGradients(fwd.prediction, seed, plan);
    const RelevanceMap r_one =
        PropagateRelevance(fwd.prediction, seed, ropts, plan);
    const std::vector<std::pair<Tensor, Tensor>> walks = {
        {GradientOf(g_one, fwd.kernel_groups),
         GradientOf(g_all, fwd.kernel_groups)},
        {RelevanceOf(r_one, fwd.kernel_groups),
         RelevanceOf(r_all, fwd.kernel_groups)}};
    for (const auto& [one, all] : walks) {
      ASSERT_TRUE(one.defined() && all.defined());
      for (int64_t g = 0; g < c.requests; ++g) {
        for (int64_t from = 0; from < n; ++from) {
          EXPECT_EQ(std::memcmp(kernel_taps(one, g, from, target),
                                kernel_taps(all, g, from, target),
                                steps * sizeof(float)),
                    0)
              << "kernel column " << target << " group " << g << " from "
              << from;
        }
      }
    }
    for (const Tensor& a : fwd.attention) {
      const std::vector<std::pair<Tensor, Tensor>> heads = {
          {GradientOf(g_one, a), GradientOf(g_all, a)},
          {RelevanceOf(r_one, a), RelevanceOf(r_all, a)}};
      for (const auto& [one, all] : heads) {
        ASSERT_TRUE(one.defined() && all.defined());
        for (int64_t b = 0; b < 6; ++b) {
          EXPECT_EQ(std::memcmp(attention_row(one, b, target),
                                attention_row(all, b, target),
                                n * sizeof(float)),
                    0)
              << "attention row " << target << " window " << b;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DetectorWalks, PrunedWalkTest,
    ::testing::Values(PrunedWalkCase{true, true, 1},
                      PrunedWalkCase{false, true, 1},
                      PrunedWalkCase{true, false, 1},
                      PrunedWalkCase{false, false, 1},
                      PrunedWalkCase{true, true, 2},
                      PrunedWalkCase{false, false, 2}));

// Without a wanted set the walk keeps every tensor it reaches — the full map
// RunBackward accumulates from: a gradient for every tape tensor that
// requires one, intermediates included, and a relevance for every tensor.
TEST(PrunedWalkTest, FullPlanKeepsEveryTensor) {
  Rng rng(22);
  core::ModelOptions mopt;
  mopt.num_series = 3;
  mopt.window = 6;
  mopt.d_model = 8;
  mopt.d_qk = 8;
  mopt.d_ffn = 8;
  const core::CausalityTransformer model(mopt, &rng);
  const core::ForwardResult fwd =
      model.Forward(Tensor::Randn(Shape{2, 3, 6}, &rng));
  const TapePlan plan(fwd.prediction);
  const Tensor seed = Tensor::Ones(fwd.prediction.shape());
  const GradientMap grads = ComputeGradients(fwd.prediction, seed, plan);
  const RelevanceMap relevance =
      PropagateRelevance(fwd.prediction, seed, RelevanceOptions(), plan);
  size_t differentiable = 0;
  for (const Tensor& t : plan.order()) {
    EXPECT_TRUE(RelevanceOf(relevance, t).defined());
    if (!t.requires_grad()) continue;
    ++differentiable;
    EXPECT_TRUE(GradientOf(grads, t).defined());
  }
  EXPECT_EQ(grads.size(), differentiable);
  EXPECT_EQ(relevance.size(), plan.order().size());

  // RunBackward accumulates exactly those gradients into .grad.
  fwd.prediction.Backward(seed);
  for (const Tensor& a : fwd.attention) {
    EXPECT_TRUE(BitEqual(a.grad(), GradientOf(grads, a)));
  }
  for (const Tensor& p : model.Parameters()) {
    EXPECT_TRUE(BitEqual(p.grad(), GradientOf(grads, p)));
  }
}

}  // namespace
}  // namespace causalformer
