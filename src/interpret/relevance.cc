#include "interpret/relevance.h"

#include <cmath>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {
namespace interpret {

namespace {

// cot = R / (f + eps * sign(f)), with sign(0) := +1, so the ratio never
// divides by zero. Fused into one vectorized pass, off-tape.
Tensor SafeRatio(const Tensor& relevance, const Tensor& f, float eps) {
  Tensor out = Tensor::Empty(f.shape());
  simd::Active().stab_ratio(relevance.data(), f.data(), eps, out.data(),
                            f.numel());
  return out;
}

// a ⊙ b elementwise on raw buffers (same shape), off-tape.
Tensor HadamardRaw(const Tensor& a, const Tensor& b) {
  CF_CHECK(a.shape() == b.shape());
  Tensor out = Tensor::Empty(a.shape());
  simd::Active().mul(a.data(), b.data(), out.data(), a.numel());
  return out;
}

// A "bias add": Add(h, b) where b is a leaf parameter broadcast against h.
// Used by the w/o-bias ablation to route relevance past biases.
bool IsBiasAdd(const Node& node) {
  if (node.op != "add" || node.inputs.size() != 2) return false;
  const Tensor& data = node.inputs[0];
  const Tensor& bias = node.inputs[1];
  if (!bias.defined() || !data.defined()) return false;
  // A computed activation plus a leaf parameter — the Linear layout.
  return data.grad_fn() != nullptr && bias.grad_fn() == nullptr &&
         bias.requires_grad() && bias.numel() <= data.numel();
}

}  // namespace

RelevanceMap PropagateRelevance(const Tensor& output, const Tensor& seed,
                                const RelevanceOptions& options) {
  CF_CHECK(output.defined());
  return PropagateRelevance(output, seed, options, TapePlan(output));
}

RelevanceMap PropagateRelevance(const Tensor& output, const Tensor& seed,
                                const RelevanceOptions& options,
                                const TapePlan& plan) {
  CF_CHECK(output.defined());
  // A plan built for a different output would silently yield a near-empty
  // map (the seed keys off the plan's root).
  CF_CHECK(plan.order().front().impl() == output.impl())
      << "plan does not belong to output";

  const auto transform = [&options](const Tensor& f, const Node& node,
                                    const Tensor& r_out,
                                    const NeededMask& needed) {
    std::vector<Tensor> contributions(node.inputs.size());
    if (!options.bias_absorption && IsBiasAdd(node)) {
      // Route everything through the data operand; the bias gets nothing.
      if (needed[0]) {
        contributions[0] = ReduceToShape(r_out, node.inputs[0].shape());
      }
      return contributions;
    }
    // Generic Eq. (17)/(18): R_in = x ⊙ vjp(R_out / f_out).
    const Tensor s = SafeRatio(r_out, f, options.epsilon);
    const std::vector<Tensor> cots = node.vjp(f, s, needed);
    CF_CHECK_EQ(cots.size(), node.inputs.size());
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (!needed[i] || !cots[i].defined()) continue;
      contributions[i] = HadamardRaw(node.inputs[i], cots[i]);
    }
    return contributions;
  };
  return ToTapeMap(plan, WalkTape(plan, seed, /*into_constants=*/true,
                                  transform));
}

Tensor RelevanceOf(const RelevanceMap& map, const Tensor& t) {
  const auto it = map.find(t.impl());
  if (it == map.end()) return Tensor();
  return it->second;
}

}  // namespace interpret
}  // namespace causalformer
