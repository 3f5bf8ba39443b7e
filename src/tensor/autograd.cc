#include "tensor/autograd.h"

#include <unordered_map>
#include <unordered_set>

#include "tensor/simd.h"
#include "util/logging.h"

namespace causalformer {

Tensor MakeOp(const std::string& name, std::vector<Tensor> inputs, Tensor out,
              VjpFn vjp) {
  CF_CHECK(out.defined());
  bool needs_grad = false;
  for (const auto& in : inputs) {
    if (in.defined() && in.requires_grad()) {
      needs_grad = true;
      break;
    }
  }
  if (needs_grad) {
    auto node = std::make_shared<Node>();
    node->op = name;
    node->inputs = std::move(inputs);
    node->vjp = std::move(vjp);
    out.set_requires_grad(true);
    out.set_grad_fn(std::move(node));
  }
  return out;
}

std::vector<Tensor> ReverseTopoOrder(const Tensor& root) {
  CF_CHECK(root.defined());
  std::vector<Tensor> post_order;
  std::unordered_set<internal::TensorImpl*> visited;

  // Iterative DFS (graphs can be deep, e.g. LSTM over long sequences).
  struct Frame {
    Tensor tensor;
    size_t next_input = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({root});
  visited.insert(root.impl());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& fn = frame.tensor.grad_fn();
    if (fn == nullptr || frame.next_input >= fn->inputs.size()) {
      post_order.push_back(frame.tensor);
      stack.pop_back();
      continue;
    }
    const Tensor& input = fn->inputs[frame.next_input++];
    if (input.defined() && visited.insert(input.impl()).second) {
      stack.push_back({input});
    }
  }
  // Post-order lists inputs before consumers; reverse so consumers come first.
  std::vector<Tensor> order(post_order.rbegin(), post_order.rend());
  return order;
}

TapePlan::TapePlan(const Tensor& root) : order_(ReverseTopoOrder(root)) {
  std::unordered_map<internal::TensorImpl*, int> position;
  position.reserve(order_.size());
  for (size_t p = 0; p < order_.size(); ++p) {
    position.emplace(order_[p].impl(), static_cast<int>(p));
  }
  input_begin_.reserve(order_.size() + 1);
  for (const Tensor& t : order_) {
    input_begin_.push_back(static_cast<int>(input_pos_.size()));
    if (t.grad_fn() == nullptr) continue;
    for (const Tensor& input : t.grad_fn()->inputs) {
      input_pos_.push_back(input.defined() ? position.at(input.impl()) : -1);
    }
  }
  input_begin_.push_back(static_cast<int>(input_pos_.size()));
}

TapePlan::TapePlan(const Tensor& root, const std::vector<Tensor>& wanted)
    : TapePlan(root) {
  std::unordered_set<internal::TensorImpl*> wanted_set;
  for (const Tensor& w : wanted) {
    if (w.defined()) wanted_set.insert(w.impl());
  }
  const size_t size = order_.size();
  wanted_.assign(size, false);
  reaches_.assign(size, false);
  // Inputs sit after their consumers in order_, so a backwards sweep sees
  // every input's reachability before the tensors computed from it.
  for (size_t p = size; p-- > 0;) {
    wanted_[p] = wanted_set.count(order_[p].impl()) > 0;
    bool reaches = wanted_[p];
    for (int i = input_begin_[p]; !reaches && i < input_begin_[p + 1]; ++i) {
      reaches = input_pos_[i] >= 0 && reaches_[input_pos_[i]];
    }
    reaches_[p] = reaches;
  }
}

namespace {

void CheckSeed(const Tensor& root, const Tensor& seed) {
  CF_CHECK(seed.defined());
  CF_CHECK(seed.shape() == root.shape())
      << "seed shape " << seed.shape().ToString() << " vs root "
      << root.shape().ToString();
}

}  // namespace

std::vector<Tensor> WalkTape(const TapePlan& plan, const Tensor& seed,
                             bool into_constants,
                             const NodeTransform& transform) {
  const std::vector<Tensor>& order = plan.order_;
  const Tensor& root = order.front();
  CheckSeed(root, seed);
  const bool pruned = plan.pruned();
  std::vector<Tensor> values(order.size());
  values[0] = seed.Clone();
  NeededMask needed;
  for (size_t p = 0; p < order.size(); ++p) {
    if (!values[p].defined()) continue;  // nothing flows here
    const Tensor& t = order[p];
    const auto& fn = t.grad_fn();
    if (fn == nullptr) continue;
    const int* input_pos = plan.input_pos_.data() + plan.input_begin_[p];
    const size_t arity = fn->inputs.size();
    needed.assign(arity, false);
    bool any_needed = false;
    for (size_t i = 0; i < arity; ++i) {
      const int q = input_pos[i];
      if (q < 0) continue;
      if (!into_constants && !order[q].requires_grad() &&
          order[q].grad_fn() == nullptr) {
        continue;
      }
      if (pruned && !plan.reaches_[q]) continue;
      needed[i] = true;
      any_needed = true;
    }
    if (any_needed) {
      const std::vector<Tensor> contributions =
          transform(t, *fn, values[p], needed);
      CF_CHECK_EQ(contributions.size(), arity)
          << "vjp arity mismatch in op " << fn->op;
      for (size_t i = 0; i < arity; ++i) {
        const Tensor& c = contributions[i];
        if (!needed[i] || !c.defined()) continue;
        const Tensor& input = fn->inputs[i];
        CF_CHECK(c.shape() == input.shape())
            << "vjp shape mismatch in op " << fn->op << ": input "
            << input.shape().ToString() << " got " << c.shape().ToString();
        Tensor& slot = values[input_pos[i]];
        if (!slot.defined()) {
          // Clone on first arrival: a transform may return an alias of the
          // node's own value (e.g. Add's VJP), and accumulating in place
          // would corrupt shared buffers.
          slot = c.Clone();
        } else {
          simd::Active().accumulate(slot.data(), c.data(), slot.numel());
        }
      }
    }
    if (pruned && !plan.wanted_[p]) values[p] = Tensor();  // consumed
  }
  return values;
}

TapeMap ToTapeMap(const TapePlan& plan, const std::vector<Tensor>& values) {
  CF_CHECK_EQ(values.size(), plan.order().size());
  TapeMap map;
  for (size_t p = 0; p < values.size(); ++p) {
    if (values[p].defined()) map.emplace(plan.order()[p].impl(), values[p]);
  }
  return map;
}

namespace {

// The gradient transform: the cotangent passes straight through the VJP.
std::vector<Tensor> PassCotangent(const Tensor& out, const Node& node,
                                  const Tensor& cot,
                                  const NeededMask& needed) {
  return node.vjp(out, cot, needed);
}

}  // namespace

GradientMap ComputeGradients(const Tensor& root, const Tensor& seed) {
  CF_CHECK(root.defined());
  CheckSeed(root, seed);
  // Early out before paying for the tape walk; the preconditions above still
  // fire so caller bugs (undefined root, wrong seed shape) stay diagnosable.
  if (!root.requires_grad()) return GradientMap();
  return ComputeGradients(root, seed, TapePlan(root));
}

GradientMap ComputeGradients(const Tensor& root, const Tensor& seed,
                             const TapePlan& plan) {
  CF_CHECK(root.defined());
  // A plan built for a different root would silently yield a near-empty map
  // (the seed keys off the plan's root).
  CF_CHECK(plan.order().front().impl() == root.impl())
      << "plan does not belong to root";
  CheckSeed(root, seed);
  if (!root.requires_grad()) return GradientMap();
  return ToTapeMap(plan, WalkTape(plan, seed, /*into_constants=*/false,
                                  PassCotangent));
}

Tensor GradientOf(const GradientMap& map, const Tensor& t) {
  const auto it = map.find(t.impl());
  if (it == map.end()) return Tensor();
  return it->second;
}

void RunBackward(const Tensor& root, const Tensor& seed) {
  if (!root.requires_grad()) return;
  const TapePlan plan(root);
  const std::vector<Tensor> grads =
      WalkTape(plan, seed, /*into_constants=*/false, PassCotangent);
  // Reverse topo order guarantees a tensor's cotangent is complete before any
  // of its inputs are reached, so the finished walk holds exactly what an
  // in-place walk would accumulate — intermediates included, which the
  // legacy detector path reads (attention matrices).
  for (size_t p = 0; p < grads.size(); ++p) {
    const Tensor& t = plan.order()[p];
    if (t.requires_grad() && grads[p].defined()) {
      const_cast<Tensor&>(t).AccumulateGrad(grads[p]);
    }
  }
}

}  // namespace causalformer
