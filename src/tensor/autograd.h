#ifndef CAUSALFORMER_TENSOR_AUTOGRAD_H_
#define CAUSALFORMER_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

/// \file
/// Define-by-run reverse-mode automatic differentiation.
///
/// Each differentiable op calls MakeOp() with a vector-Jacobian-product (VJP)
/// closure: given the op's output value, an output cotangent and the mask of
/// inputs the walk needs, the closure returns one cotangent per input (an
/// undefined Tensor marks a non-differentiable or unneeded input).
///
/// One reverse walker (WalkTape) serves every consumer of the tape. It visits
/// a TapePlan — the reverse topological order of the tape, indexed once per
/// root — and applies a per-node transform: the gradient transform passes the
/// cotangent through the VJP (ComputeGradients, RunBackward); regression
/// relevance propagation weights it by the inputs, R_in = x ⊙ vjp(R/f), Eq.
/// (17) of the paper (see interpret/relevance.h). A plan built with a `wanted`
/// set prunes the walk to the nodes that feed those tensors — the causality
/// detector reads only the attention matrices and the convolution kernels.

namespace causalformer {

/// Per-input flags handed to a VJP: `needed[i] == false` means the walk will
/// discard input i's cotangent, so the VJP may skip computing it and return
/// an undefined Tensor in its place. A VJP is free to ignore the mask.
using NeededMask = std::vector<bool>;

/// VJP: (output value, output cotangent, needed inputs) -> cotangent per
/// input.
using VjpFn = std::function<std::vector<Tensor>(
    const Tensor& out, const Tensor& cot, const NeededMask& needed)>;

/// A recorded op on the tape, owned by its output tensor.
struct Node {
  std::string op;              ///< op name, for debugging and relevance hooks
  std::vector<Tensor> inputs;  ///< inputs in call order
  VjpFn vjp;                   ///< reverse rule
};

/// The per-node step of a reverse walk: maps the value accumulated at node
/// output `out` (a cotangent, or a relevance) to one contribution per input
/// of `node`. Contributions for inputs with `needed[i] == false` are ignored
/// and may be left undefined.
using NodeTransform = std::function<std::vector<Tensor>(
    const Tensor& out, const Node& node, const Tensor& value,
    const NeededMask& needed)>;

/// Wires `out` as the result of op `name` over `inputs`: if any input requires
/// grad, marks `out` as requiring grad and attaches a Node with the given VJP.
/// Returns `out` for chaining.
Tensor MakeOp(const std::string& name, std::vector<Tensor> inputs, Tensor out,
              VjpFn vjp);

/// Tensors reachable from `root` through grad_fn edges, in an order where
/// every tensor appears before any of its inputs (reverse topological order
/// of the data-flow DAG). `root` is first.
std::vector<Tensor> ReverseTopoOrder(const Tensor& root);

/// The tape below one root, indexed for reverse walks: computed once and
/// shared read-only by any number of walks, on any number of threads.
class TapePlan {
 public:
  /// A full plan: walks visit every node and keep every tensor's value.
  explicit TapePlan(const Tensor& root);

  /// A pruned plan: walks run a node only if one of its inputs is, or
  /// descends through grad_fn edges to, a tensor in `wanted`; they store no
  /// value for any other input and release every value not in `wanted` as
  /// soon as its node has consumed it. The values of the wanted tensors are
  /// bit-identical to a full walk's: a skipped node feeds no wanted tensor,
  /// and the kept nodes accumulate in the same order.
  TapePlan(const Tensor& root, const std::vector<Tensor>& wanted);

  /// ReverseTopoOrder(root): position p of a walk's result is order()[p].
  const std::vector<Tensor>& order() const { return order_; }

  /// Whether this plan was built with a `wanted` set.
  bool pruned() const { return !reaches_.empty(); }

 private:
  friend std::vector<Tensor> WalkTape(const TapePlan&, const Tensor&, bool,
                                      const NodeTransform&);

  std::vector<Tensor> order_;
  /// Position in order_ of each node input (-1: undefined input), flattened;
  /// the inputs of order_[p] are input_pos_[input_begin_[p] ..
  /// input_begin_[p + 1]).
  std::vector<int> input_pos_;
  std::vector<int> input_begin_;
  /// Pruned plans only, per position: wanted_ marks the tensors in
  /// `wanted`; reaches_ marks those that are wanted or descend through
  /// grad_fn edges to a wanted tensor.
  std::vector<bool> wanted_;
  std::vector<bool> reaches_;
};

/// The one reverse walker: seeds the plan's root with a copy of `seed`, then
/// visits the nodes consumers-first, applying `transform` at every node that
/// holds a value and accumulating the contributions into its inputs' values
/// in input order. With `into_constants` false, inputs that neither require
/// grad nor come from an op receive nothing (gradients stop at constants);
/// with it true every defined input does (relevance reaches the data). Returns
/// the value per plan position (undefined where nothing arrived, or where a
/// pruned plan released it). Reads the tape only.
std::vector<Tensor> WalkTape(const TapePlan& plan, const Tensor& seed,
                             bool into_constants,
                             const NodeTransform& transform);

/// Value per tape tensor, keyed by tensor identity — the result shape of
/// ComputeGradients and interpret::PropagateRelevance.
using TapeMap = std::unordered_map<internal::TensorImpl*, Tensor>;

/// The defined entries of a WalkTape result, keyed by tensor identity.
TapeMap ToTapeMap(const TapePlan& plan, const std::vector<Tensor>& values);

/// Runs reverse-mode accumulation from `root` seeded with `seed` (same shape
/// as `root`). Gradients are accumulated into impl->grad of every tensor with
/// requires_grad — leaves and intermediates alike.
void RunBackward(const Tensor& root, const Tensor& seed);

/// Gradient per tape tensor, keyed by tensor identity (same convention as
/// interpret::RelevanceMap).
using GradientMap = TapeMap;

/// Pure variant of RunBackward: returns the cotangent of every tensor reached
/// on the tape instead of accumulating into shared impl->grad buffers. Because
/// nothing on the tape (or in the model that built it) is written, any number
/// of threads may differentiate forward passes of the *same* model
/// concurrently — the property the serving layer's detector relies on.
GradientMap ComputeGradients(const Tensor& root, const Tensor& seed);

/// As above, but walks a caller-supplied plan of `root` — for callers that
/// build the plan once and reuse it (the detector shares one pruned plan
/// between its gradient and relevance walks). A pruned plan returns only the
/// wanted tensors' gradients.
GradientMap ComputeGradients(const Tensor& root, const Tensor& seed,
                             const TapePlan& plan);

/// Looks up the gradient of `t`, or an undefined Tensor when none reached it.
Tensor GradientOf(const GradientMap& map, const Tensor& t);

}  // namespace causalformer

#endif  // CAUSALFORMER_TENSOR_AUTOGRAD_H_
