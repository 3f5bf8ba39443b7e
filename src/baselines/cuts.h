#ifndef CAUSALFORMER_BASELINES_CUTS_H_
#define CAUSALFORMER_BASELINES_CUTS_H_

#include "baselines/method.h"

/// \file
/// CUTS — neural causal discovery from irregular time series (Cheng et al.,
/// 2023), simplified. Two alternating stages:
///
///   1. *Imputation*: a random fraction of observations is masked (the
///      "irregular sampling" CUTS is built for) and filled by linear
///      interpolation, then refined by the model's own predictions
///      (delayed-supervision in the original).
///   2. *Graph learning*: per-target MLPs whose inputs are gated by a
///      learnable sigmoid causal-probability matrix, trained with an L1
///      sparsity penalty on the gates.
///
/// The causal score of i -> j is the learned gate. CUTS does not output
/// delays.

namespace causalformer {
namespace baselines {

struct CutsOptions {
  int max_lag = 5;
  int64_t hidden = 16;
  int epochs = 200;
  /// Imputation refinement rounds.
  int imputation_rounds = 1;
  /// Fraction of points masked to emulate irregular sampling.
  double missing_fraction = 0.1;
  float lr = 1e-2f;
  float lambda = 2e-3f;
  int num_clusters = 2;
  int top_clusters = 1;
};

class Cuts : public CausalDiscoveryMethod {
 public:
  explicit Cuts(const CutsOptions& options = {}) : options_(options) {}

  std::string name() const override { return "CUTS"; }
  MethodResult Discover(const Tensor& series, Rng* rng) override;

 private:
  CutsOptions options_;
};

}  // namespace baselines
}  // namespace causalformer

#endif  // CAUSALFORMER_BASELINES_CUTS_H_
