#ifndef CAUSALFORMER_BASELINES_DVGNN_H_
#define CAUSALFORMER_BASELINES_DVGNN_H_

#include "baselines/method.h"

/// \file
/// DVGNN — dynamic diffusion-variational graph neural network (Liang et al.,
/// 2023), simplified: a learnable adjacency
/// (diffusion) matrix drives a two-layer graph convolution that predicts each
/// node's next value from the lagged node features; during training the
/// adjacency logits receive reparameterised Gaussian noise (the variational
/// element), and an L1 penalty sparsifies the learned graph. The causal score
/// of i -> j is the learned diffusion weight. DVGNN does not output delays.

namespace causalformer {
namespace baselines {

struct DvgnnOptions {
  int max_lag = 5;
  int64_t hidden = 16;
  int epochs = 200;
  float lr = 1e-2f;
  float lambda = 1e-3f;
  /// Stddev of the reparameterisation noise on adjacency logits.
  float noise_std = 0.1f;
  int num_clusters = 2;
  int top_clusters = 1;
};

class Dvgnn : public CausalDiscoveryMethod {
 public:
  explicit Dvgnn(const DvgnnOptions& options = {}) : options_(options) {}

  std::string name() const override { return "DVGNN"; }
  MethodResult Discover(const Tensor& series, Rng* rng) override;

 private:
  DvgnnOptions options_;
};

}  // namespace baselines
}  // namespace causalformer

#endif  // CAUSALFORMER_BASELINES_DVGNN_H_
