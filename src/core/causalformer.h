#ifndef CAUSALFORMER_CORE_CAUSALFORMER_H_
#define CAUSALFORMER_CORE_CAUSALFORMER_H_

#include <memory>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "core/trainer.h"
#include "data/timeseries.h"

/// \file
/// The top-level CausalFormer API (Fig. 2): train the causality-aware
/// transformer on the prediction task, then interpret it globally with the
/// decomposition-based causality detector to output a temporal causal graph.
///
/// Quickstart:
///
///   Rng rng(42);
///   data::Dataset ds = data::GenerateSynthetic(
///       data::SyntheticStructure::kDiamond, {}, &rng);
///   core::CausalFormer cf(core::CausalFormerOptions::ForSeries(
///       ds.num_series()));
///   cf.Fit(ds.series, &rng);
///   CausalGraph g = cf.Discover().graph;

namespace causalformer {
namespace core {

struct CausalFormerOptions {
  ModelOptions model;
  TrainOptions train;
  DetectorOptions detector;

  /// CPU-scale defaults for N series (hyper-parameters from Section 5.3,
  /// scaled down for CPU training).
  static CausalFormerOptions ForSeries(int num_series, int64_t window = 16);
};

class CausalFormer {
 public:
  CausalFormer(const CausalFormerOptions& options, Rng* rng);

  /// Trains the causality-aware transformer on the prediction task.
  TrainReport Fit(const Tensor& series, Rng* rng);

  /// Interprets the trained model and constructs the causal graph. Requires
  /// Fit() first (uses its window stack).
  DetectionResult Discover() const;

  /// Discover with custom detector options (for ablations).
  DetectionResult Discover(const DetectorOptions& detector_options) const;

  const CausalityTransformer& model() const { return *model_; }
  const CausalFormerOptions& options() const { return options_; }

 private:
  CausalFormerOptions options_;
  std::unique_ptr<CausalityTransformer> model_;
  Tensor windows_;
  bool fitted_ = false;
};

/// One-call convenience: fit + discover on a dataset.
DetectionResult DiscoverCausalGraph(const data::Dataset& dataset,
                                    const CausalFormerOptions& options,
                                    Rng* rng);

}  // namespace core
}  // namespace causalformer

#endif  // CAUSALFORMER_CORE_CAUSALFORMER_H_
