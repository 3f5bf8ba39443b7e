#ifndef CAUSALFORMER_DATA_FMRI_SIM_H_
#define CAUSALFORMER_DATA_FMRI_SIM_H_

#include <vector>

#include "data/timeseries.h"
#include "util/rng.h"

/// \file
/// NetSim-style fMRI BOLD simulator.
///
/// The paper evaluates on the Smith et al. (2011) NetSim benchmark: 28 brain
/// "networks" whose BOLD signals are *simulated* from known ground-truth
/// connectivity with 5/10/15/50 regions and lengths between 50 and 5000.
/// The original data files are not available offline, so this module
/// regenerates the same kind of data:
///
///   1. sample a sparse directed graph (1–3 parents per node, no 2-cycles),
///   2. run stable linear latent dynamics z_t = A z_{t-1} + u_t,
///   3. convolve with a double-gamma haemodynamic response function (HRF),
///   4. add observation noise.
///
/// Evaluation only needs known graphs plus realistic-looking signals, which
/// this preserves.

namespace causalformer {
namespace data {

struct FmriOptions {
  int num_nodes = 5;
  int64_t length = 200;
  /// Average number of non-self parents per node.
  double parents_per_node = 1.2;
  /// Latent coupling strength range.
  double coupling_lo = 0.45;
  double coupling_hi = 0.8;
  /// Self-decay of the latent state (diagonal of A) — self-causation.
  double self_coupling = 0.5;
  /// Latent innovation noise stddev.
  double process_noise = 1.0;
  /// Observation noise stddev applied after the HRF.
  double observation_noise = 0.3;
  /// HRF kernel length in samples; 0 disables haemodynamic smoothing.
  int hrf_length = 8;
  /// Latent dynamics steps per observed BOLD sample. Neural dynamics are much
  /// faster than the fMRI repetition time, so NetSim-like data mixes several
  /// causal hops into each observation — the main source of difficulty.
  int latent_substeps = 3;
  bool standardize = true;
};

/// One simulated subject.
Dataset GenerateFmriSubject(const FmriOptions& options, Rng* rng);

/// The 28-subject benchmark: a mixture of network sizes
/// (5 x 15 subjects, 10 x 8, 15 x 4, 50 x 1), mirroring NetSim's size
/// distribution while staying CPU-affordable.
std::vector<Dataset> GenerateFmriBenchmark(Rng* rng, int64_t length = 200,
                                           int num_subjects = 28);

/// Canonical double-gamma HRF samples (peak ~ index 1-2 at our resolution).
std::vector<double> HrfKernel(int length);

}  // namespace data
}  // namespace causalformer

#endif  // CAUSALFORMER_DATA_FMRI_SIM_H_
