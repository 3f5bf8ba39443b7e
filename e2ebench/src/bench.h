#ifndef CF_E2E_BENCH_H_
#define CF_E2E_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/causality_transformer.h"
#include "core/detector.h"
#include "graph/causal_graph.h"
#include "serve/wire.h"
#include "tensor/tensor.h"

/// \file
/// Shared types of the end-to-end benchmark: the models a workload serves,
/// one record per client operation, and the span log of a traced run.

namespace e2e {

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;

/// Seconds on the steady clock.
double Now();

/// One served model: its generator data, ground truth and the held-out
/// windows the client queries with.
struct ModelSpec {
  std::string name;             ///< registry name on the server
  cf::core::ModelOptions mopt;  ///< architecture (matches the checkpoint)
  int64_t batch = 8;            ///< windows per Detect request
  cf::CausalGraph truth{1};     ///< generator ground truth
  cf::Tensor train;             ///< [N, L_train] training series
  cf::Tensor feed;              ///< [N, L_query] held-out series
  cf::Tensor windows;           ///< [W, N, T] every window of `feed`
  std::string checkpoint;       ///< absolute CFPM path
  double train_s = 0;           ///< TrainCausalityTransformer wall time
  int epochs = 0;               ///< epochs that training ran
  /// The checkpoint loaded in-process: the reference for bit-exact checks
  /// and the model the traced run replays batches through.
  std::unique_ptr<cf::core::CausalityTransformer> reference;
};

/// Builds the models a workload serves (data generation, training,
/// checkpoint write into `workdir`). Deterministic: the data seed is fixed
/// per model, so every run serves the same models.
std::vector<ModelSpec> BuildModels(const std::string& workload,
                                   const std::string& workdir);

/// Loads each model's checkpoint into ModelSpec::reference.
cf::Status LoadReferences(std::vector<ModelSpec>* models);

/// [B, N, T] batch of `spec.windows` rows.
cf::Tensor GatherBatch(const ModelSpec& spec,
                       const std::vector<int64_t>& rows);

/// Structural check of one result: N nodes, edge endpoints in [0, N),
/// delays in [0, T], finite scores. Empty on success, else the reason.
std::string ValidateResult(const cf::core::DetectionResult& r, int n,
                           int64_t t);

/// Bit-for-bit comparison of a served result with an in-process one.
bool SameResult(const cf::core::DetectionResult& a,
                const cf::core::DetectionResult& b);

/// One client operation: a Detect request, or one stream window.
struct OpRecord {
  int conn = 0;            ///< connection (thread) index
  int model = 0;           ///< index into the workload's models
  int64_t batch_id = -1;   ///< detect: index into the batch table
  char kind = 'n';         ///< n novel, h hot, d duplicate, a/b stream A/B
  bool ok = false;         ///< answered, valid and (if checked) exact
  bool cache_hit = false;  ///< response flag
  bool deduped = false;    ///< response flag
  int batch_size = 0;      ///< requests coalesced into the executing batch
  double start_s = 0;      ///< send time, seconds since the phase began
  double rtt_ms = 0;       ///< client-observed time
  double engine_ms = 0;    ///< server-reported latency_seconds
  std::string error;       ///< why the op failed (empty when ok)
};

/// A complete span for the chrome-trace file of a traced run.
struct Span {
  std::string name;
  int pid = 1;       ///< 1 client ops, 2 in-process replay
  int tid = 0;
  double ts_us = 0;  ///< relative to the phase start
  double dur_us = 0;
  std::string args;  ///< JSON object body (without braces)
};

/// Counters a workload reports beside the op records.
struct PhaseExtras {
  int64_t stream_polls = 0;            ///< StreamReports calls
  int64_t stream_windows_dropped = 0;  ///< lifetime ring-overrun drops
  bool server_died = false;
  std::string note;                    ///< e.g. feed exhausted
};

}  // namespace e2e

#endif  // CF_E2E_BENCH_H_
