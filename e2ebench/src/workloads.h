#ifndef CF_E2E_WORKLOADS_H_
#define CF_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "server_process.h"

/// \file
/// The timed phase of each workload: closed-loop client connections that
/// drive the served binary over loopback TCP and record one OpRecord per
/// operation, validating every response as it arrives.

namespace e2e {

/// A Detect request's window batch: rows of one model's window table.
struct Batch {
  int model = 0;
  std::vector<int64_t> rows;
};

/// The seeded request plan of a detect workload.
struct DetectPlan {
  int connections = 1;
  std::vector<Batch> batches;
  std::vector<int32_t> warm;      ///< batch ids sent before the timed phase
  std::vector<int32_t> sequence;  ///< timed-phase order (batch ids)
  std::vector<char> kinds;        ///< per sequence slot: n, h or d
  bool wrap = false;              ///< reuse the sequence when it runs out
  bool expect_hits = false;       ///< every timed op must be a cache hit
  bool forbid_reuse = false;      ///< no timed op may hit or dedup
};

/// Builds the plan of `workload` from `seed`.
DetectPlan MakePlan(const std::string& workload,
                    const std::vector<ModelSpec>& models, uint64_t seed);

/// A served result kept for the after-phase bit-exact check.
struct Sample {
  size_t op = 0;            ///< index into PhaseResult::ops
  cf::Tensor windows;       ///< the request's [B, N, T] batch
  cf::core::DetectionResult result{1};
  bool edges_only = false;  ///< stream reports carry only the graph
};

/// What one timed phase produced.
struct PhaseResult {
  std::vector<OpRecord> ops;
  std::vector<Sample> samples;
  std::vector<Span> spans;
  PhaseExtras extras;
};

/// Fixed inputs of a timed phase.
struct PhaseConfig {
  uint16_t port = 0;
  double start = 0;    ///< phase start (Now()); op times are relative to it
  double seconds = 1;
  bool trace = false;
  double trace_from_s = 0;  ///< ops sent this long after the start get spans
  uint64_t seed = 0;
  ServerProcess* server = nullptr;
};

/// Detection quality on a fixed evaluation set, the same in every run: per
/// model, 16 batches of consecutive held-out windows (single windows when
/// `single_windows`). Mean F1 against the generator truth with and without
/// self-loops.
cf::Status EvaluateQuality(uint16_t port, const std::vector<ModelSpec>& models,
                           bool single_windows, double* f1, double* f1_cross);

/// Warm-up results by batch id.
using WarmResults = std::unordered_map<int32_t, cf::core::DetectionResult>;

/// Sends the plan's warm-up batches on one connection; their results are
/// kept (indexed by batch id) so cache hits can be checked against them.
cf::Status WarmUp(const PhaseConfig& cfg, const DetectPlan& plan,
                  const std::vector<ModelSpec>& models,
                  WarmResults* warm_results);

/// Runs the detect plan's timed phase.
PhaseResult RunDetectPhase(const PhaseConfig& cfg, const DetectPlan& plan,
                           const std::vector<ModelSpec>& models,
                           const WarmResults& warm);

/// Runs the stream_follow timed phase on `model`.
PhaseResult RunStreamPhase(const PhaseConfig& cfg, const ModelSpec& model);

}  // namespace e2e

#endif  // CF_E2E_WORKLOADS_H_
