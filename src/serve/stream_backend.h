#ifndef CAUSALFORMER_SERVE_STREAM_BACKEND_H_
#define CAUSALFORMER_SERVE_STREAM_BACKEND_H_

#include <string>
#include <vector>

#include "serve/wire.h"
#include "tensor/tensor.h"
#include "util/status.h"

/// \file
/// The server-side hook for streaming frames.
///
/// WireServer dispatches the v2 streaming messages (StreamOpen/StreamClose/
/// AppendSamples/StreamReports) through this interface instead of depending
/// on the streaming layer directly, keeping the dependency arrow pointing
/// downward: `src/stream/` (WindowScheduler, the one implementation)
/// depends on `src/serve/`, never the reverse. A server
/// constructed without a backend answers every streaming frame
/// FAILED_PRECONDITION ("streaming disabled").
///
/// Threading contract: the server calls these methods from its poll thread,
/// serialised per server; implementations must not block on model work
/// (AppendSamples only *submits* detections through the micro-batcher).

namespace causalformer {
namespace serve {

/// Handler for the wire protocol's streaming frames.
class StreamBackend {
 public:
  virtual ~StreamBackend() = default;

  /// Creates the named stream; returns the config after defaulting. Fails
  /// when the name is taken or the model/config is invalid.
  virtual StatusOr<wire::StreamOpenOkMsg> OpenStream(
      const wire::StreamOpenMsg& msg) = 0;

  /// Drops the named stream (in-flight detections finish and are discarded).
  virtual Status CloseStream(const std::string& stream) = 0;

  /// Appends `samples` ([N, K]) to the named stream, emitting any newly due
  /// detection windows, and returns the post-append counters.
  virtual StatusOr<wire::AppendSamplesOkMsg> AppendSamples(
      const std::string& stream, const Tensor& samples) = 0;

  /// Drains up to `max_reports` completed-window reports (0 = all), oldest
  /// first. Drained reports are gone — each report is delivered once.
  virtual StatusOr<std::vector<wire::StreamReportMsg>> TakeReports(
      const std::string& stream, uint32_t max_reports) = 0;
};

}  // namespace serve
}  // namespace causalformer

#endif  // CAUSALFORMER_SERVE_STREAM_BACKEND_H_
