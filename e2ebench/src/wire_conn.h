#ifndef CF_E2E_WIRE_CONN_H_
#define CF_E2E_WIRE_CONN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.h"
#include "tensor/tensor.h"
#include "util/status.h"

/// \file
/// A wire-protocol connection whose every call has a deadline. The library's
/// WireClient blocks without bound; a benchmark must never hang on a wedged
/// or dead server, so this client polls the socket against a per-call
/// deadline and reports a timeout as an error instead.

namespace e2e {

namespace cf = causalformer;
namespace wire = causalformer::serve::wire;

/// One blocking TCP connection with per-call deadlines.
class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Connects to 127.0.0.1:`port` (TCP_NODELAY).
  cf::Status Connect(uint16_t port, double timeout_s);
  /// Closes the socket; later calls fail until Connect().
  void Close();

  /// False after Close() or a failed call that dropped the connection.
  bool connected() const { return fd_ >= 0; }

  /// Per-call deadline in seconds (default 30).
  void set_timeout(double seconds) { timeout_s_ = seconds; }

  cf::StatusOr<uint64_t> Ping(uint64_t token);
  cf::StatusOr<wire::LoadModelOkMsg> LoadModel(const wire::LoadModelMsg& msg);
  cf::StatusOr<wire::DetectResultMsg> Detect(const std::string& model,
                                             const cf::Tensor& windows);
  cf::StatusOr<wire::StatsResultMsg> Stats();
  cf::StatusOr<wire::MetricsResultMsg> Metrics();
  cf::StatusOr<wire::StreamOpenOkMsg> OpenStream(const wire::StreamOpenMsg& msg);
  cf::StatusOr<wire::AppendSamplesOkMsg> Append(const std::string& stream,
                                                const cf::Tensor& samples);
  cf::StatusOr<std::vector<wire::StreamReportMsg>> Reports(
      const std::string& stream);

 private:
  /// Sends one frame and reads one, failing on timeout, a closed socket, an
  /// Error frame (decoded into the status) or an unexpected frame type.
  cf::StatusOr<wire::Frame> Call(wire::MessageType type,
                                 std::vector<uint8_t> payload,
                                 wire::MessageType expect);
  /// Call() plus decoding the response payload with `decode`.
  template <typename T>
  cf::StatusOr<T> Typed(wire::MessageType type, std::vector<uint8_t> payload,
                        wire::MessageType expect,
                        cf::Status (*decode)(const std::vector<uint8_t>&, T*));

  int fd_ = -1;
  double timeout_s_ = 30.0;
  std::vector<uint8_t> inbuf_;
};

}  // namespace e2e

#endif  // CF_E2E_WIRE_CONN_H_
