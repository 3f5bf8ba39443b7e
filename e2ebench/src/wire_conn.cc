#include "wire_conn.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "bench.h"
#include "util/socket.h"

namespace e2e {

WireConn::~WireConn() { Close(); }

cf::Status WireConn::Connect(uint16_t port, double timeout_s) {
  Close();
  auto fd = cf::TcpConnect("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  cf::TcpNoDelay(fd_);
  // Bounds a send into a full socket buffer; receives poll their own deadline.
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  timeout_s_ = timeout_s;
  return cf::Status::Ok();
}

void WireConn::Close() {
  if (fd_ >= 0) cf::TcpClose(fd_);
  fd_ = -1;
  inbuf_.clear();
}

cf::StatusOr<wire::Frame> WireConn::Call(wire::MessageType type,
                                         std::vector<uint8_t> payload,
                                         wire::MessageType expect) {
  if (fd_ < 0) return cf::Status::FailedPrecondition("not connected");
  const std::vector<uint8_t> frame = wire::EncodeFrame(type, std::move(payload));
  if (cf::Status st = cf::SendAll(fd_, frame.data(), frame.size()); !st.ok()) {
    Close();
    return st;
  }
  const double deadline = Now() + timeout_s_;
  while (true) {
    wire::Frame out;
    size_t consumed = 0;
    std::string error;
    const wire::DecodeResult r = wire::DecodeFrame(
        inbuf_.data(), inbuf_.size(), &out, &consumed, &error);
    if (r == wire::DecodeResult::kFrame) {
      inbuf_.erase(inbuf_.begin(), inbuf_.begin() + consumed);
      if (out.type == wire::MessageType::kError) {
        wire::ErrorMsg msg;
        cf::Status st = wire::DecodeError(out.payload, &msg);
        return st.ok() ? wire::ErrorToStatus(msg) : st;
      }
      if (out.type != expect) {
        Close();
        return cf::Status::Internal("unexpected response frame type " +
                                    std::to_string(static_cast<int>(out.type)));
      }
      return out;
    }
    if (r != wire::DecodeResult::kNeedMore) {
      Close();
      return cf::Status::Internal("malformed response frame: " + error);
    }
    const double left = deadline - Now();
    if (left <= 0) {
      // The stream position is unknown after a timeout: drop the connection.
      Close();
      return cf::Status::Internal("deadline exceeded");
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1e3) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;  // the deadline check above ends the loop
    uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) {
      Close();
      return cf::Status::Internal(n == 0 ? "server closed the connection"
                                         : std::string("recv: ") +
                                               std::strerror(errno));
    }
    inbuf_.insert(inbuf_.end(), buf, buf + n);
  }
}

template <typename T>
cf::StatusOr<T> WireConn::Typed(wire::MessageType type,
                                std::vector<uint8_t> payload,
                                wire::MessageType expect,
                                cf::Status (*decode)(const std::vector<uint8_t>&,
                                                     T*)) {
  auto f = Call(type, std::move(payload), expect);
  if (!f.ok()) return f.status();
  T out{};
  if (cf::Status st = decode(f->payload, &out); !st.ok()) return st;
  return out;
}

cf::StatusOr<uint64_t> WireConn::Ping(uint64_t token) {
  return Typed<uint64_t>(wire::MessageType::kPing, wire::EncodePing(token),
                         wire::MessageType::kPong, wire::DecodePing);
}

cf::StatusOr<wire::LoadModelOkMsg> WireConn::LoadModel(
    const wire::LoadModelMsg& msg) {
  return Typed<wire::LoadModelOkMsg>(
      wire::MessageType::kLoadModel, wire::EncodeLoadModel(msg),
      wire::MessageType::kLoadModelOk, wire::DecodeLoadModelOk);
}

cf::StatusOr<wire::DetectResultMsg> WireConn::Detect(const std::string& model,
                                                     const cf::Tensor& windows) {
  wire::DetectMsg msg;
  msg.model = model;
  msg.windows = windows;
  return Typed<wire::DetectResultMsg>(
      wire::MessageType::kDetect, wire::EncodeDetect(msg),
      wire::MessageType::kDetectResult, wire::DecodeDetectResult);
}

cf::StatusOr<wire::StatsResultMsg> WireConn::Stats() {
  return Typed<wire::StatsResultMsg>(wire::MessageType::kStats, {},
                                     wire::MessageType::kStatsResult,
                                     wire::DecodeStatsResult);
}

cf::StatusOr<wire::MetricsResultMsg> WireConn::Metrics() {
  return Typed<wire::MetricsResultMsg>(wire::MessageType::kMetrics, {},
                                       wire::MessageType::kMetricsResult,
                                       wire::DecodeMetricsResult);
}

cf::StatusOr<wire::StreamOpenOkMsg> WireConn::OpenStream(
    const wire::StreamOpenMsg& msg) {
  return Typed<wire::StreamOpenOkMsg>(
      wire::MessageType::kStreamOpen, wire::EncodeStreamOpen(msg),
      wire::MessageType::kStreamOpenOk, wire::DecodeStreamOpenOk);
}

cf::StatusOr<wire::AppendSamplesOkMsg> WireConn::Append(
    const std::string& stream, const cf::Tensor& samples) {
  wire::AppendSamplesMsg msg;
  msg.stream = stream;
  msg.samples = samples;
  return Typed<wire::AppendSamplesOkMsg>(
      wire::MessageType::kAppendSamples, wire::EncodeAppendSamples(msg),
      wire::MessageType::kAppendSamplesOk, wire::DecodeAppendSamplesOk);
}

cf::StatusOr<std::vector<wire::StreamReportMsg>> WireConn::Reports(
    const std::string& stream) {
  wire::StreamReportsMsg msg;
  msg.stream = stream;
  return Typed<std::vector<wire::StreamReportMsg>>(
      wire::MessageType::kStreamReports, wire::EncodeStreamReports(msg),
      wire::MessageType::kStreamReportsResult,
      wire::DecodeStreamReportsResult);
}

}  // namespace e2e
