// ServiceClient: the client side of the emmapcd compile service.
//
// Wraps one unix-domain connection speaking service/protocol.h frames.
// `emmapc --connect=SOCK` uses this to compile through the daemon's shared
// plan store instead of (or in addition to) its own local tiers; any other
// process can embed it the same way:
//
//   svc::ServiceClient client("/tmp/emmapcd.sock");
//   svc::CompileRequest req;
//   req.kernel = "me";
//   req.sizes = {256, 128, 16};
//   req.options = compiler.opts();   // exact effective options, no policy drift
//   svc::WireCompileReply reply = client.compile(req);
//
// compile() fills in the schema fingerprint, measures the round trip
// (WireCompileReply::roundTripMillis — the client-observed latency, next to
// the daemon's serverMillis and server-side tier attribution), and throws
// ApiError on transport failures, protocol violations, or server-reported
// errors ("server shutting down" during a graceful drain). A malformed
// reply also closes the connection.
//
// The client mirrors the daemon's per-connection record slots
// (RecordSlotMirror): a family bind arrives as a BoundReply, usually just
// a slot and an overlay, and compile() materializes it against the record
// held in that slot, so every reply reaches the caller as the same
// WireCompileReply.
#pragma once

#include <string>

#include "service/protocol.h"

namespace emm::svc {

class ServiceClient {
public:
  /// Connects immediately. Throws ApiError when the daemon is unreachable.
  explicit ServiceClient(std::string socketPath);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// One compile round trip. The request's schemaFingerprint is filled in
  /// here; exactly one of kernel/block must be set (the server enforces it
  /// too). Throws ApiError on any failure, including a graceful-drain
  /// refusal (message "server shutting down").
  WireCompileReply compile(CompileRequest request);

  /// Fetches the daemon's counters and cache-tier statistics.
  WireStats stats();

  const std::string& socketPath() const { return socketPath_; }
  bool connected() const { return fd_ >= 0; }
  void close();

private:
  /// Sends one frame and reads one reply frame; decodes ErrorReply into an
  /// ApiError throw on the spot.
  std::pair<MsgType, std::string> roundTrip(MsgType type, const std::string& payload);

  std::string socketPath_;
  int fd_ = -1;
  RecordSlotMirror slots_;
};

}  // namespace emm::svc
