#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "support/diagnostics.h"

namespace emm::svc {

ServiceClient::ServiceClient(std::string socketPath) : socketPath_(std::move(socketPath)) {
  EMM_REQUIRE(!socketPath_.empty(), "ServiceClient needs a socket path");
  EMM_REQUIRE(socketPath_.size() < sizeof(sockaddr_un{}.sun_path),
              "socket path '" + socketPath_ + "' exceeds the unix-domain limit");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath_.c_str(), socketPath_.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EMM_REQUIRE(fd >= 0, "cannot create a client socket");
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    int err = errno;
    ::close(fd);
    throw ApiError("cannot connect to compile daemon at '" + socketPath_ +
                   "': " + std::strerror(err) + " (is emmapcd running?)");
  }
  fd_ = fd;
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<MsgType, std::string> ServiceClient::roundTrip(MsgType type,
                                                         const std::string& payload) {
  EMM_REQUIRE(connected(), "ServiceClient is closed");
  if (!writeFrame(fd_, type, payload)) {
    // The peer may have refused us with a drain notice before resetting the
    // connection; surface that instead of a bare write error.
    MsgType replyType = MsgType::ErrorReply;
    std::string replyPayload;
    std::string error;
    if (readFrame(fd_, replyType, replyPayload, error) == ReadStatus::Ok &&
        replyType == MsgType::ErrorReply) {
      WireError e = decodeErrorReply(replyPayload);
      close();
      throw ApiError(e.shuttingDown ? "server shutting down" : e.message);
    }
    close();
    throw ApiError("cannot send to compile daemon at '" + socketPath_ + "'");
  }
  MsgType replyType = MsgType::ErrorReply;
  std::string replyPayload;
  std::string error;
  ReadStatus st = readFrame(fd_, replyType, replyPayload, error);
  if (st == ReadStatus::Eof) {
    close();
    throw ApiError("compile daemon at '" + socketPath_ + "' closed the connection");
  }
  if (st == ReadStatus::Error) {
    close();
    throw ApiError("bad frame from compile daemon: " + error);
  }
  if (replyType == MsgType::ErrorReply) {
    WireError e = decodeErrorReply(replyPayload);
    throw ApiError(e.shuttingDown ? "server shutting down" : e.message);
  }
  return {replyType, std::move(replyPayload)};
}

WireCompileReply ServiceClient::compile(CompileRequest request) {
  request.schemaFingerprint = serializeSchemaFingerprint();
  const auto start = std::chrono::steady_clock::now();
  auto [type, payload] = roundTrip(MsgType::CompileRequest, encodeCompileRequest(request));
  if (type != MsgType::CompileReply && type != MsgType::BoundReply) {
    close();
    throw ApiError("compile daemon sent an unexpected reply type");
  }
  WireCompileReply reply;
  try {
    reply = type == MsgType::BoundReply ? slots_.resolve(payload) : decodeCompileReply(payload);
  } catch (const SerializeError& e) {
    close();
    throw ApiError(std::string("bad reply from compile daemon: ") + e.what());
  }
  reply.roundTripMillis =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return reply;
}

WireStats ServiceClient::stats() {
  auto [type, payload] = roundTrip(MsgType::StatsRequest, std::string());
  if (type != MsgType::StatsReply)
    throw ApiError("compile daemon sent an unexpected reply type");
  return decodeStatsReply(payload);
}

}  // namespace emm::svc
