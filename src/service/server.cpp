#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>

#include "driver/compiler.h"
#include "kernels/blocks.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"

namespace emm::svc {

namespace {

/// Fills a sockaddr_un; the caller has validated the path length.
sockaddr_un socketAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

ServiceServer::ServiceServer(Options options)
    : options_(std::move(options)), cache_(options_.cacheCapacity, options_.cacheShards) {
  if (!options_.cacheDir.empty()) disk_ = std::make_unique<DiskPlanCache>(options_.cacheDir);
}

ServiceServer::~ServiceServer() { stop(); }

void ServiceServer::start() {
  std::lock_guard<std::mutex> lk(stopMutex_);
  EMM_REQUIRE(!running_.load(), "ServiceServer::start() called while already running");
  const std::string& path = options_.socketPath;
  EMM_REQUIRE(!path.empty(), "ServiceServer needs a socket path");
  EMM_REQUIRE(path.size() < sizeof(sockaddr_un{}.sun_path),
              "socket path '" + path + "' exceeds the unix-domain limit");
  sockaddr_un addr = socketAddress(path);
  // A leftover socket file is common after a crash. Probe it: a live daemon
  // accepts the connect and we refuse to usurp it; a stale file is removed.
  if (std::filesystem::exists(path)) {
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EMM_REQUIRE(probe >= 0, "cannot create a probe socket");
    const bool live =
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
    ::close(probe);
    EMM_REQUIRE(!live, "socket '" + path + "' is already served by a live daemon");
    ::unlink(path.c_str());
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EMM_REQUIRE(fd >= 0, "cannot create the listening socket");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int err = errno;
    ::close(fd);
    throw ApiError("cannot bind '" + path + "': " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    throw ApiError("cannot listen on '" + path + "': " + std::strerror(err));
  }
  listenFd_ = fd;
  pool_ = std::make_unique<ThreadPool>(
      options_.jobs > 0 ? options_.jobs : ThreadPool::defaultConcurrency(), kCompilePoolNice);
  stopping_.store(false);
  running_.store(true);
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void ServiceServer::stop() {
  std::lock_guard<std::mutex> lk(stopMutex_);
  if (!running_.load()) return;
  stopping_.store(true);
  // Wake the accept loop (shutdown on a listening socket interrupts
  // accept); the fd is closed only after the thread is joined so its number
  // cannot be reused under the loop.
  ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptThread_.joinable()) acceptThread_.join();
  ::close(listenFd_);
  listenFd_ = -1;
  // Wake idle connection readers without touching their write side, so
  // in-flight compiles still deliver replies and the drain notice below
  // reaches the peer.
  {
    std::lock_guard<std::mutex> lk2(mutex_);
    for (const std::unique_ptr<Connection>& c : connections_)
      if (!c->done.load()) ::shutdown(c->fd, SHUT_RD);
  }
  std::list<std::unique_ptr<Connection>> drained;
  {
    std::lock_guard<std::mutex> lk2(mutex_);
    drained.swap(connections_);
  }
  for (const std::unique_ptr<Connection>& c : drained)
    if (c->thread.joinable()) c->thread.join();
  // All compiles finished with their connections; disk writes are
  // synchronous inside compile, so the store is flushed. Drop the pool and
  // the socket file last.
  pool_.reset();
  std::error_code ec;
  std::filesystem::remove(options_.socketPath, ec);
  running_.store(false);
}

WireStats ServiceServer::stats() const {
  // Counters are relaxed atomics: a STATS request snapshots them without
  // blocking any connection's reply path (and vice versa).
  WireStats s;
  s.connections = connectionCount_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.compileErrors = compileErrors_.load(std::memory_order_relaxed);
  s.protocolErrors = protocolErrors_.load(std::memory_order_relaxed);
  s.familyFastPath = familyFastPath_.load(std::memory_order_relaxed);
  s.familyRecordSends = familyRecordSends_.load(std::memory_order_relaxed);
  s.memory = cache_.stats();
  if (disk_ != nullptr) {
    s.haveDisk = true;
    s.disk = disk_->stats();
  }
  return s;
}

void ServiceServer::acceptLoop() {
  for (;;) {
    int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down by stop(), or fatal
    }
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_.load()) {
      writeFrame(fd, MsgType::ErrorReply, encodeErrorReply({true, "server shutting down"}));
      ::close(fd);
      break;
    }
    connectionCount_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { serveConnection(raw); });
    reapFinishedLocked();
  }
}

void ServiceServer::serveConnection(Connection* conn) {
  const int fd = conn->fd;
  for (;;) {
    MsgType type = MsgType::ErrorReply;
    std::string payload;
    std::string error;
    ReadStatus st = readFrame(fd, type, payload, error);
    if (st == ReadStatus::Eof) {
      // Either the client closed, or stop() shut our read side down to
      // wake us; tell a draining peer why instead of vanishing.
      if (stopping_.load())
        writeFrame(fd, MsgType::ErrorReply, encodeErrorReply({true, "server shutting down"}));
      break;
    }
    if (st == ReadStatus::Error) {
      countProtocolError();
      writeFrame(fd, MsgType::ErrorReply,
                 encodeErrorReply({false, "protocol error: " + error}));
      break;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (stopping_.load()) {
      writeFrame(fd, MsgType::ErrorReply, encodeErrorReply({true, "server shutting down"}));
      break;
    }
    bool keepOpen = true;
    switch (type) {
      case MsgType::CompileRequest:
        keepOpen = handleCompile(*conn, payload);
        break;
      case MsgType::StatsRequest:
        keepOpen = writeFrame(fd, MsgType::StatsReply, encodeStatsReply(stats()));
        break;
      default:
        countProtocolError();
        writeFrame(fd, MsgType::ErrorReply,
                   encodeErrorReply({false, "unexpected message type on a request channel"}));
        keepOpen = false;
        break;
    }
    if (!keepOpen) break;
  }
  ::close(fd);
  conn->done.store(true);
}

bool ServiceServer::handleCompile(Connection& conn, const std::string& payload) {
  const int fd = conn.fd;
  CompileRequest req;
  try {
    req = decodeCompileRequest(payload);
  } catch (const SerializeError& e) {
    countProtocolError();
    writeFrame(fd, MsgType::ErrorReply,
               encodeErrorReply({false, std::string("bad compile request: ") + e.what()}));
    return false;
  }
  if (req.schemaFingerprint != serializeSchemaFingerprint()) {
    countProtocolError();
    writeFrame(fd, MsgType::ErrorReply,
               encodeErrorReply({false, "plan schema fingerprint mismatch (client and server "
                                        "binaries disagree on the plan format)"}));
    return false;
  }
  // Configure the compile on the connection thread so request mistakes
  // (unknown kernel or pass, malformed block) answer immediately.
  auto compiler = std::make_shared<Compiler>();
  try {
    compiler->options(req.options);
    compiler->cache(&cache_);
    if (disk_ != nullptr) compiler->diskCache(disk_.get());
    for (const std::string& pass : req.skipPasses) compiler->skipPass(pass);
    ProgramBlock block;
    if (!req.kernel.empty()) {
      IntVec unusedParams;
      block = buildKernelByName(req.kernel, req.sizes, unusedParams);
    } else {
      block = std::move(*req.block);
    }
    // Family fast path: when the warm store holds a size-generic record for
    // this kernel family, certify the bind right here on the connection
    // thread — the family lookup reads the cache shard's epoch-published
    // snapshot (no lock) and the certification is guard evaluation plus a
    // plan-only argmin re-check. No pool dispatch, no pipeline run, no
    // emission, and no copy of the record: the reply ships the record only
    // when this connection does not hold it yet, and the overlay (under
    // 1 KB) otherwise.
    const auto bindStart = std::chrono::steady_clock::now();
    if (std::optional<FamilyBind> bound = compiler->tryCertifyFamily(block)) {
      WireBoundReply reply;
      reply.serverMillis = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - bindStart)
                               .count();
      reply.slot = conn.slots.place(bound->record, reply.hasRecord);
      if (reply.hasRecord) {
        reply.record = std::move(bound->record);
        familyRecordSends_.fetch_add(1, std::memory_order_relaxed);
      }
      reply.overlay = std::move(bound->overlay);
      familyFastPath_.fetch_add(1, std::memory_order_relaxed);
      compiles_.fetch_add(1, std::memory_order_relaxed);
      return writeFrame(fd, MsgType::BoundReply, encodeBoundReply(reply));
    }
    compiler->source(std::move(block));
  } catch (const ApiError& e) {
    countProtocolError();
    writeFrame(fd, MsgType::ErrorReply, encodeErrorReply({false, e.what()}));
    return false;
  }
  // Dispatch onto the shared pool: CPU concurrency stays bounded by `jobs`
  // no matter how many clients are connected, and identical concurrent
  // requests collapse to one pipeline run via the cache's single-flight.
  auto promise = std::make_shared<std::promise<CompileResult>>();
  std::future<CompileResult> future = promise->get_future();
  const auto start = std::chrono::steady_clock::now();
  pool_->submit([compiler, promise] {
    try {
      promise->set_value(compiler->compile());
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  CompileResult result;
  try {
    result = future.get();
  } catch (const std::exception& e) {
    compiles_.fetch_add(1, std::memory_order_relaxed);
    compileErrors_.fetch_add(1, std::memory_order_relaxed);
    writeFrame(fd, MsgType::ErrorReply,
               encodeErrorReply({false, std::string("compile failed: ") + e.what()}));
    return true;
  }
  const double millis =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  compiles_.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok) compileErrors_.fetch_add(1, std::memory_order_relaxed);
  return writeFrame(fd, MsgType::CompileReply, encodeCompileReply(result, millis));
}

void ServiceServer::countProtocolError() {
  protocolErrors_.fetch_add(1, std::memory_order_relaxed);
}

void ServiceServer::reapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace emm::svc
