// End-to-end tests for the emmapcd compile-service daemon (service/server.h
// + service/client.h) over its real unix-domain socket.
//
//  - Fidelity: results compiled through the daemon are byte-identical to
//    local compiles of the same request.
//  - Shared store: N threads x M short-lived clients compiling a mix of
//    kernel families and sizes all succeed, and the daemon's family-tier
//    misses equal the number of DISTINCT families (one cold pipeline per
//    family, everything else served warm from the shared store).
//  - Protocol defense: malformed frames and stale schema fingerprints get
//    diagnostic ErrorReplies and count as protocol errors; the connection
//    drops without disturbing other clients.
//  - Lean bound replies: a connection is sent each family record once (into
//    one of kRecordSlots client slots, evicted least recently used), later
//    binds ship only an overlay, and every reply the client materializes
//    encodes byte for byte like the in-process bind of the same size.
//  - Graceful shutdown: stop() drains in-flight work, tells clients
//    "server shutting down" (never ECONNRESET), removes the socket file,
//    and refuses to usurp a live daemon's socket while replacing a stale
//    one.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "driver/compiler.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "service/server.h"
#include "support/diagnostics.h"

namespace fs = std::filesystem;

namespace emm::svc {
namespace {

/// Fresh unique socket path per test (unlinked on destruction).
struct TempSocket {
  std::string path;
  TempSocket() {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("emmsvc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)) + ".sock"))
               .string();
    ::unlink(path.c_str());
  }
  ~TempSocket() { ::unlink(path.c_str()); }
};

CompileRequest request(const std::string& kernel, const std::vector<i64>& sizes) {
  IntVec params;
  buildKernelByName(kernel, sizes, params);
  Compiler c;
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda");
  if (kernel == "figure1") c.scratchpadOnly(true).stageEverything(true);
  CompileRequest req;
  req.kernel = kernel;
  req.sizes = sizes;
  req.options = c.opts();
  return req;
}

CompileResult localReference(const CompileRequest& req) {
  IntVec params;
  Compiler c;
  c.source(buildKernelByName(req.kernel, req.sizes, params)).options(req.options);
  return c.compile();
}

TEST(ServiceDaemonTest, DaemonResultMatchesLocalCompile) {
  TempSocket sock;
  ServiceServer server({sock.path, 2, "", 64});
  server.start();
  ServiceClient client(sock.path);
  CompileRequest req = request("me", {256, 128, 16});
  WireCompileReply reply = client.compile(req);
  ASSERT_TRUE(reply.result.ok) << reply.result.firstError();
  EXPECT_FALSE(reply.serverCacheHit);  // first request: cold on the server
  CompileResult local = localReference(req);
  ASSERT_TRUE(local.ok);
  EXPECT_EQ(reply.result.artifact, local.artifact);  // byte-identical
  EXPECT_EQ(reply.result.search.subTile, local.search.subTile);
  EXPECT_GT(reply.roundTripMillis, 0.0);
  server.stop();
}

TEST(ServiceDaemonTest, ManyThreadsManyClientsMissOncePerFamily) {
  TempSocket sock;
  ServiceServer server({sock.path, 0, "", 256});
  server.start();

  // The working set: three families (me, matmul, figure1), several sizes
  // each. Warm each family once, sequentially — single-flight collapses
  // per-size duplicates, but two concurrent sizes of a never-seen family
  // would legitimately race two cold pipelines.
  struct Work {
    const char* kernel;
    std::vector<i64> sizes;
  };
  const std::vector<Work> work = {
      {"me", {256, 128, 16}},   {"me", {512, 128, 16}},  {"me", {256, 256, 16}},
      {"matmul", {128, 64, 32}}, {"matmul", {256, 64, 32}}, {"figure1", {64, 64}},
  };
  const i64 kFamilies = 3;
  {
    ServiceClient warmer(sock.path);
    for (const Work& w : work)
      ASSERT_TRUE(warmer.compile(request(w.kernel, w.sizes)).result.ok) << w.kernel;
  }

  // N threads x M short-lived clients each, hammering the warm store.
  constexpr int kThreads = 4;
  constexpr int kClientsPerThread = 3;
  std::atomic<int> failures{0};
  std::atomic<int> coldServed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int c = 0; c < kClientsPerThread; ++c) {
        ServiceClient client(sock.path);  // fresh connection each time
        for (size_t i = 0; i < work.size(); ++i) {
          const Work& w = work[(t + c + i) % work.size()];
          WireCompileReply r = client.compile(request(w.kernel, w.sizes));
          if (!r.result.ok) failures.fetch_add(1);
          // Everything was warmed above: no request may compile cold.
          if (!r.serverCacheHit && !r.serverFamilyHit && !r.serverDiskHit)
            coldServed.fetch_add(1);
        }
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(coldServed.load(), 0);

  WireStats s = server.stats();
  // Each DISTINCT family misses the family tier exactly twice, both on its
  // one cold pass: the connection-thread fast-path probe, then the
  // in-pipeline lookup. Every later size binds the family record on the
  // fast path and never reaches the result tier, so the result tier sees
  // one miss per family — not one per size.
  EXPECT_EQ(s.memory.familyMisses, 2 * kFamilies);
  EXPECT_EQ(s.memory.misses, kFamilies);
  const i64 totalRequests = static_cast<i64>(work.size() * (1 + kThreads * kClientsPerThread));
  EXPECT_EQ(s.compiles, totalRequests);
  // Every non-cold request was served by exactly one of: a fast-path record
  // bind (no pool dispatch, no emission) or a result-tier snapshot hit.
  EXPECT_EQ(s.familyFastPath + s.memory.hits, totalRequests - kFamilies);
  EXPECT_GT(s.familyFastPath, 0);
  EXPECT_EQ(s.compileErrors, 0);
  EXPECT_EQ(s.protocolErrors, 0);
  EXPECT_EQ(s.connections, 1 + kThreads * kClientsPerThread);
  server.stop();
}

/// A request with the benchmark suite's options for a built-in kernel; a
/// nonzero `variant` nudges the Algorithm-1 threshold, which splits off a
/// new kernel family without changing what the pipeline decides.
CompileRequest poolRequest(const std::string& kernel, const std::vector<i64>& sizes,
                           int variant = 0) {
  CompileRequest req;
  req.kernel = kernel;
  req.sizes = sizes;
  IntVec params;
  buildKernelByName(kernel, sizes, params);
  req.options.paramValues = params;
  req.options.kernelName = kernel + "_kernel";
  req.options.delta += 0.001 * variant;
  return req;
}

CompileResult localCompile(const CompileRequest& req, PlanCache& cache) {
  IntVec params;
  Compiler c;
  c.source(buildKernelByName(req.kernel, req.sizes, params)).options(req.options).cache(&cache);
  return c.compile();
}

/// The reply bytes of `result` with every wall-clock value zeroed.
std::string replyBytes(CompileResult result) {
  for (PassTiming& t : result.timings) t.millis = 0;
  result.search.planBuildMillis = 0;
  result.search.evalMillis = 0;
  return encodeCompileReply(result, 0);
}

/// Warms `variant`'s ME family on the daemon through `client`, then binds
/// it once: the bind ships the family record into a client slot.
void bindMeVariant(ServiceClient& client, int variant) {
  ASSERT_TRUE(client.compile(poolRequest("me", {256, 128, 16}, variant)).result.ok);
  WireCompileReply r = client.compile(poolRequest("me", {272, 128, 16}, variant));
  ASSERT_TRUE(r.result.ok && r.serverFamilyHit) << r.result.firstError();
}

TEST(ServiceDaemonTest, LeanRepliesAfterTheFirstBind) {
  TempSocket sock;
  ServiceServer server({sock.path, 2, "", 256});
  server.start();
  ServiceClient client(sock.path);
  PlanCache local;
  ASSERT_TRUE(client.compile(poolRequest("me", {256, 128, 16})).result.ok);
  ASSERT_TRUE(localCompile(poolRequest("me", {256, 128, 16}), local).ok);

  // Twenty binds of one family on one connection: the first carries the
  // record, the other nineteen only the overlay.
  const WireStats before = server.stats();
  for (i64 k = 1; k <= 20; ++k) {
    const CompileRequest req = poolRequest("me", {256 + 16 * k, 128, 16});
    WireCompileReply reply = client.compile(req);
    ASSERT_TRUE(reply.result.ok && reply.serverFamilyHit) << reply.result.firstError();
    EXPECT_TRUE(reply.result.artifactBound);
    CompileResult want = localCompile(req, local);
    ASSERT_TRUE(want.artifactBound);
    EXPECT_EQ(replyBytes(reply.result), replyBytes(want)) << "k=" << k;
  }
  const WireStats after = server.stats();
  EXPECT_EQ(after.familyFastPath - before.familyFastPath, 20);
  EXPECT_EQ(after.familyRecordSends - before.familyRecordSends, 1);

  // kRecordSlots more families push ME's record, the least recently used,
  // out of the table: its next bind ships the record again.
  for (int variant = 1; variant <= kRecordSlots; ++variant) bindMeVariant(client, variant);
  const WireStats filled = server.stats();
  EXPECT_EQ(filled.familyRecordSends - after.familyRecordSends, kRecordSlots);
  const CompileRequest again = poolRequest("me", {256 + 16 * 21, 128, 16});
  WireCompileReply reply = client.compile(again);
  ASSERT_TRUE(reply.result.ok && reply.serverFamilyHit) << reply.result.firstError();
  EXPECT_EQ(replyBytes(reply.result), replyBytes(localCompile(again, local)));
  const WireStats last = server.stats();
  EXPECT_EQ(last.familyRecordSends - filled.familyRecordSends, 1);
  EXPECT_EQ(last.familyFastPath - filled.familyFastPath, 1);
  EXPECT_EQ(last.protocolErrors, 0);
  server.stop();
}

TEST(ServiceDaemonTest, BoundRepliesMatchInProcessBinds) {
  // 64 ME and 64 matmul sizes from the benchmark suite's pools, interleaved
  // on one connection, bound by the daemon and in process. Every reply —
  // the two that carry a record, the lean ones, and after kRecordSlots
  // other families evicted both records, the re-sent ones — must encode
  // byte for byte like the in-process bind.
  TempSocket sock;
  ServiceServer server({sock.path, 2, "", 256});
  server.start();
  ServiceClient client(sock.path);
  PlanCache local;
  const std::vector<std::pair<std::string, std::vector<i64>>> seeds = {
      {"me", {256, 128, 16}}, {"matmul", {128, 128, 128}}};
  for (const auto& [kernel, sizes] : seeds) {
    ASSERT_TRUE(client.compile(poolRequest(kernel, sizes)).result.ok);
    ASSERT_TRUE(localCompile(poolRequest(kernel, sizes), local).ok);
  }
  // Distinct pool members: ni = 256 + 16k for ME, the step-4 grid over
  // [128, 256]^3 for matmul (walked with a stride coprime to its 33^3 points).
  std::vector<CompileRequest> requests;
  for (i64 i = 0; i < 72; ++i) {
    if (i < 64) requests.push_back(poolRequest("me", {256 + 16 * (1 + 997 * i), 128, 16}));
    const i64 j = (1 + 523 * i) % (33 * 33 * 33);
    requests.push_back(
        poolRequest("matmul", {128 + 4 * (j % 33), 128 + 4 * (j / 33 % 33), 128 + 4 * (j / 1089)}));
  }
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round == 0 ? "first and lean replies" : "after eviction");
    const WireStats before = server.stats();
    int bound[2] = {0, 0};
    for (const CompileRequest& req : requests) {
      CompileResult want = localCompile(req, local);
      ASSERT_TRUE(want.ok) << want.firstError();
      WireCompileReply reply = client.compile(req);
      ASSERT_TRUE(reply.result.ok) << reply.result.firstError();
      if (!want.artifactBound) continue;  // a size outside the envelope
      ++bound[req.kernel == "me" ? 0 : 1];
      EXPECT_TRUE(reply.serverFamilyHit);
      EXPECT_EQ(replyBytes(reply.result), replyBytes(want))
          << req.kernel << " " << req.sizes[0] << "," << req.sizes[1] << "," << req.sizes[2];
    }
    EXPECT_GE(bound[0], 64);
    EXPECT_GE(bound[1], 64);
    const WireStats after = server.stats();
    EXPECT_EQ(after.familyRecordSends - before.familyRecordSends, 2);
    if (round == 0)
      for (int variant = 1; variant <= kRecordSlots; ++variant) bindMeVariant(client, variant);
  }
  EXPECT_EQ(server.stats().protocolErrors, 0);
  server.stop();
}

TEST(ServiceDaemonTest, MalformedFramesGetDiagnosticsNotCrashes) {
  TempSocket sock;
  ServiceServer server({sock.path, 1, "", 16});
  server.start();

  // Raw socket speaking garbage: the server must reply with an ErrorReply
  // and close, counting a protocol error — and keep serving other clients.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.path.c_str(), sock.path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::string garbage(kFrameHeaderBytes, '\x7F');
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  MsgType type;
  std::string payload;
  std::string error;
  ASSERT_EQ(readFrame(fd, type, payload, error), ReadStatus::Ok) << error;
  ASSERT_EQ(type, MsgType::ErrorReply);
  WireError e = decodeErrorReply(payload);
  EXPECT_FALSE(e.shuttingDown);
  EXPECT_FALSE(e.message.empty());
  ::close(fd);

  // A stale schema fingerprint is refused with a diagnostic, not misparsed.
  int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  CompileRequest req = request("me", {64, 64, 8});
  req.schemaFingerprint = 0xBADBADBADull;
  ASSERT_TRUE(writeFrame(fd2, MsgType::CompileRequest, encodeCompileRequest(req)));
  ASSERT_EQ(readFrame(fd2, type, payload, error), ReadStatus::Ok) << error;
  ASSERT_EQ(type, MsgType::ErrorReply);
  EXPECT_NE(decodeErrorReply(payload).message.find("fingerprint"), std::string::npos);
  ::close(fd2);

  // The daemon is unharmed: a well-formed client still compiles.
  ServiceClient client(sock.path);
  EXPECT_TRUE(client.compile(request("me", {64, 64, 8})).result.ok);
  WireStats s = server.stats();
  EXPECT_EQ(s.protocolErrors, 2);
  server.stop();
}

TEST(ServiceDaemonTest, UnknownKernelGetsDiagnosticReply) {
  TempSocket sock;
  ServiceServer server({sock.path, 1, "", 16});
  server.start();
  ServiceClient client(sock.path);
  CompileRequest req = request("me", {64, 64, 8});
  req.kernel = "no_such_kernel";
  try {
    client.compile(std::move(req));
    FAIL() << "unknown kernel accepted";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_kernel"), std::string::npos) << e.what();
  }
  server.stop();
}

TEST(ServiceDaemonTest, GracefulShutdownSaysSoInsteadOfResetting) {
  TempSocket sock;
  auto server = std::make_unique<ServiceServer>(ServiceServer::Options{sock.path, 1, "", 16});
  server->start();
  ServiceClient idle(sock.path);  // connected, no request in flight
  ASSERT_TRUE(idle.compile(request("me", {64, 64, 8})).result.ok);
  server->stop();
  // The drained server told the idle connection why before closing; the
  // next request surfaces that as a clean diagnostic, not ECONNRESET.
  try {
    idle.compile(request("me", {64, 64, 8}));
    FAIL() << "compile succeeded against a stopped server";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("shutting down"), std::string::npos) << e.what();
  }
  // The socket file is gone after a graceful stop.
  EXPECT_FALSE(fs::exists(sock.path));
  server.reset();

  // A stale socket FILE (no daemon behind it) is replaced on start...
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.path.c_str(), sock.path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ::close(fd);  // bound then closed: the file remains, nobody listens
  ASSERT_TRUE(fs::exists(sock.path));
  ServiceServer replacement({sock.path, 1, "", 16});
  replacement.start();
  ServiceClient again(sock.path);
  EXPECT_TRUE(again.compile(request("me", {64, 64, 8})).result.ok);

  // ...but a LIVE daemon's socket is never usurped.
  ServiceServer usurper({sock.path, 1, "", 16});
  EXPECT_THROW(usurper.start(), ApiError);
  replacement.stop();
}

TEST(ServiceDaemonTest, StopIsIdempotentAndStatsSurviveIt) {
  TempSocket sock;
  ServiceServer server({sock.path, 1, "", 16});
  server.start();
  {
    ServiceClient client(sock.path);
    ASSERT_TRUE(client.compile(request("matmul", {64, 64, 32})).result.ok);
  }
  server.stop();
  server.stop();  // second stop is a no-op
  WireStats s = server.stats();
  EXPECT_EQ(s.compiles, 1);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace emm::svc
