// Tests for the compile-service wire protocol (service/protocol.h).
//
//  - Round trips: every frame type and payload struct encodes and decodes
//    losslessly, including the full-fidelity CompileResult inside a
//    CompileReply.
//  - Hostile input: truncated frames (every prefix), bad magic, stale
//    protocol versions, unknown message types, oversized length prefixes
//    (rejected BEFORE allocation), checksum mismatches, trailing garbage,
//    and malformed payloads all throw SerializeError instead of crashing —
//    the same discipline support/serialize enforces for plan files.
//  - Socket framing: writeFrame/readFrame over a socketpair, including
//    clean EOF vs. mid-frame truncation.
//  - Bound replies: a record reply and the lean replies after it
//    materialize the in-process bind; a lean reply naming an empty slot, a
//    slot out of range, an overlay that does not fit the slot's record,
//    truncation and trailing bytes are errors — and through a real client
//    socket, ApiErrors that close the connection.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "driver/runtime_binder.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "service/protocol.h"
#include "support/field_codec.h"
#include "support/serialize.h"

namespace emm::svc {
namespace {

CompileRequest sampleKernelRequest() {
  CompileRequest req;
  req.schemaFingerprint = serializeSchemaFingerprint();
  req.kernel = "me";
  req.sizes = {256, 128, 16};
  IntVec params;
  buildKernelByName("me", req.sizes, params);
  Compiler c;
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda");
  req.options = c.opts();
  req.skipPasses = {"codegen"};
  return req;
}

// ---- frame envelope -------------------------------------------------------

TEST(WireFrame, RoundTripsEveryMessageType) {
  for (MsgType type : {MsgType::CompileRequest, MsgType::StatsRequest, MsgType::CompileReply,
                       MsgType::StatsReply, MsgType::ErrorReply, MsgType::BoundReply}) {
    std::string frame = encodeFrame(type, "payload bytes");
    auto [gotType, gotPayload] = decodeFrame(frame);
    EXPECT_EQ(gotType, type);
    EXPECT_EQ(gotPayload, "payload bytes");
  }
}

TEST(WireFrame, EmptyPayloadRoundTrips) {
  auto [type, payload] = decodeFrame(encodeFrame(MsgType::StatsRequest, ""));
  EXPECT_EQ(type, MsgType::StatsRequest);
  EXPECT_TRUE(payload.empty());
}

TEST(WireFrame, EveryTruncationThrowsCleanly) {
  std::string frame = encodeFrame(MsgType::ErrorReply, encodeErrorReply({false, "boom"}));
  for (size_t n = 0; n < frame.size(); ++n)
    EXPECT_THROW(decodeFrame(frame.substr(0, n)), SerializeError) << "prefix " << n;
}

TEST(WireFrame, BadMagicThrows) {
  std::string frame = encodeFrame(MsgType::StatsRequest, "");
  frame[0] ^= 0x5A;
  EXPECT_THROW(decodeFrame(frame), SerializeError);
}

TEST(WireFrame, StaleVersionIsRejectedWithDiagnostic) {
  std::string frame = encodeFrame(MsgType::StatsRequest, "");
  frame[4] = static_cast<char>(kWireVersion + 1);  // version field, little-endian
  try {
    decodeFrame(frame);
    FAIL() << "stale version accepted";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(WireFrame, UnknownMessageTypeThrows) {
  for (unsigned char bad : {0, 7, 200, 255}) {
    std::string frame = encodeFrame(MsgType::StatsRequest, "");
    frame[8] = static_cast<char>(bad);  // type byte
    EXPECT_THROW(decodeFrameHeader(frame.substr(0, kFrameHeaderBytes)), SerializeError)
        << "type " << int(bad);
  }
}

TEST(WireFrame, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // A hostile peer claims a payload far beyond the cap; the header decoder
  // must throw before any buffer of that size could be sized.
  std::string frame = encodeFrame(MsgType::CompileRequest, "");
  for (size_t i = 0; i < 8; ++i) frame[9 + i] = '\xFF';  // length = 2^64-1
  EXPECT_THROW(decodeFrameHeader(frame.substr(0, kFrameHeaderBytes)), SerializeError);
  // Just past the cap is rejected too; exactly at the cap is a length check,
  // not a header error.
  FrameHeader ok;
  ok.payloadBytes = kMaxFramePayloadBytes;
  EXPECT_THROW(verifyFramePayload(ok, "short"), SerializeError);
}

TEST(WireFrame, ChecksumMismatchThrows) {
  std::string frame = encodeFrame(MsgType::ErrorReply, encodeErrorReply({false, "x"}));
  frame.back() ^= 0x01;  // flip one payload bit; header checksum now stale
  EXPECT_THROW(decodeFrame(frame), SerializeError);
}

TEST(WireFrame, EveryOneByteFlipFailsTheChecksum) {
  // The checksum reads 8-byte words and then the tail bytewise; a payload
  // whose length is not a multiple of 8 covers both.
  std::string text = "a diagnostic of some length";
  std::string payload = encodeErrorReply({false, text});
  while (payload.size() % 8 == 0) payload = encodeErrorReply({false, text += '!'});
  ASSERT_GT(payload.size(), 16u);
  const std::string frame = encodeFrame(MsgType::ErrorReply, payload);
  for (size_t i = kFrameHeaderBytes; i < frame.size(); ++i) {
    for (unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ flip);
      EXPECT_THROW(decodeFrame(bad), SerializeError) << "offset " << i << " flip " << int(flip);
    }
  }
}

TEST(WireFrame, GarbageAfterValidFrameIsRejected) {
  std::string frame = encodeFrame(MsgType::StatsRequest, "");
  EXPECT_THROW(decodeFrame(frame + "tail"), SerializeError);
}

// ---- payload structs ------------------------------------------------------

TEST(WirePayload, KernelCompileRequestRoundTrips) {
  CompileRequest req = sampleKernelRequest();
  CompileRequest got = decodeCompileRequest(encodeCompileRequest(req));
  EXPECT_EQ(got.schemaFingerprint, req.schemaFingerprint);
  EXPECT_EQ(got.kernel, "me");
  EXPECT_EQ(got.sizes, req.sizes);
  EXPECT_FALSE(got.block.has_value());
  EXPECT_EQ(hashCompileOptions(got.options), hashCompileOptions(req.options));
  EXPECT_EQ(got.skipPasses, req.skipPasses);
}

TEST(WirePayload, BlockCompileRequestRoundTrips) {
  CompileRequest req;
  req.schemaFingerprint = serializeSchemaFingerprint();
  IntVec params;
  req.block = buildKernelByName("matmul", {128, 64, 32}, params);
  Compiler c;
  c.parameters(params).backend("c");
  req.options = c.opts();
  CompileRequest got = decodeCompileRequest(encodeCompileRequest(req));
  ASSERT_TRUE(got.block.has_value());
  EXPECT_EQ(hashProgramBlock(*got.block), hashProgramBlock(*req.block));
  EXPECT_TRUE(got.kernel.empty());
}

TEST(WirePayload, RequestMustNameKernelXorCarryBlock) {
  CompileRequest neither;
  neither.schemaFingerprint = serializeSchemaFingerprint();
  EXPECT_THROW(decodeCompileRequest(encodeCompileRequest(neither)), SerializeError);
  CompileRequest both = sampleKernelRequest();
  IntVec params;
  both.block = buildKernelByName("me", both.sizes, params);
  EXPECT_THROW(decodeCompileRequest(encodeCompileRequest(both)), SerializeError);
}

TEST(WirePayload, ShippedBlockFailingValidationIsASerializeError) {
  CompileRequest req;
  req.schemaFingerprint = serializeSchemaFingerprint();
  IntVec params;
  req.block = buildKernelByName("matmul", {16, 16, 16}, params);
  req.block->statements[0].accesses[0].arrayId = 99;  // names no array
  EXPECT_THROW(decodeCompileRequest(encodeCompileRequest(req)), SerializeError);
}

TEST(WirePayload, CompileRequestTruncationsThrowCleanly) {
  std::string payload = encodeCompileRequest(sampleKernelRequest());
  for (size_t n = 0; n < payload.size(); ++n)
    EXPECT_THROW(decodeCompileRequest(std::string_view(payload).substr(0, n)), SerializeError)
        << "prefix " << n;
  EXPECT_THROW(decodeCompileRequest(payload + "x"), SerializeError);
}

TEST(WirePayload, CompileReplyCarriesResultAndAttribution) {
  Compiler c;
  IntVec params;
  c.source(buildKernelByName("me", {64, 64, 8}, params));
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda");
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  r.familyHit = true;  // transport flag: carried by the reply, not the result
  WireCompileReply got = decodeCompileReply(encodeCompileReply(r, 12.5));
  EXPECT_FALSE(got.serverCacheHit);
  EXPECT_FALSE(got.serverDiskHit);
  EXPECT_TRUE(got.serverFamilyHit);
  EXPECT_EQ(got.serverMillis, 12.5);
  EXPECT_TRUE(got.result.ok);
  EXPECT_EQ(got.result.artifact, r.artifact);
  EXPECT_EQ(got.result.search.subTile, r.search.subTile);
}

TEST(WirePayload, CompileReplyEncoderFollowsTheFieldList) {
  // encodeCompileReply writes the reply's header fields from the result it
  // is handed; the bytes must be what the WireCompileReply field list gives.
  Compiler c;
  IntVec params;
  c.source(buildKernelByName("matmul", {32, 32, 32}, params));
  c.parameters(params).memoryLimitBytes(4 * 1024);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  r.cacheHit = true;
  WireCompileReply reply;
  reply.serverCacheHit = true;
  reply.serverMillis = 3.25;
  reply.roundTripMillis = 99;  // client-side, never on the wire
  reply.result = r.clone();
  EXPECT_EQ(encode(reply), encodeCompileReply(r, 3.25));
}

TEST(WirePayload, StatsReplyRoundTrips) {
  WireStats s;
  s.connections = 3;
  s.requests = 17;
  s.compiles = 11;
  s.compileErrors = 1;
  s.protocolErrors = 2;
  s.familyFastPath = 13;
  s.familyRecordSends = 4;
  s.memory.hits = 5;
  s.memory.misses = 6;
  s.memory.familyHits = 7;
  s.memory.familyMisses = 8;
  s.haveDisk = true;
  s.disk.hits = 9;
  s.disk.familyBytes = 1234;
  WireStats got = decodeStatsReply(encodeStatsReply(s));
  EXPECT_EQ(got.connections, 3);
  EXPECT_EQ(got.requests, 17);
  EXPECT_EQ(got.compiles, 11);
  EXPECT_EQ(got.compileErrors, 1);
  EXPECT_EQ(got.protocolErrors, 2);
  EXPECT_EQ(got.familyFastPath, 13);
  EXPECT_EQ(got.familyRecordSends, 4);
  EXPECT_EQ(got.memory.hits, 5);
  EXPECT_EQ(got.memory.misses, 6);
  EXPECT_EQ(got.memory.familyHits, 7);
  EXPECT_EQ(got.memory.familyMisses, 8);
  EXPECT_TRUE(got.haveDisk);
  EXPECT_EQ(got.disk.hits, 9);
  EXPECT_EQ(got.disk.familyBytes, 1234);
}

TEST(WirePayload, ErrorReplyRoundTrips) {
  WireError got = decodeErrorReply(encodeErrorReply({true, "server shutting down"}));
  EXPECT_TRUE(got.shuttingDown);
  EXPECT_EQ(got.message, "server shutting down");
}

TEST(WirePayload, WrongPayloadTagThrows) {
  std::string stats = encodeStatsReply(WireStats{});
  EXPECT_THROW(decodeErrorReply(stats), SerializeError);
  EXPECT_THROW(decodeCompileRequest(stats), SerializeError);
}

// ---- bound replies ----------------------------------------------------------

Compiler meCompiler(i64 ni, PlanCache& cache) {
  IntVec params;
  Compiler c(buildKernelByName("me", {ni, 128, 16}, params));
  c.parameters(params).kernelName("me_kernel").cache(&cache);
  return c;
}

/// Warms the ME family at ni = 256 in `cache` and certifies a bind of it at
/// `ni`: the family record and the overlay.
FamilyBind certifiedMeBind(PlanCache& cache, i64 ni) {
  EXPECT_TRUE(meCompiler(256, cache).compile().ok);
  IntVec params;
  const ProgramBlock block = buildKernelByName("me", {ni, 128, 16}, params);
  std::optional<FamilyBind> bind = meCompiler(ni, cache).tryCertifyFamily(block);
  EXPECT_TRUE(bind.has_value()) << "ME did not bind at ni=" << ni;
  return bind ? std::move(*bind) : FamilyBind{};
}

std::string boundReply(int slot, const FamilyBind& bind, bool withRecord) {
  WireBoundReply reply;
  reply.serverMillis = 0.25;
  reply.slot = slot;
  reply.hasRecord = withRecord;
  if (withRecord) reply.record = bind.record;
  reply.overlay = bind.overlay;
  return encodeBoundReply(reply);
}

/// A lean reply for `bind` whose overlay array table is `arrays`.
std::string leanReplyWithArrays(int slot, FamilyBind bind, std::vector<ArrayDecl> arrays) {
  bind.overlay.arrays = std::move(arrays);
  return boundReply(slot, bind, false);
}

/// Every way a bound reply can be hostile to a client that holds `bind`'s
/// record in slot 0.
std::vector<std::pair<std::string, std::string>> hostileBoundReplies(const FamilyBind& bind) {
  const std::string lean = boundReply(0, bind, false);
  std::vector<ArrayDecl> dropped = bind.overlay.arrays;
  dropped.pop_back();
  std::vector<ArrayDecl> renamed = bind.overlay.arrays;
  renamed[0].name += "_other";
  std::vector<ArrayDecl> reranked = bind.overlay.arrays;
  reranked[0].extents.push_back(4);
  return {{"lean reply naming an empty slot", boundReply(3, bind, false)},
          {"slot kRecordSlots", boundReply(kRecordSlots, bind, false)},
          {"negative slot", boundReply(-1, bind, false)},
          {"overlay drops an array", leanReplyWithArrays(0, bind, dropped)},
          {"overlay renames an array", leanReplyWithArrays(0, bind, renamed)},
          {"overlay changes an array's rank", leanReplyWithArrays(0, bind, reranked)},
          {"truncated lean reply", lean.substr(0, lean.size() - 1)},
          {"trailing bytes", lean + "x"}};
}

TEST(WireBoundReply, RecordThenLeanRepliesMaterializeTheInProcessBind) {
  PlanCache cache;
  const FamilyBind bind = certifiedMeBind(cache, 272);
  ASSERT_NE(bind.record, nullptr);
  const std::string want = encodeCompileReply(materializeBind(*bind.record, bind.overlay), 0);
  const std::string lean = boundReply(5, bind, false);
  EXPECT_LT(lean.size(), 1024u);
  EXPECT_GT(boundReply(5, bind, true).size(), 10 * lean.size());
  RecordSlotMirror fresh;
  for (const std::string& payload : {boundReply(5, bind, true), lean, lean}) {
    WireCompileReply got = fresh.resolve(payload);
    EXPECT_TRUE(got.serverFamilyHit);
    EXPECT_FALSE(got.serverCacheHit || got.serverDiskHit);
    EXPECT_EQ(got.serverMillis, 0.25);
    EXPECT_TRUE(got.result.artifactBound);
    EXPECT_EQ(encodeCompileReply(got.result, 0), want);
  }
}

TEST(WireBoundReply, HostileRepliesThrowCleanly) {
  PlanCache cache;
  const FamilyBind bind = certifiedMeBind(cache, 272);
  ASSERT_NE(bind.record, nullptr);
  for (const auto& [what, payload] : hostileBoundReplies(bind)) {
    RecordSlotMirror mirror;
    mirror.resolve(boundReply(0, bind, true));
    EXPECT_THROW(mirror.resolve(payload), SerializeError) << what;
  }
  // A record reply whose overlay does not fit the record fills no slot.
  RecordSlotMirror mirror;
  std::vector<ArrayDecl> dropped = bind.overlay.arrays;
  dropped.pop_back();
  FamilyBind misfit = bind;
  misfit.overlay.arrays = dropped;
  EXPECT_THROW(mirror.resolve(boundReply(2, misfit, true)), SerializeError);
  EXPECT_THROW(mirror.resolve(boundReply(2, bind, false)), SerializeError);
}

TEST(WireBoundReply, EveryTruncationThrowsCleanly) {
  PlanCache cache;
  const FamilyBind bind = certifiedMeBind(cache, 272);
  ASSERT_NE(bind.record, nullptr);
  RecordSlotMirror mirror;
  const std::string record = boundReply(0, bind, true);
  const std::string lean = boundReply(0, bind, false);
  mirror.resolve(record);
  for (size_t n = 0; n < lean.size(); ++n)
    EXPECT_THROW(mirror.resolve(std::string_view(lean).substr(0, n)), SerializeError)
        << "lean prefix " << n;
  for (size_t n = 0; n < record.size(); n += 97)
    EXPECT_THROW(mirror.resolve(std::string_view(record).substr(0, n)), SerializeError)
        << "record prefix " << n;
  EXPECT_THROW(mirror.resolve(record + "x"), SerializeError);
  EXPECT_EQ(encodeCompileReply(mirror.resolve(lean).result, 0),
            encodeCompileReply(materializeBind(*bind.record, bind.overlay), 0));
}

/// A one-connection stand-in for emmapcd: answers each request with the
/// next scripted BoundReply payload, verbatim, then waits for the client
/// to hang up.
class ScriptedDaemon {
public:
  explicit ScriptedDaemon(std::vector<std::string> replies) {
    static std::atomic<int> counter{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("emm_scripted_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter.fetch_add(1)) + ".sock"))
                .string();
    ::unlink(path_.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_EQ(::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(listenFd_, 1), 0);
    thread_ = std::thread([this, replies = std::move(replies)] {
      const int fd = ::accept(listenFd_, nullptr, nullptr);
      if (fd < 0) return;
      MsgType type = MsgType::ErrorReply;
      std::string payload, error;
      for (const std::string& reply : replies)
        if (readFrame(fd, type, payload, error) != ReadStatus::Ok ||
            !writeFrame(fd, MsgType::BoundReply, reply))
          break;
      while (readFrame(fd, type, payload, error) == ReadStatus::Ok) {
      }
      ::close(fd);
    });
  }
  ScriptedDaemon(const ScriptedDaemon&) = delete;
  ScriptedDaemon& operator=(const ScriptedDaemon&) = delete;
  ~ScriptedDaemon() {
    ::shutdown(listenFd_, SHUT_RDWR);  // wakes an accept no client answered
    thread_.join();
    ::close(listenFd_);
    ::unlink(path_.c_str());
  }
  const std::string& path() const { return path_; }

private:
  std::string path_;
  int listenFd_ = -1;
  std::thread thread_;
};

TEST(WireBoundReply, FreshClientMaterializesRecordThenLeanReplies) {
  PlanCache cache;
  const FamilyBind bind = certifiedMeBind(cache, 272);
  ASSERT_NE(bind.record, nullptr);
  const std::string want = encodeCompileReply(materializeBind(*bind.record, bind.overlay), 0);
  ScriptedDaemon daemon({boundReply(7, bind, true), boundReply(7, bind, false)});
  ServiceClient client(daemon.path());
  for (int i = 0; i < 2; ++i) {
    WireCompileReply got = client.compile(sampleKernelRequest());
    EXPECT_TRUE(got.serverFamilyHit);
    EXPECT_EQ(encodeCompileReply(got.result, 0), want) << "reply " << i;
  }
}

TEST(WireBoundReply, HostileRepliesCloseTheClientConnection) {
  PlanCache cache;
  const FamilyBind bind = certifiedMeBind(cache, 272);
  ASSERT_NE(bind.record, nullptr);
  for (const auto& [what, payload] : hostileBoundReplies(bind)) {
    ScriptedDaemon daemon({boundReply(0, bind, true), payload});
    ServiceClient client(daemon.path());
    EXPECT_TRUE(client.compile(sampleKernelRequest()).serverFamilyHit) << what;
    EXPECT_THROW(client.compile(sampleKernelRequest()), ApiError) << what;
    EXPECT_FALSE(client.connected()) << what;
  }
}

// ---- socket framing -------------------------------------------------------

TEST(WireSocket, WriteThenReadRoundTrips) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string sent = encodeErrorReply({false, "hello"});
  ASSERT_TRUE(writeFrame(fds[0], MsgType::ErrorReply, sent));
  MsgType type = MsgType::CompileRequest;
  std::string payload;
  std::string error;
  EXPECT_EQ(readFrame(fds[1], type, payload, error), ReadStatus::Ok) << error;
  EXPECT_EQ(type, MsgType::ErrorReply);
  EXPECT_EQ(payload, sent);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireSocket, CleanCloseIsEofNotError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  MsgType type;
  std::string payload;
  std::string error;
  EXPECT_EQ(readFrame(fds[1], type, payload, error), ReadStatus::Eof);
  ::close(fds[1]);
}

TEST(WireSocket, MidFrameTruncationIsAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string frame = encodeFrame(MsgType::ErrorReply, encodeErrorReply({false, "cut"}));
  // Ship only half the frame, then close: the reader must report an error
  // (not EOF, not a hang).
  ASSERT_GT(::send(fds[0], frame.data(), frame.size() / 2, 0), 0);
  ::close(fds[0]);
  MsgType type;
  std::string payload;
  std::string error;
  EXPECT_EQ(readFrame(fds[1], type, payload, error), ReadStatus::Error);
  EXPECT_FALSE(error.empty());
  ::close(fds[1]);
}

TEST(WireSocket, GarbageBytesAreAnErrorWithDiagnostic) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string garbage(kFrameHeaderBytes, '\x42');
  ASSERT_TRUE(::send(fds[0], garbage.data(), garbage.size(), 0) > 0);
  ::close(fds[0]);
  MsgType type;
  std::string payload;
  std::string error;
  EXPECT_EQ(readFrame(fds[1], type, payload, error), ReadStatus::Error);
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  ::close(fds[1]);
}

// ---- the block/options deserializers the protocol leans on ----------------

TEST(WireDeserializers, ProgramBlockRoundTripsAndRejectsHostileBytes) {
  IntVec params;
  ProgramBlock block = buildKernelByName("jacobi", {4096, 8}, params);
  std::string bytes = serializeProgramBlock(block);
  ProgramBlock got = deserializeProgramBlock(bytes);
  EXPECT_EQ(hashProgramBlock(got), hashProgramBlock(block));
  for (size_t n : {size_t(0), size_t(1), bytes.size() / 2, bytes.size() - 1})
    EXPECT_THROW(deserializeProgramBlock(std::string_view(bytes).substr(0, n)),
                 SerializeError);
  EXPECT_THROW(deserializeProgramBlock(bytes + "z"), SerializeError);
}

TEST(WireDeserializers, CompileOptionsRoundTripAndRejectHostileBytes) {
  Compiler c;
  c.parameters({9, 9, 9})
      .memoryLimitBytes(4096)
      .innerProcs(4)
      .hoistCopies(false)
      .tileSizes({8, 8})
      .backend("cell")
      .kernelName("weird_name");
  std::string bytes = serializeCompileOptions(c.opts());
  CompileOptions got = deserializeCompileOptions(bytes);
  EXPECT_EQ(hashCompileOptions(got), hashCompileOptions(c.opts()));
  for (size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW(deserializeCompileOptions(std::string_view(bytes).substr(0, n)),
                 SerializeError)
        << "prefix " << n;
  EXPECT_THROW(deserializeCompileOptions(bytes + "z"), SerializeError);
}

}  // namespace
}  // namespace emm::svc
