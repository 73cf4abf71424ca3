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
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "driver/compiler.h"
#include "kernels/blocks.h"
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
                       MsgType::StatsReply, MsgType::ErrorReply}) {
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
  for (unsigned char bad : {0, 6, 200, 255}) {
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
