#include "service/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "support/diagnostics.h"

namespace emm::svc {

namespace {

// Payload struct tags, same discipline as the serialize.cpp tag table but
// scoped to the wire payloads (the envelope has its own magic/version).
enum : unsigned char {
  kTagCompileRequest = 0xA1,
  kTagCompileReply = 0xA2,
  kTagStatsReply = 0xA3,
  kTagErrorReply = 0xA4,
};

void expectTag(ByteReader& r, unsigned char tag, const char* what) {
  unsigned char got = r.u8();
  if (got != tag)
    throw SerializeError(std::string("bad tag for ") + what + " (got " + std::to_string(got) +
                         ", want " + std::to_string(tag) + ")");
}

void writeI64Vec(ByteWriter& w, const std::vector<i64>& v) {
  w.u64v(v.size());
  for (i64 x : v) w.i64v(x);
}

std::vector<i64> readI64Vec(ByteReader& r) {
  u64 n = r.count(8);
  std::vector<i64> out;
  out.reserve(n);
  for (u64 i = 0; i < n; ++i) out.push_back(r.i64v());
  return out;
}

void writeStrVec(ByteWriter& w, const std::vector<std::string>& v) {
  w.u64v(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> readStrVec(ByteReader& r) {
  u64 n = r.count();
  std::vector<std::string> out;
  for (u64 i = 0; i < n; ++i) out.push_back(r.str());
  return out;
}

bool sendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    data += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

/// 1 = read all n bytes, 0 = clean EOF before the first byte, -1 = error or
/// EOF mid-buffer.
int recvAll(int fd, char* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t k = ::recv(fd, data + got, n - got, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (k == 0) return got == 0 ? 0 : -1;
    got += static_cast<size_t>(k);
  }
  return 1;
}

/// The frame checksum: FNV-1a over the payload's 8-byte little-endian
/// words, each step folding the high half of the state down, then the tail
/// bytes one by one. Every step is a bijection of the state, so any one
/// changed word or byte changes the checksum; it costs one multiply per
/// word where digestBytes pays one per byte.
u64 frameChecksum(std::string_view payload) {
  constexpr u64 kPrime = 1099511628211ull;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(payload.data());
  const size_t n = payload.size();
  u64 h = 14695981039346656037ull;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 word = 0;
    for (int k = 0; k < 8; ++k) word |= static_cast<u64>(p[i + k]) << (8 * k);
    h = (h ^ word) * kPrime;
    h ^= h >> 32;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

}  // namespace

std::string encodeFrame(MsgType type, std::string_view payload) {
  ByteWriter w;
  w.u32v(kWireMagic);
  w.u32v(kWireVersion);
  w.u8(static_cast<unsigned char>(type));
  w.u64v(payload.size());
  w.u64v(frameChecksum(payload));
  std::string out = w.take();
  out.append(payload.data(), payload.size());
  return out;
}

FrameHeader decodeFrameHeader(std::string_view header) {
  if (header.size() != kFrameHeaderBytes)
    throw SerializeError("truncated frame header: " + std::to_string(header.size()) + " of " +
                         std::to_string(kFrameHeaderBytes) + " bytes");
  ByteReader r(header);
  if (r.u32v() != kWireMagic) throw SerializeError("bad frame magic");
  u32 version = r.u32v();
  if (version != kWireVersion)
    throw SerializeError("unsupported protocol version " + std::to_string(version) +
                         " (this binary speaks " + std::to_string(kWireVersion) + ")");
  unsigned char type = r.u8();
  if (type < static_cast<unsigned char>(MsgType::CompileRequest) ||
      type > static_cast<unsigned char>(MsgType::ErrorReply))
    throw SerializeError("unknown message type " + std::to_string(type));
  FrameHeader h;
  h.type = static_cast<MsgType>(type);
  h.payloadBytes = r.u64v();
  // The cap check must precede any allocation sized by the prefix.
  if (h.payloadBytes > kMaxFramePayloadBytes)
    throw SerializeError("oversized frame payload: " + std::to_string(h.payloadBytes) +
                         " bytes (cap " + std::to_string(kMaxFramePayloadBytes) + ")");
  h.checksum = r.u64v();
  return h;
}

void verifyFramePayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payloadBytes)
    throw SerializeError("frame payload length mismatch");
  if (frameChecksum(payload) != header.checksum)
    throw SerializeError("frame checksum mismatch");
}

std::pair<MsgType, std::string> decodeFrame(std::string_view frame) {
  if (frame.size() < kFrameHeaderBytes)
    throw SerializeError("truncated frame header: " + std::to_string(frame.size()) + " of " +
                         std::to_string(kFrameHeaderBytes) + " bytes");
  FrameHeader h = decodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  std::string_view rest = frame.substr(kFrameHeaderBytes);
  if (rest.size() < h.payloadBytes) throw SerializeError("truncated frame payload");
  if (rest.size() > h.payloadBytes)
    throw SerializeError("trailing garbage after frame: " +
                         std::to_string(rest.size() - h.payloadBytes) + " bytes");
  verifyFramePayload(h, rest);
  return {h.type, std::string(rest)};
}

std::string encodeCompileRequest(const CompileRequest& request) {
  ByteWriter w;
  w.u8(kTagCompileRequest);
  w.u64v(request.schemaFingerprint);
  w.str(request.kernel);
  writeI64Vec(w, request.sizes);
  w.boolean(request.block.has_value());
  if (request.block.has_value()) w.str(serializeProgramBlock(*request.block));
  w.str(serializeCompileOptions(request.options));
  writeStrVec(w, request.skipPasses);
  return w.take();
}

CompileRequest decodeCompileRequest(std::string_view payload) {
  ByteReader r(payload);
  expectTag(r, kTagCompileRequest, "CompileRequest");
  CompileRequest req;
  req.schemaFingerprint = r.u64v();
  req.kernel = r.str();
  req.sizes = readI64Vec(r);
  if (r.boolean()) req.block = deserializeProgramBlock(r.str());
  req.options = deserializeCompileOptions(r.str());
  req.skipPasses = readStrVec(r);
  r.expectEnd();
  if (req.kernel.empty() && !req.block.has_value())
    throw SerializeError("compile request names no kernel and carries no block");
  if (!req.kernel.empty() && req.block.has_value())
    throw SerializeError("compile request names a kernel AND carries a block");
  return req;
}

std::string encodeCompileReply(const CompileResult& result, double serverMillis) {
  ByteWriter w;
  w.u8(kTagCompileReply);
  w.boolean(result.cacheHit);
  w.boolean(result.diskHit);
  w.boolean(result.familyHit);
  w.f64(serverMillis);
  w.str(serializeCompileResult(result));
  return w.take();
}

WireCompileReply decodeCompileReply(std::string_view payload) {
  ByteReader r(payload);
  expectTag(r, kTagCompileReply, "CompileReply");
  WireCompileReply reply;
  reply.serverCacheHit = r.boolean();
  reply.serverDiskHit = r.boolean();
  reply.serverFamilyHit = r.boolean();
  reply.serverMillis = r.f64();
  reply.result = deserializeCompileResult(r.str());
  r.expectEnd();
  return reply;
}

std::string encodeStatsReply(const WireStats& s) {
  ByteWriter w;
  w.u8(kTagStatsReply);
  w.i64v(s.connections);
  w.i64v(s.requests);
  w.i64v(s.compiles);
  w.i64v(s.compileErrors);
  w.i64v(s.protocolErrors);
  w.i64v(s.familyFastPath);
  w.i64v(s.memory.hits);
  w.i64v(s.memory.misses);
  w.i64v(s.memory.entries);
  w.i64v(s.memory.evictions);
  w.i64v(s.memory.familyHits);
  w.i64v(s.memory.familyMisses);
  w.i64v(s.memory.familyEntries);
  w.i64v(s.memory.familyEvictions);
  w.boolean(s.haveDisk);
  w.i64v(s.disk.hits);
  w.i64v(s.disk.misses);
  w.i64v(s.disk.rejects);
  w.i64v(s.disk.evictions);
  w.i64v(s.disk.insertions);
  w.i64v(s.disk.entries);
  w.i64v(s.disk.bytes);
  w.i64v(s.disk.familyHits);
  w.i64v(s.disk.familyMisses);
  w.i64v(s.disk.familyRejects);
  w.i64v(s.disk.familyInsertions);
  w.i64v(s.disk.familyEntries);
  w.i64v(s.disk.familyBytes);
  return w.take();
}

WireStats decodeStatsReply(std::string_view payload) {
  ByteReader r(payload);
  expectTag(r, kTagStatsReply, "StatsReply");
  WireStats s;
  s.connections = r.i64v();
  s.requests = r.i64v();
  s.compiles = r.i64v();
  s.compileErrors = r.i64v();
  s.protocolErrors = r.i64v();
  s.familyFastPath = r.i64v();
  s.memory.hits = r.i64v();
  s.memory.misses = r.i64v();
  s.memory.entries = r.i64v();
  s.memory.evictions = r.i64v();
  s.memory.familyHits = r.i64v();
  s.memory.familyMisses = r.i64v();
  s.memory.familyEntries = r.i64v();
  s.memory.familyEvictions = r.i64v();
  s.haveDisk = r.boolean();
  s.disk.hits = r.i64v();
  s.disk.misses = r.i64v();
  s.disk.rejects = r.i64v();
  s.disk.evictions = r.i64v();
  s.disk.insertions = r.i64v();
  s.disk.entries = r.i64v();
  s.disk.bytes = r.i64v();
  s.disk.familyHits = r.i64v();
  s.disk.familyMisses = r.i64v();
  s.disk.familyRejects = r.i64v();
  s.disk.familyInsertions = r.i64v();
  s.disk.familyEntries = r.i64v();
  s.disk.familyBytes = r.i64v();
  r.expectEnd();
  return s;
}

std::string encodeErrorReply(const WireError& error) {
  ByteWriter w;
  w.u8(kTagErrorReply);
  w.boolean(error.shuttingDown);
  w.str(error.message);
  return w.take();
}

WireError decodeErrorReply(std::string_view payload) {
  ByteReader r(payload);
  expectTag(r, kTagErrorReply, "ErrorReply");
  WireError e;
  e.shuttingDown = r.boolean();
  e.message = r.str();
  r.expectEnd();
  return e;
}

bool writeFrame(int fd, MsgType type, std::string_view payload) {
  std::string frame = encodeFrame(type, payload);
  return sendAll(fd, frame.data(), frame.size());
}

ReadStatus readFrame(int fd, MsgType& type, std::string& payload, std::string& error) {
  char header[kFrameHeaderBytes];
  int st = recvAll(fd, header, sizeof header);
  if (st == 0) return ReadStatus::Eof;
  if (st < 0) {
    error = "truncated frame header";
    return ReadStatus::Error;
  }
  FrameHeader h;
  try {
    h = decodeFrameHeader(std::string_view(header, sizeof header));
  } catch (const SerializeError& e) {
    error = e.what();
    return ReadStatus::Error;
  }
  payload.resize(h.payloadBytes);
  if (h.payloadBytes > 0 && recvAll(fd, payload.data(), payload.size()) != 1) {
    error = "truncated frame payload";
    return ReadStatus::Error;
  }
  try {
    verifyFramePayload(h, payload);
  } catch (const SerializeError& e) {
    error = e.what();
    return ReadStatus::Error;
  }
  type = h.type;
  return ReadStatus::Ok;
}

}  // namespace emm::svc
