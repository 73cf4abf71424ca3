#include "service/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "driver/runtime_binder.h"
#include "support/field_codec.h"

namespace emm::svc {

namespace {

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
      type > static_cast<unsigned char>(MsgType::BoundReply))
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

std::string encodeCompileRequest(const CompileRequest& request) { return encode(request); }

CompileRequest decodeCompileRequest(std::string_view payload) {
  CompileRequest req = decode<CompileRequest>(payload, "compile request");
  if (req.kernel.empty() && !req.block.has_value())
    throw SerializeError("compile request names no kernel and carries no block");
  if (!req.kernel.empty() && req.block.has_value())
    throw SerializeError("compile request names a kernel AND carries a block");
  if (req.block.has_value())
    rethrowAsSerializeError("compile request block", [&] { req.block->validate(); });
  return req;
}

std::string encodeCompileReply(const CompileResult& result, double serverMillis) {
  // WireCompileReply's field list, written from `result` in place.
  ByteWriter w;
  w.u8(kTagCompileReply);
  w.boolean(result.cacheHit);
  w.boolean(result.diskHit);
  w.boolean(result.familyHit);
  w.f64(serverMillis);
  writeValue(w, result);
  return w.take();
}

WireCompileReply decodeCompileReply(std::string_view payload) {
  return decode<WireCompileReply>(payload, "compile reply");
}

std::string encodeBoundReply(const WireBoundReply& reply) { return encode(reply); }

WireBoundReply decodeBoundReply(std::string_view payload) {
  WireBoundReply reply = decode<WireBoundReply>(payload, "bound reply");
  if (reply.slot < 0 || reply.slot >= kRecordSlots)
    throw SerializeError("bound reply names slot " + std::to_string(reply.slot) + " of " +
                         std::to_string(kRecordSlots));
  return reply;
}

int RecordSlotTable::place(const std::shared_ptr<const CompileResult>& record, bool& send) {
  ++clock_;
  int victim = 0;
  for (int i = 0; i < kRecordSlots; ++i) {
    Slot& s = slots_[i];
    // Owner identity: a freed record's control block outlives it while the
    // weak_ptr does, so no later record can match a stale slot.
    if (!s.record.owner_before(record) && !record.owner_before(s.record)) {
      s.lastUse = clock_;
      send = false;
      return i;
    }
    // A never-filled slot's weak_ptr is empty, so it reads as expired too.
    const Slot& v = slots_[victim];
    if (!v.record.expired() && (s.record.expired() || s.lastUse < v.lastUse)) victim = i;
  }
  slots_[victim] = {record, clock_};
  send = true;
  return victim;
}

WireCompileReply RecordSlotMirror::resolve(std::string_view payload) {
  WireBoundReply bound = decodeBoundReply(payload);
  std::shared_ptr<const CompileResult>& slot = slots_[bound.slot];
  const std::shared_ptr<const CompileResult>& record = bound.hasRecord ? bound.record : slot;
  if (record == nullptr)
    throw SerializeError("bound reply names empty slot " + std::to_string(bound.slot));
  if (record->input == nullptr || !sameArrayShape(record->input->arrays, bound.overlay.arrays))
    throw SerializeError("bound reply overlay does not fit the record in slot " +
                         std::to_string(bound.slot));
  if (bound.hasRecord) slot = std::move(bound.record);
  WireCompileReply reply;
  reply.serverFamilyHit = true;
  reply.serverMillis = bound.serverMillis;
  reply.result = materializeBind(*slot, std::move(bound.overlay));
  return reply;
}

std::string encodeStatsReply(const WireStats& stats) { return encode(stats); }

WireStats decodeStatsReply(std::string_view payload) {
  return decode<WireStats>(payload, "stats reply");
}

std::string encodeErrorReply(const WireError& error) { return encode(error); }

WireError decodeErrorReply(std::string_view payload) {
  return decode<WireError>(payload, "error reply");
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
