// Wire protocol for the emmapcd compile service.
//
// The daemon (service/server.h, tools/emmapcd.cpp) and its clients
// (service/client.h, `emmapc --connect`) exchange length-prefixed, versioned
// FRAMES over a unix-domain stream socket:
//
//   offset  field
//   0       u32 magic      "EMMR" on the wire (little-endian, like every
//                          multi-byte field — support/serialize encoding)
//   4       u32 version    kWireVersion; readers reject any other value
//   8       u8  type       MsgType
//   9       u64 length     payload byte count, capped at kMaxFramePayloadBytes
//   17      u64 checksum   FNV-1a over the payload's 8-byte words (protocol.cpp)
//   25      payload        `length` bytes, encoded per MsgType
//
// Requests: CompileRequest (a built-in kernel name + problem sizes, or a
// ProgramBlock, plus the full CompileOptions and the skipped-pass list) and
// StatsRequest (empty payload). Replies: CompileReply (server-side hit
// attribution + the full CompileResult), BoundReply (a family bind as a
// record slot plus a BindOverlay, see WireBoundReply), StatsReply (daemon
// counters + both cache tiers), and ErrorReply (diagnostic text;
// `shuttingDown` marks a graceful-drain refusal so clients report "server
// shutting down" instead of a reset).
//
// Every payload is a field-listed struct on the plan codec
// (support/field_codec.h): a wire tag, then its fields, with blocks,
// options and results inline in the plan format.
//
// Hostile-input discipline is the plan codec's: every decoder is
// bounds-checked and throws SerializeError on truncation, bad magic, stale
// version, an oversized length prefix (rejected BEFORE any allocation or
// payload read), checksum mismatch, unknown message type, a wrong payload
// tag, or trailing garbage. Payload schema drift across binaries is caught
// by the serializeSchemaFingerprint() echo every CompileRequest carries: the
// frame version covers the envelope, the schema fingerprint covers the plan
// payloads (version/compat policy: docs/SERVICE.md).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/options.h"
#include "driver/plan_cache.h"
#include "ir/program.h"
#include "support/fields.h"
#include "support/serialize.h"

namespace emm::svc {

/// First four wire bytes: 'E' 'M' 'M' 'R' (little-endian u32).
inline constexpr u32 kWireMagic = 0x524D4D45;
/// Frame envelope version; bumped on any framing or payload-layout change.
/// v2 added the familyFastPath counter to the StatsReply payload (the
/// daemon's connection-thread record-bind path); v3 computes the frame
/// checksum over 8-byte words instead of bytes; v4 encodes every payload as
/// a field list, so CompileRequest and CompileReply carry the block, options
/// and result inline instead of as length-prefixed copies; v5 answers
/// fast-path binds with BoundReply and adds the familyRecordSends counter.
inline constexpr u32 kWireVersion = 5;
/// Upper bound on a frame payload; a hostile length prefix above this is
/// rejected before any allocation.
inline constexpr u64 kMaxFramePayloadBytes = u64(64) << 20;
/// Fixed frame header size: magic + version + type + length + checksum.
inline constexpr size_t kFrameHeaderBytes = 4 + 4 + 1 + 8 + 8;

enum class MsgType : unsigned char {
  CompileRequest = 1,
  StatsRequest = 2,
  CompileReply = 3,
  StatsReply = 4,
  ErrorReply = 5,
  BoundReply = 6,
};

/// Decoded frame envelope (payload read separately by socket readers).
struct FrameHeader {
  MsgType type = MsgType::ErrorReply;
  u64 payloadBytes = 0;
  u64 checksum = 0;
};

/// Renders header + payload as one contiguous frame.
std::string encodeFrame(MsgType type, std::string_view payload);
/// Decodes exactly kFrameHeaderBytes of header, validating magic, version,
/// type, and the length cap. Throws SerializeError.
FrameHeader decodeFrameHeader(std::string_view header);
/// Validates the payload length and checksum against a decoded header.
/// Throws SerializeError on mismatch.
void verifyFramePayload(const FrameHeader& header, std::string_view payload);
/// Whole-buffer convenience for tests and in-memory use: decodes one frame
/// and rejects trailing bytes.
std::pair<MsgType, std::string> decodeFrame(std::string_view frame);

/// One compile request. Either `kernel` names a built-in (the daemon
/// rebuilds the block from `sizes` via buildKernelByName — the cheap path
/// `emmapc --connect` uses) or `block` ships the full program block;
/// exactly one of the two must be set. `options` is the complete effective
/// option set (problem binding included), so the daemon applies no policy
/// of its own.
struct CompileRequest {
  /// serializeSchemaFingerprint() of the client binary; the server rejects
  /// a mismatch instead of misparsing plan payloads.
  u64 schemaFingerprint = 0;
  std::string kernel;
  std::vector<i64> sizes;
  std::optional<ProgramBlock> block;
  CompileOptions options;
  std::vector<std::string> skipPasses;

  static constexpr void fields(auto& v) {
    v.tag(kTagCompileRequest, "CompileRequest");
    v("schemaFingerprint", &CompileRequest::schemaFingerprint);
    v("kernel", &CompileRequest::kernel);
    v("sizes", &CompileRequest::sizes);
    v("block", &CompileRequest::block);
    v("options", &CompileRequest::options);
    v("skipPasses", &CompileRequest::skipPasses);
  }
};

std::string encodeCompileRequest(const CompileRequest& request);
CompileRequest decodeCompileRequest(std::string_view payload);

/// A compile reply: the full CompileResult plus the SERVER-side cache
/// attribution. The serialized result never carries transport flags
/// (support/serialize strips them), so the daemon's tier attribution rides
/// next to it and clients can distinguish "warm for me" (round-trip time)
/// from "warm on the server" (these flags). encodeCompileReply writes the
/// four header fields from the CompileResult it is handed (no copy into a
/// WireCompileReply), in field-list order.
struct WireCompileReply {
  bool serverCacheHit = false;
  bool serverDiskHit = false;
  bool serverFamilyHit = false;
  double serverMillis = 0;  ///< wall-clock of the server-side compile
  /// Client-side: round-trip wall-clock, filled by ServiceClient (never on
  /// the wire).
  double roundTripMillis = 0;
  CompileResult result;

  static constexpr void fields(auto& v) {
    v.tag(kTagCompileReply, "CompileReply");
    v("serverCacheHit", &WireCompileReply::serverCacheHit);
    v("serverDiskHit", &WireCompileReply::serverDiskHit);
    v("serverFamilyHit", &WireCompileReply::serverFamilyHit);
    v("serverMillis", &WireCompileReply::serverMillis);
    v.skip("roundTripMillis", "measured by the client, never on the wire");
    v("result", &WireCompileReply::result);
  }
};

std::string encodeCompileReply(const CompileResult& result, double serverMillis);
WireCompileReply decodeCompileReply(std::string_view payload);

/// Family records one connection holds (see WireBoundReply).
inline constexpr int kRecordSlots = 16;

/// A fast-path bind reply. Each connection keeps a table of kRecordSlots
/// family records on the client side: the first bind of a family ships the
/// stored record into a slot (hasRecord), later binds name the slot and
/// ship only the overlay. The client materializes the bound result from
/// the record in its slot (materializeBind, which shares the record's
/// products and detaches only the blocks the overlay writes), byte for
/// byte the result an in-process bind returns, and hands it out as a
/// WireCompileReply with serverFamilyHit set.
struct WireBoundReply {
  double serverMillis = 0;  ///< wall-clock of the server-side certification
  int slot = 0;             ///< in [0, kRecordSlots)
  bool hasRecord = false;   ///< `record` is on the wire and fills `slot`
  std::shared_ptr<const CompileResult> record;
  BindOverlay overlay;

  static constexpr void fields(auto& v) {
    v.tag(kTagBoundReply, "BoundReply");
    v("serverMillis", &WireBoundReply::serverMillis);
    v("slot", &WireBoundReply::slot);
    v("hasRecord", &WireBoundReply::hasRecord);
    v.when(&WireBoundReply::hasRecord, "record", &WireBoundReply::record);
    v("overlay", &WireBoundReply::overlay);
  }
};

std::string encodeBoundReply(const WireBoundReply& reply);
/// Rejects a slot outside [0, kRecordSlots) with SerializeError.
WireBoundReply decodeBoundReply(std::string_view payload);

/// The server half of one connection's slot table: which record each
/// client slot holds. A slot names its record by owner identity through a
/// weak_ptr, so the table keeps no record alive and stores no bytes.
class RecordSlotTable {
public:
  /// The slot the client holds `record` in; `send` is false. Otherwise
  /// claims an empty slot (never filled, or its record freed), else the
  /// least recently used one, for `record`, and sets `send`: the reply
  /// must carry the record.
  int place(const std::shared_ptr<const CompileResult>& record, bool& send);

private:
  struct Slot {
    std::weak_ptr<const CompileResult> record;
    u64 lastUse = 0;
  };
  std::array<Slot, kRecordSlots> slots_;
  u64 clock_ = 0;
};

/// The client half: the records the server sent, by slot.
class RecordSlotMirror {
public:
  /// Decodes a BoundReply payload, stores the record it carries in the
  /// slot it names, and returns the materialized bound result. Throws
  /// SerializeError on malformed bytes, a lean reply naming an empty slot,
  /// or an overlay whose array table does not fit the slot's record.
  WireCompileReply resolve(std::string_view payload);

private:
  std::array<std::shared_ptr<const CompileResult>, kRecordSlots> slots_;
};

/// Daemon counters + both cache tiers, served for a StatsRequest.
struct WireStats {
  i64 connections = 0;
  i64 requests = 0;
  i64 compiles = 0;
  i64 compileErrors = 0;   ///< requests whose pipeline failed
  i64 protocolErrors = 0;  ///< malformed/mismatched frames or payloads
  /// Requests answered on the connection thread by binding a size-generic
  /// family record from the cache's lock-free snapshot — no pool dispatch,
  /// no pipeline run, no emission.
  i64 familyFastPath = 0;
  /// Fast-path replies that shipped a family record into a client slot;
  /// the other familyFastPath replies were lean (slot + overlay).
  i64 familyRecordSends = 0;
  PlanCache::Stats memory;
  bool haveDisk = false;
  DiskPlanCache::Stats disk;

  static constexpr void fields(auto& v) {
    v.tag(kTagStatsReply, "StatsReply");
    v("connections", &WireStats::connections);
    v("requests", &WireStats::requests);
    v("compiles", &WireStats::compiles);
    v("compileErrors", &WireStats::compileErrors);
    v("protocolErrors", &WireStats::protocolErrors);
    v("familyFastPath", &WireStats::familyFastPath);
    v("familyRecordSends", &WireStats::familyRecordSends);
    v("memory", &WireStats::memory);
    v("haveDisk", &WireStats::haveDisk);
    v("disk", &WireStats::disk);
  }
};

std::string encodeStatsReply(const WireStats& stats);
WireStats decodeStatsReply(std::string_view payload);

struct WireError {
  bool shuttingDown = false;  ///< graceful-drain refusal, not a failure
  std::string message;

  static constexpr void fields(auto& v) {
    v.tag(kTagErrorReply, "ErrorReply");
    v("shuttingDown", &WireError::shuttingDown);
    v("message", &WireError::message);
  }
};

std::string encodeErrorReply(const WireError& error);
WireError decodeErrorReply(std::string_view payload);

// ---- socket framing ------------------------------------------------------

enum class ReadStatus {
  Ok,
  Eof,    ///< peer closed cleanly before any header byte
  Error,  ///< malformed frame or I/O failure (message in `error`)
};

/// Writes one frame (send with MSG_NOSIGNAL, short writes retried).
/// Returns false on any error — a closed peer must not kill the process.
bool writeFrame(int fd, MsgType type, std::string_view payload);

/// Reads one frame: header, validation, then exactly `length` payload
/// bytes, checksum-verified. Never throws; malformed input and truncation
/// mid-frame report ReadStatus::Error with a diagnostic in `error`.
ReadStatus readFrame(int fd, MsgType& type, std::string& payload, std::string& error);

}  // namespace emm::svc
