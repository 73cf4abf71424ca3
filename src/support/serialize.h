// Versioned binary serialization for compilation plans.
//
// The on-disk plan cache (driver/disk_cache.h) persists finished
// CompileResults so `emmapc` runs and service restarts start warm. This
// module provides the byte format: a tagged, length-prefixed, endian-stable
// encoding (every multi-byte value is little-endian, assembled by shifts, so
// files are portable across hosts) with deserializers that are safe on hostile input —
// every read is bounds-checked and every malformed tag, count, enum value or
// truncation throws SerializeError instead of crashing or fabricating a
// plan.
//
// Each struct's wire layout is its field list (support/fields.h), walked by
// one generic writer (support/field_codec.h) and one generic reader; the
// same lists feed the cache keys (support/fingerprint.h) and the schema
// manifest.
//
// Versioning has two layers (see docs/PLAN_FORMAT.md for the policy):
//  - kPlanFormatVersion: the container framing (header layout, tag
//    discipline). Bumped when the envelope changes shape.
//  - serializeSchemaFingerprint(): a digest of the schema manifest, which
//    is generated from the field lists and names every serialized struct
//    field by field. Any change to a list changes the fingerprint, which
//    makes older files reject cleanly. This is the "build fingerprint" of
//    the .emmplan header.
//
// Round-trip guarantee: deserializeCompileResult(serializeCompileResult(r))
// reproduces r field by field — same emitted artifact bytes, same costs and
// tile choices, same diagnostics and timings — with the internal
// back-pointers (CodeUnit::source, DataPlan::block) rebound to the
// deserialized blocks, as a copy rebinds them (support/deep_ptr.h).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "support/checked_int.h"

namespace emm {

struct CompileResult;
struct CompileOptions;
struct FamilyPlan;
struct ProgramBlock;

using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Thrown on any malformed input: truncation, tag mismatch, out-of-range
/// enum or count, checksum failure. The disk cache treats every
/// SerializeError as "entry unusable" and falls through to a cold compile.
class SerializeError : public std::runtime_error {
public:
  explicit SerializeError(const std::string& what) : std::runtime_error(what) {}
};

/// Container format version (the .emmplan / .emmfam envelope). Bump on
/// framing changes; readers reject any other value. v2 added the
/// kernel-family records (.emmfam) and the family/pruning fields of the
/// tile-search result; v3 added banked buffer layouts (LocalBuffer padding,
/// the BufferLayout product, and the packing/banking compile options); v4
/// added runtime-size-bound codegen (ArtifactInfo bind slots and guards, the
/// symbolic benefit-verdict plan fields, and the size-generic compiled
/// record embedded in .emmfam files); v5 added the tile plan's tilable
/// depth, the loop prefix a tile may split (the family binder's ladders
/// read it) — see docs/PLAN_FORMAT.md.
inline constexpr u32 kPlanFormatVersion = 5;

/// The schema manifest: every serialized struct as "Name@tag{field:type,...};"
/// in wire order, generated from the field lists.
const std::string& serializeSchemaManifest();

/// Digest of the schema manifest compiled into this binary. Two binaries
/// agree on this value iff they agree on every serialized struct layout.
u64 serializeSchemaFingerprint();

/// FNV-1a digest of a byte range; used for payload checksums and for the
/// collision-guard digests in the .emmplan header.
u64 digestBytes(std::string_view bytes);

/// Append-only little-endian encoder. A multi-byte value is assembled by
/// shifts and appended in one piece, so the bytes do not depend on host
/// endianness.
class ByteWriter {
public:
  void u8(unsigned char v) { buf_.push_back(static_cast<char>(v)); }
  void u32v(u32 v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 4);
  }
  void u64v(u64 v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, 8);
  }
  void i64v(i64 v) { u64v(static_cast<u64>(v)); }
  void intv(int v) { i64v(static_cast<i64>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v);  ///< bit-pattern; round-trips -0.0 and NaN exactly
  void str(const std::string& s);
  void bytes(const void* data, size_t n);

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range. Every
/// accessor throws SerializeError on truncation; counts are validated
/// against the remaining bytes before any allocation, so a corrupt length
/// field cannot trigger a huge allocation or an out-of-range read.
class ByteReader {
public:
  explicit ByteReader(std::string_view bytes) : data_(bytes) {}

  unsigned char u8() { return *need(1); }
  u32 u32v() {
    const unsigned char* p = need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
    return v;
  }
  u64 u64v() {
    const unsigned char* p = need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
    return v;
  }
  i64 i64v() { return static_cast<i64>(u64v()); }
  int intv();  ///< i64 narrowed with range check
  bool boolean();
  double f64();
  std::string str();

  /// Validates a count field: the remaining input must hold at least
  /// `count * minBytesPerElement` bytes. Returns the count.
  u64 count(u64 minBytesPerElement = 1);

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool atEnd() const { return pos_ == data_.size(); }
  /// Throws unless the input is fully consumed (trailing garbage check).
  void expectEnd() const;

private:
  /// The next `n` bytes, consumed; throws SerializeError when fewer remain.
  const unsigned char* need(size_t n) {
    if (n > remaining()) truncated(n);
    const unsigned char* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += n;
    return p;
  }
  [[noreturn]] void truncated(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

// ---- Plan payloads -------------------------------------------------------

/// Encodes a finished CompileResult (products, verdict, diagnostics,
/// timings). cacheHit/diskHit are transport flags owned by the cache tiers
/// and are not part of the payload.
std::string serializeCompileResult(const CompileResult& result);

/// Decodes a payload produced by serializeCompileResult, rebinding internal
/// back-pointers. Throws SerializeError on any malformation.
CompileResult deserializeCompileResult(std::string_view bytes);

/// Computes and stores every derived answer the encoder consults — each
/// polyhedron's emptiness (Polyhedron::isEmpty) — by running the
/// serializeCompileResult walk once and dropping the bytes. Clones taken
/// afterwards inherit the answers, so encoding them does no polyhedral
/// work. The cache tiers call this on a plan before publishing it.
void settleDerivedAnswers(const CompileResult& result);

/// Canonical byte encodings. The collision-guard digests in the .emmplan
/// header are digests of these bytes, streamed without building them
/// (digestProgramBlock / digestCompileOptions in support/fingerprint.h):
/// the 64-bit cache key has no collision resistance, so the disk cache
/// stores the digests and re-derives them at lookup; a colliding key with a
/// different block or option set is rejected and falls through to a cold
/// compile.
std::string serializeProgramBlock(const ProgramBlock& block);
std::string serializeCompileOptions(const CompileOptions& options);

/// Decodes a payload produced by serializeProgramBlock, validating the
/// reconstructed block (ApiErrors from validation are converted, so hostile
/// bytes never abort). The service wire protocol (service/protocol.h) ships
/// program blocks in this encoding. Throws SerializeError on any
/// malformation.
ProgramBlock deserializeProgramBlock(std::string_view bytes);

/// Decodes a payload produced by serializeCompileOptions (enum fields are
/// range-checked). Throws SerializeError on any malformation.
CompileOptions deserializeCompileOptions(std::string_view bytes);

/// Encodes a kernel-family plan (driver/family_plan.h): the family-invariant
/// dependence/transform products plus the size-generic parametric tile plan
/// (SymExpr formulas, overlap predicates, geometry pools). Backs the
/// .emmfam records of the disk cache.
std::string serializeFamilyPlan(const FamilyPlan& plan);

/// Decodes a payload produced by serializeFamilyPlan. Throws SerializeError
/// on any malformation (ApiErrors from reconstructed-value validation are
/// converted, so hostile bytes never abort).
std::shared_ptr<const FamilyPlan> deserializeFamilyPlan(std::string_view bytes);

}  // namespace emm
