// Stable structural fingerprints for compilation-service cache keys.
//
// hashProgramBlock digests everything that determines a ProgramBlock's
// compilation: names, parameters, array shapes, statement domains, access
// functions, schedules, and the expression trees of statement bodies. Two
// blocks built independently through the same sequence of IR constructions
// hash equal; any mutation of a bound, statement, or access changes the
// digest. hashCompileOptions does the same for the full option set, so
// (block fingerprint, options fingerprint) keys the driver's PlanCache.
//
// Both walk the structs' field lists (support/fields.h) with the plan
// format's writer, digesting its bytes except the derived emptiness answer
// of each polyhedron, so a key never runs Fourier-Motzkin elimination. The
// collision digests (digestProgramBlock, digestCompileOptions) walk the
// same way with the syntactic empty mark in that byte's place.
// The digest is 64-bit FNV-1a over length-prefixed fields, which keeps it
// stable across processes and platforms (no pointer or iteration-order
// dependence). It is a cache key, not a cryptographic commitment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/checked_int.h"

namespace emm {

struct ProgramBlock;
struct CompileOptions;

using u64 = std::uint64_t;

/// Incremental FNV-1a digest with typed, length-prefixed field mixing.
class Hasher {
public:
  void bytes(const void* data, size_t n);
  void mix(i64 v);
  void mix(u64 v);
  void mix(int v) { mix(static_cast<i64>(v)); }
  void mix(double v);  ///< bit-pattern digest (distinguishes -0.0 from 0.0)
  void mix(const std::string& s);
  void mix(const std::vector<std::string>& v);

  u64 digest() const { return state_; }

private:
  u64 state_ = 14695981039346656037ull;  // FNV offset basis
};

/// Structural fingerprint of a program block (see file comment).
u64 hashProgramBlock(const ProgramBlock& block);

/// Canonical fingerprint of a full option set. Every field that can change
/// any pipeline product participates.
u64 hashCompileOptions(const CompileOptions& options);

/// The collision-guard digests of the family and disk tiers: the FNV-1a
/// digest of the bytes serializeProgramBlock / serializeCompileOptions
/// write, streamed with no buffer. Where the encoder writes a polyhedron's
/// derived isEmpty() answer these write its syntactic mark
/// (Polyhedron::markedEmpty), so a digest runs no Fourier-Motzkin
/// elimination. It equals digestBytes of the encoding unless a polyhedron
/// is empty by elimination but unmarked.
u64 digestProgramBlock(const ProgramBlock& block);
u64 digestCompileOptions(const CompileOptions& options);

/// Order-independent-free combiner for composite keys (hash of hashes).
u64 hashCombine(u64 a, u64 b);

}  // namespace emm
