// Dependence analysis in the polyhedral model.
//
// For every pair of references to the same array where at least one is a
// write, we build dependence polyhedra over the combined space
// [src iteration vector, dst iteration vector, params]: both instances in
// their domains, accessing the same element, with the source scheduled
// strictly before the destination. Lexicographic precedence is split into
// one polyhedron per common schedule depth, as is standard.
//
// Consumers:
//  - the transformation framework (permutable bands need non-negative
//    dependence components; skewing legality),
//  - the Section 3.1.4 copy-set optimization (live-in / live-out elements),
//  - tests asserting dependube preservation of generated code.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/program.h"

namespace emm {

enum class DepKind { Flow, Anti, Output };  // RAW, WAR, WAW
constexpr DepKind enumMax(DepKind) { return DepKind::Output; }

struct Dependence {
  int srcStmt = -1;
  int dstStmt = -1;
  int srcAccess = -1;  ///< index into src statement's accesses
  int dstAccess = -1;
  DepKind kind = DepKind::Flow;
  /// dim = srcDim + dstDim; column layout [src iters, dst iters, params, 1].
  Polyhedron poly;
  int srcDim = 0;
  int dstDim = 0;

  std::string str(const ProgramBlock& block) const;

  static constexpr void fields(auto& v) {
    v.tag(kTagDependence, "Dependence");
    v("srcStmt", &Dependence::srcStmt);
    v("dstStmt", &Dependence::dstStmt);
    v("srcAccess", &Dependence::srcAccess);
    v("dstAccess", &Dependence::dstAccess);
    v("kind", &Dependence::kind);
    v("poly", &Dependence::poly);
    v("srcDim", &Dependence::srcDim);
    v("dstDim", &Dependence::dstDim);
  }
};

/// Sign summary of an integer quantity over a (possibly unbounded) set.
enum class SignRange {
  Zero,         ///< always 0
  NonNegative,  ///< >= 0, sometimes > 0
  NonPositive,  ///< <= 0, sometimes < 0
  Positive,     ///< always >= 1
  Negative,     ///< always <= -1
  Mixed,        ///< takes both signs (or unknown)
};
constexpr SignRange enumMax(SignRange) { return SignRange::Mixed; }

/// The dependence walker: builds the block's dependences one at a time and
/// hands each to `visit`, in a fixed order (source statement, destination
/// statement, source access, destination access, precedence depth). The
/// walk stops as soon as `visit` returns false, so a caller that needs only
/// a prefix (the skew search rejects a candidate at its first bad
/// dependence) builds no polyhedra beyond it. Returns false iff stopped.
bool visitDependences(const ProgramBlock& block, const std::function<bool(Dependence&&)>& visit);

/// All dependences of the block (self-dependences included), in the
/// walker's order.
std::vector<Dependence> computeDependences(const ProgramBlock& block);

/// Sign of the dependence distance on common loop `loop` (i.e.
/// dst_iter[loop] - src_iter[loop]) over the whole dependence polyhedron,
/// universally over parameters. Conservative: returns Mixed when bounds
/// cannot be established.
SignRange distanceSign(const Dependence& dep, int loop);

/// Combines per-dependence signs into a per-loop summary across `deps`
/// restricted to loops common to both statements.
SignRange combineSigns(SignRange a, SignRange b);

/// The read access of `st`'s accumulate form X = X (+) f(...), or -1. The
/// form needs (+) to be associative and commutative (add, mul, min, max),
/// the read to have the written access function, and X to be read nowhere
/// else in the statement: no other access to X's array, no load of it in f.
int accumulateReadAccess(const Statement& st);

/// True for a reduction dependence: both ends are one statement's
/// accumulate form (accumulateReadAccess), so the dependence only orders
/// the terms of an associative update and any order of them is legal.
bool isReductionDependence(const ProgramBlock& block, const Dependence& dep);

}  // namespace emm
