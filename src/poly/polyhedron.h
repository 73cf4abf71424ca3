// Parametric integer polyhedra with exact arithmetic.
//
// This module substitutes for PolyLib and PIP in the paper's toolchain:
// it provides images of iteration spaces under affine access functions,
// intersection, emptiness, set difference, and parametric per-dimension
// bounds (the quantity the paper obtains from PIP).
//
// A polyhedron lives in a space of `dim` set variables and `nparam`
// parameters. Every constraint row has dim + nparam + 1 entries laid out as
//   [x_0 ... x_{dim-1}  p_0 ... p_{nparam-1}  const]
// Equalities mean row . v == 0, inequalities mean row . v >= 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "support/fields.h"

namespace emm {

/// An affine form with an integer divisor, used for quasi-affine loop
/// bounds: value = floor_or_ceil( (coeffs . [outer vars, params, 1]) / den ).
struct DivExpr {
  IntVec coeffs;  ///< over [vars..., params..., 1]; length fixed by context
  i64 den = 1;    ///< positive divisor

  /// Evaluates with `vals` = concatenated variable+parameter values,
  /// applying floor (for upper bounds) or ceil (for lower bounds).
  i64 evalFloor(const IntVec& vals) const;
  i64 evalCeil(const IntVec& vals) const;

  static constexpr void fields(auto& v) {
    v.tag(kTagDivExpr, "DivExpr");
    v("coeffs", &DivExpr::coeffs);
    v("den", &DivExpr::den);
  }
};

/// Bounds of one dimension: lower = max over ceil-forms, upper = min over
/// floor-forms. This is exactly the shape of CLooG loop bounds.
struct DimBounds {
  std::vector<DivExpr> lower;
  std::vector<DivExpr> upper;

  /// Evaluates max of lower bounds at a concrete point.
  i64 evalLower(const IntVec& vals) const;
  /// Evaluates min of upper bounds at a concrete point.
  i64 evalUpper(const IntVec& vals) const;

  static constexpr void fields(auto& v) {
    v.tag(kTagDimBounds, "DimBounds");
    v("lower", &DimBounds::lower);
    v("upper", &DimBounds::upper);
  }
};

/// A conjunction of affine equality/inequality constraints over integer
/// set variables and parameters.
class Polyhedron {
public:
  Polyhedron() = default;
  Polyhedron(int dim, int nparam)
      : dim_(dim), nparam_(nparam), eqs_(0, dim + nparam + 1), ineqs_(0, dim + nparam + 1) {
    EMM_CHECK(dim >= 0 && nparam >= 0, "negative polyhedron shape");
  }

  /// Copies and moves carry the stored isEmpty() answer and the
  /// simplified mark.
  Polyhedron(const Polyhedron& o)
      : markedEmpty_(o.markedEmpty_),
        simplified_(o.simplified_),
        dim_(o.dim_),
        nparam_(o.nparam_),
        eqs_(o.eqs_),
        ineqs_(o.ineqs_),
        emptiness_(o.emptiness_.load(std::memory_order_relaxed)) {}
  Polyhedron(Polyhedron&& o) noexcept
      : markedEmpty_(o.markedEmpty_),
        simplified_(o.simplified_),
        dim_(o.dim_),
        nparam_(o.nparam_),
        eqs_(std::move(o.eqs_)),
        ineqs_(std::move(o.ineqs_)),
        emptiness_(o.emptiness_.load(std::memory_order_relaxed)) {}
  Polyhedron& operator=(const Polyhedron& o) {
    if (this != &o) *this = Polyhedron(o);
    return *this;
  }
  Polyhedron& operator=(Polyhedron&& o) noexcept {
    markedEmpty_ = o.markedEmpty_;
    simplified_ = o.simplified_;
    dim_ = o.dim_;
    nparam_ = o.nparam_;
    eqs_ = std::move(o.eqs_);
    ineqs_ = std::move(o.ineqs_);
    emptiness_.store(o.emptiness_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  /// The universe polyhedron (no constraints).
  static Polyhedron universe(int dim, int nparam) { return Polyhedron(dim, nparam); }

  int dim() const { return dim_; }
  int nparam() const { return nparam_; }
  int cols() const { return dim_ + nparam_ + 1; }

  const IntMat& equalities() const { return eqs_; }
  const IntMat& inequalities() const { return ineqs_; }
  int numConstraints() const { return eqs_.rows() + ineqs_.rows(); }

  /// Adds row . v == 0.
  void addEquality(std::span<const i64> row);
  void addEquality(const IntVec& row) { addEquality(std::span<const i64>(row)); }
  /// Adds row . v >= 0.
  void addInequality(std::span<const i64> row);
  void addInequality(const IntVec& row) { addInequality(std::span<const i64>(row)); }

  /// Convenience: adds lo <= x_var <= hi for constants lo, hi.
  void addRange(int var, i64 lo, i64 hi);
  /// Convenience: x_var >= coeffs . [x,p,1].
  void addLowerBound(int var, const IntVec& coeffs);
  /// Convenience: x_var <= coeffs . [x,p,1].
  void addUpperBound(int var, const IntVec& coeffs);

  /// Gcd-normalizes rows, drops tautologies and duplicates. Returns false if
  /// a trivially unsatisfiable constraint (e.g. 0 >= 1 or gcd test on an
  /// equality) was found, in which case the polyhedron is marked empty.
  ///
  /// The output is a canonical form that serialized plans (and so the
  /// golden bytes) depend on:
  /// - equalities are divided by the gcd of their coefficients, signed so
  ///   the first nonzero coefficient is positive, and kept in first-seen
  ///   order with later duplicates dropped;
  /// - inequalities are tightened to a.x/g + floor(c/g) >= 0, sorted
  ///   lexicographically over the whole row, and one row per coefficient
  ///   vector is kept: the one with the smallest (tightest) constant;
  /// - constant rows that always hold (0 == 0, or c >= 0 for a constant
  ///   c >= 0) are dropped;
  /// - a set marked empty keeps the rows it had when the contradiction was
  ///   found: all of them unchanged for a contradictory equality, the
  ///   normalized equalities and the unchanged inequalities for a
  ///   contradictory inequality.
  /// The form is a fixed point: simplifying it again changes nothing, so
  /// the polyhedron remembers it is simplified until a row is added.
  /// Overflow throws ApiError as the checked arithmetic does, leaving the
  /// equalities normalized if it happens among the inequalities.
  bool simplify();

  /// True when the polyhedron is syntactically marked empty or the rational
  /// relaxation is infeasible (Fourier-Motzkin over all variables and
  /// parameters). Exact for the integer sets in this codebase's test
  /// regime; a rational-feasible, integer-empty set would only weaken
  /// (never break) downstream decisions, since callers use emptiness to
  /// prune overlap/dependence candidates.
  ///
  /// The answer is computed once and stored; every member that changes the
  /// constraints forgets it. Concurrent calls on one shared const
  /// polyhedron are safe (they at worst compute the same answer twice).
  bool isEmpty() const;
  /// The stored isEmpty() answer, without computing one: nullopt until
  /// isEmpty() (or simplify() finding a contradiction) has decided it.
  std::optional<bool> storedEmptiness() const {
    const std::int8_t known = emptiness_.load(std::memory_order_relaxed);
    if (known == kUnknown) return std::nullopt;
    return known == kEmpty;
  }

  /// True when simplify() (or an operation on a marked operand) has marked
  /// the set empty: a syntactic fact, unlike isEmpty(), which also runs
  /// Fourier-Motzkin elimination.
  bool markedEmpty() const { return markedEmpty_; }

  /// True if this polyhedron contains the point (vars, params are given as
  /// one concatenated vector of length dim + nparam).
  bool contains(const IntVec& point) const;

  /// Projects out (existentially quantifies) variable `var` in [0, dim).
  Polyhedron eliminated(int var) const;

  /// Projects onto the first `keep` variables (eliminates the rest).
  Polyhedron projectedOnto(int keep) const;

  /// Inserts `count` fresh unconstrained variables starting at position
  /// `pos`; existing constraints are re-indexed.
  Polyhedron withInsertedVars(int pos, int count) const;

  /// Intersection. Both operands must have identical (dim, nparam).
  static Polyhedron intersect(const Polyhedron& a, const Polyhedron& b);

  /// Image of this polyhedron under the affine map `f`. `f` has one row per
  /// output dimension and dim + nparam + 1 columns. The result has f.rows()
  /// set variables and the same parameters:
  ///   { y | exists x in this : y = f(x, p) }.
  Polyhedron image(const IntMat& f) const;

  /// Preimage under the affine map `f`: { x | f(x, p) in this }.
  /// `f` has dim() rows and newDim + nparam + 1 columns.
  Polyhedron preimage(const IntMat& f, int newDim) const;

  /// Parametric bounds of variable `var` as functions of the *parameters
  /// only* (all other set variables are projected out first). DivExpr
  /// coefficient vectors have nparam + 1 entries.
  DimBounds paramBounds(int var) const;

  /// Bounds of variable `var` as functions of variables 0..var-1 and the
  /// parameters (variables var+1.. are projected out). DivExpr coefficient
  /// vectors have var + nparam + 1 entries. This is the loop-bound query
  /// used by code generation.
  DimBounds loopBounds(int var) const;

  /// Renames nothing but returns a copy with parameters turned into set
  /// variables (appended after existing vars), e.g. to test emptiness over
  /// the combined space explicitly.
  Polyhedron paramsAsVars() const;

  std::string str() const;

private:
  /// States of the stored isEmpty() answer.
  enum : std::int8_t { kUnknown = 0, kEmpty = 1, kNonEmpty = 2 };

  void forgetEmptiness() { emptiness_.store(kUnknown, std::memory_order_relaxed); }
  /// Marks the set empty (and stores that answer); returns false, the
  /// value simplify() reports for an empty set.
  bool markEmpty() {
    markedEmpty_ = true;
    emptiness_.store(kEmpty, std::memory_order_relaxed);
    return false;
  }

  bool markedEmpty_ = false;
  /// True while the rows are simplify()'s canonical form (set by a
  /// successful simplify(), cleared by every added row), so eliminated()
  /// and isEmpty() work on the rows directly instead of simplifying a copy.
  /// Written only by non-const members.
  bool simplified_ = false;
  int dim_ = 0;
  int nparam_ = 0;
  IntMat eqs_;
  IntMat ineqs_;
  /// isEmpty()'s answer once computed. A fact about the constraints alone,
  /// so relaxed ordering suffices: a reader sees either kUnknown (and
  /// recomputes) or the one answer every thread computes.
  mutable std::atomic<std::int8_t> emptiness_{kUnknown};
};

/// Drops the leading `count` coefficient slots of a bound form. Used to
/// turn a loop/paramBounds DivExpr over [outer vars, params, 1] into one
/// over [params, 1] when the leading variable coefficients are known to be
/// zero (rectangular bounds) — the single place that encodes this slicing.
DivExpr dropLeadingCoeffs(const DivExpr& e, int count);

/// Disjunction of polyhedra (all with identical dim/nparam).
using PolySet = std::vector<Polyhedron>;

/// A \ B as a union of disjoint polyhedra.
PolySet setDifference(const Polyhedron& a, const Polyhedron& b);

/// Rewrites a list of (possibly overlapping) polyhedra into an equivalent
/// list of pairwise-disjoint polyhedra covering the same integer points.
/// Order bias: earlier inputs keep their full region; later inputs are
/// trimmed. Empty pieces are dropped.
PolySet makeDisjoint(const PolySet& pieces);

/// True when the two polyhedra share at least one rational point.
bool overlaps(const Polyhedron& a, const Polyhedron& b);

/// Partitions indices [0, n) into connected components of the overlap graph
/// of `sets` (the partitioning step of the paper's Section 3.1).
std::vector<std::vector<int>> overlapComponents(const PolySet& sets);

}  // namespace emm
