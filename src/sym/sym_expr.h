// Symbolic quasi-affine expressions over named parameters.
//
// This is the expression layer behind the parametric tile analysis: the
// Section-3 cost model is built once with tile sizes T1..Tk as symbols, and
// every candidate evaluation reduces to evaluating SymExpr trees at a
// concrete binding — no polyhedral work in the inner loop. The tile plan
// compiles its trees into flat op tables that evaluate exactly like eval
// and evalInterval below (tilesearch/parametric_plan.h); the runtime
// binder's guards and argument slots evaluate trees directly.
//
// The expression language mirrors exactly what the analysis produces:
// affine terms over parameters, floor/ceil division by positive divisors
// (quasi-affine loop and data-space bounds), min/max (CLooG-style bound
// lists), and products (footprints, trip-count occurrences). Three
// evaluators are provided:
//   - eval:         exact i64 evaluation with checked arithmetic,
//   - evalRat:      exact evaluation at rational parameter points (floor /
//                   ceil nodes round to integers, as in the integer model),
//   - evalInterval: conservative [lo, hi] enclosure over a parameter box,
//                   exact for the monotone operators used here; the tile
//                   search uses it to reason about whole candidate ranges
//                   without enumerating them.
//
// Nodes are immutable and shared (shared_ptr DAG); constructors fold
// constants so instantiated plans stay small.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "support/checked_int.h"
#include "support/rational.h"

namespace emm {

/// Closed integer interval [lo, hi]. An empty box is never produced by
/// evalInterval; callers supply non-empty per-parameter ranges.
struct SymInterval {
  i64 lo = 0;
  i64 hi = 0;
};

class SymExpr;
using SymPtr = std::shared_ptr<const SymExpr>;

class SymExpr {
public:
  enum class Kind { Const, Param, Add, Mul, FloorDiv, CeilDiv, Min, Max };

  static SymPtr constant(i64 v);
  /// Parameter `index` into the evaluation binding; `name` is for printing.
  static SymPtr param(int index, std::string name);
  static SymPtr add(SymPtr a, SymPtr b);
  static SymPtr sub(SymPtr a, SymPtr b);
  static SymPtr mul(SymPtr a, SymPtr b);
  /// floor(num / den); `den` must evaluate to a positive value.
  static SymPtr floorDiv(SymPtr num, SymPtr den);
  /// ceil(num / den); `den` must evaluate to a positive value.
  static SymPtr ceilDiv(SymPtr num, SymPtr den);
  static SymPtr min(SymPtr a, SymPtr b);
  static SymPtr max(SymPtr a, SymPtr b);

  /// Affine combination helper: cnst + sum coeffs[i] * exprs[i] (terms with
  /// zero coefficient are dropped; an empty sum folds to a constant).
  static SymPtr affine(i64 cnst, const std::vector<std::pair<i64, SymPtr>>& terms);

  Kind kind() const { return kind_; }
  i64 constValue() const { return cval_; }
  int paramIndex() const { return paramIdx_; }
  const std::string& paramName() const { return name_; }
  const SymPtr& lhs() const { return a_; }
  const SymPtr& rhs() const { return b_; }

  /// Exact evaluation; `params[i]` binds parameter index i. Checked i64
  /// arithmetic throughout (aborts on overflow, like the concrete analysis).
  i64 eval(const std::vector<i64>& params) const;

  /// Exact evaluation at rational parameter values; FloorDiv/CeilDiv nodes
  /// round to integers exactly as the integer evaluator does.
  Rat evalRat(const std::vector<Rat>& params) const;

  /// Conservative interval enclosure over the parameter box. Exact for
  /// Add/Min/Max/div-by-positive-constant; products use the four-corner
  /// rule (exact interval arithmetic over the reals, a sound enclosure for
  /// the integer points used here).
  SymInterval evalInterval(const std::vector<SymInterval>& params) const;

  /// Largest parameter index mentioned, or -1 for closed expressions.
  int maxParamIndex() const;

  std::string str() const;

private:
  SymExpr() = default;
  static SymPtr node(Kind kind, SymPtr a, SymPtr b);

  Kind kind_ = Kind::Const;
  i64 cval_ = 0;
  int paramIdx_ = -1;
  std::string name_;
  SymPtr a_, b_;
};

}  // namespace emm
