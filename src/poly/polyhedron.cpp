#include "poly/polyhedron.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace emm {

i64 DivExpr::evalFloor(const IntVec& vals) const {
  EMM_CHECK(vals.size() + 1 == coeffs.size(), "DivExpr evaluation arity mismatch");
  i128 acc = coeffs.back();
  for (size_t i = 0; i < vals.size(); ++i) acc += static_cast<i128>(coeffs[i]) * vals[i];
  return floorDiv(narrow(acc), den);
}

i64 DivExpr::evalCeil(const IntVec& vals) const {
  EMM_CHECK(vals.size() + 1 == coeffs.size(), "DivExpr evaluation arity mismatch");
  i128 acc = coeffs.back();
  for (size_t i = 0; i < vals.size(); ++i) acc += static_cast<i128>(coeffs[i]) * vals[i];
  return ceilDiv(narrow(acc), den);
}

i64 DimBounds::evalLower(const IntVec& vals) const {
  EMM_CHECK(!lower.empty(), "dimension has no lower bound");
  i64 best = lower.front().evalCeil(vals);
  for (size_t i = 1; i < lower.size(); ++i) best = std::max(best, lower[i].evalCeil(vals));
  return best;
}

i64 DimBounds::evalUpper(const IntVec& vals) const {
  EMM_CHECK(!upper.empty(), "dimension has no upper bound");
  i64 best = upper.front().evalFloor(vals);
  for (size_t i = 1; i < upper.size(); ++i) best = std::min(best, upper[i].evalFloor(vals));
  return best;
}

void Polyhedron::addEquality(std::span<const i64> row) {
  EMM_CHECK(static_cast<int>(row.size()) == cols(), "constraint width mismatch");
  eqs_.appendRow(row);
  simplified_ = false;
  forgetEmptiness();
}

void Polyhedron::addInequality(std::span<const i64> row) {
  EMM_CHECK(static_cast<int>(row.size()) == cols(), "constraint width mismatch");
  ineqs_.appendRow(row);
  simplified_ = false;
  forgetEmptiness();
}

void Polyhedron::addRange(int var, i64 lo, i64 hi) {
  EMM_CHECK(var >= 0 && var < dim_, "variable index out of range");
  IntVec lower(cols(), 0), upper(cols(), 0);
  lower[var] = 1;
  lower.back() = -lo;  // x - lo >= 0
  upper[var] = -1;
  upper.back() = hi;  // hi - x >= 0
  addInequality(lower);
  addInequality(upper);
}

void Polyhedron::addLowerBound(int var, const IntVec& coeffs) {
  EMM_CHECK(static_cast<int>(coeffs.size()) == cols(), "bound width mismatch");
  IntVec row(cols());
  for (int j = 0; j < cols(); ++j) row[j] = narrow(-static_cast<i128>(coeffs[j]));
  row[var] = addChecked(row[var], 1);  // x - expr >= 0
  addInequality(row);
}

void Polyhedron::addUpperBound(int var, const IntVec& coeffs) {
  EMM_CHECK(static_cast<int>(coeffs.size()) == cols(), "bound width mismatch");
  IntVec row = coeffs;
  row[var] = subChecked(row[var], 1);  // expr - x >= 0
  addInequality(row);
}

// ---- The Fourier-Motzkin core. ----
//
// Rows live in the IntMats' flat row-major storage and are rewritten there:
// a row is an `n`-entry pointer (n = cols(), the constant last), and no
// step allocates per row.

namespace {

bool isZeroButConst(const i64* row, int n) {
  for (int i = 0; i + 1 < n; ++i)
    if (row[i] != 0) return false;
  return true;
}

/// Gcd of a row's coefficients (the constant excluded). Stops at 1, so
/// callers must already have ruled out an INT64_MIN coefficient, on which
/// gcd64 throws.
i64 coeffGcd(const i64* row, int n) {
  i64 g = 0;
  for (int i = 0; i + 1 < n && g != 1; ++i) g = gcd64(g, row[i]);
  return g;
}

/// Throws gcd64's ApiError when a coefficient is INT64_MIN, as a full gcd
/// of the row would.
void requireGcdRange(const i64* row, int n) {
  for (int i = 0; i + 1 < n; ++i)
    if (row[i] == INT64_MIN) gcd64(row[i], 0);
}

i64 leadingCoeff(const i64* row, int n) {
  for (int i = 0; i + 1 < n; ++i)
    if (row[i] != 0) return row[i];
  return 0;
}

/// Copies `row` without column `var`.
void copyDroppingColumn(const i64* row, int n, int var, i64* out) {
  out = std::copy(row, row + var, out);
  std::copy(row + var + 1, row + n, out);
}

/// Cancels column `var` of `row` with the equality `eq` (eq[var] != 0): a
/// positive multiple of `row` plus a multiple of `eq`, written without
/// column `var`.
void substituteRow(const i64* row, const i64* eq, int n, int var, i64* out) {
  if (row[var] == 0) return copyDroppingColumn(row, n, var, out);
  const i64 c = eq[var];
  const i64 g = gcd64(c, row[var]);
  const i64 fr = (c < 0 ? -c : c) / g;  // positive scale of the row
  const i64 fe = -(row[var] * ((c < 0) ? -1 : 1)) / g;
  for (int j = 0; j < n; ++j) {
    const i64 v = mulAddChecked(fr, row[j], fe, eq[j]);
    if (j == var)
      EMM_CHECK(v == 0, "equality substitution failed to cancel");
    else
      *out++ = v;
  }
}

/// The Fourier-Motzkin combination of `pos` (pos[var] > 0) and `neg`
/// (neg[var] < 0) that cancels column `var`, divided by the gcd of all its
/// entries and written without column `var`.
void combineRows(const i64* pos, const i64* neg, int n, int var, i64* out) {
  const i64 a = pos[var];
  const i64 b = neg[var];
  const i64 g = gcd64(a, b);
  const i64 fp = -b / g;  // multiplier for pos, positive
  const i64 fn = a / g;   // multiplier for neg, positive
  i64* o = out;
  for (int j = 0; j < n; ++j) {
    const i64 v = mulAddChecked(fp, pos[j], fn, neg[j]);
    if (j == var)
      EMM_CHECK(v == 0, "FM combination failed to cancel");
    else
      *o++ = v;
  }
  i64 rowGcd = 0;
  for (int j = 0; j + 1 < n; ++j) rowGcd = gcd64(rowGcd, out[j]);
  if (rowGcd > 1)
    for (int j = 0; j + 1 < n; ++j) out[j] /= rowGcd;
}

}  // namespace

bool Polyhedron::simplify() {
  forgetEmptiness();
  if (markedEmpty_) return markEmpty();
  if (simplified_) return true;  // the canonical form is a fixed point
  const int n = cols();

  // Equalities: gcd-normalize; an equality a.x + c == 0 with gcd(a) not
  // dividing c has no integer solution. An empty set keeps its equalities
  // unchanged, so every contradiction (and every overflow) is found before
  // any row is rewritten.
  for (int r = 0; r < eqs_.rows(); ++r) {
    const i64* row = eqs_.rowSpan(r).data();
    if (isZeroButConst(row, n)) {
      if (row[n - 1] != 0) return markEmpty();
      continue;
    }
    requireGcdRange(row, n);
    const i64 g = coeffGcd(row, n);
    if (row[n - 1] % g != 0) return markEmpty();  // integer-infeasible equality
    // Flipping the sign overflows only on an undivided INT64_MIN constant.
    if (g == 1 && leadingCoeff(row, n) < 0) narrow(-static_cast<i128>(row[n - 1]));
  }
  int kept = 0;
  for (int r = 0; r < eqs_.rows(); ++r) {
    i64* row = eqs_.rowSpan(r).data();
    if (isZeroButConst(row, n)) continue;
    const i64 g = coeffGcd(row, n);
    if (g > 1)
      for (int j = 0; j < n; ++j) row[j] /= g;
    // Canonical sign: first nonzero coefficient positive.
    if (leadingCoeff(row, n) < 0)
      for (int j = 0; j < n; ++j) row[j] = -row[j];
    // First-seen order: a row equal to a kept one is dropped.
    bool seen = false;
    for (int k = 0; k < kept && !seen; ++k) seen = std::equal(row, row + n, eqs_.rowSpan(k).data());
    if (seen) continue;
    if (kept != r) std::copy(row, row + n, eqs_.rowSpan(kept).data());
    ++kept;
  }
  eqs_.resizeRows(kept);
  if (eqs_.cols() != n) eqs_ = IntMat(0, n);

  // Inequalities: gcd-tighten (a.x + c >= 0 -> a/g.x + floor(c/g) >= 0),
  // drop tautologies, detect contradictions, dedupe keeping the tightest.
  // An empty set keeps its inequalities unchanged, as above.
  for (int r = 0; r < ineqs_.rows(); ++r) {
    const i64* row = ineqs_.rowSpan(r).data();
    if (isZeroButConst(row, n)) {
      if (row[n - 1] < 0) return markEmpty();
      continue;
    }
    requireGcdRange(row, n);
  }
  int live = 0;
  for (int r = 0; r < ineqs_.rows(); ++r) {
    i64* row = ineqs_.rowSpan(r).data();
    if (isZeroButConst(row, n)) continue;
    const i64 g = coeffGcd(row, n);
    if (g > 1) {
      for (int j = 0; j + 1 < n; ++j) row[j] /= g;
      row[n - 1] = floorDiv(row[n - 1], g);
    }
    if (live != r) std::copy(row, row + n, ineqs_.rowSpan(live).data());
    ++live;
  }
  // Sort row indices lexicographically by the whole row: rows with the
  // same coefficients become adjacent, the smallest (tightest) constant
  // first, and only that one is kept.
  thread_local std::vector<int> order;  // reused, so sorting allocates nothing per call
  order.resize(live);
  for (int r = 0; r < live; ++r) order[r] = r;
  const i64* base = live > 0 ? ineqs_.rowSpan(0).data() : nullptr;
  auto at = [&](int r) { return base + static_cast<size_t>(r) * n; };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::lexicographical_compare(at(a), at(a) + n, at(b), at(b) + n);
  });
  IntMat sorted(0, n);
  sorted.resizeRows(live);
  int out = 0;
  for (int i = 0; i < live; ++i) {
    const i64* row = at(order[i]);
    if (i > 0 && std::equal(row, row + n - 1, at(order[i - 1]))) continue;
    std::copy(row, row + n, sorted.rowSpan(out++).data());
  }
  sorted.resizeRows(out);
  ineqs_ = std::move(sorted);
  simplified_ = true;
  return true;
}

bool Polyhedron::contains(const IntVec& point) const {
  EMM_CHECK(static_cast<int>(point.size()) == dim_ + nparam_, "point arity mismatch");
  if (markedEmpty_) return false;
  // row . [point, 1], exactly as dot() computes it, without copying rows.
  const int n = dim_ + nparam_;
  auto value = [&](const IntMat& m, int r) {
    i128 acc = m.at(r, n);
    for (int j = 0; j < n; ++j) acc += static_cast<i128>(m.at(r, j)) * point[j];
    return narrow(acc);
  };
  for (int r = 0; r < eqs_.rows(); ++r)
    if (value(eqs_, r) != 0) return false;
  for (int r = 0; r < ineqs_.rows(); ++r)
    if (value(ineqs_, r) < 0) return false;
  return true;
}

Polyhedron Polyhedron::eliminated(int var) const {
  EMM_CHECK(var >= 0 && var < dim_, "variable index out of range");
  Polyhedron out(dim_ - 1, nparam_);
  if (markedEmpty_) {
    // Empty set: the projection is the empty set in the smaller space.
    out.markEmpty();
    return out;
  }
  if (!simplified_) {
    Polyhedron work = *this;
    if (!work.simplify()) {
      out.markEmpty();
      return out;
    }
    return work.eliminated(var);
  }
  const int n = cols();
  auto eqRow = [&](int r) { return eqs_.rowSpan(r).data(); };
  auto ineqRow = [&](int r) { return ineqs_.rowSpan(r).data(); };

  // Prefer substitution through an equality that mentions `var`.
  int eqIdx = -1;
  for (int r = 0; r < eqs_.rows() && eqIdx < 0; ++r)
    if (eqRow(r)[var] != 0) eqIdx = r;
  if (eqIdx >= 0) {
    const i64* eq = eqRow(eqIdx);
    out.eqs_.resizeRows(eqs_.rows() - 1);
    int w = 0;
    for (int r = 0; r < eqs_.rows(); ++r)
      if (r != eqIdx) substituteRow(eqRow(r), eq, n, var, out.eqs_.rowSpan(w++).data());
    out.ineqs_.resizeRows(ineqs_.rows());
    for (int r = 0; r < ineqs_.rows(); ++r)
      substituteRow(ineqRow(r), eq, n, var, out.ineqs_.rowSpan(r).data());
    out.simplify();
    return out;
  }

  // Classic Fourier-Motzkin on inequalities: the rows without `var`, then
  // every (positive, negative) pair in row order. No equality mentions
  // `var` here.
  int nPos = 0, nNeg = 0;
  for (int r = 0; r < ineqs_.rows(); ++r) {
    nPos += ineqRow(r)[var] > 0;
    nNeg += ineqRow(r)[var] < 0;
  }
  out.eqs_.resizeRows(eqs_.rows());
  for (int r = 0; r < eqs_.rows(); ++r)
    copyDroppingColumn(eqRow(r), n, var, out.eqs_.rowSpan(r).data());
  // Rows come from outside the program too (decoded plans and requests),
  // so a product past the matrix's int row count is an error, not a wrap.
  const i64 outRows = i64(ineqs_.rows()) - nPos - nNeg + i64(nPos) * nNeg;
  EMM_REQUIRE(outRows <= INT32_MAX, "Fourier-Motzkin elimination exceeds the row limit");
  out.ineqs_.resizeRows(static_cast<int>(outRows));
  int w = 0;
  for (int r = 0; r < ineqs_.rows(); ++r)
    if (ineqRow(r)[var] == 0)
      copyDroppingColumn(ineqRow(r), n, var, out.ineqs_.rowSpan(w++).data());
  for (int p = 0; p < ineqs_.rows(); ++p) {
    if (ineqRow(p)[var] <= 0) continue;
    for (int q = 0; q < ineqs_.rows(); ++q)
      if (ineqRow(q)[var] < 0)
        combineRows(ineqRow(p), ineqRow(q), n, var, out.ineqs_.rowSpan(w++).data());
  }
  out.simplify();
  return out;
}

Polyhedron Polyhedron::projectedOnto(int keep) const {
  EMM_CHECK(keep >= 0 && keep <= dim_, "projection arity out of range");
  if (keep == dim_) return *this;
  Polyhedron cur = eliminated(dim_ - 1);
  while (cur.dim() > keep) cur = cur.eliminated(cur.dim() - 1);
  return cur;
}

Polyhedron Polyhedron::withInsertedVars(int pos, int count) const {
  EMM_CHECK(pos >= 0 && pos <= dim_ && count >= 0, "bad var insertion");
  Polyhedron out(dim_ + count, nparam_);
  out.markedEmpty_ = markedEmpty_;
  IntVec wide(out.cols(), 0);
  auto widen = [&](std::span<const i64> row) -> const IntVec& {
    for (int j = 0; j < pos; ++j) wide[j] = row[j];
    for (int j = pos; j < dim_ + nparam_ + 1; ++j) wide[j + count] = row[j];
    return wide;
  };
  for (int r = 0; r < eqs_.rows(); ++r) out.addEquality(widen(eqs_.rowSpan(r)));
  for (int r = 0; r < ineqs_.rows(); ++r) out.addInequality(widen(ineqs_.rowSpan(r)));
  return out;
}

Polyhedron Polyhedron::intersect(const Polyhedron& a, const Polyhedron& b) {
  EMM_CHECK(a.dim_ == b.dim_ && a.nparam_ == b.nparam_, "intersect arity mismatch");
  Polyhedron out = a;
  out.markedEmpty_ = a.markedEmpty_ || b.markedEmpty_;
  for (int r = 0; r < b.eqs_.rows(); ++r) out.addEquality(b.eqs_.rowSpan(r));
  for (int r = 0; r < b.ineqs_.rows(); ++r) out.addInequality(b.ineqs_.rowSpan(r));
  out.simplify();
  return out;
}

Polyhedron Polyhedron::image(const IntMat& f) const {
  EMM_CHECK(f.cols() == cols(), "access function width mismatch");
  int outDim = f.rows();
  // Space: [y (outDim), x (dim_)], params unchanged.
  Polyhedron joint(outDim + dim_, nparam_);
  joint.markedEmpty_ = markedEmpty_;
  // Embed the domain constraints on x.
  IntVec wide(joint.cols(), 0);
  auto embed = [&](std::span<const i64> row) -> const IntVec& {
    for (int j = 0; j < dim_; ++j) wide[outDim + j] = row[j];
    for (int j = 0; j < nparam_ + 1; ++j) wide[outDim + dim_ + j] = row[dim_ + j];
    return wide;
  };
  for (int r = 0; r < eqs_.rows(); ++r) joint.addEquality(embed(eqs_.rowSpan(r)));
  for (int r = 0; r < ineqs_.rows(); ++r) joint.addInequality(embed(ineqs_.rowSpan(r)));
  // y_i == f_i(x, p).
  for (int i = 0; i < outDim; ++i) {
    IntVec row(joint.cols(), 0);
    row[i] = -1;
    for (int j = 0; j < dim_; ++j) row[outDim + j] = f.at(i, j);
    for (int j = 0; j < nparam_ + 1; ++j) row[outDim + dim_ + j] = f.at(i, dim_ + j);
    joint.addEquality(row);
  }
  // Eliminate the x block.
  for (int k = 0; k < dim_; ++k) joint = joint.eliminated(outDim);
  return joint;
}

Polyhedron Polyhedron::preimage(const IntMat& f, int newDim) const {
  EMM_CHECK(f.rows() == dim_, "preimage map must produce dim() outputs");
  EMM_CHECK(f.cols() == newDim + nparam_ + 1, "preimage map width mismatch");
  Polyhedron out(newDim, nparam_);
  out.markedEmpty_ = markedEmpty_;
  auto substitute = [&](std::span<const i64> row) {
    // row over [x (dim_), p, 1] with x = f(z, p) becomes a row over [z, p, 1].
    IntVec res(newDim + nparam_ + 1, 0);
    for (int j = 0; j < dim_; ++j) {
      if (row[j] == 0) continue;
      for (int c = 0; c < newDim + nparam_ + 1; ++c)
        res[c] = narrow(static_cast<i128>(res[c]) + static_cast<i128>(row[j]) * f.at(j, c));
    }
    for (int j = 0; j < nparam_ + 1; ++j)
      res[newDim + j] = addChecked(res[newDim + j], row[dim_ + j]);
    return res;
  };
  for (int r = 0; r < eqs_.rows(); ++r) out.addEquality(substitute(eqs_.rowSpan(r)));
  for (int r = 0; r < ineqs_.rows(); ++r) out.addInequality(substitute(ineqs_.rowSpan(r)));
  out.simplify();
  return out;
}

bool Polyhedron::isEmpty() const {
  const std::int8_t known = emptiness_.load(std::memory_order_relaxed);
  if (known != kUnknown) return known == kEmpty;
  const bool empty = [&] {
    // Treat parameters as variables for the feasibility check (the
    // canonical form does not depend on which columns are parameters).
    Polyhedron all = paramsAsVars();
    if (!all.simplify()) return true;
    // Eliminate every variable and parameter; what remains are constant
    // rows whose satisfiability simplify() decides.
    while (all.dim() > 0) {
      all = all.eliminated(all.dim() - 1);
      if (all.markedEmpty_) return true;
    }
    return !all.simplify();
  }();
  emptiness_.store(empty ? kEmpty : kNonEmpty, std::memory_order_relaxed);
  return empty;
}

Polyhedron Polyhedron::paramsAsVars() const {
  Polyhedron out(dim_ + nparam_, 0);
  out.markedEmpty_ = markedEmpty_;
  out.simplified_ = simplified_;
  // The rows are unchanged; only a 0x0 default matrix keeps out's shape.
  if (eqs_.rows() > 0) out.eqs_ = eqs_;
  if (ineqs_.rows() > 0) out.ineqs_ = ineqs_;
  return out;
}

namespace {

DimBounds boundsFromConstraints(const Polyhedron& p, int var, int prefixLen) {
  // All constraints mention only vars < prefixLen, `var`, and params.
  DimBounds b;
  auto scan = [&](std::span<const i64> row, bool equality) {
    i64 c = row[var];
    if (c == 0) return;
    // c*var + rest >= 0  (or == 0)
    // c > 0: var >= ceil(-rest / c);  c < 0: var <= floor(rest / -c).
    DivExpr e;
    e.coeffs.resize(prefixLen + (static_cast<int>(row.size()) - 1 - p.dim()) + 1);
    int nparamPlus1 = static_cast<int>(row.size()) - p.dim();  // params + const
    auto rest = [&](int sign) {
      for (int j = 0; j < prefixLen; ++j) e.coeffs[j] = mulChecked(sign, row[j]);
      for (int j = 0; j < nparamPlus1; ++j)
        e.coeffs[prefixLen + j] = mulChecked(sign, row[p.dim() + j]);
    };
    if (c > 0) {
      rest(-1);
      e.den = c;
      b.lower.push_back(e);
      if (equality) {
        DivExpr u = e;
        b.upper.push_back(u);
      }
    } else {
      rest(1);
      e.den = -c;
      b.upper.push_back(e);
      if (equality) {
        DivExpr l = e;
        b.lower.push_back(l);
      }
    }
  };
  for (int r = 0; r < p.equalities().rows(); ++r) scan(p.equalities().rowSpan(r), true);
  for (int r = 0; r < p.inequalities().rows(); ++r) scan(p.inequalities().rowSpan(r), false);
  EMM_CHECK(!b.lower.empty() && !b.upper.empty(),
            "dimension is unbounded; polyhedron is not a polytope in var " + std::to_string(var));
  return b;
}

}  // namespace

DimBounds Polyhedron::paramBounds(int var) const {
  EMM_CHECK(var >= 0 && var < dim_, "variable index out of range");
  // Move `var` to position 0 by eliminating everything else.
  Polyhedron cur = *this;
  // Eliminate variables after var.
  while (cur.dim() > var + 1) cur = cur.eliminated(cur.dim() - 1);
  // Eliminate variables before var.
  for (int k = 0; k < var; ++k) cur = cur.eliminated(0);
  EMM_CHECK(!cur.isEmpty(), "paramBounds of empty polyhedron");
  return boundsFromConstraints(cur, 0, 0);
}

DimBounds Polyhedron::loopBounds(int var) const {
  EMM_CHECK(var >= 0 && var < dim_, "variable index out of range");
  Polyhedron cur = *this;
  while (cur.dim() > var + 1) cur = cur.eliminated(cur.dim() - 1);
  return boundsFromConstraints(cur, var, var);
}

std::string Polyhedron::str() const {
  std::ostringstream os;
  os << "{ dim=" << dim_ << " nparam=" << nparam_;
  if (markedEmpty_) os << " EMPTY";
  os << "\n";
  auto rowStr = [&](std::span<const i64> row, const char* rel) {
    os << "  [";
    for (size_t j = 0; j < row.size(); ++j) os << row[j] << (j + 1 < row.size() ? " " : "");
    os << "] " << rel << " 0\n";
  };
  for (int r = 0; r < eqs_.rows(); ++r) rowStr(eqs_.rowSpan(r), "==");
  for (int r = 0; r < ineqs_.rows(); ++r) rowStr(ineqs_.rowSpan(r), ">=");
  os << "}";
  return os.str();
}

PolySet setDifference(const Polyhedron& a, const Polyhedron& b) {
  EMM_CHECK(a.dim() == b.dim() && a.nparam() == b.nparam(), "difference arity mismatch");
  // A \ B = union over constraints c of B of (A and previous-constraints(B) and not c).
  PolySet out;
  Polyhedron acc = a;  // A intersected with the B-constraints handled so far
  auto negate = [&](const IntVec& row, bool strictLess) {
    // not(row . v >= 0)  ==  row . v <= -1  ==  -row . v - 1 >= 0 (integers).
    IntVec neg(row.size());
    for (size_t j = 0; j < row.size(); ++j) neg[j] = narrow(-static_cast<i128>(row[j]));
    if (strictLess) neg.back() = subChecked(neg.back(), 1);
    return neg;
  };
  // Equalities of B: v == 0 splits into v >= 1 and v <= -1.
  for (int r = 0; r < b.equalities().rows(); ++r) {
    IntVec row = b.equalities().row(r);
    {
      Polyhedron piece = acc;
      IntVec gt = row;
      gt.back() = subChecked(gt.back(), 1);  // row.v - 1 >= 0
      piece.addInequality(gt);
      if (piece.simplify() && !piece.isEmpty()) out.push_back(piece);
    }
    {
      Polyhedron piece = acc;
      piece.addInequality(negate(row, true));
      if (piece.simplify() && !piece.isEmpty()) out.push_back(piece);
    }
    acc.addEquality(row);
    if (!acc.simplify()) return out;
  }
  for (int r = 0; r < b.inequalities().rows(); ++r) {
    IntVec row = b.inequalities().row(r);
    Polyhedron piece = acc;
    piece.addInequality(negate(row, true));
    if (piece.simplify() && !piece.isEmpty()) out.push_back(piece);
    acc.addInequality(row);
    if (!acc.simplify()) return out;
  }
  return out;
}

PolySet makeDisjoint(const PolySet& pieces) {
  PolySet out;
  for (const Polyhedron& p : pieces) {
    if (p.isEmpty()) continue;
    // Subtract everything already emitted. Pieces that do not overlap an
    // emitted region pass through whole — constraint-wise subtraction would
    // needlessly split them (and produce uglier scan code).
    PolySet remain{p};
    for (const Polyhedron& done : out) {
      PolySet next;
      for (const Polyhedron& r : remain) {
        if (!overlaps(r, done)) {
          next.push_back(r);
          continue;
        }
        PolySet diff = setDifference(r, done);
        next.insert(next.end(), diff.begin(), diff.end());
      }
      remain = std::move(next);
      if (remain.empty()) break;
    }
    for (Polyhedron& r : remain)
      if (!r.isEmpty()) out.push_back(std::move(r));
  }
  return out;
}

DivExpr dropLeadingCoeffs(const DivExpr& e, int count) {
  EMM_CHECK(count >= 0 && static_cast<size_t>(count) < e.coeffs.size(),
            "dropLeadingCoeffs out of range");
  DivExpr out;
  out.den = e.den;
  out.coeffs.assign(e.coeffs.begin() + count, e.coeffs.end());
  return out;
}

bool overlaps(const Polyhedron& a, const Polyhedron& b) {
  return !Polyhedron::intersect(a, b).isEmpty();
}

std::vector<std::vector<int>> overlapComponents(const PolySet& sets) {
  int n = static_cast<int>(sets.size());
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (find(i) != find(j) && overlaps(sets[i], sets[j])) parent[find(i)] = find(j);
  std::vector<std::vector<int>> comps;
  std::vector<int> compOf(n, -1);
  for (int i = 0; i < n; ++i) {
    int root = find(i);
    if (compOf[root] < 0) {
      compOf[root] = static_cast<int>(comps.size());
      comps.emplace_back();
    }
    comps[compOf[root]].push_back(i);
  }
  return comps;
}

}  // namespace emm
