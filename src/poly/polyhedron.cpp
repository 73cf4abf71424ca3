#include "poly/polyhedron.h"

#include <algorithm>
#include <functional>
#include <set>
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

void Polyhedron::addEquality(const IntVec& row) {
  EMM_CHECK(static_cast<int>(row.size()) == cols(), "constraint width mismatch");
  eqs_.appendRow(row);
  forgetEmptiness();
}

void Polyhedron::addInequality(const IntVec& row) {
  EMM_CHECK(static_cast<int>(row.size()) == cols(), "constraint width mismatch");
  ineqs_.appendRow(row);
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

namespace {

bool isZeroButConst(const IntVec& row) {
  for (size_t i = 0; i + 1 < row.size(); ++i)
    if (row[i] != 0) return false;
  return true;
}

}  // namespace

bool Polyhedron::simplify() {
  forgetEmptiness();
  if (markedEmpty_) return markEmpty();
  // Equalities: gcd-normalize; an equality a.x + c == 0 with gcd(a) not
  // dividing c has no integer solution.
  IntMat newEqs(0, cols());
  std::set<IntVec> seenEq;
  for (int r = 0; r < eqs_.rows(); ++r) {
    IntVec row = eqs_.row(r);
    if (isZeroButConst(row)) {
      if (row.back() != 0) return markEmpty();
      continue;
    }
    i64 g = 0;
    for (size_t i = 0; i + 1 < row.size(); ++i) g = gcd64(g, row[i]);
    if (g > 0 && row.back() % g != 0) return markEmpty();  // integer-infeasible equality
    if (g > 1)
      for (i64& x : row) x /= g;
    // Canonical sign: first nonzero coefficient positive.
    for (size_t i = 0; i < row.size(); ++i)
      if (row[i] != 0) {
        if (row[i] < 0)
          for (i64& x : row) x = narrow(-static_cast<i128>(x));
        break;
      }
    if (seenEq.insert(row).second) newEqs.appendRow(row);
  }
  eqs_ = std::move(newEqs);

  // Inequalities: gcd-tighten (a.x + c >= 0 -> a/g.x + floor(c/g) >= 0),
  // drop tautologies, detect contradictions, dedupe keeping the tightest.
  IntMat newIneqs(0, cols());
  std::vector<IntVec> rows;
  for (int r = 0; r < ineqs_.rows(); ++r) {
    IntVec row = ineqs_.row(r);
    if (isZeroButConst(row)) {
      if (row.back() < 0) return markEmpty();
      continue;
    }
    i64 g = 0;
    for (size_t i = 0; i + 1 < row.size(); ++i) g = gcd64(g, row[i]);
    if (g > 1) {
      for (size_t i = 0; i + 1 < row.size(); ++i) row[i] /= g;
      row.back() = floorDiv(row.back(), g);
    }
    rows.push_back(std::move(row));
  }
  // Keep the tightest constant per coefficient vector.
  std::sort(rows.begin(), rows.end());
  for (size_t i = 0; i < rows.size(); ++i) {
    IntVec coeffsOnly(rows[i].begin(), rows[i].end() - 1);
    // rows with same coefficients are adjacent after sort; the first has the
    // smallest constant, which is the tightest (a.x >= -c with smallest c).
    if (i > 0 && std::equal(coeffsOnly.begin(), coeffsOnly.end(), rows[i - 1].begin())) continue;
    newIneqs.appendRow(rows[i]);
  }
  ineqs_ = std::move(newIneqs);
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

namespace {

/// Combines two rows so that column `var` cancels:
///   result = (pos[var]) * neg  + (-neg[var]) * pos   scaled by 1/g.
IntVec combineRows(const IntVec& pos, const IntVec& neg, int var) {
  i64 a = pos[var];  // > 0
  i64 b = neg[var];  // < 0
  i64 g = gcd64(a, b);
  i64 fp = -b / g;  // multiplier for pos, positive
  i64 fn = a / g;   // multiplier for neg, positive
  IntVec out(pos.size());
  for (size_t j = 0; j < pos.size(); ++j) out[j] = mulAddChecked(fp, pos[j], fn, neg[j]);
  EMM_CHECK(out[var] == 0, "FM combination failed to cancel");
  return out;
}

}  // namespace

Polyhedron Polyhedron::eliminated(int var) const {
  EMM_CHECK(var >= 0 && var < dim_, "variable index out of range");
  Polyhedron work = *this;
  if (!work.simplify()) {
    // Empty set: the projection is the empty set in the smaller space.
    Polyhedron out(dim_ - 1, nparam_);
    out.markEmpty();
    return out;
  }

  // Prefer substitution through an equality that mentions `var`.
  int eqIdx = -1;
  for (int r = 0; r < work.eqs_.rows(); ++r)
    if (work.eqs_.at(r, var) != 0) {
      eqIdx = r;
      break;
    }

  auto dropColumn = [&](const IntVec& row) {
    IntVec out;
    out.reserve(row.size() - 1);
    for (size_t j = 0; j < row.size(); ++j)
      if (static_cast<int>(j) != var) out.push_back(row[j]);
    return out;
  };

  Polyhedron out(dim_ - 1, nparam_);
  if (eqIdx >= 0) {
    IntVec eq = work.eqs_.row(eqIdx);
    i64 c = eq[var];
    for (int r = 0; r < work.eqs_.rows(); ++r) {
      if (r == eqIdx) continue;
      IntVec row = work.eqs_.row(r);
      if (row[var] != 0) {
        i64 g = gcd64(c, row[var]);
        i64 fr = (c < 0 ? -c : c) / g;
        i64 fe = -(row[var] * ((c < 0) ? -1 : 1)) / g;
        IntVec comb(row.size());
        for (size_t j = 0; j < row.size(); ++j) comb[j] = mulAddChecked(fr, row[j], fe, eq[j]);
        EMM_CHECK(comb[var] == 0, "equality substitution failed to cancel");
        row = comb;
      }
      out.addEquality(dropColumn(row));
    }
    for (int r = 0; r < work.ineqs_.rows(); ++r) {
      IntVec row = work.ineqs_.row(r);
      if (row[var] != 0) {
        // Multiply the inequality by a positive factor and add a multiple of
        // the equality to cancel `var`.
        i64 g = gcd64(c, row[var]);
        i64 fr = (c < 0 ? -c : c) / g;  // positive scale of inequality
        i64 fe = -(row[var] * ((c < 0) ? -1 : 1)) / g;
        IntVec comb(row.size());
        for (size_t j = 0; j < row.size(); ++j) comb[j] = mulAddChecked(fr, row[j], fe, eq[j]);
        EMM_CHECK(comb[var] == 0, "equality substitution failed to cancel");
        row = comb;
      }
      out.addInequality(dropColumn(row));
    }
    out.simplify();
    return out;
  }

  // Classic Fourier-Motzkin on inequalities.
  std::vector<IntVec> pos, neg, none;
  for (int r = 0; r < work.ineqs_.rows(); ++r) {
    IntVec row = work.ineqs_.row(r);
    if (row[var] > 0)
      pos.push_back(std::move(row));
    else if (row[var] < 0)
      neg.push_back(std::move(row));
    else
      none.push_back(std::move(row));
  }
  for (int r = 0; r < work.eqs_.rows(); ++r) {
    // No equality mentions `var` here.
    out.addEquality(dropColumn(work.eqs_.row(r)));
  }
  for (const IntVec& row : none) out.addInequality(dropColumn(row));
  for (const IntVec& p : pos)
    for (const IntVec& n : neg) {
      IntVec comb = combineRows(p, n, var);
      normalizeByGcd(comb);
      out.addInequality(dropColumn(comb));
    }
  out.simplify();
  return out;
}

Polyhedron Polyhedron::projectedOnto(int keep) const {
  EMM_CHECK(keep >= 0 && keep <= dim_, "projection arity out of range");
  Polyhedron cur = *this;
  while (cur.dim() > keep) cur = cur.eliminated(cur.dim() - 1);
  return cur;
}

Polyhedron Polyhedron::withInsertedVars(int pos, int count) const {
  EMM_CHECK(pos >= 0 && pos <= dim_ && count >= 0, "bad var insertion");
  Polyhedron out(dim_ + count, nparam_);
  out.markedEmpty_ = markedEmpty_;
  auto widen = [&](const IntVec& row) {
    IntVec wide(out.cols(), 0);
    for (int j = 0; j < pos; ++j) wide[j] = row[j];
    for (int j = pos; j < dim_ + nparam_ + 1; ++j) wide[j + count] = row[j];
    return wide;
  };
  for (int r = 0; r < eqs_.rows(); ++r) out.addEquality(widen(eqs_.row(r)));
  for (int r = 0; r < ineqs_.rows(); ++r) out.addInequality(widen(ineqs_.row(r)));
  return out;
}

Polyhedron Polyhedron::intersect(const Polyhedron& a, const Polyhedron& b) {
  EMM_CHECK(a.dim_ == b.dim_ && a.nparam_ == b.nparam_, "intersect arity mismatch");
  Polyhedron out = a;
  out.markedEmpty_ = a.markedEmpty_ || b.markedEmpty_;
  for (int r = 0; r < b.eqs_.rows(); ++r) out.addEquality(b.eqs_.row(r));
  for (int r = 0; r < b.ineqs_.rows(); ++r) out.addInequality(b.ineqs_.row(r));
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
  auto embed = [&](const IntVec& row) {
    IntVec wide(joint.cols(), 0);
    for (int j = 0; j < dim_; ++j) wide[outDim + j] = row[j];
    for (int j = 0; j < nparam_ + 1; ++j) wide[outDim + dim_ + j] = row[dim_ + j];
    return wide;
  };
  for (int r = 0; r < eqs_.rows(); ++r) joint.addEquality(embed(eqs_.row(r)));
  for (int r = 0; r < ineqs_.rows(); ++r) joint.addInequality(embed(ineqs_.row(r)));
  // y_i == f_i(x, p).
  for (int i = 0; i < outDim; ++i) {
    IntVec row(joint.cols(), 0);
    row[i] = -1;
    for (int j = 0; j < dim_; ++j) row[outDim + j] = f.at(i, j);
    for (int j = 0; j < nparam_ + 1; ++j) row[outDim + dim_ + j] = f.at(i, dim_ + j);
    joint.addEquality(row);
  }
  // Eliminate the x block.
  Polyhedron cur = joint;
  for (int k = 0; k < dim_; ++k) cur = cur.eliminated(outDim);
  return cur;
}

Polyhedron Polyhedron::preimage(const IntMat& f, int newDim) const {
  EMM_CHECK(f.rows() == dim_, "preimage map must produce dim() outputs");
  EMM_CHECK(f.cols() == newDim + nparam_ + 1, "preimage map width mismatch");
  Polyhedron out(newDim, nparam_);
  out.markedEmpty_ = markedEmpty_;
  auto substitute = [&](const IntVec& row) {
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
  for (int r = 0; r < eqs_.rows(); ++r) out.addEquality(substitute(eqs_.row(r)));
  for (int r = 0; r < ineqs_.rows(); ++r) out.addInequality(substitute(ineqs_.row(r)));
  out.simplify();
  return out;
}

bool Polyhedron::isEmpty() const {
  const std::int8_t known = emptiness_.load(std::memory_order_relaxed);
  if (known != kUnknown) return known == kEmpty;
  const bool empty = [&] {
    Polyhedron work = *this;
    if (!work.simplify()) return true;
    // Eliminate every variable and parameter; what remains are constant
    // rows whose satisfiability simplify() decides.
    // Treat parameters as variables for the feasibility check.
    Polyhedron all = work.paramsAsVars();
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
  for (int r = 0; r < eqs_.rows(); ++r) out.addEquality(eqs_.row(r));
  for (int r = 0; r < ineqs_.rows(); ++r) out.addInequality(ineqs_.row(r));
  return out;
}

namespace {

DimBounds boundsFromConstraints(const Polyhedron& p, int var, int prefixLen) {
  // All constraints mention only vars < prefixLen, `var`, and params.
  DimBounds b;
  auto scan = [&](const IntVec& row, bool equality) {
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
  for (int r = 0; r < p.equalities().rows(); ++r) scan(p.equalities().row(r), true);
  for (int r = 0; r < p.inequalities().rows(); ++r) scan(p.inequalities().row(r), false);
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
  auto rowStr = [&](const IntVec& row, const char* rel) {
    os << "  [";
    for (size_t j = 0; j < row.size(); ++j) os << row[j] << (j + 1 < row.size() ? " " : "");
    os << "] " << rel << " 0\n";
  };
  for (int r = 0; r < eqs_.rows(); ++r) rowStr(eqs_.row(r), "==");
  for (int r = 0; r < ineqs_.rows(); ++r) rowStr(ineqs_.row(r), ">=");
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
