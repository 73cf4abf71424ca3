#include "deps/dependence.h"

#include <algorithm>
#include <sstream>

namespace emm {

namespace {

/// Embeds a constraint row of a statement (over [iters, p, 1]) into the
/// combined dependence space [src iters, dst iters, p, 1].
IntVec embedRow(const IntVec& row, int stmtDim, int offset, int srcDim, int dstDim, int nparam) {
  IntVec wide(srcDim + dstDim + nparam + 1, 0);
  for (int j = 0; j < stmtDim; ++j) wide[offset + j] = row[j];
  for (int j = 0; j < nparam + 1; ++j) wide[srcDim + dstDim + j] = row[stmtDim + j];
  return wide;
}

/// Schedule row of a statement evaluated in combined space (same embedding).
IntVec embedScheduleRow(const IntMat& sched, int row, int stmtDim, int offset, int srcDim,
                        int dstDim, int nparam) {
  if (row >= sched.rows()) {
    // Shorter schedules are padded with zero time coordinates.
    return IntVec(srcDim + dstDim + nparam + 1, 0);
  }
  return embedRow(sched.row(row), stmtDim, offset, srcDim, dstDim, nparam);
}

}  // namespace

std::string Dependence::str(const ProgramBlock& block) const {
  std::ostringstream os;
  const char* kinds[] = {"flow", "anti", "output"};
  os << kinds[static_cast<int>(kind)] << " " << block.statements[srcStmt].name << " -> "
     << block.statements[dstStmt].name;
  return os.str();
}

bool visitDependences(const ProgramBlock& block, const std::function<bool(Dependence&&)>& visit) {
  block.validate();
  int nparam = block.nparam();

  for (size_t s = 0; s < block.statements.size(); ++s) {
    for (size_t t = 0; t < block.statements.size(); ++t) {
      const Statement& src = block.statements[s];
      const Statement& dst = block.statements[t];
      int sd = src.dim(), td = dst.dim();

      for (size_t sa = 0; sa < src.accesses.size(); ++sa) {
        for (size_t ta = 0; ta < dst.accesses.size(); ++ta) {
          const Access& a = src.accesses[sa];
          const Access& b = dst.accesses[ta];
          if (a.arrayId != b.arrayId) continue;
          if (!a.isWrite && !b.isWrite) continue;
          DepKind kind = a.isWrite ? (b.isWrite ? DepKind::Output : DepKind::Flow) : DepKind::Anti;

          // Base conjunction: both domains + same element.
          Polyhedron base(sd + td, nparam);
          for (int r = 0; r < src.domain.equalities().rows(); ++r)
            base.addEquality(embedRow(src.domain.equalities().row(r), sd, 0, sd, td, nparam));
          for (int r = 0; r < src.domain.inequalities().rows(); ++r)
            base.addInequality(embedRow(src.domain.inequalities().row(r), sd, 0, sd, td, nparam));
          for (int r = 0; r < dst.domain.equalities().rows(); ++r)
            base.addEquality(embedRow(dst.domain.equalities().row(r), td, sd, sd, td, nparam));
          for (int r = 0; r < dst.domain.inequalities().rows(); ++r)
            base.addInequality(
                embedRow(dst.domain.inequalities().row(r), td, sd, sd, td, nparam));
          for (int r = 0; r < a.fn.rows(); ++r) {
            IntVec ra = embedRow(a.fn.row(r), sd, 0, sd, td, nparam);
            IntVec rb = embedRow(b.fn.row(r), td, sd, sd, td, nparam);
            IntVec eq(ra.size());
            for (size_t j = 0; j < ra.size(); ++j) eq[j] = subChecked(ra[j], rb[j]);
            base.addEquality(eq);
          }
          if (!base.simplify() || base.isEmpty()) continue;

          // Precedence: time(src) lexicographically < time(dst); one
          // polyhedron per depth at which the schedules first differ.
          int maxTime = std::max(src.schedule.rows(), dst.schedule.rows());
          for (int level = 0; level < maxTime; ++level) {
            Polyhedron cand = base;
            bool degenerate = false;
            for (int l = 0; l < level; ++l) {
              IntVec ts = embedScheduleRow(src.schedule, l, sd, 0, sd, td, nparam);
              IntVec tt = embedScheduleRow(dst.schedule, l, td, sd, sd, td, nparam);
              IntVec eq(ts.size());
              for (size_t j = 0; j < ts.size(); ++j) eq[j] = subChecked(tt[j], ts[j]);
              cand.addEquality(eq);
            }
            {
              IntVec ts = embedScheduleRow(src.schedule, level, sd, 0, sd, td, nparam);
              IntVec tt = embedScheduleRow(dst.schedule, level, td, sd, sd, td, nparam);
              IntVec gt(ts.size());
              for (size_t j = 0; j < ts.size(); ++j) gt[j] = subChecked(tt[j], ts[j]);
              // tt - ts >= 1
              bool allZero = true;
              for (size_t j = 0; j + 1 < gt.size(); ++j)
                if (gt[j] != 0) allZero = false;
              if (allZero && gt.back() <= 0) degenerate = true;  // cannot be >= 1
              gt.back() = subChecked(gt.back(), 1);
              cand.addInequality(gt);
            }
            if (degenerate) continue;
            if (!cand.simplify() || cand.isEmpty()) continue;
            Dependence d;
            d.srcStmt = static_cast<int>(s);
            d.dstStmt = static_cast<int>(t);
            d.srcAccess = static_cast<int>(sa);
            d.dstAccess = static_cast<int>(ta);
            d.kind = kind;
            d.poly = std::move(cand);
            d.srcDim = sd;
            d.dstDim = td;
            if (!visit(std::move(d))) return false;
          }
        }
      }
    }
  }
  return true;
}

std::vector<Dependence> computeDependences(const ProgramBlock& block) {
  std::vector<Dependence> out;
  visitDependences(block, [&](Dependence&& d) {
    out.push_back(std::move(d));
    return true;
  });
  return out;
}

SignRange distanceSign(const Dependence& dep, int loop) {
  EMM_REQUIRE(loop >= 0 && loop < dep.srcDim && loop < dep.dstDim,
              "distanceSign: loop not common to both statements");
  // Introduce delta = dst[loop] - src[loop] as variable 0 and eliminate
  // everything else, parameters included (universal sign over params).
  Polyhedron p = dep.poly.withInsertedVars(0, 1);
  IntVec eq(p.cols(), 0);
  eq[0] = -1;                       // -delta
  eq[1 + loop] = -1;                // -src[loop]
  eq[1 + dep.srcDim + loop] = 1;    // +dst[loop]
  p.addEquality(eq);
  Polyhedron all = p.paramsAsVars();
  while (all.dim() > 1) all = all.eliminated(all.dim() - 1);
  if (all.isEmpty()) return SignRange::Zero;  // empty dependence: vacuous

  // Scan remaining constraints on delta.
  bool hasLower = false, hasUpper = false;
  i64 lo = INT64_MIN, hi = INT64_MAX;
  auto absorb = [&](std::span<const i64> row) {
    i64 c = row[0], k = row.back();
    if (c == 0) return;
    if (c > 0) {
      // c*delta + k >= 0 -> delta >= ceil(-k/c).
      hasLower = true;
      lo = std::max(lo, ceilDiv(-k, c));
    } else {
      hasUpper = true;
      hi = std::min(hi, floorDiv(k, -c));
    }
  };
  for (int r = 0; r < all.equalities().rows(); ++r) {
    std::span<const i64> row = all.equalities().rowSpan(r);
    if (row[0] != 0) {
      // c*delta + k == 0 -> delta == -k/c (if integral; else empty handled above)
      i64 c = row[0], k = row.back();
      if ((-k) % c == 0) {
        i64 v = -k / c;
        lo = std::max(lo, v);
        hi = std::min(hi, v);
        hasLower = hasUpper = true;
      }
    }
  }
  for (int r = 0; r < all.inequalities().rows(); ++r) absorb(all.inequalities().rowSpan(r));

  if (hasLower && hasUpper && lo == 0 && hi == 0) return SignRange::Zero;
  if (hasLower && lo >= 1) return SignRange::Positive;
  if (hasUpper && hi <= -1) return SignRange::Negative;
  if (hasLower && lo >= 0) return SignRange::NonNegative;
  if (hasUpper && hi <= 0) return SignRange::NonPositive;
  return SignRange::Mixed;
}

SignRange combineSigns(SignRange a, SignRange b) {
  if (a == b) return a;
  auto nonneg = [](SignRange s) {
    return s == SignRange::Zero || s == SignRange::NonNegative || s == SignRange::Positive;
  };
  auto nonpos = [](SignRange s) {
    return s == SignRange::Zero || s == SignRange::NonPositive || s == SignRange::Negative;
  };
  if (nonneg(a) && nonneg(b)) {
    if ((a == SignRange::Positive && b == SignRange::Positive)) return SignRange::Positive;
    return SignRange::NonNegative;
  }
  if (nonpos(a) && nonpos(b)) {
    if ((a == SignRange::Negative && b == SignRange::Negative)) return SignRange::Negative;
    return SignRange::NonPositive;
  }
  return SignRange::Mixed;
}

namespace {

bool loadsArray(const Expr& e, const Statement& st, int arrayId) {
  if (e.kind() == Expr::Kind::Load) return st.accesses[e.accessIndex()].arrayId == arrayId;
  return (e.lhs() != nullptr && loadsArray(*e.lhs(), st, arrayId)) ||
         (e.rhs() != nullptr && loadsArray(*e.rhs(), st, arrayId));
}

}  // namespace

int accumulateReadAccess(const Statement& st) {
  if (st.writeAccess < 0 || st.rhs == nullptr) return -1;
  const Expr& e = *st.rhs;
  if (e.kind() != Expr::Kind::Add && e.kind() != Expr::Kind::Mul &&
      e.kind() != Expr::Kind::Min && e.kind() != Expr::Kind::Max)
    return -1;
  const Access& w = st.accesses[st.writeAccess];
  int read = -1;
  for (const auto& [self, other] : {std::pair{e.lhs(), e.rhs()}, std::pair{e.rhs(), e.lhs()}}) {
    if (self == nullptr || other == nullptr || self->kind() != Expr::Kind::Load) continue;
    const Access& r = st.accesses[self->accessIndex()];
    if (!r.isWrite && r.arrayId == w.arrayId && r.fn == w.fn &&
        !loadsArray(*other, st, w.arrayId)) {
      read = self->accessIndex();
      break;
    }
  }
  for (int a = 0; read >= 0 && a < static_cast<int>(st.accesses.size()); ++a)
    if (a != read && a != st.writeAccess && st.accesses[a].arrayId == w.arrayId) return -1;
  return read;
}

bool isReductionDependence(const ProgramBlock& block, const Dependence& dep) {
  if (dep.srcStmt != dep.dstStmt) return false;
  const Statement& st = block.statements[dep.srcStmt];
  const int read = accumulateReadAccess(st);
  auto isEnd = [&](int a) { return a == st.writeAccess || a == read; };
  return read >= 0 && isEnd(dep.srcAccess) && isEnd(dep.dstAccess);
}

}  // namespace emm
