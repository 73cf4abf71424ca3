#include "transform/transform.h"

#include <algorithm>

namespace emm {

int commonLoopDepth(const ProgramBlock& block) {
  EMM_REQUIRE(!block.statements.empty(), "empty block");
  int depth = block.statements[0].dim();
  for (const Statement& st : block.statements) depth = std::min(depth, st.dim());
  return depth;
}

std::vector<LoopDepSummary> summarizeLoops(const ProgramBlock& block,
                                           const std::vector<Dependence>& deps, int depth) {
  (void)block;
  std::vector<LoopDepSummary> out(depth);
  for (int l = 0; l < depth; ++l) {
    out[l].loop = l;
    SignRange acc = SignRange::Zero;
    for (const Dependence& d : deps) {
      if (l >= d.srcDim || l >= d.dstDim) continue;
      acc = combineSigns(acc, distanceSign(d, l));
    }
    out[l].sign = acc;
  }
  return out;
}

ParallelismPlan findParallelism(const ProgramBlock& block, const std::vector<Dependence>& deps) {
  int depth = commonLoopDepth(block);
  ParallelismPlan plan;
  plan.summaries = summarizeLoops(block, deps, depth);

  // Outermost band: maximal prefix of loops whose distance signs are all
  // non-negative (permutable band criterion).
  auto nonneg = [](SignRange s) {
    return s == SignRange::Zero || s == SignRange::NonNegative || s == SignRange::Positive;
  };
  for (int l = 0; l < depth; ++l) {
    if (!nonneg(plan.summaries[l].sign)) break;
    plan.band.push_back(l);
  }
  EMM_REQUIRE(!plan.band.empty(),
              "no permutable outer band; apply skewing (makeTilable) first");

  for (int l : plan.band)
    if (plan.summaries[l].sign == SignRange::Zero) plan.spaceLoops.push_back(l);

  if (plan.spaceLoops.empty()) {
    // Pipeline parallelism: all but the last band loop become space loops.
    for (size_t i = 0; i + 1 < plan.band.size(); ++i) plan.spaceLoops.push_back(plan.band[i]);
    plan.needsInterBlockSync = true;
  }
  for (int l : plan.band)
    if (std::find(plan.spaceLoops.begin(), plan.spaceLoops.end(), l) == plan.spaceLoops.end())
      plan.timeLoops.push_back(l);
  // Dependences carried on space loops (pipeline case) require sync across
  // outer-level processes; communication-free space loops do not.
  for (int l : plan.spaceLoops)
    if (plan.summaries[l].carriesDependence()) plan.needsInterBlockSync = true;
  return plan;
}

namespace {

/// Rewrites `st` over new iterators z related to the old ones x by x = M z,
/// where `m` is d x (d + nparam + 1) over [z, params, 1]: the domain is the
/// preimage under M and every access function F becomes F(M z).
void substituteIterators(Statement& st, const IntMat& m) {
  const int d = st.dim();
  const int cols = m.cols();
  st.domain = st.domain.preimage(m, d);
  for (Access& acc : st.accesses) {
    IntMat composed(acc.fn.rows(), cols);
    for (int r = 0; r < acc.fn.rows(); ++r) {
      // Row over [x, p, 1] composed with x = M z.
      for (int c = 0; c < cols; ++c) {
        i128 v = 0;
        for (int j = 0; j < d; ++j) v += static_cast<i128>(acc.fn.at(r, j)) * m.at(j, c);
        if (c >= d) v += acc.fn.at(r, c);
        composed.at(r, c) = narrow(v);
      }
    }
    acc.fn = composed;
  }
}

}  // namespace

ProgramBlock skewLoop(const ProgramBlock& block, int targetLoop, int sourceLoop, i64 factor) {
  EMM_REQUIRE(targetLoop != sourceLoop, "skew target equals source");
  ProgramBlock out = block;
  for (Statement& st : out.statements) {
    EMM_REQUIRE(targetLoop < st.dim() && sourceLoop < st.dim(),
                "skewLoop: loops must be common to all statements");
    int d = st.dim();
    // New iterators z relate to old x by: x = M z where M is identity except
    // x[target] = z[target] - factor * z[source].
    IntMat m(d, d + out.nparam() + 1);
    for (int i = 0; i < d; ++i) m.at(i, i) = 1;
    m.at(targetLoop, sourceLoop) = narrow(-static_cast<i128>(factor));
    substituteIterators(st, m);
    // Schedules in canonical interleaved form refer to iterators by
    // position, which is unchanged by an in-place skew (iteration order of
    // the skewed nest is exactly the lexicographic order of z).
  }
  return out;
}

ProgramBlock shiftStatementLoop(const ProgramBlock& block, int stmtIdx, int loop, i64 offset) {
  EMM_REQUIRE(stmtIdx >= 0 && stmtIdx < static_cast<int>(block.statements.size()),
              "statement index out of range");
  ProgramBlock out = block;
  Statement& st = out.statements[stmtIdx];
  EMM_REQUIRE(loop >= 0 && loop < st.dim(), "loop index out of range");
  int d = st.dim();
  int np = out.nparam();
  // New iterator z with old = z - offset at position `loop`.
  IntMat m(d, d + np + 1);
  for (int i = 0; i < d; ++i) m.at(i, i) = 1;
  m.at(loop, d + np) = narrow(-static_cast<i128>(offset));
  substituteIterators(st, m);
  return out;
}

i64 findSkewFactor(const ProgramBlock& block, int targetLoop, int sourceLoop, i64 maxFactor) {
  auto signOf = [&](const ProgramBlock& b) {
    auto deps = computeDependences(b);
    auto sums = summarizeLoops(b, deps, commonLoopDepth(b));
    return sums[targetLoop].sign;
  };
  auto nonneg = [](SignRange s) {
    return s == SignRange::Zero || s == SignRange::NonNegative || s == SignRange::Positive;
  };
  if (nonneg(signOf(block))) return 0;
  for (i64 f = 1; f <= maxFactor; ++f) {
    ProgramBlock candidate = skewLoop(block, targetLoop, sourceLoop, f);
    if (nonneg(signOf(candidate))) return f;
  }
  return -1;
}

TransformResult makeTilable(const ProgramBlock& block) {
  TransformResult result;
  result.block = block;
  int depth = commonLoopDepth(block);
  auto nonneg = [](SignRange s) {
    return s == SignRange::Zero || s == SignRange::NonNegative || s == SignRange::Positive;
  };
  int nstmt = static_cast<int>(block.statements.size());

  // Greedy legalization: walk loops outer-to-inner. A negative/mixed loop is
  // repaired by skewing against an outer positive loop, optionally combined
  // with per-statement shifts (multi-statement stencils need both: for
  // two-statement Jacobi the classic solution shifts the copy statement by
  // one and skews by two). A loop no transformation repairs ends the band;
  // deeper loops are left untouched (findParallelism stops there too).
  for (int l = 0; l < depth; ++l) {
    auto deps = computeDependences(result.block);
    auto sums = summarizeLoops(result.block, deps, depth);
    if (nonneg(sums[l].sign)) continue;
    bool fixed = false;
    for (int src = l - 1; src >= 0 && !fixed; --src) {
      // Skewing by a loop whose dependence distances are never negative
      // cannot invalidate any dependence; deps with zero source distance
      // are handled by the shift component.
      if (!nonneg(sums[src].sign) || sums[src].sign == SignRange::Zero) continue;
      // Shift combinations: statement 0 is the anchor; others shift by
      // 0..2 along loop l. The no-shift combination is tried first.
      std::vector<std::vector<i64>> shiftCombos{{std::vector<i64>(nstmt, 0)}};
      for (i64 s = 1; s <= 2 && nstmt > 1; ++s) {
        // Uniformly shift all statements after the first (covers the
        // compute/copy pattern; larger statement counts fall back to the
        // uniform family rather than the exponential cross product).
        std::vector<i64> combo(nstmt, s);
        combo[0] = 0;
        shiftCombos.push_back(std::move(combo));
      }
      for (const std::vector<i64>& combo : shiftCombos) {
        ProgramBlock candidate = result.block;
        for (int si = 0; si < nstmt; ++si)
          if (combo[si] != 0) candidate = shiftStatementLoop(candidate, si, l, combo[si]);
        i64 f = findSkewFactor(candidate, l, src);
        if (f >= 0) {
          bool any = f > 0;
          for (i64 s : combo) any = any || s != 0;
          if (!any) continue;  // nothing changed; sign was already bad
          if (f > 0) candidate = skewLoop(candidate, l, src, f);
          result.block = std::move(candidate);
          result.appliedSkews.push_back({l, {src, f}});
          fixed = true;
          break;
        }
      }
    }
    if (!fixed) break;  // band ends before loop l
  }
  auto deps = computeDependences(result.block);
  result.plan = findParallelism(result.block, deps);
  return result;
}

}  // namespace emm
