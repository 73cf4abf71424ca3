#include "transform/transform.h"

#include <algorithm>
#include <optional>

namespace emm {

int commonLoopDepth(const ProgramBlock& block) {
  EMM_REQUIRE(!block.statements.empty(), "empty block");
  int depth = block.statements[0].dim();
  for (const Statement& st : block.statements) depth = std::min(depth, st.dim());
  return depth;
}

namespace {

bool nonneg(SignRange s) {
  return s == SignRange::Zero || s == SignRange::NonNegative || s == SignRange::Positive;
}

/// The combined distance sign of `deps` on `loop`. Mixed absorbs every later
/// sign, so the fold stops there.
SignRange loopSign(const std::vector<Dependence>& deps, int loop) {
  SignRange acc = SignRange::Zero;
  for (const Dependence& d : deps) {
    if (loop >= d.srcDim || loop >= d.dstDim) continue;
    acc = combineSigns(acc, distanceSign(d, loop));
    if (acc == SignRange::Mixed) break;
  }
  return acc;
}

/// One block's dependences and their per-loop signs, each sign computed on
/// first use: the skew search reads only the loops it repairs and the
/// loops it skews by.
class LoopSigns {
public:
  LoopSigns(const std::vector<Dependence>& deps, int depth) : deps_(&deps), signs_(depth) {}

  SignRange operator[](int loop) {
    if (!signs_[loop].has_value()) signs_[loop] = loopSign(*deps_, loop);
    return *signs_[loop];
  }
  void set(int loop, SignRange sign) { signs_[loop] = sign; }
  int depth() const { return static_cast<int>(signs_.size()); }

private:
  const std::vector<Dependence>* deps_;
  std::vector<std::optional<SignRange>> signs_;
};

/// findParallelism over precomputed signs. Loop 0 is read first: when it is
/// not non-negative there is no band, and no other loop is summarized.
ParallelismPlan planFromSummaries(LoopSigns& signs) {
  EMM_REQUIRE(signs.depth() > 0 && nonneg(signs[0]),
              "no permutable outer band; apply skewing (makeTilable) first");
  const int depth = signs.depth();
  ParallelismPlan plan;
  for (int l = 0; l < depth; ++l) plan.summaries.push_back({l, signs[l]});

  // Outermost band: maximal prefix of loops whose distance signs are all
  // non-negative (permutable band criterion).
  for (int l = 0; l < depth; ++l) {
    if (!nonneg(plan.summaries[l].sign)) break;
    plan.band.push_back(l);
  }

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

}  // namespace

std::vector<LoopDepSummary> summarizeLoops(const ProgramBlock& block,
                                           const std::vector<Dependence>& deps, int depth) {
  (void)block;
  std::vector<LoopDepSummary> out(depth);
  for (int l = 0; l < depth; ++l) out[l] = {l, loopSign(deps, l)};
  return out;
}

ParallelismPlan findParallelism(const ProgramBlock& block, const std::vector<Dependence>& deps) {
  LoopSigns signs(deps, commonLoopDepth(block));
  return planFromSummaries(signs);
}

int reductionTilableDepth(const ProgramBlock& block, const ParallelismPlan& plan) {
  const int depth = commonLoopDepth(block);
  int tilable = static_cast<int>(plan.band.size());
  if (tilable >= depth) return depth;
  std::vector<Dependence> ordering;
  visitDependences(block, [&](Dependence&& d) {
    if (!isReductionDependence(block, d)) ordering.push_back(std::move(d));
    return true;
  });
  while (tilable < depth && nonneg(loopSign(ordering, tilable))) ++tilable;
  return tilable;
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

namespace {

/// A candidate whose distances on the repaired loop are all non-negative:
/// its dependences (computed by the check, handed over so they are not
/// rebuilt) and their combined sign on that loop.
struct LegalCandidate {
  ProgramBlock block;
  std::vector<Dependence> deps;
  SignRange sign = SignRange::Zero;
  i64 factor = 0;
};

/// Walks `block`'s dependences and stops at the first whose distance on
/// `loop` is not non-negative. Returns the dependences and their combined
/// sign on `loop` when there is none.
std::optional<LegalCandidate> legalOn(ProgramBlock block, int loop, i64 factor) {
  LegalCandidate out;
  const bool legal = visitDependences(block, [&](Dependence&& d) {
    const SignRange s = distanceSign(d, loop);
    if (!nonneg(s)) return false;
    out.sign = combineSigns(out.sign, s);
    out.deps.push_back(std::move(d));
    return true;
  });
  if (!legal) return std::nullopt;
  out.block = std::move(block);
  out.factor = factor;
  return out;
}

/// findSkewFactor with the legal candidate handed over. `tryUnskewed` tests
/// factor 0 (the block as given) first.
std::optional<LegalCandidate> searchSkew(const ProgramBlock& block, int targetLoop,
                                         int sourceLoop, i64 maxFactor, bool tryUnskewed) {
  if (tryUnskewed)
    if (std::optional<LegalCandidate> c = legalOn(block, targetLoop, 0)) return c;
  for (i64 f = 1; f <= maxFactor; ++f)
    if (std::optional<LegalCandidate> c =
            legalOn(skewLoop(block, targetLoop, sourceLoop, f), targetLoop, f))
      return c;
  return std::nullopt;
}

}  // namespace

i64 findSkewFactor(const ProgramBlock& block, int targetLoop, int sourceLoop, i64 maxFactor) {
  std::optional<LegalCandidate> c = searchSkew(block, targetLoop, sourceLoop, maxFactor, true);
  return c.has_value() ? c->factor : -1;
}

TransformResult makeTilable(const ProgramBlock& block) {
  return makeTilable(block, computeDependences(block));
}

TransformResult makeTilable(const ProgramBlock& block, const std::vector<Dependence>& deps) {
  TransformResult result;
  result.block = block;
  const int depth = commonLoopDepth(block);
  const int nstmt = static_cast<int>(block.statements.size());
  // The current block's dependences: the caller's until a transformation
  // applies, then those its legality check computed.
  std::vector<Dependence> ownDeps;
  LoopSigns signs(deps, depth);

  // Greedy legalization: walk loops outer-to-inner. A negative/mixed loop is
  // repaired by skewing against an outer positive loop, optionally combined
  // with per-statement shifts (multi-statement stencils need both: for
  // two-statement Jacobi the classic solution shifts the copy statement by
  // one and skews by two). A loop no transformation repairs ends the band;
  // deeper loops are left untouched (findParallelism stops there too).
  for (int l = 0; l < depth; ++l) {
    if (nonneg(signs[l])) continue;
    bool fixed = false;
    for (int src = l - 1; src >= 0 && !fixed; --src) {
      // Skewing by a loop whose dependence distances are never negative
      // cannot invalidate any dependence; deps with zero source distance
      // are handled by the shift component.
      if (!nonneg(signs[src]) || signs[src] == SignRange::Zero) continue;
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
        bool shifted = false;
        for (int si = 0; si < nstmt; ++si)
          if (combo[si] != 0) {
            candidate = shiftStatementLoop(candidate, si, l, combo[si]);
            shifted = true;
          }
        // Unshifted, the candidate is the current block, whose sign on l
        // is known to be bad: only real skews are tried.
        std::optional<LegalCandidate> legal = searchSkew(candidate, l, src, 4, shifted);
        if (!legal.has_value()) continue;
        result.block = std::move(legal->block);
        result.appliedSkews.push_back({l, {src, legal->factor}});
        ownDeps = std::move(legal->deps);
        signs = LoopSigns(ownDeps, depth);
        signs.set(l, legal->sign);
        fixed = true;
        break;
      }
    }
    if (!fixed) break;  // band ends before loop l
  }
  result.plan = planFromSummaries(signs);
  return result;
}

}  // namespace emm
