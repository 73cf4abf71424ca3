#include "smem/data_manage.h"

#include <algorithm>

#include "codegen/scan.h"
#include "deps/dependence.h"
#include "poly/enumerate.h"

namespace emm {

PolySet PartitionPlan::readSpaces() const {
  PolySet out;
  for (const RefSummary& r : refs)
    if (!r.isWrite) out.push_back(r.dataSpace);
  return out;
}

PolySet PartitionPlan::writeSpaces() const {
  PolySet out;
  for (const RefSummary& r : refs)
    if (r.isWrite) out.push_back(r.dataSpace);
  return out;
}

PolySet PartitionPlan::allSpaces() const {
  PolySet out;
  for (const RefSummary& r : refs) out.push_back(r.dataSpace);
  return out;
}

namespace {

/// Rank of the iterator part of an access function (paper condition (1):
/// data reuse is order-of-magnitude when rank < iteration dimensionality).
int iteratorRank(const IntMat& fn, int iterDim) {
  IntMat sub(fn.rows(), iterDim);
  for (int r = 0; r < fn.rows(); ++r)
    for (int c = 0; c < iterDim; ++c) sub.at(r, c) = fn.at(r, c);
  return sub.rank();
}

/// Intersects `space` with the parameter-context constraints, widening the
/// context rows to the space's dimensionality.
Polyhedron withContext(const Polyhedron& space, const std::optional<Polyhedron>& context) {
  if (!context.has_value()) return space;
  EMM_CHECK(context->dim() == 0 && context->nparam() == space.nparam(),
            "paramContext must be a parameter-only set");
  Polyhedron out = space;
  auto widen = [&](const IntVec& row) {
    IntVec wide(space.cols(), 0);
    for (int j = 0; j < space.nparam() + 1; ++j) wide[space.dim() + j] = row[j];
    return wide;
  };
  for (int r = 0; r < context->equalities().rows(); ++r)
    out.addEquality(widen(context->equalities().row(r)));
  for (int r = 0; r < context->inequalities().rows(); ++r)
    out.addInequality(widen(context->inequalities().row(r)));
  out.simplify();
  return out;
}

/// True when `e` (an affine form over parameters) satisfies
///   forall x in space (under context): x_d >= e      (lower = true)
///   forall x in space (under context): x_d <= e      (lower = false)
bool boundIsValid(const Polyhedron& space, const std::optional<Polyhedron>& context, int d,
                  const AffExpr& e, const std::vector<std::string>& paramNames, bool lower) {
  EMM_CHECK(e.den == 1, "candidate bounds must be affine");
  // Violation set: lower: e - x_d - 1 >= 0 ; upper: x_d - e - 1 >= 0.
  IntVec row(space.cols(), 0);
  row[d] = lower ? -1 : 1;
  i64 sign = lower ? 1 : -1;
  for (const auto& [name, coeff] : e.terms) {
    auto it = std::find(paramNames.begin(), paramNames.end(), name);
    EMM_CHECK(it != paramNames.end(), "candidate bound mentions unknown parameter " + name);
    int pj = static_cast<int>(it - paramNames.begin());
    row[space.dim() + pj] = addChecked(row[space.dim() + pj], mulChecked(sign, coeff));
  }
  row.back() = addChecked(row.back(), mulChecked(sign, e.cnst));
  row.back() = subChecked(row.back(), 1);
  Polyhedron viol = withContext(space, context);
  viol.addInequality(row);
  return viol.isEmpty();
}

/// Converts a DivExpr over [params, 1] to an AffExpr; returns nullopt when
/// the divisor is not 1 (kept out of candidate sets; the fallbacks cover
/// those cases conservatively).
std::optional<AffExpr> toAffine(const DivExpr& d, const std::vector<std::string>& paramNames) {
  if (d.den != 1) return std::nullopt;
  AffExpr e;
  EMM_CHECK(d.coeffs.size() == paramNames.size() + 1, "bound arity mismatch");
  for (size_t j = 0; j < paramNames.size(); ++j)
    if (d.coeffs[j] != 0) e.terms.emplace_back(paramNames[j], d.coeffs[j]);
  e.cnst = d.coeffs.back();
  return e;
}

bool mentionsAny(const AffExpr& e, const std::vector<std::string>& names) {
  return std::any_of(names.begin(), names.end(),
                     [&](const std::string& n) { return e.mentions(n); });
}

AffExpr affSub(const AffExpr& a, const AffExpr& b, i64 extraConst) {
  EMM_CHECK(a.den == 1 && b.den == 1, "affSub on divided expressions");
  AffExpr out = a;
  for (const auto& [name, coeff] : b.terms) out.terms.emplace_back(name, narrow(-static_cast<i128>(coeff)));
  out.cnst = addChecked(subChecked(out.cnst, b.cnst), extraConst);
  // Merge duplicate terms.
  AffExpr merged;
  merged.cnst = out.cnst;
  for (const auto& [name, coeff] : out.terms) {
    bool found = false;
    for (auto& t : merged.terms)
      if (t.first == name) {
        t.second = addChecked(t.second, coeff);
        found = true;
        break;
      }
    if (!found) merged.terms.emplace_back(name, coeff);
  }
  std::erase_if(merged.terms, [](const auto& t) { return t.second == 0; });
  return merged;
}

/// Finds the geometry hint matching this partition (same array, exact
/// reference set), or nullptr. A matching hint replaces the per-reference
/// Fourier-Motzkin candidate generation; selection and tie-breaking still
/// run so the chosen geometry is identical to what derivation would pick.
const GeometryHint* findGeometryHint(const PartitionPlan& plan, const ProgramBlock& block,
                                     const SmemOptions& options) {
  if (options.geometryHints.empty()) return nullptr;
  const int ndim = block.arrays[plan.arrayId].ndim();
  std::vector<std::pair<int, int>> refKeys;
  for (const RefSummary& r : plan.refs) refKeys.emplace_back(r.stmt, r.access);
  std::sort(refKeys.begin(), refKeys.end());
  for (const GeometryHint& h : options.geometryHints)
    if (h.arrayId == plan.arrayId && h.refs == refKeys &&
        static_cast<int>(h.lower.size()) == ndim && static_cast<int>(h.upper.size()) == ndim)
      return &h;
  return nullptr;
}

/// Evaluates an affine candidate at the sample binding for tie-breaking.
i64 evalAtSample(const AffExpr& e, const std::vector<std::string>& paramNames,
                 const IntVec& sample) {
  std::vector<std::pair<std::string, i64>> env;
  for (size_t j = 0; j < paramNames.size(); ++j) env.emplace_back(paramNames[j], sample[j]);
  return e.evalExact(env);
}

/// Chooses the buffer geometry (offset + size per dimension) for a
/// partition: Algorithm 2 with candidate-and-verify parametric bounds.
void planBufferGeometry(PartitionPlan& plan, const ProgramBlock& block,
                        const SmemOptions& options) {
  const std::vector<std::string>& paramNames = block.paramNames;
  int ndim = block.arrays[plan.arrayId].ndim();
  plan.offset.clear();
  plan.sizeExpr.clear();
  const GeometryHint* hint = findGeometryHint(plan, block, options);

  for (int d = 0; d < ndim; ++d) {
    // Gather candidate lower bounds from every space's parametric bounds,
    // plus the constant-0 fallback (array indices are non-negative). Each
    // candidate records which refs derived it: a projection-derived bound is
    // valid for its own space by Fourier-Motzkin soundness, so it only needs
    // verification against the *other* refs of the partition (fallbacks, with
    // no deriving ref, are verified against all). Duplicate expressions are
    // merged so a bound shared by several refs is verified at most once per
    // non-deriving ref — the hot path of the tile-size search.
    struct Candidate {
      AffExpr expr;
      std::vector<size_t> sources;  ///< indices into plan.refs that derived it
    };
    auto addCandidate = [](std::vector<Candidate>& list, const AffExpr& e,
                           std::optional<size_t> source) {
      for (Candidate& c : list) {
        if (c.expr.str() != e.str()) continue;
        if (source.has_value()) c.sources.push_back(*source);
        return;
      }
      Candidate c;
      c.expr = e;
      if (source.has_value()) c.sources.push_back(*source);
      list.push_back(std::move(c));
    };
    std::vector<Candidate> lowerCandidates, upperCandidates;
    addCandidate(lowerCandidates, AffExpr::constant(0), std::nullopt);
    addCandidate(upperCandidates, AffExpr::constant(block.arrays[plan.arrayId].extents[d] - 1),
                 std::nullopt);
    // A matching geometry hint (from the parametric tile plan) replaces the
    // per-reference Fourier-Motzkin candidate generation: its pools hold
    // the candidates that verified against every reference for ALL tile
    // sizes, in derivation order. Each hinted bound is still re-verified
    // against every reference here (the block the tiler analyzes is not
    // the block the search saw); any failure discards the whole hint for
    // this dimension and derivation runs as usual, so a stale or drifted
    // hint can never produce an undersized buffer. The minimize-extent /
    // first-found tie-break below then chooses exactly what derivation
    // would.
    bool hinted = hint != nullptr && !hint->lower[d].empty() && !hint->upper[d].empty();
    if (hinted) {
      for (const AffExpr& e : hint->lower[d])
        if (e.den != 1) hinted = false;
      for (const AffExpr& e : hint->upper[d])
        if (e.den != 1) hinted = false;
    }
    if (hinted) {
      for (const AffExpr& e : hint->lower[d])
        if (!std::all_of(plan.refs.begin(), plan.refs.end(), [&](const RefSummary& r) {
              return boundIsValid(r.dataSpace, options.paramContext, d, e, paramNames, true);
            }))
          hinted = false;
      for (const AffExpr& e : hint->upper[d])
        if (!std::all_of(plan.refs.begin(), plan.refs.end(), [&](const RefSummary& r) {
              return boundIsValid(r.dataSpace, options.paramContext, d, e, paramNames, false);
            }))
          hinted = false;
    }
    if (hinted) {
      // Verified above: claim every reference as a source so validForAll
      // below does not repeat the work.
      for (const AffExpr& e : hint->lower[d])
        for (size_t ri = 0; ri < plan.refs.size(); ++ri) addCandidate(lowerCandidates, e, ri);
      for (const AffExpr& e : hint->upper[d])
        for (size_t ri = 0; ri < plan.refs.size(); ++ri) addCandidate(upperCandidates, e, ri);
    } else {
      for (size_t ri = 0; ri < plan.refs.size(); ++ri) {
        Polyhedron ctx = withContext(plan.refs[ri].dataSpace, options.paramContext);
        DimBounds b = ctx.paramBounds(d);
        for (const DivExpr& e : b.lower)
          if (auto a = toAffine(e, paramNames)) addCandidate(lowerCandidates, *a, ri);
        for (const DivExpr& e : b.upper)
          if (auto a = toAffine(e, paramNames)) addCandidate(upperCandidates, *a, ri);
      }
    }

    // Keep candidates valid for *every* space in the partition.
    auto validForAll = [&](const Candidate& c, bool lower) {
      for (size_t ri = 0; ri < plan.refs.size(); ++ri) {
        if (std::find(c.sources.begin(), c.sources.end(), ri) != c.sources.end()) continue;
        if (!boundIsValid(plan.refs[ri].dataSpace, options.paramContext, d, c.expr, paramNames,
                          lower))
          return false;
      }
      return true;
    };
    std::vector<AffExpr> validLower, validUpper;
    for (const Candidate& c : lowerCandidates)
      if (validForAll(c, true)) validLower.push_back(c.expr);
    for (const Candidate& c : upperCandidates)
      if (validForAll(c, false)) validUpper.push_back(c.expr);
    EMM_REQUIRE(!validLower.empty() && !validUpper.empty(),
                "no valid parametric bounds for buffer dimension");

    // Choose the (offset, extent) pair that minimizes the buffer extent.
    // For every valid lower bound o, the candidate extents are u - o + 1 for
    // valid upper bounds u, restricted to expressions free of block-local
    // parameters (tile origins) so allocation is uniform across block
    // instances. The pair with the smallest extent at the sample binding
    // wins; this is how offsets like (tile-origin sums) beat the constant-0
    // fallback, whose extents span the whole array.
    bool haveSample = options.sampleParams.size() == paramNames.size();
    bool found = false;
    AffExpr bestOffset;
    AffExpr bestExtent;
    i64 bestVal = INT64_MAX;
    for (const AffExpr& o : validLower) {
      for (const AffExpr& u : validUpper) {
        AffExpr extent = affSub(u, o, 1);
        if (mentionsAny(extent, options.blockLocalParams)) continue;
        i64 v = haveSample ? evalAtSample(extent, paramNames, options.sampleParams) : 0;
        if (!found || v < bestVal) {
          found = true;
          bestOffset = o;
          bestExtent = extent;
          bestVal = v;
        }
        if (!haveSample) break;  // no way to compare; take the first valid pair
      }
      if (found && !haveSample) break;
    }
    EMM_REQUIRE(found,
                "no block-invariant size bound for buffer dimension; add an upper-bound "
                "candidate or mark fewer parameters block-local");
    plan.offset.push_back(bestOffset);
    plan.sizeExpr.push_back(BoundExpr::single(bestExtent, false));
  }
  plan.hasBuffer = true;
}

/// Measures the constant-reuse fraction of Algorithm 1's fallback test.
double constReuseFraction(const PartitionPlan& plan, const SmemOptions& options, int nparam) {
  if (static_cast<int>(options.sampleParams.size()) != nparam) return 0.0;
  PolySet spaces = plan.allSpaces();
  i64 total = 0;
  for (const Polyhedron& s : spaces)
    total = addChecked(total, countPoints(s, options.sampleParams, options.volumeCap));
  if (total == 0) return 0.0;
  i64 overlap = 0;
  for (size_t i = 0; i < spaces.size(); ++i)
    for (size_t j = i + 1; j < spaces.size(); ++j)
      overlap = addChecked(
          overlap, countIntersection(spaces[i], spaces[j], options.sampleParams,
                                     options.volumeCap));
  return static_cast<double>(overlap) / static_cast<double>(total);
}

}  // namespace

Polyhedron spaceWithContext(const Polyhedron& space, const std::optional<Polyhedron>& context) {
  return withContext(space, context);
}

bool boundIsValidForSpace(const Polyhedron& space, const std::optional<Polyhedron>& context,
                          int dim, const AffExpr& e, const std::vector<std::string>& paramNames,
                          bool lower) {
  return boundIsValid(space, context, dim, e, paramNames, lower);
}

std::optional<AffExpr> divToAffine(const DivExpr& d, const std::vector<std::string>& paramNames) {
  return toAffine(d, paramNames);
}

DataPlan analyzeBlock(const ProgramBlock& block, const SmemOptions& options) {
  block.validate();
  DataPlan plan;
  plan.block = &block;
  plan.options = options;
  plan.partitionOf.resize(block.statements.size());
  for (size_t s = 0; s < block.statements.size(); ++s)
    plan.partitionOf[s].assign(block.statements[s].accesses.size(), -1);

  for (int arrayId = 0; arrayId < static_cast<int>(block.arrays.size()); ++arrayId) {
    // Collect every reference of this array with its data space.
    std::vector<RefSummary> refs;
    for (size_t s = 0; s < block.statements.size(); ++s) {
      const Statement& st = block.statements[s];
      for (size_t a = 0; a < st.accesses.size(); ++a) {
        const Access& acc = st.accesses[a];
        if (acc.arrayId != arrayId) continue;
        RefSummary r;
        r.stmt = static_cast<int>(s);
        r.access = static_cast<int>(a);
        r.isWrite = acc.isWrite;
        r.iterDim = st.dim();
        r.rank = iteratorRank(acc.fn, st.dim());
        r.dataSpace = st.domain.image(acc.fn);
        refs.push_back(std::move(r));
      }
    }
    if (refs.empty()) continue;

    // Section 3.1: maximal non-overlapping partitions = connected components
    // of the overlap graph. PerArrayUnion instead groups every reference of
    // the array into a single buffer (the Figure-1 behavior).
    std::vector<std::vector<int>> components;
    if (options.partitionMode == PartitionMode::PerArrayUnion) {
      std::vector<int> all(refs.size());
      for (size_t i = 0; i < refs.size(); ++i) all[i] = static_cast<int>(i);
      components.push_back(std::move(all));
    } else {
      PolySet spaces;
      for (const RefSummary& r : refs) spaces.push_back(r.dataSpace);
      components = overlapComponents(spaces);
    }
    for (const std::vector<int>& comp : components) {
      PartitionPlan part;
      part.arrayId = arrayId;
      for (int idx : comp) part.refs.push_back(refs[idx]);

      // Algorithm 1.
      part.orderReuse = std::any_of(part.refs.begin(), part.refs.end(),
                                    [](const RefSummary& r) { return r.hasOrderReuse(); });
      if (part.orderReuse) {
        part.beneficial = true;
      } else {
        part.constReuseFraction = constReuseFraction(part, options, block.nparam());
        part.beneficial = part.constReuseFraction > options.delta;
      }

      bool allocate = part.beneficial || !options.onlyBeneficial;
      if (allocate) {
        part.bufferName =
            "L" + block.arrays[arrayId].name + std::to_string(plan.partitions.size());
        planBufferGeometry(part, block, options);
        for (const RefSummary& r : part.refs)
          plan.partitionOf[r.stmt][r.access] = static_cast<int>(plan.partitions.size());
      }
      plan.partitions.mut().push_back(std::move(part));
    }
  }
  return plan;
}

i64 DataPlan::bufferFootprint(int p, const IntVec& paramValues) const {
  const PartitionPlan& part = partitions[p];
  if (!part.hasBuffer) return 0;
  std::vector<std::pair<std::string, i64>> env;
  for (int j = 0; j < block->nparam(); ++j) env.emplace_back(block->paramNames[j], paramValues[j]);
  i64 n = 1;
  for (const BoundExpr& s : part.sizeExpr) n = mulChecked(n, std::max<i64>(0, s.eval(env)));
  return n;
}

namespace {

/// Paper 3.1.3 volume bound: partition `spaces` into maximal non-overlapping
/// subsets and sum the bounding-box sizes.
i64 volumeBound(const PolySet& spaces, const IntVec& paramValues) {
  if (spaces.empty()) return 0;
  i64 total = 0;
  for (const std::vector<int>& comp : overlapComponents(spaces)) {
    // Bounding box of the union in this component.
    const Polyhedron& first = spaces[comp[0]];
    i64 vol = 1;
    for (int d = 0; d < first.dim(); ++d) {
      i64 lo = INT64_MAX, hi = INT64_MIN;
      for (int idx : comp) {
        DimBounds b = spaces[idx].paramBounds(d);
        lo = std::min(lo, b.evalLower(paramValues));
        hi = std::max(hi, b.evalUpper(paramValues));
      }
      if (hi < lo) {
        vol = 0;
        break;
      }
      vol = mulChecked(vol, hi - lo + 1);
    }
    total = addChecked(total, vol);
  }
  return total;
}

}  // namespace

i64 DataPlan::moveInVolumeBound(int p, const IntVec& paramValues) const {
  return volumeBound(partitions[p].readSpaces(), paramValues);
}

i64 DataPlan::moveOutVolumeBound(int p, const IntVec& paramValues) const {
  return volumeBound(partitions[p].writeSpaces(), paramValues);
}

namespace {

/// Rewrites one statement's accesses to target local buffers per the plan.
Statement rewriteStatement(const Statement& st, int stmtId, const DataPlan& plan,
                           const ProgramBlock& block, int numGlobals) {
  Statement out = st;
  for (size_t a = 0; a < out.accesses.size(); ++a) {
    int p = plan.partitionOf[stmtId][a];
    if (p < 0) continue;
    const PartitionPlan& part = plan.partitions[p];
    Access& acc = out.accesses[a];
    // F'(y) = F(y) - g : subtract the offset (an affine form over params)
    // from each row of the access function.
    for (int r = 0; r < acc.fn.rows(); ++r) {
      const AffExpr& off = part.offset[r];
      EMM_CHECK(off.den == 1, "buffer offset must be affine");
      for (const auto& [name, coeff] : off.terms) {
        auto it = std::find(block.paramNames.begin(), block.paramNames.end(), name);
        EMM_CHECK(it != block.paramNames.end(), "offset mentions unknown parameter");
        int pj = static_cast<int>(it - block.paramNames.begin());
        acc.fn.at(r, st.dim() + pj) = subChecked(acc.fn.at(r, st.dim() + pj), coeff);
      }
      acc.fn.at(r, acc.fn.cols() - 1) = subChecked(acc.fn.at(r, acc.fn.cols() - 1), off.cnst);
    }
    // Retarget to the local buffer id. Buffer index = position among
    // partitions that have buffers, computed by the caller's table.
    int bufferId = 0;
    for (int q = 0; q < p; ++q)
      if (plan.partitions[q].hasBuffer) ++bufferId;
    acc.arrayId = numGlobals + bufferId;
  }
  return out;
}

/// Live-in reduction (Section 3.1.4): for a read access, the instances
/// covered by an in-partition flow dependence read values produced inside
/// the block, so the elements they touch need not be loaded from global
/// memory (unless also touched by uncovered instances).
PolySet liveInSpaces(const DataPlan& plan, int partition, const std::vector<Dependence>& deps) {
  const PartitionPlan& part = plan.partitions[partition];
  const ProgramBlock& block = *plan.block;
  PolySet result;
  for (const RefSummary& r : part.refs) {
    if (r.isWrite) continue;
    const Statement& st = block.statements[r.stmt];
    // Instances of this read covered by a flow dep whose source writes the
    // same partition (hence the same local buffer).
    PolySet covered;
    for (const Dependence& d : deps) {
      if (d.kind != DepKind::Flow || d.dstStmt != r.stmt || d.dstAccess != r.access) continue;
      if (plan.partitionOf[d.srcStmt][d.srcAccess] != partition) continue;
      // Project the dependence polyhedron onto the destination instance.
      Polyhedron dst = d.poly;
      for (int k = 0; k < d.srcDim; ++k) dst = dst.eliminated(0);
      covered.push_back(dst);
    }
    if (covered.empty()) {
      result.push_back(r.dataSpace);
      continue;
    }
    // Uncovered instances = domain \ covered; their image still loads.
    PolySet uncovered{st.domain};
    for (const Polyhedron& c : covered) {
      PolySet next;
      for (const Polyhedron& u : uncovered) {
        PolySet diff = setDifference(u, c);
        next.insert(next.end(), diff.begin(), diff.end());
      }
      uncovered = std::move(next);
      if (uncovered.empty()) break;
    }
    const Access& acc = st.accesses[r.access];
    for (const Polyhedron& u : uncovered) {
      Polyhedron img = u.image(acc.fn);
      if (!img.isEmpty()) result.push_back(img);
    }
  }
  return result;
}

}  // namespace

std::vector<Dependence> copySetDependences(const DataPlan& plan) {
  if (!plan.options.optimizeCopySets) return {};
  return computeDependences(*plan.block);
}

AstPtr buildCopyCode(const DataPlan& plan, int partition, bool moveIn,
                     const std::vector<Dependence>& copySetDeps) {
  const PartitionPlan& part = plan.partitions[partition];
  EMM_CHECK(part.hasBuffer, "copy code requested for partition without buffer");
  const ProgramBlock& block = *plan.block;
  int ndim = block.arrays[part.arrayId].ndim();

  PolySet spaces;
  if (moveIn) {
    if (plan.options.optimizeCopySets) {
      spaces = liveInSpaces(plan, partition, copySetDeps);
    } else {
      spaces = part.readSpaces();
    }
  } else {
    bool dead = std::find(plan.options.deadAfterBlock.begin(), plan.options.deadAfterBlock.end(),
                          part.arrayId) != plan.options.deadAfterBlock.end();
    if (plan.options.optimizeCopySets && dead) return AstNode::block();
    spaces = part.writeSpaces();
  }
  if (spaces.empty()) return AstNode::block();

  std::vector<std::string> iterNames;
  for (int d = 0; d < ndim; ++d)
    iterNames.push_back("m" + std::to_string(partition) + "_" + std::to_string(d));

  int bufferId = 0;
  for (int q = 0; q < partition; ++q)
    if (plan.partitions[q].hasBuffer) ++bufferId;
  int localArrayId = static_cast<int>(block.arrays.size()) + bufferId;

  auto body = [&](const std::vector<std::string>& iters) {
    std::vector<AffExpr> globalIdx, localIdx;
    for (int d = 0; d < ndim; ++d) {
      globalIdx.push_back(AffExpr::var(iters[d]));
      // local index = y_d - offset_d
      AffExpr local = AffExpr::var(iters[d]);
      const AffExpr& off = part.offset[d];
      for (const auto& [name, coeff] : off.terms)
        local.terms.emplace_back(name, narrow(-static_cast<i128>(coeff)));
      local.cnst = subChecked(local.cnst, off.cnst);
      localIdx.push_back(local);
    }
    if (moveIn) return AstNode::copy(localArrayId, localIdx, part.arrayId, globalIdx);
    return AstNode::copy(part.arrayId, globalIdx, localArrayId, localIdx);
  };
  return scanUnion(spaces, iterNames, block.paramNames, body);
}

CodeUnit buildScratchpadUnit(const ProgramBlock& block, const SmemOptions& options,
                             DataPlan& planOut) {
  planOut = analyzeBlock(block, options);
  CodeUnit unit;
  unit.name = block.name + "_smem";
  unit.source = &block;

  // Local buffer table.
  for (const PartitionPlan& part : planOut.partitions) {
    if (!part.hasBuffer) continue;
    LocalBuffer buf;
    buf.name = part.bufferName;
    buf.ndim = block.arrays[part.arrayId].ndim();
    buf.offset = part.offset;
    buf.sizeExpr = part.sizeExpr;
    unit.localBuffers.mut().push_back(std::move(buf));
  }

  // Rewritten statements.
  int numGlobals = static_cast<int>(block.arrays.size());
  for (size_t s = 0; s < block.statements.size(); ++s)
    unit.statements.mut().push_back(
        rewriteStatement(block.statements[s], static_cast<int>(s), planOut, block, numGlobals));

  // move-in; compute; move-out.
  const std::vector<Dependence> copySetDeps = copySetDependences(planOut);
  unit.root = AstNode::block();
  AstNode& root = unit.root.mut();
  for (size_t p = 0; p < planOut.partitions.size(); ++p) {
    if (!planOut.partitions[p].hasBuffer) continue;
    root.addChild(AstNode::comment("move-in " + planOut.partitions[p].bufferName));
    root.addChild(buildCopyCode(planOut, static_cast<int>(p), true, copySetDeps));
  }
  root.addChild(AstNode::comment("computation"));
  root.addChild(generateFromSchedules(block));
  for (size_t p = 0; p < planOut.partitions.size(); ++p) {
    if (!planOut.partitions[p].hasBuffer) continue;
    root.addChild(AstNode::comment("move-out " + planOut.partitions[p].bufferName));
    root.addChild(buildCopyCode(planOut, static_cast<int>(p), false, copySetDeps));
  }
  return unit;
}

CodeUnit buildScratchpadUnit(const ProgramBlock& block, const SmemOptions& options) {
  DataPlan plan;
  return buildScratchpadUnit(block, options, plan);
}

}  // namespace emm
