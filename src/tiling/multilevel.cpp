#include "tiling/multilevel.h"

#include <algorithm>
#include <utility>

#include "codegen/scan.h"
#include "deps/dependence.h"

namespace emm {

namespace {

/// Widens a constraint/access row over [iters, oldParams, 1] to
/// [iters, oldParams, addParams(0), 1].
IntVec widenRowParams(const IntVec& row, int dim, int oldNp, int addNp) {
  IntVec wide(dim + oldNp + addNp + 1, 0);
  for (int j = 0; j < dim + oldNp; ++j) wide[j] = row[j];
  wide.back() = row.back();
  return wide;
}

IntMat widenMatParams(const IntMat& m, int dim, int oldNp, int addNp) {
  IntMat out(m.rows(), dim + oldNp + addNp + 1);
  for (int r = 0; r < m.rows(); ++r) out.setRow(r, widenRowParams(m.row(r), dim, oldNp, addNp));
  return out;
}

BoundExpr boundOverParams(const std::vector<DivExpr>& parts, bool isLower, int loop,
                          const std::vector<std::string>& paramNames) {
  std::vector<DivExpr> stripped;
  for (const DivExpr& e : parts) stripped.push_back(dropLeadingCoeffs(e, loop));
  return toBoundExpr(stripped, isLower, {}, paramNames);
}

/// Order-insensitive equality of two bound-part sets. The tiler fuses every
/// statement into one rectangular loop nest with no per-statement guards, so
/// the statements' bounds must agree as *expressions*, not merely in count:
/// two single-part bounds N-1 and N-2 describe different domains, and fusing
/// them silently executes the smaller statement one iteration out of bounds.
bool sameBoundParts(std::vector<DivExpr> a, std::vector<DivExpr> b) {
  if (a.size() != b.size()) return false;
  auto key = [](const DivExpr& e) { return std::make_pair(e.den, e.coeffs); };
  auto less = [&](const DivExpr& x, const DivExpr& y) { return key(x) < key(y); };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].den != b[i].den || a[i].coeffs != b[i].coeffs) return false;
  return true;
}

}  // namespace

std::vector<DimBounds> rectangularLoopBounds(const ProgramBlock& block, int depth) {
  std::vector<DimBounds> out(depth);
  for (int l = 0; l < depth; ++l) {
    bool first = true;
    for (const Statement& st : block.statements) {
      Polyhedron proj = st.domain;
      proj.simplify();
      proj = proj.projectedOnto(l + 1);
      DimBounds b = proj.loopBounds(l);
      for (const DivExpr& e : b.lower)
        for (int j = 0; j < l; ++j)
          EMM_REQUIRE(e.coeffs[j] == 0, "tiler requires parameter-only loop bounds");
      for (const DivExpr& e : b.upper)
        for (int j = 0; j < l; ++j)
          EMM_REQUIRE(e.coeffs[j] == 0, "tiler requires parameter-only loop bounds");
      if (first) {
        out[l] = b;
        first = false;
      } else {
        EMM_REQUIRE(sameBoundParts(b.lower, out[l].lower) && sameBoundParts(b.upper, out[l].upper),
                    "tiler requires identical loop bounds across statements");
      }
    }
  }
  return out;
}

bool dataSpaceDependsOn(const Polyhedron& dataSpace, int param) {
  const int dim = dataSpace.dim();
  auto couples = [&](const IntVec& row) {
    if (row[dim + param] == 0) return false;
    for (int j = 0; j < dim; ++j)
      if (row[j] != 0) return true;
    return false;
  };
  for (int r = 0; r < dataSpace.equalities().rows(); ++r)
    if (couples(dataSpace.equalities().row(r))) return true;
  for (int r = 0; r < dataSpace.inequalities().rows(); ++r)
    if (couples(dataSpace.inequalities().row(r))) return true;
  return false;
}

SizeBinding bindLoopBounds(const std::vector<DimBounds>& bounds, const IntVec& sizes) {
  SizeBinding b;
  b.ext = sizes;
  for (int l = 0; l < static_cast<int>(bounds.size()); ++l) {
    // The bounds are parameter-only: drop the (zero) outer-loop slots.
    DimBounds s;
    for (const DivExpr& e : bounds[l].lower) s.lower.push_back(dropLeadingCoeffs(e, l));
    for (const DivExpr& e : bounds[l].upper) s.upper.push_back(dropLeadingCoeffs(e, l));
    const i64 lo = s.lower.empty() ? 0 : s.evalLower(sizes);
    b.ext.push_back(lo);
    b.loopRange.push_back(s.lower.empty() || s.upper.empty()
                              ? 0
                              : std::max<i64>(0, s.evalUpper(sizes) - lo + 1));
  }
  return b;
}

namespace {

/// Shared implementation of analyzeTile / analyzeTileSymbolic. In symbolic
/// mode the sub-tile box uses one fresh tile-size parameter per loop (and
/// `tileValues` only feeds the sample binding); in concrete mode
/// `tileValues` are the actual sub-tile sizes baked into the box constants.
TileAnalysis analyzeTileImpl(const ProgramBlock& block, const std::vector<i64>& tileValues,
                             const SmemOptions& smemBase, bool hoist, bool useScratchpad,
                             bool symbolic) {
  block.validate();
  int depth = commonLoopDepth(block);
  for (const Statement& st : block.statements)
    EMM_REQUIRE(st.dim() == depth, "tiler requires all statements at common depth");
  EMM_REQUIRE(static_cast<int>(tileValues.size()) == depth, "subTile arity mismatch");
  for (i64 t : tileValues) EMM_REQUIRE(t >= 1, "tile sizes must be >= 1");

  TileAnalysis ta;
  ta.depth = depth;
  if (!symbolic) ta.subTile = tileValues;
  ta.loopBounds = rectangularLoopBounds(block, depth);

  // ---- Extended block: tile origins (and, in symbolic mode, tile sizes)
  // become parameters. ----
  ta.tileBlock = DeepPtr<ProgramBlock>::make(block);
  ProgramBlock& ext = ta.tileBlock.mut();
  ext.name = block.name + "_tile";
  int oldNp = block.nparam();
  for (int l = 0; l < depth; ++l) {
    ta.originParams.push_back("o" + std::to_string(l));
    ext.paramNames.push_back(ta.originParams.back());
  }
  if (symbolic) {
    for (int l = 0; l < depth; ++l) {
      std::string name = "Tsz" + std::to_string(l);
      EMM_REQUIRE(std::find(block.paramNames.begin(), block.paramNames.end(), name) ==
                      block.paramNames.end(),
                  "block parameter collides with symbolic tile name " + name);
      ta.tileParams.push_back(name);
      ext.paramNames.push_back(name);
    }
  }
  const int addNp = symbolic ? 2 * depth : depth;
  for (Statement& st : ext.statements) {
    Polyhedron dom(st.dim(), oldNp + addNp);
    IntMat eqs = widenMatParams(st.domain.equalities(), st.dim(), oldNp, addNp);
    IntMat ineqs = widenMatParams(st.domain.inequalities(), st.dim(), oldNp, addNp);
    for (int r = 0; r < eqs.rows(); ++r) dom.addEquality(eqs.row(r));
    for (int r = 0; r < ineqs.rows(); ++r) dom.addInequality(ineqs.row(r));
    for (int l = 0; l < depth; ++l) {
      IntVec lo(dom.cols(), 0), hi(dom.cols(), 0);
      lo[l] = 1;
      lo[st.dim() + oldNp + l] = -1;  // i_l - o_l >= 0
      dom.addInequality(lo);
      hi[l] = -1;
      hi[st.dim() + oldNp + l] = 1;
      if (symbolic) {
        hi[st.dim() + oldNp + depth + l] = 1;  // o_l + T_l - 1 - i_l >= 0
        hi.back() = -1;
      } else {
        hi.back() = tileValues[l] - 1;  // o_l + t_l - 1 - i_l >= 0
      }
      dom.addInequality(hi);
    }
    dom.simplify();
    st.domain = std::move(dom);
    for (Access& acc : st.accesses) acc.fn = widenMatParams(acc.fn, st.dim(), oldNp, addNp);
    st.schedule = widenMatParams(st.schedule, st.dim(), oldNp, addNp);
  }

  // ---- Scratchpad plan over the sub-tile. ----
  SmemOptions opts = smemBase;
  opts.blockLocalParams = ta.originParams;
  {
    // Context: loop lb <= o_l <= loop ub (and T_l >= 1 in symbolic mode).
    Polyhedron ctx(0, oldNp + addNp);
    for (int l = 0; l < depth; ++l) {
      for (const DivExpr& e : ta.loopBounds[l].lower) {
        DivExpr s = dropLeadingCoeffs(e, l);
        IntVec row(ctx.cols(), 0);
        row[oldNp + l] = s.den;  // den*o_l - expr >= 0
        for (int j = 0; j < oldNp; ++j) row[j] = narrow(-static_cast<i128>(s.coeffs[j]));
        row.back() = narrow(-static_cast<i128>(s.coeffs.back()));
        ctx.addInequality(row);
      }
      for (const DivExpr& e : ta.loopBounds[l].upper) {
        DivExpr s = dropLeadingCoeffs(e, l);
        IntVec row(ctx.cols(), 0);
        row[oldNp + l] = -s.den;  // expr - den*o_l >= 0
        for (int j = 0; j < oldNp; ++j) row[j] = s.coeffs[j];
        row.back() = s.coeffs.back();
        ctx.addInequality(row);
      }
      if (symbolic) {
        IntVec row(ctx.cols(), 0);
        row[oldNp + depth + l] = 1;  // T_l - 1 >= 0
        row.back() = -1;
        ctx.addInequality(row);
      }
    }
    opts.paramContext = ctx;
  }
  if (!opts.sampleParams.empty()) {
    EMM_REQUIRE(static_cast<int>(opts.sampleParams.size()) == oldNp,
                "sampleParams must bind the original parameters");
    // Sample tile origins at the loop lower bounds (which are functions of
    // the original parameters only).
    opts.sampleParams = bindLoopBounds(*ta.loopBounds, opts.sampleParams).ext;
    // Symbolic tile parameters sample at the probe sizes the caller gave.
    if (symbolic)
      opts.sampleParams.insert(opts.sampleParams.end(), tileValues.begin(), tileValues.end());
  }

  if (useScratchpad) ta.plan = analyzeBlock(ext, opts);
  ta.plan.block = &ext;

  // ---- Hoist levels (Section 4.2). ----
  ta.hoistLevel.assign(ta.plan.partitions.size(), depth);
  for (size_t p = 0; p < ta.plan.partitions.size(); ++p) {
    if (!ta.plan.partitions[p].hasBuffer) continue;
    if (!hoist) continue;  // ablation: keep copies innermost
    const PartitionPlan& part = ta.plan.partitions[p];
    std::vector<bool> uses(depth, false);
    for (int l = 0; l < depth; ++l) {
      const std::string& oname = ta.originParams[l];
      for (const AffExpr& off : part.offset)
        if (off.mentions(oname)) uses[l] = true;
      for (const RefSummary& r : part.refs)
        if (dataSpaceDependsOn(r.dataSpace, oldNp + l)) uses[l] = true;
    }
    int levelNeeded = 0;
    for (int l = 0; l < depth; ++l)
      if (uses[l]) levelNeeded = l + 1;
    ta.hoistLevel[p] = levelNeeded;
  }
  return ta;
}

}  // namespace

TileAnalysis analyzeTile(const ProgramBlock& block, const ParallelismPlan& plan,
                         const std::vector<i64>& subTile, const SmemOptions& smemBase,
                         bool hoist, bool useScratchpad) {
  (void)plan;
  return analyzeTileImpl(block, subTile, smemBase, hoist, useScratchpad, /*symbolic=*/false);
}

TileAnalysis analyzeTileSymbolic(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const std::vector<i64>& tileSample, const SmemOptions& smemBase,
                                 bool hoist) {
  (void)plan;
  return analyzeTileImpl(block, tileSample, smemBase, hoist, /*useScratchpad=*/true,
                         /*symbolic=*/true);
}

i64 TiledKernelMembers::numBlockTiles(const IntVec& paramValues) const {
  std::vector<std::pair<std::string, i64>> env;
  const ProgramBlock& b = *analysis.tileBlock;
  for (size_t j = 0; j < paramValues.size(); ++j) env.emplace_back(b.paramNames[j], paramValues[j]);
  i64 tiles = 1;
  for (size_t s = 0; s < spaceLoopRange.size(); ++s) {
    i64 lo = spaceLoopRange[s].first.eval(env);
    i64 hi = spaceLoopRange[s].second.eval(env);
    i64 range = std::max<i64>(0, hi - lo + 1);
    tiles = mulChecked(tiles, ceilDiv(range, blockTileSizes[s]));
  }
  return tiles;
}

i64 TiledKernelMembers::footprintPerBlock(const IntVec& paramValues) const {
  if (analysis.plan.block == nullptr) return 0;
  const IntVec extended = unitParams(paramValues);
  i64 total = 0;
  for (size_t p = 0; p < analysis.plan.partitions.size(); ++p)
    total = addChecked(total, analysis.plan.bufferFootprint(static_cast<int>(p), extended));
  return total;
}

IntVec TiledKernelMembers::unitParams(const IntVec& paramValues) const {
  IntVec extended = paramValues;
  extended.resize(analysis.tileBlock->paramNames.size(), 0);
  return extended;
}

TiledKernel buildTiledKernel(const ProgramBlock& block, const ParallelismPlan& plan,
                             const TileConfig& config, const SmemOptions& smemBase) {
  EMM_REQUIRE(config.blockTile.size() == plan.spaceLoops.size(), "blockTile arity mismatch");
  EMM_REQUIRE(config.threadTile.size() == plan.spaceLoops.size(), "threadTile arity mismatch");
  for (i64 t : config.blockTile) EMM_REQUIRE(t >= 1, "tile sizes must be >= 1");
  for (i64 t : config.threadTile) EMM_REQUIRE(t >= 1, "tile sizes must be >= 1");
  // Sub-tiles must nest exactly inside block tiles on space loops; otherwise
  // a boundary sub-tile would straddle two outer-level units and statement
  // instances would execute in both (catastrophic for accumulations).
  for (size_t s = 0; s < plan.spaceLoops.size(); ++s)
    EMM_REQUIRE(config.blockTile[s] % config.subTile[plan.spaceLoops[s]] == 0,
                "blockTile must be a multiple of subTile on space loops");

  TiledKernel result;
  result.analysis = analyzeTile(block, plan, config.subTile, smemBase, config.hoistCopies,
                                config.useScratchpad);
  TileAnalysis& ta = result.analysis;
  const ProgramBlock& ext = *ta.tileBlock;
  int depth = ta.depth;
  int oldNp = block.nparam();
  result.spaceLoops = plan.spaceLoops;
  result.blockTileSizes = config.blockTile;

  CodeUnit unit;
  unit.name = block.name + "_tiled";
  unit.source = &ext;

  // ---- Buffer table & rewritten statements. ----
  for (const PartitionPlan& part : ta.plan.partitions) {
    if (!part.hasBuffer) continue;
    LocalBuffer buf;
    buf.name = part.bufferName;
    buf.ndim = ext.arrays[part.arrayId].ndim();
    buf.offset = part.offset;
    buf.sizeExpr = part.sizeExpr;
    unit.localBuffers.mut().push_back(std::move(buf));
  }
  if (config.useScratchpad) {
    int numGlobals = static_cast<int>(ext.arrays.size());
    for (size_t s = 0; s < ext.statements.size(); ++s) {
      Statement st = ext.statements[s];
      for (size_t a = 0; a < st.accesses.size(); ++a) {
        int pi = ta.plan.partitionOf[s][a];
        if (pi < 0) continue;
        const PartitionPlan& part = ta.plan.partitions[pi];
        Access& acc = st.accesses[a];
        for (int r = 0; r < acc.fn.rows(); ++r) {
          const AffExpr& off = part.offset[r];
          for (const auto& [name, coeff] : off.terms) {
            auto it = std::find(ext.paramNames.begin(), ext.paramNames.end(), name);
            EMM_CHECK(it != ext.paramNames.end(), "offset mentions unknown parameter");
            int pj = static_cast<int>(it - ext.paramNames.begin());
            acc.fn.at(r, st.dim() + pj) = subChecked(acc.fn.at(r, st.dim() + pj), coeff);
          }
          acc.fn.at(r, acc.fn.cols() - 1) =
              subChecked(acc.fn.at(r, acc.fn.cols() - 1), off.cnst);
        }
        int bufferId = 0;
        for (int q = 0; q < pi; ++q)
          if (ta.plan.partitions[q].hasBuffer) ++bufferId;
        acc.arrayId = numGlobals + bufferId;
      }
      unit.statements.mut().push_back(std::move(st));
    }
  } else {
    unit.statements = ext.statements;
  }

  // ---- AST construction. ----
  const std::vector<std::string>& pn = block.paramNames;
  auto loopLb = [&](int l) { return boundOverParams(ta.loopBounds[l].lower, true, l, pn); };
  auto loopUb = [&](int l) { return boundOverParams(ta.loopBounds[l].upper, false, l, pn); };
  (void)oldNp;

  auto isSpace = [&](int l) {
    return std::find(plan.spaceLoops.begin(), plan.spaceLoops.end(), l) != plan.spaceLoops.end();
  };
  auto spaceIndex = [&](int l) {
    auto it = std::find(plan.spaceLoops.begin(), plan.spaceLoops.end(), l);
    return static_cast<int>(it - plan.spaceLoops.begin());
  };

  unit.root = AstNode::block();
  AstNode* cursor = &unit.root.mut();

  // Block-tile loops (outer level; FORALL across thread blocks).
  for (int l : plan.spaceLoops) {
    int s = spaceIndex(l);
    AstPtr loop = AstNode::forLoop("b" + std::to_string(l), loopLb(l), loopUb(l),
                                   config.blockTile[s], LoopKind::BlockParallel);
    cursor = cursor->addChild(std::move(loop));
  }

  // Copy fragments, placed at their hoist levels.
  struct CopyFragment {
    int partition;
    bool moveIn;
    AstPtr code;
    int level;
  };
  std::vector<CopyFragment> fragments;
  const std::vector<Dependence> copySetDeps = copySetDependences(ta.plan);
  for (size_t p = 0; p < ta.plan.partitions.size(); ++p) {
    if (!ta.plan.partitions[p].hasBuffer) continue;
    for (bool moveIn : {true, false}) {
      CopyFragment f;
      f.partition = static_cast<int>(p);
      f.moveIn = moveIn;
      f.code = buildCopyCode(ta.plan, static_cast<int>(p), moveIn, copySetDeps);
      if (f.code->children.empty()) continue;  // e.g. read-only buffers move nothing out
      f.level = ta.hoistLevel[p];
      fragments.push_back(std::move(f));
    }
  }

  // Sub-tile loops: iterators ARE the origin parameters, so the plan's copy
  // code and rewritten access functions bind through the environment.
  std::vector<AstNode*> levelNodes;
  levelNodes.push_back(cursor);
  for (int l = 0; l < depth; ++l) {
    for (CopyFragment& f : fragments)
      if (f.moveIn && f.level == l) {
        levelNodes.back()->addChild(
            AstNode::comment("move-in " + ta.plan.partitions[f.partition].bufferName));
        levelNodes.back()->addChild(std::move(f.code));
        levelNodes.back()->addChild(AstNode::sync());
      }
    BoundExpr lb, ub;
    if (isSpace(l)) {
      std::string bIter = "b" + std::to_string(l);
      lb = BoundExpr::single(AffExpr::var(bIter), true);
      ub = loopUb(l);
      ub.parts.push_back(AffExpr::var(bIter).plus(config.blockTile[spaceIndex(l)] - 1));
    } else {
      lb = loopLb(l);
      ub = loopUb(l);
    }
    AstPtr loop = AstNode::forLoop(ta.originParams[l], lb, ub, config.subTile[l]);
    levelNodes.push_back(levelNodes.back()->addChild(std::move(loop)));
  }
  for (CopyFragment& f : fragments)
    if (f.moveIn && f.level == depth) {
      levelNodes.back()->addChild(
          AstNode::comment("move-in " + ta.plan.partitions[f.partition].bufferName));
      levelNodes.back()->addChild(std::move(f.code));
      levelNodes.back()->addChild(AstNode::sync());
    }

  // Thread-tile loops over space loops, then point loops, then calls.
  AstNode* inner = levelNodes.back();
  for (int l : plan.spaceLoops) {
    int s = spaceIndex(l);
    BoundExpr lb = BoundExpr::single(AffExpr::var(ta.originParams[l]), true);
    BoundExpr ub = loopUb(l);
    ub.parts.push_back(AffExpr::var(ta.originParams[l]).plus(config.subTile[l] - 1));
    inner = inner->addChild(AstNode::forLoop("t" + std::to_string(l), lb, ub,
                                             config.threadTile[s], LoopKind::ThreadParallel));
  }
  for (int l = 0; l < depth; ++l) {
    BoundExpr lb, ub;
    if (isSpace(l)) {
      std::string tIter = "t" + std::to_string(l);
      lb = BoundExpr::single(AffExpr::var(tIter), true);
      ub = loopUb(l);
      ub.parts.push_back(AffExpr::var(tIter).plus(config.threadTile[spaceIndex(l)] - 1));
      ub.parts.push_back(AffExpr::var(ta.originParams[l]).plus(config.subTile[l] - 1));
    } else {
      lb = BoundExpr::single(AffExpr::var(ta.originParams[l]), true);
      ub = loopUb(l);
      ub.parts.push_back(AffExpr::var(ta.originParams[l]).plus(config.subTile[l] - 1));
    }
    inner = inner->addChild(AstNode::forLoop("p" + std::to_string(l), lb, ub));
  }
  for (size_t s = 0; s < unit.statements.size(); ++s) {
    std::vector<AffExpr> args;
    for (int l = 0; l < depth; ++l) args.push_back(AffExpr::var("p" + std::to_string(l)));
    inner->addChild(AstNode::call(static_cast<int>(s), std::move(args)));
  }

  // Move-out fragments at their levels (after the deeper loops).
  for (CopyFragment& f : fragments)
    if (!f.moveIn) {
      AstNode* host = levelNodes[f.level];
      host->addChild(AstNode::sync());
      host->addChild(
          AstNode::comment("move-out " + ta.plan.partitions[f.partition].bufferName));
      host->addChild(std::move(f.code));
    }

  for (int l : plan.spaceLoops) result.spaceLoopRange.mut().emplace_back(loopLb(l), loopUb(l));
  result.unit = std::move(unit);
  return result;
}

}  // namespace emm
