// Tests for the parametric tile analysis: the SymExpr layer, the
// ParametricTilePlan's equivalence with the concrete per-candidate
// evaluator (ME, jacobi 1-D/2-D, matmul; randomized candidate points), the
// fallback diagnostics, and byte-identical pipeline artifacts across the
// two evaluation paths.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "deps/dependence.h"
#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "sym/sym_expr.h"
#include "testgen/generator.h"
#include "tilesearch/tile_evaluator.h"
#include "transform/transform.h"

namespace emm {
namespace {

// ---- SymExpr layer. ----

TEST(SymExprTest, ConstantFoldingAndIdentities) {
  SymPtr five = SymExpr::add(SymExpr::constant(2), SymExpr::constant(3));
  ASSERT_EQ(five->kind(), SymExpr::Kind::Const);
  EXPECT_EQ(five->constValue(), 5);
  SymPtr t = SymExpr::param(0, "T");
  EXPECT_EQ(SymExpr::mul(SymExpr::constant(1), t).get(), t.get());
  EXPECT_EQ(SymExpr::add(t, SymExpr::constant(0)).get(), t.get());
  EXPECT_EQ(SymExpr::mul(t, SymExpr::constant(0))->constValue(), 0);
  EXPECT_EQ(SymExpr::floorDiv(t, SymExpr::constant(1)).get(), t.get());
  EXPECT_EQ(SymExpr::ceilDiv(SymExpr::constant(7), SymExpr::constant(2))->constValue(), 4);
  EXPECT_EQ(SymExpr::floorDiv(SymExpr::constant(-7), SymExpr::constant(2))->constValue(), -4);
}

TEST(SymExprTest, EvaluatesAffineMinMaxAndDivisions) {
  SymPtr t0 = SymExpr::param(0, "T0");
  SymPtr t1 = SymExpr::param(1, "T1");
  // e = min(3*T0 + T1 - 1, 40) and occ = ceil(100 / T0)
  SymPtr e = SymExpr::min(SymExpr::affine(-1, {{3, t0}, {1, t1}}), SymExpr::constant(40));
  SymPtr occ = SymExpr::ceilDiv(SymExpr::constant(100), t0);
  EXPECT_EQ(e->eval({4, 8}), 19);
  EXPECT_EQ(e->eval({16, 8}), 40);  // capped by the min
  EXPECT_EQ(occ->eval({16, 8}), 7);
  EXPECT_EQ(occ->eval({3, 8}), 34);
  EXPECT_EQ(e->maxParamIndex(), 1);
  EXPECT_EQ(occ->maxParamIndex(), 0);
  EXPECT_NE(e->str().find("min("), std::string::npos);
}

TEST(SymExprTest, RationalEvaluationRoundsDivisionsExactly) {
  SymPtr t = SymExpr::param(0, "T");
  SymPtr e = SymExpr::ceilDiv(SymExpr::affine(1, {{1, t}}), SymExpr::constant(2));
  // At T = 5/2: ceil((5/2 + 1) / 2) = ceil(7/4) = 2, an exact integer Rat.
  Rat v = e->evalRat({Rat(5, 2)});
  EXPECT_TRUE(v.isInteger());
  EXPECT_EQ(v.num(), 2);
  // Plain affine arithmetic stays rational: (T + 1) at T=5/2 is 7/2.
  Rat a = SymExpr::affine(1, {{1, t}})->evalRat({Rat(5, 2)});
  EXPECT_EQ(a, Rat(7, 2));
}

TEST(SymExprTest, IntervalEnclosureIsTightForMonotoneOps) {
  SymPtr t0 = SymExpr::param(0, "T0");
  SymPtr t1 = SymExpr::param(1, "T1");
  // footprint-shaped: (T0 + 2) * T1
  SymPtr fp = SymExpr::mul(SymExpr::affine(2, {{1, t0}}), t1);
  SymInterval box0{1, 32}, box1{2, 8};
  SymInterval r = fp->evalInterval({box0, box1});
  EXPECT_EQ(r.lo, 3 * 2);
  EXPECT_EQ(r.hi, 34 * 8);
  // trip-count-shaped: ceil(100 / T0) is antitone in T0.
  SymInterval occ = SymExpr::ceilDiv(SymExpr::constant(100), t0)->evalInterval({box0, box1});
  EXPECT_EQ(occ.lo, 4);   // at T0 = 32
  EXPECT_EQ(occ.hi, 100);  // at T0 = 1
  // min/max combine endpoint-wise.
  SymInterval m = SymExpr::min(t0, t1)->evalInterval({box0, box1});
  EXPECT_EQ(m.lo, 1);
  EXPECT_EQ(m.hi, 8);
}

TEST(SymExprTest, RejectsNonPositiveDivisors) {
  EXPECT_THROW(SymExpr::ceilDiv(SymExpr::constant(4), SymExpr::constant(0)), ApiError);
  EXPECT_THROW(SymExpr::floorDiv(SymExpr::constant(4), SymExpr::constant(-2)), ApiError);
}

TEST(SymExprTest, DivisionIntervalsStaySoundForNegativeNumerators) {
  // Regression: for a negative numerator the quotient grows with the
  // divisor, so the enclosure must come from the four corners, not from a
  // fixed monotonicity assumption.
  SymPtr n = SymExpr::param(0, "n");
  SymPtr d = SymExpr::param(1, "d");
  SymInterval f = SymExpr::floorDiv(n, d)->evalInterval({{-10, -4}, {1, 5}});
  EXPECT_EQ(f.lo, -10);  // floor(-10 / 1)
  EXPECT_EQ(f.hi, -1);   // floor(-4 / 5)
  SymInterval c = SymExpr::ceilDiv(n, d)->evalInterval({{-10, -4}, {1, 5}});
  EXPECT_EQ(c.lo, -10);
  EXPECT_EQ(c.hi, 0);  // ceil(-4 / 5)
  // Mixed-sign numerator spans zero.
  SymInterval m = SymExpr::floorDiv(n, d)->evalInterval({{-3, 7}, {2, 2}});
  EXPECT_EQ(m.lo, -2);
  EXPECT_EQ(m.hi, 3);
}

// ---- Parametric vs concrete evaluator equivalence. ----

void expectSameEvaluation(const TileEvaluation& a, const TileEvaluation& b,
                          const std::vector<i64>& tile) {
  std::string at = "tile (";
  for (size_t i = 0; i < tile.size(); ++i) at += (i ? "," : "") + std::to_string(tile[i]);
  at += ")";
  EXPECT_EQ(a.feasible, b.feasible) << at;
  EXPECT_EQ(a.reason, b.reason) << at;
  EXPECT_EQ(a.footprint, b.footprint) << at;
  // Bit-identical, not merely close: both paths combine identical integers
  // with the same floating-point expression.
  EXPECT_EQ(a.cost, b.cost) << at;
  ASSERT_EQ(a.terms.size(), b.terms.size()) << at;
  for (size_t i = 0; i < a.terms.size(); ++i) {
    EXPECT_EQ(a.terms[i].name, b.terms[i].name) << at;
    EXPECT_EQ(a.terms[i].occurrences, b.terms[i].occurrences) << at;
    EXPECT_EQ(a.terms[i].volumeIn, b.terms[i].volumeIn) << at;
    EXPECT_EQ(a.terms[i].volumeOut, b.terms[i].volumeOut) << at;
    EXPECT_EQ(a.terms[i].hoistLevel, b.terms[i].hoistLevel) << at;
  }
}

/// Evaluates ladder corners plus `randomProbes` random candidate points
/// through both evaluation paths and asserts identical results everywhere.
void runEquivalence(const ProgramBlock& block, const ParallelismPlan& plan, const IntVec& params,
                    i64 memLimitElems, unsigned seed, int randomProbes = 30) {
  TileSearchOptions opts;
  opts.paramValues = params;
  opts.memLimitElems = memLimitElems;
  opts.innerProcs = 4;  // small P: most random candidates survive the cheap cut
  SmemOptions smem;
  smem.sampleParams = params;

  TileSearchOptions concreteOpts = opts;
  concreteOpts.parametric = false;
  TileEvaluator parametric(block, plan, opts, smem);
  TileEvaluator concrete(block, plan, concreteOpts, smem);

  const int depth = parametric.depth();
  std::vector<std::vector<i64>> tiles;
  // Ladder corners and midpoints stress the boundary formulas.
  std::vector<i64> lo(depth), mid(depth), hi(depth);
  for (int l = 0; l < depth; ++l) {
    const std::vector<i64>& c = parametric.candidates()[l];
    lo[l] = c.front();
    mid[l] = c[c.size() / 2];
    hi[l] = c.back();
  }
  tiles.push_back(lo);
  tiles.push_back(mid);
  tiles.push_back(hi);
  std::mt19937 rng(seed);
  for (int i = 0; i < randomProbes; ++i) {
    std::vector<i64> tile(depth);
    for (int l = 0; l < depth; ++l) {
      i64 range = std::max<i64>(parametric.loopRange(l), 1);
      tile[l] = std::uniform_int_distribution<i64>(1, range)(rng);
    }
    tiles.push_back(std::move(tile));
  }

  int feasibleSeen = 0;
  for (const std::vector<i64>& tile : tiles) {
    const TileEvaluation& a = parametric.evaluate(tile);
    const TileEvaluation& b = concrete.evaluate(tile);
    expectSameEvaluation(a, b, tile);
    feasibleSeen += a.feasible ? 1 : 0;
  }
  ASSERT_GT(feasibleSeen, 0) << "equivalence run never exercised the feasible path";
  EXPECT_EQ(parametric.parametricState(), TileEvaluator::ParametricState::Active)
      << parametric.fallbackReason();
  EXPECT_EQ(concrete.parametricState(), TileEvaluator::ParametricState::Fallback);
  // The parametric path pays for exactly the two validation probes.
  EXPECT_LE(parametric.analysesRun(), 2);
  EXPECT_GT(concrete.analysesRun(), 2);

  // Interval sanity: every evaluated footprint lies inside the plan's
  // enclosure over the full tile box.
  const ParametricTilePlan* symPlan = parametric.parametricPlan();
  ASSERT_NE(symPlan, nullptr);
  std::vector<SymInterval> box(depth);
  for (int l = 0; l < depth; ++l) box[l] = {1, std::max<i64>(parametric.loopRange(l), 1)};
  SymInterval enclosure = symPlan->footprintInterval(box);
  for (const std::vector<i64>& tile : tiles) {
    const TileEvaluation& ev = parametric.evaluate(tile);
    if (ev.footprint == 0) continue;  // cheap-rejected candidates carry none
    EXPECT_GE(ev.footprint, enclosure.lo);
    EXPECT_LE(ev.footprint, enclosure.hi);
  }
}

TEST(ParametricEquivalence, MeKernelMatchesConcreteEvaluationEverywhere) {
  ProgramBlock block = buildMeBlock(32, 32, 8);
  std::vector<Dependence> deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  runEquivalence(block, plan, {32, 32, 8}, 2048, /*seed=*/1);
}

TEST(ParametricEquivalence, Jacobi1dMatchesConcreteEvaluationEverywhere) {
  // The driver maps Jacobi through the concurrent-start kernels, but the
  // Section-3/4.3 machinery itself is well-defined on the block; both
  // evaluation paths must agree on it all the same.
  ProgramBlock block = buildJacobiBlock(64, 8);
  runEquivalence(block, ParallelismPlan{}, {64, 8}, 4096, /*seed=*/2);
}

TEST(ParametricEquivalence, Jacobi2dMatchesConcreteEvaluationEverywhere) {
  ProgramBlock block = buildJacobi2dBlock(24, 20, 6);
  runEquivalence(block, ParallelismPlan{}, {24, 20, 6}, 8192, /*seed=*/3);
}

TEST(ParametricEquivalence, MatmulMatchesConcreteEvaluationEverywhere) {
  ProgramBlock block = buildMatmulBlock(48, 40, 32);
  std::vector<Dependence> deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  runEquivalence(block, plan, {48, 40, 32}, 4096, /*seed=*/4);
}

TEST(ParametricEquivalence, StageEverythingModeMatchesToo) {
  // Cell-style staging (onlyBeneficial = false) buffers every partition;
  // the parametric path must reproduce that configuration as well.
  ProgramBlock block = buildMeBlock(32, 32, 8);
  TileSearchOptions opts;
  opts.paramValues = {32, 32, 8};
  opts.memLimitElems = 4096;
  opts.innerProcs = 4;
  SmemOptions smem;
  smem.sampleParams = {32, 32, 8};
  smem.onlyBeneficial = false;
  TileSearchOptions concreteOpts = opts;
  concreteOpts.parametric = false;
  TileEvaluator parametric(block, ParallelismPlan{}, opts, smem);
  TileEvaluator concrete(block, ParallelismPlan{}, concreteOpts, smem);
  for (const std::vector<i64>& tile :
       {std::vector<i64>{8, 8, 8, 8}, {4, 4, 8, 8}, {16, 8, 4, 4}, {32, 32, 8, 8}})
    expectSameEvaluation(parametric.evaluate(tile), concrete.evaluate(tile), tile);
  EXPECT_EQ(parametric.parametricState(), TileEvaluator::ParametricState::Active)
      << parametric.fallbackReason();
}

/// Interleaved symbolic components with asymmetric members: A's references
/// in discovery order are r0=A[0][j], r1=A[1][0], r2=A[0][j+1]; the
/// symbolic overlap components {r0,r2} and {r1} INTERLEAVE by reference
/// index, and {r0,r2} splits at T_j = 1. Partition discovery order (and
/// with it buffer naming and the per-term stats) must match the concrete
/// analysis exactly: r1 hoists to level 0 (its data space ignores both
/// origins) while r0/r2 stay innermost, so emitting groups component by
/// component would visibly swap the second and third terms.
ProgramBlock buildInterleavedBlock(i64 n) {
  ProgramBlock block;
  block.name = "interleaved";
  block.paramNames = {"N", "Tt"};
  block.arrays = {{"A", {2, n + 1}}, {"B", {n}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(2, 2);
  // Rows over [t, j, N, Tt, 1]: 0 <= t <= Tt-1, 0 <= j <= N-1.
  s.domain.addInequality({1, 0, 0, 0, 0});
  s.domain.addInequality({-1, 0, 0, 1, -1});
  s.domain.addInequality({0, 1, 0, 0, 0});
  s.domain.addInequality({0, -1, 1, 0, -1});
  auto accessTo = [](int arrayId, bool isWrite, std::vector<IntVec> rows) {
    Access a;
    a.arrayId = arrayId;
    a.isWrite = isWrite;
    a.fn = IntMat(0, 5);
    for (const IntVec& r : rows) a.fn.appendRow(r);
    return a;
  };
  s.accesses = {
      accessTo(1, true, {{0, 1, 0, 0, 0}}),                    // B[j]
      accessTo(0, false, {{0, 0, 0, 0, 0}, {0, 1, 0, 0, 0}}),  // A[0][j]
      accessTo(0, false, {{0, 0, 0, 0, 1}, {0, 0, 0, 0, 0}}),  // A[1][0]
      accessTo(0, false, {{0, 0, 0, 0, 0}, {0, 1, 0, 0, 1}}),  // A[0][j+1]
  };
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::add(Expr::load(2), Expr::load(3)));
  s.schedule = ProgramBlock::interleavedSchedule(2, 2, {0, 0, 0});
  block.statements.push_back(std::move(s));
  block.validate();
  return block;
}

TEST(ParametricEquivalence, InterleavedComponentsRefineInConcreteOrder) {
  ProgramBlock block = buildInterleavedBlock(32);
  TileSearchOptions opts;
  opts.paramValues = {32, 8};
  opts.memLimitElems = 4096;
  opts.innerProcs = 2;
  SmemOptions smem;
  smem.sampleParams = {32, 8};
  TileSearchOptions concreteOpts = opts;
  concreteOpts.parametric = false;
  TileEvaluator parametric(block, ParallelismPlan{}, opts, smem);
  TileEvaluator concrete(block, ParallelismPlan{}, concreteOpts, smem);
  // T_j = 1 splits {r0,r2}; partition order must come out in global
  // discovery order (r0, r1, r2), not component-by-component (r0, r2, r1).
  for (const std::vector<i64>& tile :
       {std::vector<i64>{8, 1}, {4, 1}, {2, 1}, {5, 1}, {8, 2}, {3, 3}, {8, 8}, {2, 32}})
    expectSameEvaluation(parametric.evaluate(tile), concrete.evaluate(tile), tile);
  EXPECT_EQ(parametric.parametricState(), TileEvaluator::ParametricState::Active)
      << parametric.fallbackReason();
  const TileEvaluation& split = parametric.evaluate({8, 1});
  ASSERT_TRUE(split.feasible) << split.reason;
  ASSERT_EQ(split.terms.size(), 4u);  // A split into three + B
  // terms[1] must be the A[1][0] partition: hoisted all the way out.
  EXPECT_EQ(split.terms[1].name, "LA1");
  EXPECT_EQ(split.terms[1].hoistLevel, 0);
  EXPECT_EQ(split.terms[2].hoistLevel, 2);
}

// ---- Fallback diagnostics. ----

/// A plain 2-D copy kernel: every access has rank == iteration dim, so no
/// partition has order-of-magnitude reuse and the benefit verdict needs the
/// sampled constant-reuse test — which depends on tile sizes.
ProgramBlock buildCopyBlock(i64 n) {
  ProgramBlock block;
  block.name = "copy2d";
  block.paramNames = {"N"};
  block.arrays = {{"A", {n, n}}, {"B", {n, n}}};
  Statement s;
  s.name = "Scopy";
  s.domain = Polyhedron(2, 1);
  // 0 <= i,j <= N-1.
  for (int v = 0; v < 2; ++v) {
    IntVec lo(4, 0), hi(4, 0);
    lo[v] = 1;
    s.domain.addInequality(lo);
    hi[v] = -1;
    hi[2] = 1;
    hi[3] = -1;
    s.domain.addInequality(hi);
  }
  IntMat fn(0, 4);
  {
    IntVec r0(4, 0), r1(4, 0);
    r0[0] = 1;
    r1[1] = 1;
    fn.appendRow(r0);
    fn.appendRow(r1);
  }
  Access w;
  w.arrayId = 1;
  w.isWrite = true;
  w.fn = fn;
  Access r;
  r.arrayId = 0;
  r.isWrite = false;
  r.fn = fn;
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::load(1);
  s.schedule = ProgramBlock::interleavedSchedule(2, 1, {0, 0, 0});
  block.statements.push_back(std::move(s));
  block.validate();
  return block;
}

TEST(ParametricFallback, RectangularBenefitVerdictCompilesSymbolically) {
  // Every access has rank == iteration dim, so the Algorithm-1 verdict
  // needs the sampled constant-reuse test. The data spaces are axis-aligned
  // boxes, so the capped point counts are exact closed forms and the plan
  // compiles the verdict instead of falling back.
  ProgramBlock block = buildCopyBlock(32);
  TileSearchOptions opts;
  opts.paramValues = {32};
  opts.memLimitElems = 4096;
  opts.innerProcs = 1;
  SmemOptions smem;
  smem.sampleParams = {32};
  TileSearchOptions concreteOpts = opts;
  concreteOpts.parametric = false;
  TileEvaluator parametric(block, ParallelismPlan{}, opts, smem);
  TileEvaluator concrete(block, ParallelismPlan{}, concreteOpts, smem);
  for (const std::vector<i64>& tile :
       {std::vector<i64>{8, 8}, {1, 1}, {4, 16}, {32, 32}, {2, 8}})
    expectSameEvaluation(parametric.evaluate(tile), concrete.evaluate(tile), tile);
  EXPECT_EQ(parametric.parametricState(), TileEvaluator::ParametricState::Active)
      << parametric.fallbackReason();
}

TEST(ParametricFallback, NonRectangularBenefitVerdictFallsBackWithAReason) {
  // Skew the read to A[i+j][j]: its data space is a parallelogram, not an
  // axis-aligned box, so the box point count stops being exact and the
  // tile-dependent verdict is no longer compilable — the evaluator must
  // fall back with a reason instead of serving wrong counts.
  ProgramBlock block = buildCopyBlock(32);
  block.arrays[0].extents = {64, 32};  // room for the skewed footprint
  for (Statement& s : block.statements)
    for (Access& a : s.accesses)
      if (!a.isWrite) a.fn.at(0, 1) = 1;  // row 0: i + j
  block.validate();
  TileSearchOptions opts;
  opts.paramValues = {32};
  opts.memLimitElems = 4096;
  opts.innerProcs = 1;
  SmemOptions smem;
  smem.sampleParams = {32};
  TileEvaluator evaluator(block, ParallelismPlan{}, opts, smem);
  const TileEvaluation& ev = evaluator.evaluate({8, 8});
  EXPECT_EQ(evaluator.parametricState(), TileEvaluator::ParametricState::Fallback);
  EXPECT_NE(evaluator.fallbackReason().find("order-of-magnitude"), std::string::npos)
      << evaluator.fallbackReason();
  // The fallback still evaluates candidates (concretely).
  EXPECT_TRUE(ev.feasible || !ev.reason.empty());
}

TEST(ParametricFallback, DisablingTheOptionPinsTheConcretePath) {
  ProgramBlock block = buildMeBlock(32, 32, 8);
  TileSearchOptions opts;
  opts.paramValues = {32, 32, 8};
  opts.parametric = false;
  SmemOptions smem;
  smem.sampleParams = {32, 32, 8};
  TileEvaluator evaluator(block, ParallelismPlan{}, opts, smem);
  evaluator.evaluate({8, 8, 8, 8});
  EXPECT_EQ(evaluator.parametricState(), TileEvaluator::ParametricState::Fallback);
  EXPECT_NE(evaluator.fallbackReason().find("disabled"), std::string::npos);
}

// ---- Plan-only search (the runtime binder's argmin re-check). ----

TEST(PlanOnlySearch, MatchesTheEvaluatorBackedSearch) {
  // Repeated ladder values exercise the value-keyed memo: a repeated tile
  // is a memo hit, never a second evaluation.
  ProgramBlock block = buildMeBlock(32, 32, 8);
  std::vector<Dependence> deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  TileSearchOptions opts;
  opts.paramValues = {32, 32, 8};
  opts.memLimitElems = 2048;
  opts.innerProcs = 4;
  SmemOptions smem;
  smem.sampleParams = opts.paramValues;
  const int depth = TileEvaluator(block, plan, opts, smem).depth();
  opts.candidates.assign(depth, {1, 2, 2, 4, 8, 8, 16});

  for (bool exhaustive : {true, false}) {
    SCOPED_TRACE(exhaustive ? "exhaustive" : "descent");
    TileEvaluator evaluator(block, plan, opts, smem);
    const TileSearchResult expected =
        exhaustive ? exhaustiveTileSearch(evaluator) : searchTileSizes(evaluator);
    ASSERT_TRUE(expected.parametric) << expected.parametricReason;
    TileEvaluator planOnly(evaluator.sharedPlan(), opts);
    const TileSearchResult got =
        exhaustive ? exhaustiveTileSearch(planOnly) : searchTileSizes(planOnly);

    ASSERT_TRUE(got.eval.feasible);
    EXPECT_EQ(got.subTile, expected.subTile);
    expectSameEvaluation(got.eval, expected.eval, got.subTile);
    EXPECT_EQ(got.prunedBoxes, expected.prunedBoxes);
    EXPECT_EQ(planOnly.candidates(), evaluator.candidates());  // the same pruned ladders
    // Same probes in the same order; the evaluator's validation probes may
    // turn some of its misses into hits, so compare the totals.
    EXPECT_EQ(got.evaluations + got.memoHits, expected.evaluations + expected.memoHits);
    if (exhaustive) {
      int distinct = 1;
      for (const std::vector<i64>& ladder : evaluator.candidates())
        distinct *= static_cast<int>(std::set<i64>(ladder.begin(), ladder.end()).size());
      EXPECT_EQ(got.evaluations, distinct);
      EXPECT_GT(got.memoHits, 0);
    }
  }
}

TEST(PlanOnlySearch, OverflowingSizeRejectsTheBindAndFallsBackCleanly) {
  // At ni = nj = 2^40 the footprint formulas of the larger ladder tiles
  // overflow int64. The binder must reject the size with the overflow as
  // its reason, the pipeline fallback must fail with a diagnostic (not
  // abort), and the family must keep serving ordinary sizes.
  auto compileMe = [](const std::vector<i64>& sizes, PlanCache& cache) {
    IntVec params;
    Compiler c(buildKernelByName("me", sizes, params));
    CompileOptions o;
    o.paramValues = params;
    o.kernelName = "me_kernel";
    c.options(o).cache(&cache);
    return c.compile();
  };
  PlanCache cache;
  ASSERT_TRUE(compileMe({}, cache).ok);
  CompileResult r = compileMe({i64{1} << 40, i64{1} << 40, 16}, cache);
  EXPECT_TRUE(r.familyHit);
  EXPECT_FALSE(r.artifactBound);
  EXPECT_FALSE(r.ok);
  bool rejected = false;
  for (const Diagnostic& d : r.diagnostics)
    rejected = rejected ||
               d.message == "size binding rejected: int64 overflow in exact arithmetic";
  EXPECT_TRUE(rejected);
  EXPECT_EQ(r.firstError(), "int64 overflow in exact arithmetic");
  CompileResult ok = compileMe({272, 128, 16}, cache);
  EXPECT_TRUE(ok.ok && ok.artifactBound);
}

// ---- The compiled plan on generated programs. ----

/// One generated program whose plan builds: the transformed block and its
/// parallelism plan, and the family plan built at the program's own size.
struct GeneratedPlan {
  u64 index = 0;
  ProgramBlock block;
  ParallelismPlan plan;
  IntVec params;
  std::shared_ptr<const ParametricTilePlan> tilePlan;
};

TileSearchOptions generatedSearchOptions(const IntVec& params) {
  TileSearchOptions o;
  o.paramValues = params;
  o.innerProcs = 4;  // generated loops are short
  return o;
}

SmemOptions generatedSmem(const IntVec& params) {
  SmemOptions s;
  s.sampleParams = params;
  return s;
}

/// The first 64 programs of ProgramGenerator seed 1 whose plan builds
/// (transformed by makeTilable, not pipeline-parallel, innerProcs 4).
/// Listed rather than searched for: the 1,369 programs in between cost
/// 20 s of skew search. The generator is deterministic, so the list holds
/// until the generator changes; generatedPlans() says when it has.
constexpr u64 kPlanPrograms[] = {
    15,   27,   58,   60,   96,   149,  182,  195,  226,  237,  241,  244,  247,
    301,  309,  320,  345,  407,  413,  437,  456,  457,  467,  485,  532,  576,
    582,  664,  690,  710,  719,  732,  753,  797,  800,  807,  808,  816,  837,
    882,  888,  890,  893,  895,  943,  946,  962,  984,  990,  1009, 1021, 1024,
    1118, 1131, 1177, 1244, 1276, 1295, 1320, 1348, 1365, 1372, 1389, 1432};
constexpr int kPlanShards = 8;
constexpr size_t kPlansPerShard = std::size(kPlanPrograms) / kPlanShards;

/// Shard `shard` of kPlanPrograms, with their plans.
std::vector<GeneratedPlan> generatedPlans(int shard) {
  testgen::GeneratorOptions go;
  go.seed = 1;
  testgen::ProgramGenerator gen(go);
  std::vector<GeneratedPlan> out;
  for (size_t k = shard * kPlansPerShard; k < (shard + 1) * kPlansPerShard; ++k) {
    const u64 index = kPlanPrograms[k];
    testgen::GeneratedProgram g = gen.generate(index);
    std::shared_ptr<const ParametricTilePlan> tilePlan;
    TransformResult tr;
    try {
      tr = makeTilable(g.block);
      TileEvaluator ev(tr.block, tr.plan, generatedSearchOptions(g.paramValues),
                       generatedSmem(g.paramValues));
      ev.prepareSearch();
      if (!tr.plan.needsInterBlockSync) tilePlan = ev.sharedPlan();
    } catch (const ApiError&) {
    }
    if (tilePlan == nullptr) {
      ADD_FAILURE() << "program " << index
                    << " of seed 1 no longer builds a plan; the generator changed, so "
                       "refresh kPlanPrograms";
      continue;
    }
    out.push_back({index, std::move(tr.block), std::move(tr.plan), g.paramValues, tilePlan});
  }
  return out;
}

/// A program's own size and, when it has size parameters, twice and three
/// times that.
std::vector<IntVec> checkSizes(const IntVec& params) {
  std::vector<IntVec> out = {params};
  if (params.empty()) return out;
  for (i64 factor : {2, 3}) {
    IntVec scaled = params;
    for (i64& v : scaled) v *= factor;
    out.push_back(std::move(scaled));
  }
  return out;
}

/// Calls `f` on every tile of the ladder grid.
template <class F>
void forEachLadderTile(const std::vector<std::vector<i64>>& ladders, F&& f) {
  std::vector<size_t> idx(ladders.size(), 0);
  std::vector<i64> tile(ladders.size());
  while (true) {
    for (size_t l = 0; l < ladders.size(); ++l) tile[l] = ladders[l][idx[l]];
    f(tile);
    size_t l = ladders.size();
    while (l > 0 && ++idx[l - 1] == ladders[l - 1].size()) idx[--l] = 0;
    if (l == 0) return;
  }
}

std::string describe(const GeneratedPlan& g, const IntVec& size) {
  std::string out = "program " + std::to_string(g.index) + " at size (";
  for (size_t i = 0; i < size.size(); ++i) out += (i ? "," : "") + std::to_string(size[i]);
  return out + ")";
}

class ParametricEquivalenceOnGenerated : public ::testing::TestWithParam<int> {};

TEST_P(ParametricEquivalenceOnGenerated, EveryLadderTileMatchesTheConcreteEvaluator) {
  int sizesChecked = 0;
  for (const GeneratedPlan& g : generatedPlans(GetParam())) {
    for (const IntVec& size : checkSizes(g.params)) {
      SCOPED_TRACE(describe(g, size));
      TileSearchOptions opts = generatedSearchOptions(size);
      SmemOptions smem = generatedSmem(size);
      // The family plan serves a size only where it reproduces the concrete
      // probes there; elsewhere a compile builds a fresh plan.
      TileEvaluator adopting(g.block, g.plan, opts, smem);
      adopting.adoptFamilyPlan(g.tilePlan);
      adopting.prepareSearch();
      if (!adopting.familyAdopted()) continue;
      ++sizesChecked;

      TileSearchOptions concreteOpts = opts;
      concreteOpts.parametric = false;
      TileEvaluator concrete(g.block, g.plan, concreteOpts, smem);
      const ParametricTilePlan& plan = *g.tilePlan;
      const ParametricTilePlan::SizeBinding binding = plan.bindSizes(size);
      ParametricTilePlan::Scratch scratch;
      const std::vector<std::vector<i64>>& ladders = concrete.candidates();
      forEachLadderTile(ladders, [&](const std::vector<i64>& tile) {
        const TileEvaluation& expected = concrete.evaluate(tile);
        if (expected.reason == "tile size out of loop range" ||
            expected.reason == "tile smaller than inner-level process count")
          return;  // cheap constraints: the plan is never asked
        const TileEvaluation got = plan.evaluate(binding, tile, scratch, /*withTerms=*/true);
        expectSameEvaluation(got, expected, tile);
        // Where the structure is coarsest at a tile it stays so above it,
        // and the interval over the box from that tile up encloses the
        // tile's footprint: what box pruning relies on. The lower end holds
        // only while every component is buffered; a component the benefit
        // verdict drops takes its footprint out of the sum.
        if (!plan.coarsestStructureAt(binding, tile, scratch)) return;
        std::vector<SymInterval> box(tile.size());
        for (size_t l = 0; l < tile.size(); ++l) box[l] = {tile[l], ladders[l].back()};
        const SymInterval enclosure = plan.footprintInterval(binding, box, scratch);
        EXPECT_GE(enclosure.hi, got.footprint);
        if (got.feasible && got.terms.size() == plan.analysis().plan.partitions.size()) {
          EXPECT_LE(enclosure.lo, got.footprint);
        }
      });
    }
  }
  EXPECT_GE(sizesChecked, static_cast<int>(kPlansPerShard));
}

INSTANTIATE_TEST_SUITE_P(Seed1, ParametricEquivalenceOnGenerated, ::testing::Range(0, kPlanShards));

class PlanOnlySearchOnGenerated : public ::testing::TestWithParam<int> {};

TEST_P(PlanOnlySearchOnGenerated, MatchesTheEvaluatorBackedSearch) {
  int searches = 0;
  for (const GeneratedPlan& g : generatedPlans(GetParam())) {
    for (const IntVec& size : checkSizes(g.params)) {
      for (bool exhaustive : {false, true}) {
        SCOPED_TRACE(describe(g, size) + (exhaustive ? " exhaustive" : " descent"));
        TileSearchOptions opts = generatedSearchOptions(size);
        TileEvaluator evaluator(g.block, g.plan, opts, generatedSmem(size));
        evaluator.adoptFamilyPlan(g.tilePlan);
        const TileSearchResult expected =
            exhaustive ? exhaustiveTileSearch(evaluator) : searchTileSizes(evaluator);
        if (!expected.familyAdopted) continue;
        ++searches;
        TileEvaluator planOnly(g.tilePlan, opts);
        const TileSearchResult got =
            exhaustive ? exhaustiveTileSearch(planOnly) : searchTileSizes(planOnly);
        EXPECT_EQ(got.subTile, expected.subTile);
        expectSameEvaluation(got.eval, expected.eval, got.subTile);
        EXPECT_EQ(got.prunedBoxes, expected.prunedBoxes);
        EXPECT_EQ(planOnly.candidates(), evaluator.candidates());  // the same pruned ladders
        EXPECT_EQ(got.evaluations + got.memoHits, expected.evaluations + expected.memoHits);
      }
    }
  }
  EXPECT_GE(searches, 2 * static_cast<int>(kPlansPerShard));
}

INSTANTIATE_TEST_SUITE_P(Seed1, PlanOnlySearchOnGenerated, ::testing::Range(0, kPlanShards));

// ---- Full-pipeline equivalence (chosen tiles, geometry hints, artifacts). ----

CompileResult compileKernel(ProgramBlock block, const IntVec& params, bool parametric,
                            const std::string& backend) {
  Compiler compiler(std::move(block));
  compiler.parameters(params).memoryLimitBytes(8 * 1024).backend(backend);
  compiler.opts().parametricTileAnalysis = parametric;
  return compiler.compile();
}

TEST(ParametricPipeline, ArtifactsByteIdenticalAcrossEvaluationPaths) {
  struct Case {
    const char* name;
    ProgramBlock block;
    IntVec params;
  };
  std::vector<Case> cases;
  cases.push_back({"me", buildMeBlock(64, 64, 8), {64, 64, 8}});
  cases.push_back({"matmul", buildMatmulBlock(64, 48, 32), {64, 48, 32}});
  for (Case& c : cases) {
    for (const char* backend : {"c", "cuda"}) {
      CompileResult on = compileKernel(c.block, c.params, true, backend);
      CompileResult off = compileKernel(c.block, c.params, false, backend);
      ASSERT_TRUE(on.ok) << c.name << ": " << on.firstError();
      ASSERT_TRUE(off.ok) << c.name << ": " << off.firstError();
      EXPECT_TRUE(on.search.parametric) << c.name << ": " << on.search.parametricReason;
      EXPECT_FALSE(off.search.parametric);
      EXPECT_EQ(on.search.subTile, off.search.subTile) << c.name;
      EXPECT_EQ(on.search.eval.cost, off.search.eval.cost) << c.name;
      EXPECT_EQ(on.search.eval.footprint, off.search.eval.footprint) << c.name;
      ASSERT_FALSE(on.artifact.empty()) << c.name;
      EXPECT_EQ(on.artifact, off.artifact) << c.name << " backend " << backend;
      // The parametric route handed the tiler instantiated geometry hints.
      EXPECT_FALSE(on.geometryHints.empty()) << c.name;
      EXPECT_TRUE(off.geometryHints.empty()) << c.name;
    }
  }
}

TEST(ParametricPipeline, SurfacesPlanVsEvalTimings) {
  CompileResult r = compileKernel(buildMeBlock(64, 64, 8), {64, 64, 8}, true, "c");
  ASSERT_TRUE(r.ok) << r.firstError();
  const PassTiming* plan = r.timing("tilesearch.plan");
  const PassTiming* eval = r.timing("tilesearch.eval");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(eval, nullptr);
  EXPECT_TRUE(plan->ran);
  EXPECT_GT(plan->millis, 0.0);
  EXPECT_GE(eval->millis, 0.0);
  EXPECT_GT(r.search.planBuildMillis, 0.0);
}

TEST(ParametricPipeline, JacobiPipelinesUnaffectedByTheKnob) {
  // Jacobi rides the pipeline-parallel fallback (no tile search); flipping
  // the knob must not change anything.
  for (const char* kernel : {"jacobi", "jacobi2d"}) {
    IntVec params;
    ProgramBlock on = buildKernelByName(kernel, {}, params);
    ProgramBlock off = on;
    CompileResult a = compileKernel(std::move(on), params, true, "c");
    CompileResult b = compileKernel(std::move(off), params, false, "c");
    ASSERT_TRUE(a.ok) << kernel << ": " << a.firstError();
    ASSERT_TRUE(b.ok) << kernel;
    EXPECT_EQ(a.artifact, b.artifact) << kernel;
  }
}

}  // namespace
}  // namespace emm
