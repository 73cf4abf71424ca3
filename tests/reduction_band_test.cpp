// Tests for the tiling rule on loops outside the permutable band: such a
// loop may be split into tiles only when every dependence that keeps it out
// of the band is a reduction dependence (an associative accumulate of one
// statement); otherwise its one tile candidate is its full extent. The
// block evaluator, the symbolic plan and the plan-only search of the family
// binder apply the same verdict.
#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "testgen/diff_runner.h"
#include "testgen/generator.h"
#include "tilesearch/tile_evaluator.h"
#include "transform/transform.h"

namespace emm {
namespace {

/// A row of a statement over [iters, 1] (no parameters).
IntVec rowOf(std::initializer_list<i64> v) { return IntVec(v); }

/// An access matrix over [iters, 1] with one row per array dimension.
IntMat accessOf(int dim, const std::vector<IntVec>& rows) {
  IntMat m(static_cast<int>(rows.size()), dim + 1);
  for (size_t r = 0; r < rows.size(); ++r)
    for (int c = 0; c <= dim; ++c) m.at(static_cast<int>(r), c) = rows[r][c];
  return m;
}

/// Program 17 of generator seed 7, minimized: A0[i1][i0] = A0[i0+i1-1][i0]
/// over 0 <= i0 <= 2, 1 <= i1 <= 2, 0 <= i2 <= 6. The loop i2 is unused;
/// the flow dependence carried by i1 has an i2 distance of both signs, so
/// the band is (i0, i1).
ProgramBlock seed7Program17() {
  ProgramBlock block;
  block.name = "seed7_p17";
  block.arrays = {{"A0", {4, 3}}};
  Statement s;
  s.name = "S0";
  s.domain = Polyhedron(3, 0);
  for (const IntVec& r : {rowOf({1, 0, 0, 0}), rowOf({-1, 0, 0, 2}), rowOf({0, 1, 0, -1}),
                          rowOf({0, -1, 0, 2}), rowOf({0, 0, 1, 0}), rowOf({0, 0, -1, 6})})
    s.domain.addInequality(r);
  Access w{0, accessOf(3, {rowOf({0, 1, 0, 0}), rowOf({1, 0, 0, 0})}), true};
  Access r{0, accessOf(3, {rowOf({1, 1, 0, -1}), rowOf({1, 0, 0, 0})}), false};
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::load(1);
  s.schedule = ProgramBlock::interleavedSchedule(3, 0, {0, 0, 0, 0});
  block.statements.push_back(std::move(s));
  block.validate();
  return block;
}

/// A one-statement 1-D block X[i] = <rhs> over 0 <= i <= 9, with accesses
/// 0 = write X[i], 1 = read X[i], 2 = read X[i-1] (when `shifted`), the
/// last = read Y[i].
Statement accumulate(ExprPtr rhs, bool shifted) {
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addInequality(rowOf({1, 0}));
  s.domain.addInequality(rowOf({-1, 9}));
  s.accesses.push_back({0, accessOf(1, {rowOf({1, 0})}), true});
  s.accesses.push_back({0, accessOf(1, {rowOf({1, 0})}), false});
  if (shifted) s.accesses.push_back({0, accessOf(1, {rowOf({1, -1})}), false});
  s.accesses.push_back({1, accessOf(1, {rowOf({1, 0})}), false});
  s.writeAccess = 0;
  s.rhs = std::move(rhs);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  return s;
}

TEST(ReductionBand, AccumulateFormNeedsAnAssociativeUpdateOfTheWrittenElement) {
  const ExprPtr x = Expr::load(1), y = Expr::load(2);
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::add(x, y), false)), 1);
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::add(y, x), false)), 1);
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::max(x, Expr::abs(y)), false)), 1);
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::sub(x, y), false)), -1);  // not associative
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::add(x, Expr::mul(x, y)), false)), -1);
  // X[i] = X[i] + X[i-1]: X is read through another access too.
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::add(x, Expr::load(2)), true)), -1);
  // X[i] = X[i-1] + Y[i]: the read is not the written element.
  EXPECT_EQ(accumulateReadAccess(accumulate(Expr::add(Expr::load(2), Expr::load(3)), true)), -1);
}

TEST(ReductionBand, MeWindowLoopTilesThroughItsReductionAtW32) {
  IntVec params;
  const ProgramBlock block = buildKernelByName("me", {256, 128, 32}, params);
  const std::vector<Dependence> deps = computeDependences(block);
  ASSERT_FALSE(deps.empty());
  for (const Dependence& d : deps) EXPECT_TRUE(isReductionDependence(block, d));
  const ParallelismPlan plan = findParallelism(block, deps);
  EXPECT_EQ(plan.band.size(), 3u);  // the window loop l is outside the band
  EXPECT_EQ(reductionTilableDepth(block, plan), 4);

  Compiler c(block);
  CompileOptions o;
  o.paramValues = params;
  o.kernelName = "me_kernel";
  c.options(o);
  const CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_EQ(r.search.subTile, (std::vector<i64>{32, 16, 32, 8}));
}

TEST(ReductionBand, Seed7Program17KeepsItsUnusedLoopWhole) {
  const ProgramBlock block = seed7Program17();
  const std::vector<Dependence> deps = computeDependences(block);
  for (const Dependence& d : deps) EXPECT_FALSE(isReductionDependence(block, d));
  const ParallelismPlan plan = findParallelism(block, deps);
  ASSERT_EQ(plan.band.size(), 2u);
  EXPECT_EQ(reductionTilableDepth(block, plan), 2);

  const testgen::DiffOptions diff;
  TileSearchOptions opts = diff.baseOptions.tileSearchOptions();
  opts.paramValues = {};
  const TileEvaluator evaluator(block, plan, opts, diff.baseOptions.smemOptions());
  EXPECT_EQ(evaluator.candidates()[2], (std::vector<i64>{7}));  // i2's full extent
  EXPECT_GT(evaluator.candidates()[1].size(), 1u);              // band loops still tile

  // The compiled unit agrees with the interpreter oracle again.
  const testgen::DiffResult result = testgen::DiffRunner(diff).run({block, {}, 7, 17});
  EXPECT_TRUE(result.compiled);
  EXPECT_TRUE(result.ok) << result.failedCheck << ": " << result.detail;
  Compiler c(block);
  c.options(diff.baseOptions);
  const CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_EQ(r.search.subTile.size(), 3u);
  EXPECT_EQ(r.search.subTile[2], 7);
}

TEST(ReductionBand, GivenTileMayNotSplitALoopANonReductionOrders) {
  const ProgramBlock block = seed7Program17();
  const testgen::DiffOptions diff;
  Compiler split(block);
  split.options(diff.baseOptions).tileSizes({3, 2, 4});
  const CompileResult rejected = split.compile();
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.firstError().find("outside the permutable band"), std::string::npos)
      << rejected.firstError();

  // The whole loop is a valid given tile, and agrees with the oracle.
  testgen::DiffOptions whole = diff;
  whole.baseOptions.subTile = {3, 2, 7};
  const testgen::DiffResult result = testgen::DiffRunner(whole).run({block, {}, 7, 17});
  EXPECT_TRUE(result.compiled);
  EXPECT_TRUE(result.ok) << result.failedCheck << ": " << result.detail;

  // ME's window loop is ordered only by its reduction: a given tile may
  // split it.
  IntVec params;
  Compiler me(buildKernelByName("me", {64, 32, 8}, params));
  me.parameters(params).tileSizes({16, 16, 8, 4});
  EXPECT_TRUE(me.compile().ok);
}

TEST(ReductionBand, FamilyPlanCarriesTheVerdictToThePlanOnlySearch) {
  // Program 96 of seed 1: band (i0, i1) of a depth-3 nest whose third loop
  // is ordered by a dependence that is not a reduction; the symbolic plan
  // serves it, so its family binds sizes through a plan-only search.
  testgen::GeneratorOptions gen;
  gen.seed = 1;
  const testgen::GeneratedProgram program = testgen::ProgramGenerator(gen).generate(96);
  const testgen::DiffOptions diff;
  PlanCache cache;
  Compiler c(program.block);
  c.options(diff.baseOptions).parameters(program.paramValues).cache(&cache);
  const CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_EQ(r.plan.band.size(), 2u);
  std::shared_ptr<const FamilyPlan> family = c.cachedFamily(program.block);
  ASSERT_NE(family, nullptr);
  ASSERT_NE(family->tilePlan, nullptr);
  EXPECT_EQ(family->tilePlan->tilableDepth(), 2);

  const TileSearchOptions opts = c.opts().tileSearchOptions();
  TileEvaluator planOnly(family->tilePlan, opts);
  const std::vector<i64> whole = {std::max<i64>(planOnly.loopRange(2), 1)};
  EXPECT_EQ(planOnly.candidates()[2], whole);
  EXPECT_EQ(r.search.subTile[2], whole[0]);
  // The same search, plan-only, lands on the compile's tile.
  const TileSearchResult bound = searchTileSizes(planOnly);
  EXPECT_EQ(bound.subTile, r.search.subTile);
}

}  // namespace
}  // namespace emm
