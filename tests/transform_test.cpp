// Tests for the transformation framework: bands, space/time classification,
// skewing legality and semantics preservation.
#include <gtest/gtest.h>

#include <iterator>

#include "codegen/scan.h"
#include "driver/compiler.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "support/field_codec.h"
#include "support/serialize.h"
#include "testgen/diff_runner.h"
#include "testgen/generator.h"
#include "transform/transform.h"

namespace emm {
namespace {

TEST(Transform, MeParallelism) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  // i and j are communication-free space loops (paper Section 6).
  EXPECT_EQ(plan.spaceLoops, (std::vector<int>{0, 1}));
  EXPECT_FALSE(plan.needsInterBlockSync);
  // The band includes at least i, j, k.
  EXPECT_GE(plan.band.size(), 3u);
}

TEST(Transform, MatmulParallelism) {
  ProgramBlock block = buildMatmulBlock(6, 6, 6);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  EXPECT_EQ(plan.spaceLoops, (std::vector<int>{0, 1}));
  EXPECT_FALSE(plan.needsInterBlockSync);
}

TEST(Transform, JacobiNeedsSkewThenPipeline) {
  ProgramBlock block = buildJacobiBlock(32, 8);
  TransformResult tr = makeTilable(block);
  // The i loop must have been repaired (shift of the copy statement plus a
  // skew by t) to make the band permutable.
  ASSERT_EQ(tr.appliedSkews.size(), 1u);
  EXPECT_EQ(tr.appliedSkews[0].first, 1);          // target loop i
  EXPECT_EQ(tr.appliedSkews[0].second.first, 0);   // skewed by t
  EXPECT_GE(tr.appliedSkews[0].second.second, 1);  // positive factor
  // After skewing there is no communication-free loop: pipeline parallelism
  // with inter-block synchronization (the paper's Jacobi case).
  EXPECT_TRUE(tr.plan.needsInterBlockSync);
  EXPECT_EQ(tr.plan.band.size(), 2u);

  // The transformed block still computes Jacobi.
  ArrayStore a(block.arrays), b(tr.block.arrays);
  a.fillAllPattern(3);
  b.fillAllPattern(3);
  executeReference(block, {32, 8}, a);
  executeReference(tr.block, {32, 8}, b);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);
}

TEST(Transform, SkewPreservesSemantics) {
  ProgramBlock block = buildJacobiBlock(24, 6);
  ProgramBlock skewed = skewLoop(block, 1, 0, 1);

  // Execute both through the reference executor; final arrays must agree.
  ArrayStore a(block.arrays), b(skewed.arrays);
  a.fillAllPattern(3);
  b.fillAllPattern(3);
  executeReference(block, {24, 6}, a);
  executeReference(skewed, {24, 6}, b);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);
}

TEST(Transform, SkewedDomainShape) {
  ProgramBlock block = buildJacobiBlock(16, 4);
  ProgramBlock skewed = skewLoop(block, 1, 0, 1);
  // New domain: t in [0,T-1], i' = i + t in [1 + t, N - 2 + t].
  const Polyhedron& d = skewed.statements[0].domain;
  EXPECT_TRUE(d.contains({0, 1, 16, 4}));    // t=0, i'=1
  EXPECT_FALSE(d.contains({1, 1, 16, 4}));   // t=1 needs i' >= 2
  EXPECT_TRUE(d.contains({1, 2, 16, 4}));
  EXPECT_TRUE(d.contains({3, 17, 16, 4}));   // t=3, i' = 14+3
  EXPECT_FALSE(d.contains({3, 18, 16, 4}));
}

TEST(Transform, ShiftPlusSkewMakesJacobiSignsNonNegative) {
  // Skew alone cannot repair two-statement Jacobi: the same-timestep anti
  // dependence between the stencil and the copy statement has distance
  // (0, -1), untouched by skewing against t.
  ProgramBlock block = buildJacobiBlock(32, 8);
  EXPECT_EQ(findSkewFactor(block, 1, 0), -1);
  // Shifting the copy statement by one repairs it with skew factor 2
  // (the classic (t, 2t+i) / (t, 2t+i+1) Pluto transformation).
  ProgramBlock shifted = shiftStatementLoop(block, 1, 1, 1);
  EXPECT_EQ(findSkewFactor(shifted, 1, 0), 2);
  ProgramBlock fixed = skewLoop(shifted, 1, 0, 2);
  auto deps = computeDependences(fixed);
  auto sums = summarizeLoops(fixed, deps, 2);
  EXPECT_NE(sums[1].sign, SignRange::Mixed);
  EXPECT_NE(sums[1].sign, SignRange::Negative);
  EXPECT_NE(sums[1].sign, SignRange::NonPositive);
}

TEST(Transform, ShiftPreservesSemantics) {
  ProgramBlock block = buildJacobiBlock(20, 5);
  ProgramBlock shifted = shiftStatementLoop(block, 1, 1, 1);
  ArrayStore a(block.arrays), b(shifted.arrays);
  a.fillAllPattern(7);
  b.fillAllPattern(7);
  executeReference(block, {20, 5}, a);
  executeReference(shifted, {20, 5}, b);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);
}

TEST(Transform, NoSkewNeededReturnsZero) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  EXPECT_EQ(findSkewFactor(block, 2, 0), 0);
}

TEST(Transform, MakeTilableIdempotentOnMe) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TransformResult tr = makeTilable(block);
  EXPECT_TRUE(tr.appliedSkews.empty());
  EXPECT_EQ(tr.plan.spaceLoops, (std::vector<int>{0, 1}));
}

TEST(Transform, CommonLoopDepth) {
  EXPECT_EQ(commonLoopDepth(buildJacobiBlock(8, 2)), 2);
  EXPECT_EQ(commonLoopDepth(buildMeBlock(4, 4, 2)), 4);
  EXPECT_EQ(commonLoopDepth(buildFigure1Block()), 2);
}

class SkewFactorProperty : public ::testing::TestWithParam<int> {};

TEST_P(SkewFactorProperty, WiderStencilsNeedLargerFactors) {
  // Single-statement in-place stencil A[i] = A[i-r] + A[i+r] over (t, i).
  // The cross-timestep flow dependence write A[i] -> read A[i'+r] with
  // i' = i - r at t+1 has distance (1, -r); repairing it needs factor >= r.
  int r = GetParam();
  ProgramBlock block;
  block.name = "wide";
  block.paramNames = {"N", "T"};
  i64 n = 64;
  block.arrays = {{"A", {n}}};
  const int np = 2, dim = 2;
  Polyhedron d(dim, np);
  {
    IntVec tlo(dim + np + 1, 0), thi(dim + np + 1, 0), ilo(dim + np + 1, 0),
        ihi(dim + np + 1, 0);
    tlo[0] = 1;  // t >= 0
    d.addInequality(tlo);
    thi[0] = -1;  // t <= T - 1
    thi[dim + 1] = 1;
    thi.back() = -1;
    d.addInequality(thi);
    ilo[1] = 1;  // i >= r
    ilo.back() = -r;
    d.addInequality(ilo);
    ihi[1] = -1;  // i <= N - 1 - r
    ihi[dim] = 1;
    ihi.back() = -1 - r;
    d.addInequality(ihi);
  }
  Statement s;
  s.name = "S";
  s.domain = d;
  Access w{0, IntMat(1, dim + np + 1), true};
  w.fn.at(0, 1) = 1;
  Access rl = w;
  rl.isWrite = false;
  rl.fn.at(0, dim + np) = -r;
  Access rr = rl;
  rr.fn.at(0, dim + np) = r;
  s.accesses = {w, rl, rr};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::load(2));
  s.schedule = ProgramBlock::interleavedSchedule(dim, np, {0, 0, 0});
  block.statements.push_back(std::move(s));
  block.validate();
  EXPECT_EQ(findSkewFactor(block, 1, 0, 8), r);
}

INSTANTIATE_TEST_SUITE_P(Radii, SkewFactorProperty, ::testing::Values(1, 2, 3));

/// Generated programs (seed, index) that makeTilable skews: factors 1 to 4,
/// a skew of loop 2 by loop 1, and a skew of two loops (seed 3, 191).
const std::pair<u64, u64> kSkewedPrograms[] = {{1, 29}, {1, 56}, {2, 17}, {1, 18},
                                               {1, 151}, {3, 191}};

testgen::GeneratedProgram generated(u64 seed, u64 index) {
  testgen::GeneratorOptions gen;
  gen.seed = seed;
  return testgen::ProgramGenerator(gen).generate(index);
}

struct SkewCase {
  std::string name;
  ProgramBlock block;
  IntVec params;
};

/// The four built-in kernels at their default sizes, then kSkewedPrograms.
std::vector<SkewCase> skewCases() {
  std::vector<SkewCase> out;
  for (const char* kernel : {"me", "jacobi", "jacobi2d", "matmul"}) {
    SkewCase c{kernel, {}, {}};
    c.block = buildKernelByName(kernel, {}, c.params);
    out.push_back(std::move(c));
  }
  for (const auto& [seed, index] : kSkewedPrograms) {
    testgen::GeneratedProgram g = generated(seed, index);
    out.push_back({"seed " + std::to_string(seed) + " program " + std::to_string(index),
                   std::move(g.block), std::move(g.paramValues)});
  }
  return out;
}

void expectSameTransform(const TransformResult& a, const TransformResult& b) {
  EXPECT_EQ(serializeProgramBlock(a.block), serializeProgramBlock(b.block));
  EXPECT_EQ(a.appliedSkews, b.appliedSkews);
  EXPECT_EQ(encode(a.plan), encode(b.plan));
}

TEST(Transform, MakeTilableFromGivenDependencesMatchesTheOneArgumentForm) {
  int skewed = 0;
  for (const SkewCase& c : skewCases()) {
    SCOPED_TRACE(c.name);
    const TransformResult own = makeTilable(c.block);
    expectSameTransform(makeTilable(c.block, computeDependences(c.block)), own);
    skewed += !own.appliedSkews.empty();
    // The plan comes from the dependences the accepted skew's legality
    // check built; rebuilding them from the result block agrees.
    EXPECT_EQ(encode(findParallelism(own.block, computeDependences(own.block))),
              encode(own.plan));
  }
  EXPECT_EQ(skewed, 2 + static_cast<int>(std::size(kSkewedPrograms)));

  // A block with no permutable outer band fails the same way in both forms.
  const ProgramBlock bandless = generated(1, 0).block;
  EXPECT_THROW(makeTilable(bandless), ApiError);
  EXPECT_THROW(makeTilable(bandless, computeDependences(bandless)), ApiError);
}

TEST(Transform, SkippingTheDepsPassGivesTheSameTransform) {
  // With the deps pass the transform pass starts from its dependences;
  // without it, it computes them itself.
  const testgen::DiffOptions diff;
  for (const SkewCase& c : skewCases()) {
    SCOPED_TRACE(c.name);
    auto compile = [&](bool skipDeps) {
      Compiler compiler(c.block);
      compiler.options(diff.baseOptions).parameters(c.params);
      if (skipDeps) compiler.skipPass("deps");
      return compiler.compile();
    };
    const CompileResult full = compile(false);
    const CompileResult noDeps = compile(true);
    EXPECT_TRUE(full.haveDeps);
    EXPECT_FALSE(noDeps.haveDeps);
    ASSERT_TRUE(full.transformed && noDeps.transformed);
    EXPECT_EQ(serializeProgramBlock(*full.transformed),
              serializeProgramBlock(*noDeps.transformed));
    EXPECT_EQ(full.appliedSkews, noDeps.appliedSkews);
    EXPECT_EQ(encode(full.plan), encode(noDeps.plan));
  }
}

}  // namespace
}  // namespace emm
