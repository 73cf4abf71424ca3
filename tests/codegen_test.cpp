// Tests for polyhedron scanning (CLooG substitute) and schedule-driven
// multi-statement code generation. Semantic checks run generated ASTs
// through the interpreter and compare against direct enumeration.
#include <gtest/gtest.h>

#include <set>

#include "codegen/scan.h"
#include "codegen/emit.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "poly/enumerate.h"

namespace emm {
namespace {

/// Executes a scan AST that copies marker values, collecting visited points
/// by writing i (and j) coordinates into arrays via Copy nodes is clumsy;
/// instead we count visits by copying from A to B at the visited index and
/// compare traces. For point-set equality we run the interpreter and record
/// Copy executions through a dense "visit" array.
struct ScanHarness {
  ProgramBlock block;
  CodeUnit unit;

  explicit ScanHarness(i64 extent0, i64 extent1 = 0) {
    block.name = "scan";
    if (extent1 == 0) {
      block.arrays = {{"src", {extent0}}, {"dst", {extent0}}};
    } else {
      block.arrays = {{"src", {extent0, extent1}}, {"dst", {extent0, extent1}}};
    }
    unit.source = &block;
  }
};

TEST(Scan, Box1D) {
  ScanHarness h(20);
  Polyhedron p(1, 0);
  p.addRange(0, 3, 17);
  h.unit.root = scanPolyhedron(p, {"x"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0])}, 0, {AffExpr::var(it[0])});
  });
  ArrayStore store(h.block.arrays);
  store.fillPattern(0, 1);
  MemTrace t = executeCodeUnit(h.unit, {}, store);
  EXPECT_EQ(t.copyElements, 15);
  EXPECT_EQ(store.get(1, {3}), store.get(0, {3}));
  EXPECT_EQ(store.get(1, {17}), store.get(0, {17}));
  EXPECT_EQ(store.get(1, {2}), 0.0);
}

TEST(Scan, Triangle2D) {
  ScanHarness h(10, 10);
  // { (i,j) : 0<=i<=9, 0<=j<=i }
  Polyhedron p(2, 0);
  p.addRange(0, 0, 9);
  p.addInequality({0, 1, 0});
  p.addInequality({1, -1, 0});
  h.unit.root = scanPolyhedron(p, {"i", "j"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0]), AffExpr::var(it[1])}, 0,
                         {AffExpr::var(it[0]), AffExpr::var(it[1])});
  });
  ArrayStore store(h.block.arrays);
  EXPECT_EQ(executeCodeUnit(h.unit, {}, store).copyElements, 55);
}

TEST(Scan, ParametricBounds) {
  ScanHarness h(64);
  Polyhedron p(1, 1);  // 2 <= x <= N-1
  p.addInequality({1, 0, -2});
  p.addInequality({-1, 1, -1});
  h.unit.root = scanPolyhedron(p, {"x"}, {"N"}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0])}, 0, {AffExpr::var(it[0])});
  });
  h.block.paramNames = {"N"};
  ArrayStore store(h.block.arrays);
  EXPECT_EQ(executeCodeUnit(h.unit, {40}, store).copyElements, 38);
}

TEST(Scan, EmptySetGeneratesNothing) {
  Polyhedron p(1, 0);
  p.addRange(0, 5, 2);
  AstPtr root = scanPolyhedron(p, {"x"}, {}, [&](const std::vector<std::string>&) {
    return AstNode::comment("never");
  });
  EXPECT_TRUE(root->children.empty());
}

TEST(Scan, IntegralityOfStridedSet) {
  // { x : x == 2y for some y, 0 <= x <= 10 } -- via equality with aux var
  // eliminated beforehand, the paper-relevant case is strided bounds with
  // divisors. Scan { (i, j) : i == 2j, 0 <= i <= 10 } over (i, j).
  ScanHarness h(16);
  Polyhedron p(2, 0);
  p.addEquality({1, -2, 0});
  p.addRange(0, 0, 10);
  h.unit.root = scanPolyhedron(p, {"i", "j"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0])}, 0, {AffExpr::var(it[0])});
  });
  ArrayStore store(h.block.arrays);
  // Only even i visited: 0,2,4,6,8,10.
  EXPECT_EQ(executeCodeUnit(h.unit, {}, store).copyElements, 6);
}

TEST(ScanUnion, OverlappingPiecesVisitOnce) {
  ScanHarness h(40);
  Polyhedron a(1, 0), b(1, 0);
  a.addRange(0, 0, 19);
  b.addRange(0, 10, 29);
  h.unit.root = scanUnion({a, b}, {"x"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0])}, 0, {AffExpr::var(it[0])});
  });
  ArrayStore store(h.block.arrays);
  EXPECT_EQ(executeCodeUnit(h.unit, {}, store).copyElements, 30);  // single transfer each
}

TEST(ScanUnion, DisjointPieces) {
  ScanHarness h(40);
  Polyhedron a(1, 0), b(1, 0);
  a.addRange(0, 0, 4);
  b.addRange(0, 30, 34);
  h.unit.root = scanUnion({a, b}, {"x"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0])}, 0, {AffExpr::var(it[0])});
  });
  ArrayStore store(h.block.arrays);
  EXPECT_EQ(executeCodeUnit(h.unit, {}, store).copyElements, 10);
}

TEST(ScanUnion, TwoDimensionalLShape) {
  ScanHarness h(12, 12);
  Polyhedron a(2, 0), b(2, 0);
  a.addRange(0, 0, 7);
  a.addRange(1, 0, 3);
  b.addRange(0, 0, 3);
  b.addRange(1, 0, 7);
  h.unit.root = scanUnion({a, b}, {"i", "j"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0]), AffExpr::var(it[1])}, 0,
                         {AffExpr::var(it[0]), AffExpr::var(it[1])});
  });
  ArrayStore store(h.block.arrays);
  // |A| + |B| - |A and B| = 32 + 32 - 16 = 48.
  EXPECT_EQ(executeCodeUnit(h.unit, {}, store).copyElements, 48);
}

// ---- generateFromSchedules: semantics equal the reference executor. ----

void expectGeneratedMatchesReference(const ProgramBlock& block, const IntVec& params) {
  CodeUnit unit;
  unit.source = &block;
  unit.statements = block.statements;
  unit.root = generateFromSchedules(block);

  ArrayStore genStore(block.arrays), refStore(block.arrays);
  genStore.fillAllPattern(23);
  refStore.fillAllPattern(23);
  executeCodeUnit(unit, params, genStore);
  executeReference(block, params, refStore);
  EXPECT_EQ(ArrayStore::maxAbsDiff(genStore, refStore), 0.0);
}

TEST(ScheduleGen, Figure1Block) {
  expectGeneratedMatchesReference(buildFigure1Block(), {});
}

TEST(ScheduleGen, JacobiInterleaving) {
  expectGeneratedMatchesReference(buildJacobiBlock(24, 6), {24, 6});
}

TEST(ScheduleGen, MeSingleStatement) {
  expectGeneratedMatchesReference(buildMeBlock(5, 4, 3), {5, 4, 3});
}

TEST(ScheduleGen, MatmulSingleStatement) {
  expectGeneratedMatchesReference(buildMatmulBlock(4, 3, 5), {4, 3, 5});
}

TEST(ScheduleGen, EmitsReadableC) {
  ProgramBlock block = buildFigure1Block();
  CodeUnit unit;
  unit.source = &block;
  unit.statements = block.statements;
  unit.root = generateFromSchedules(block);
  std::string code = emitC(unit);
  // Statements share the (i, j) loops; S2's k loop nests inside.
  EXPECT_NE(code.find("for (c0 = 10; c0 <= 14; c0++)"), std::string::npos) << code;
  EXPECT_NE(code.find("for (c2 = 11; c2 <= 20; c2++)"), std::string::npos) << code;
  EXPECT_NE(code.find("/* S1 */"), std::string::npos) << code;
}

class ScanBoxProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScanBoxProperty, VisitCountMatchesEnumeration) {
  auto [e0, e1] = GetParam();
  ScanHarness h(16, 16);
  Polyhedron p(2, 0);
  p.addRange(0, 1, e0);
  p.addRange(1, 2, e1);
  h.unit.root = scanPolyhedron(p, {"i", "j"}, {}, [&](const std::vector<std::string>& it) {
    return AstNode::copy(1, {AffExpr::var(it[0]), AffExpr::var(it[1])}, 0,
                         {AffExpr::var(it[0]), AffExpr::var(it[1])});
  });
  ArrayStore store(h.block.arrays);
  EXPECT_EQ(executeCodeUnit(h.unit, {}, store).copyElements, countPoints(p, {}));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ScanBoxProperty,
                         ::testing::Combine(::testing::Values(0, 1, 5, 15),
                                            ::testing::Values(1, 2, 9, 15)));

}  // namespace
}  // namespace emm
