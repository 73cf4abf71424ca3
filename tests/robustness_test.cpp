// Robustness and golden-structure tests:
//  - API misuse raises ApiError (never silently mis-compiles),
//  - internal invariant violations die loudly (EMM_CHECK),
//  - the emitted Figure-1 move-in code reproduces the paper's exact loop
//    bounds, including the max/min clamps on the skewed A region,
//  - additional polyhedral corner cases (parametric divisors, inserted
//    variables, empty-domain statements).
#include <gtest/gtest.h>

#include "codegen/scan.h"
#include "codegen/emit.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "poly/enumerate.h"
#include "smem/data_manage.h"
#include "tiling/multilevel.h"

namespace emm {
namespace {

// ---- Golden: paper Figure 1 move-in code. ----

TEST(Golden, Figure1MoveInLoopsMatchPaper) {
  // The paper's move-in code for array A:
  //   for (i=10;i<=14;i++) for (j=11;j<=20;j++)           LA[i-10][j-11]=A[i][j];
  //   for (i=20;i<=28;i++) for (j=max(i-13,11);j<=min(15,i-9);j++) LA[..]=A[i][j];
  // Our scanner emits the same two pieces (order may differ); the max/min
  // clamps on the second piece must match exactly.
  ProgramBlock block = buildFigure1Block();
  SmemOptions o;
  o.onlyBeneficial = false;
  o.partitionMode = PartitionMode::PerArrayUnion;
  CodeUnit unit = buildScratchpadUnit(block, o);
  std::string code = emitC(unit);

  // Dense rectangular piece.
  EXPECT_NE(code.find("= 10; m0_0 <= 14"), std::string::npos) << code;
  EXPECT_NE(code.find("= 11; m0_1 <= 20"), std::string::npos) << code;
  // Skewed piece with the paper's clamps.
  EXPECT_NE(code.find("= 20; m0_0 <= 28"), std::string::npos) << code;
  EXPECT_NE(code.find("max(m0_0 - 13, 11)"), std::string::npos) << code;
  EXPECT_NE(code.find("min(15, m0_0 - 9)"), std::string::npos) << code;
  // Buffer-relative addressing with the paper's offsets.
  EXPECT_NE(code.find("LA0[m0_0 - 10][m0_1 - 11] = A[m0_0][m0_1];"), std::string::npos)
      << code;
  // Move-out of A covers exactly the written region (i 10..14, j 11..15).
  EXPECT_NE(code.find("A[m0_0][m0_1] = LA0[m0_0 - 10][m0_1 - 11];"), std::string::npos);
}

TEST(Golden, Figure1MoveCountsMatchPaperRegions) {
  // Volumes from the paper's Figure 1 loop bounds:
  //   A move-in: 5*10 (dense A[i][k]) + 25 (skewed band, rows 20..28 with
  //              1..5..1 elements per row)          = 75
  //   A move-out: 5*5                               = 25
  //   B move-in: 9*10                               = 90
  //   B move-out: 5*14                              = 70
  ProgramBlock block = buildFigure1Block();
  SmemOptions o;
  o.onlyBeneficial = false;
  o.partitionMode = PartitionMode::PerArrayUnion;
  DataPlan plan;
  CodeUnit unit = buildScratchpadUnit(block, o, plan);
  ArrayStore store(block.arrays);
  MemTrace t = executeCodeUnit(unit, {}, store);
  EXPECT_EQ(t.globalReads, 75 + 90);
  EXPECT_EQ(t.globalWrites, 25 + 70);
}

// ---- API misuse. ----

TEST(Errors, MalformedBlocksThrow) {
  ProgramBlock block;
  block.name = "bad";
  block.arrays = {{"A", {8}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 7);
  Access w{0, IntMat{{1, 0}}, true};
  s.accesses = {w};
  s.writeAccess = 0;
  s.rhs = Expr::constant(1);
  s.schedule = IntMat(1, 5);  // wrong width
  block.statements.push_back(s);
  EXPECT_THROW(block.validate(), ApiError);

  block.statements[0].schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements[0].writeAccess = 3;  // out of range
  EXPECT_THROW(block.validate(), ApiError);

  block.statements[0].writeAccess = 0;
  block.statements[0].accesses[0].arrayId = 9;  // unknown array
  EXPECT_THROW(block.validate(), ApiError);
}

TEST(Errors, AccessRankMismatchThrows) {
  ProgramBlock block;
  block.name = "rank";
  block.arrays = {{"A", {8, 8}}};  // 2-D array
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 7);
  Access w{0, IntMat{{1, 0}}, true};  // 1-D access function
  s.accesses = {w};
  s.writeAccess = 0;
  s.rhs = Expr::constant(0);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(s);
  EXPECT_THROW(block.validate(), ApiError);
}

TEST(Errors, ScanArityMismatchThrows) {
  Polyhedron p(2, 0);
  p.addRange(0, 0, 3);
  p.addRange(1, 0, 3);
  EXPECT_THROW(
      scanPolyhedron(p, {"i"}, {}, [](const std::vector<std::string>&) {
        return AstNode::comment("x");
      }),
      ApiError);
}

TEST(Errors, TilerRejectsNonRectangular) {
  // Triangular domain: loop-1 bounds depend on loop 0.
  ProgramBlock block;
  block.name = "tri";
  block.arrays = {{"A", {16, 16}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(2, 0);
  s.domain.addRange(0, 0, 9);
  s.domain.addInequality({0, 1, 0});   // j >= 0
  s.domain.addInequality({1, -1, 0});  // j <= i
  Access w{0, IntMat{{1, 0, 0}, {0, 1, 0}}, true};
  s.accesses = {w};
  s.writeAccess = 0;
  s.rhs = Expr::constant(1);
  s.schedule = ProgramBlock::interleavedSchedule(2, 0, {0, 0, 0});
  block.statements.push_back(s);
  block.validate();

  ParallelismPlan plan;
  plan.spaceLoops = {0};
  TileConfig tc;
  tc.subTile = {2, 2};
  tc.blockTile = {2};
  tc.threadTile = {1};
  SmemOptions smem;
  EXPECT_THROW(buildTiledKernel(block, plan, tc, smem), ApiError);
}

TEST(Errors, UnboundedPolytopeDies) {
  Polyhedron p(1, 0);
  p.addInequality({1, 0});  // x >= 0, no upper bound
  EXPECT_DEATH(p.paramBounds(0), "not a polytope");
}

TEST(Errors, InterpreterCatchesUnboundVariable) {
  ProgramBlock block;
  block.name = "ub";
  block.arrays = {{"A", {4}}, {"B", {4}}};
  CodeUnit unit;
  unit.source = &block;
  unit.root = AstNode::block();
  unit.root.mut().addChild(AstNode::copy(1, {AffExpr::var("nowhere")}, 0, {AffExpr::constant(0)}));
  ArrayStore store(block.arrays);
  EXPECT_DEATH(executeCodeUnit(unit, {}, store), "unbound variable");
}

// ---- Polyhedral corner cases. ----

TEST(PolyCorners, EmptyDomainStatementIsHarmless) {
  ProgramBlock block;
  block.name = "empty";
  block.arrays = {{"A", {8}}, {"B", {8}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 5, 2);  // empty
  Access w{1, IntMat{{1, 0}}, true};
  Access r{0, IntMat{{1, 0}}, false};
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::load(1);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(s);
  block.validate();

  ArrayStore a(block.arrays), b(block.arrays);
  executeReference(block, {}, a);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);  // nothing executed
  auto deps = computeDependences(block);
  EXPECT_TRUE(deps.empty());
}

TEST(PolyCorners, InsertedVarsPreservePoints) {
  Polyhedron p(1, 1);
  p.addInequality({1, 0, 0});    // x >= 0
  p.addInequality({-1, 1, -1});  // x <= N-1
  Polyhedron q = p.withInsertedVars(0, 2);
  EXPECT_EQ(q.dim(), 3);
  // New leading vars are unconstrained; original constraints re-indexed.
  EXPECT_TRUE(q.contains({-100, 100, 0, 5}));
  EXPECT_TRUE(q.contains({0, 0, 4, 5}));
  EXPECT_FALSE(q.contains({0, 0, 5, 5}));
}

TEST(PolyCorners, ParamsAsVarsFeasibility) {
  // { x : 0 <= x <= N-1 } with N treated as variable: nonempty only with
  // N >= 1; feasibility over combined space holds.
  Polyhedron p(1, 1);
  p.addInequality({1, 0, 0});
  p.addInequality({-1, 1, -1});
  Polyhedron all = p.paramsAsVars();
  EXPECT_EQ(all.dim(), 2);
  EXPECT_EQ(all.nparam(), 0);
  EXPECT_FALSE(all.isEmpty());
}

TEST(PolyCorners, StridedBoundsWithDivisors) {
  // { (i, j) : i == 3j, 0 <= i <= 30 }: scanning j at level 1 uses
  // ceil/floor of i/3; count must be 11.
  Polyhedron p(2, 0);
  p.addEquality({1, -3, 0});
  p.addRange(0, 0, 30);
  EXPECT_EQ(countPoints(p, {}), 11);
  DimBounds b = p.loopBounds(1);
  // At i = 7 (not divisible), lower bound ceil(7/3)=3 > upper floor(7/3)=2.
  EXPECT_GT(b.evalLower({7}), b.evalUpper({7}));
  EXPECT_EQ(b.evalLower({9}), 3);
  EXPECT_EQ(b.evalUpper({9}), 3);
}

TEST(PolyCorners, NegativeCoordinateBoxes) {
  Polyhedron p(2, 0);
  p.addRange(0, -5, -2);
  p.addRange(1, -1, 3);
  EXPECT_EQ(countPoints(p, {}), 20);
  EXPECT_EQ(boundingBoxVolume(p, {}), 20);
  PolySet diff = setDifference(p, p);
  i64 total = 0;
  for (const Polyhedron& piece : diff) total += countPoints(piece, {});
  EXPECT_EQ(total, 0);
}

TEST(PolyCorners, IntersectionOfShiftedDiagonals) {
  // x + y == 10 and x - y == 2 -> single point (6, 4).
  Polyhedron a(2, 0), b(2, 0);
  a.addEquality({1, 1, -10});
  b.addEquality({1, -1, -2});
  Polyhedron inter = Polyhedron::intersect(a, b);
  EXPECT_TRUE(inter.contains({6, 4}));
  a.addRange(0, 0, 20);
  Polyhedron bounded = Polyhedron::intersect(a, b);
  EXPECT_EQ(countPoints(bounded, {}), 1);
}

// ---- Scratchpad framework edge cases. ----

TEST(SmemEdges, WriteOnlyArrayGetsMoveOutOnly) {
  // B[i] = 1: B written, never read.
  ProgramBlock block;
  block.name = "wonly";
  block.arrays = {{"B", {32}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 15);
  Access w{0, IntMat{{1, 0}}, true};
  s.accesses = {w};
  s.writeAccess = 0;
  s.rhs = Expr::constant(7);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(s);
  block.validate();

  SmemOptions o;
  o.onlyBeneficial = false;
  DataPlan plan;
  CodeUnit unit = buildScratchpadUnit(block, o, plan);
  ArrayStore store(block.arrays);
  MemTrace t = executeCodeUnit(unit, {}, store);
  EXPECT_EQ(t.globalReads, 0);    // nothing moved in
  EXPECT_EQ(t.globalWrites, 16);  // results moved out
  for (i64 i = 0; i < 16; ++i) EXPECT_EQ(store.get(0, {i}), 7.0);
}

TEST(SmemEdges, ScalarLikeAccessSizeOneBuffer) {
  // A[0] accumulated over a loop: buffer is 1 element; rank 0 < dim 1 so
  // order-of-magnitude reuse admits it.
  ProgramBlock block;
  block.name = "scalar";
  block.arrays = {{"A", {4}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 9);
  IntMat zero(1, 2);  // A[0]
  Access w{0, zero, true};
  Access r{0, zero, false};
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::constant(1));
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(s);
  block.validate();

  SmemOptions o;
  DataPlan plan = analyzeBlock(block, o);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_TRUE(plan.partitions[0].orderReuse);
  EXPECT_EQ(plan.bufferFootprint(0, {}), 1);

  CodeUnit unit = buildScratchpadUnit(block, o);
  ArrayStore store(block.arrays);
  MemTrace t = executeCodeUnit(unit, {}, store);
  EXPECT_EQ(store.get(0, {0}), 10.0);
  EXPECT_EQ(t.globalReads, 1);
  EXPECT_EQ(t.globalWrites, 1);
  EXPECT_EQ(t.localReads + t.localWrites, 2 + 20);  // copies + 10x(read+write)
}

TEST(SmemEdges, MultiDimBufferWithMixedExtent) {
  // Access A[i][5]: dim-1 extent is 1; buffer is R x 1 (rank-deficient dims
  // kept as size-1, see src/smem/data_manage.h).
  ProgramBlock block;
  block.name = "col";
  block.arrays = {{"A", {16, 16}}, {"B", {16}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 11);
  IntMat colFn(2, 2);
  colFn.at(0, 0) = 1;  // row = i
  colFn.at(1, 1) = 5;  // col = 5
  Access w{1, IntMat{{1, 0}}, true};
  Access r{0, colFn, false};
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::load(1);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(s);
  block.validate();

  SmemOptions o;
  o.onlyBeneficial = false;
  DataPlan plan = analyzeBlock(block, o);
  const PartitionPlan* pa = nullptr;
  for (const PartitionPlan& p : plan.partitions)
    if (p.arrayId == 0) pa = &p;
  ASSERT_NE(pa, nullptr);
  std::vector<std::pair<std::string, i64>> env;
  EXPECT_EQ(pa->sizeExpr[0].eval(env), 12);
  EXPECT_EQ(pa->sizeExpr[1].eval(env), 1);
  EXPECT_EQ(pa->offset[1].evalExact(env), 5);

  CodeUnit unit = buildScratchpadUnit(block, o);
  ArrayStore got(block.arrays), want(block.arrays);
  got.fillAllPattern(2);
  want.fillAllPattern(2);
  executeCodeUnit(unit, {}, got);
  executeReference(block, {}, want);
  EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0);
}

}  // namespace
}  // namespace emm
