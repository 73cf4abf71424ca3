// Coverage for auxiliary behaviors: printable diagnostics, trace
// accumulation, AffExpr rendering corner cases, HNF properties, loop-bound
// string forms, and emitted structure differences under hoisting.
#include <gtest/gtest.h>

#include "gpusim/machine.h"
#include "codegen/emit.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "linalg/matrix.h"
#include "poly/polyhedron.h"
#include "tiling/multilevel.h"

namespace emm {
namespace {

TEST(Printing, AffExprForms) {
  EXPECT_EQ(AffExpr::constant(0).str(), "0");
  EXPECT_EQ(AffExpr::constant(-3).str(), "-3");
  EXPECT_EQ(AffExpr::var("i").str(), "i");
  EXPECT_EQ(AffExpr::var("i", -1).str(), "-i");
  AffExpr e = AffExpr::var("i", -2);
  e.cnst = -7;
  EXPECT_EQ(e.str(), "-2*i - 7");
  AffExpr d = AffExpr::var("n");
  d.den = 4;
  EXPECT_EQ(d.str(true), "ceild(n, 4)");
  EXPECT_EQ(d.str(false), "floord(n, 4)");
}

TEST(Printing, PolyhedronStr) {
  Polyhedron p(1, 1);
  p.addInequality({1, 0, 0});
  p.addInequality({-1, 1, -1});
  std::string s = p.str();
  EXPECT_NE(s.find("dim=1"), std::string::npos);
  EXPECT_NE(s.find(">= 0"), std::string::npos);
}

TEST(Printing, MatrixStr) {
  IntMat m{{1, -2}, {3, 4}};
  std::string s = m.str();
  EXPECT_NE(s.find("-2"), std::string::npos);
  EXPECT_NE(s.find("["), std::string::npos);
}

TEST(Printing, SimResultStr) {
  Machine m = Machine::geforce8800gtx();
  LaunchConfig l;
  l.numBlocks = 16;
  l.threadsPerBlock = 64;
  BlockWork w;
  w.computeOps = 1000;
  SimResult r = simulateLaunch(m, l, w);
  EXPECT_NE(r.str().find("ms"), std::string::npos);
  LaunchConfig bad = l;
  bad.smemBytesPerBlock = 1 << 20;
  SimResult rb = simulateLaunch(m, bad, w);
  EXPECT_NE(rb.str().find("infeasible"), std::string::npos);
}

TEST(Traces, Accumulation) {
  MemTrace a;
  a.globalReads = 1;
  a.localWrites = 2;
  a.syncs = 3;
  MemTrace b;
  b.globalReads = 10;
  b.copyElements = 5;
  a += b;
  EXPECT_EQ(a.globalReads, 11);
  EXPECT_EQ(a.localWrites, 2);
  EXPECT_EQ(a.copyElements, 5);
}

TEST(Hnf, ColumnLatticeInvariants) {
  // HNF pivots divide subsequent pivots' rows deterministically; for a
  // diagonal matrix the HNF is the absolute diagonal.
  IntMat d{{-3, 0}, {0, 5}};
  IntMat h = hermiteNormalForm(d);
  EXPECT_EQ(h.at(0, 0), 3);
  EXPECT_EQ(h.at(1, 1), 5);
  // Lattice membership: every column of A is an integer combination of HNF
  // columns; verify for a shear.
  IntMat a{{2, 4}, {0, 2}};
  IntMat hh = hermiteNormalForm(a);
  // |det| preserved: 4.
  EXPECT_EQ(std::abs(hh.at(0, 0) * hh.at(1, 1)), 4);
}

TEST(Hoisting, EmittedPositionsDiffer) {
  // With hoisting, "move-in Lout" appears before the k-origin loop; without
  // it, after (inside the innermost sub-tile loop).
  ProgramBlock block = buildMeBlock(8, 8, 4);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};
  TileConfig tc;
  tc.subTile = {4, 4, 2, 2};
  tc.blockTile = {8, 8};
  tc.threadTile = {1, 1};

  TiledKernel hoisted = buildTiledKernel(block, plan, tc, smem);
  tc.hoistCopies = false;
  TiledKernel flat = buildTiledKernel(block, plan, tc, smem);

  std::string ch = emitC(hoisted.unit);
  std::string cf = emitC(flat.unit);
  size_t hoistPos = ch.find("move-in Lout");
  size_t loopPos = ch.find("for (o2");
  ASSERT_NE(hoistPos, std::string::npos);
  ASSERT_NE(loopPos, std::string::npos);
  EXPECT_LT(hoistPos, loopPos) << "hoisted move-in must precede the o2 loop";

  size_t flatHoistPos = cf.find("move-in Lout");
  size_t flatLoopPos = cf.find("for (o3");
  ASSERT_NE(flatHoistPos, std::string::npos);
  ASSERT_NE(flatLoopPos, std::string::npos);
  EXPECT_GT(flatHoistPos, flatLoopPos) << "unhoisted move-in sits inside the o3 loop";
}

TEST(Machine, CellVsGpuThroughputShape) {
  // Same compute-bound work: the GPU profile (128 lanes at 1.35 GHz) beats
  // the Cell profile (32 lanes at 3.2 GHz) by roughly the FLOP ratio.
  BlockWork w;
  w.computeOps = 10'000'000;
  LaunchConfig l;
  l.numBlocks = 128;
  l.threadsPerBlock = 256;
  double gpu = simulateLaunch(Machine::geforce8800gtx(), l, w).milliseconds;
  LaunchConfig lc;
  lc.numBlocks = 8;
  lc.threadsPerBlock = 1;
  BlockWork wc;
  wc.computeOps = w.computeOps * 16;  // same total over 8 blocks vs 128
  double cell = simulateLaunch(Machine::cellLike(), lc, wc).milliseconds;
  double flopRatio = (16 * 8 * 1.35) / (8 * 4 * 3.2);  // ~1.69
  EXPECT_NEAR(cell / gpu, flopRatio, flopRatio * 0.5);
}

TEST(Rationals, MixedIntegerInterop) {
  Rat r = Rat(3) + Rat(1, 2);
  EXPECT_EQ(r, Rat(7, 2));
  EXPECT_TRUE(Rat(4, 2).isInteger());
  EXPECT_FALSE(Rat(5, 2).isInteger());
  EXPECT_EQ(Rat(5, 2).sign(), 1);
  EXPECT_EQ(Rat(-5, 2).sign(), -1);
  EXPECT_EQ(Rat(0).sign(), 0);
  EXPECT_DOUBLE_EQ(Rat(1, 4).toDouble(), 0.25);
}

TEST(BlockWorkScaling, RoundsToNearest) {
  BlockWork w;
  w.globalElems = 10;
  w.computeOps = 3;
  BlockWork h = w.scaled(1.0 / 3.0);
  EXPECT_EQ(h.globalElems, 3);
  EXPECT_EQ(h.computeOps, 1);
}

}  // namespace
}  // namespace emm
