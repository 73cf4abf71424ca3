// Tests for multi-level tiling (Section 4): the Figure-3 structure,
// semantics preservation through tiles + scratchpad buffers, footprint
// accounting, hoisting of data-movement code (Section 4.2).
#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "tiling/multilevel.h"

namespace emm {
namespace {

/// Executes the tiled unit and the reference; arrays must agree.
void expectTiledMatchesReference(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const TileConfig& config, const IntVec& params,
                                 const SmemOptions& smem, MemTrace* traceOut = nullptr) {
  TiledKernel k = buildTiledKernel(block, plan, config, smem);
  ArrayStore got(block.arrays), want(block.arrays);
  got.fillAllPattern(17);
  want.fillAllPattern(17);
  // Tile origins are bound by the sub-tile loops; dummy zeros fill the
  // extended parameter slots.
  IntVec extParams = params;
  extParams.resize(k.analysis.tileBlock->paramNames.size(), 0);
  MemTrace trace = executeCodeUnit(k.unit, extParams, got);
  executeReference(block, params, want);
  EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0) << emitC(k.unit);
  if (traceOut != nullptr) *traceOut = trace;
}

ParallelismPlan mePlan(const ProgramBlock& block) {
  auto deps = computeDependences(block);
  return findParallelism(block, deps);
}

TEST(Tiling, MeSemanticsWithScratchpad) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 4, 4};
  tc.blockTile = {4, 8};
  tc.threadTile = {1, 1};
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 8, 4}, smem);
}

TEST(Tiling, MeSemanticsWithoutScratchpad) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 4, 4};
  tc.blockTile = {4, 8};
  tc.threadTile = {1, 1};
  tc.useScratchpad = false;
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};
  MemTrace trace;
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 8, 4}, smem, &trace);
  EXPECT_EQ(trace.localReads + trace.localWrites, 0);  // everything global
}

TEST(Tiling, MeScratchpadMovesTrafficOffGlobal) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 4, 4};
  tc.blockTile = {8, 8};
  tc.threadTile = {1, 1};
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};

  MemTrace with, without;
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 8, 4}, smem, &with);
  tc.useScratchpad = false;
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 8, 4}, smem, &without);

  EXPECT_LT(with.globalReads, without.globalReads / 4);
  EXPECT_GT(with.localReads, 0);
}

TEST(Tiling, MatmulSemantics) {
  ProgramBlock block = buildMatmulBlock(8, 6, 10);
  TileConfig tc;
  tc.subTile = {4, 3, 5};
  tc.blockTile = {4, 6};
  tc.threadTile = {2, 2};
  SmemOptions smem;
  smem.sampleParams = {8, 6, 10};
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 6, 10}, smem);
}

TEST(Tiling, NonDividingTileSizes) {
  // Boundary tiles: sizes that do not divide the loop ranges (7 % 3 != 0,
  // 5 % 4 != 0, 9 % 5 != 0). Block tiles stay multiples of sub-tiles.
  ProgramBlock block = buildMatmulBlock(7, 5, 9);
  TileConfig tc;
  tc.subTile = {3, 4, 5};
  tc.blockTile = {6, 4};
  tc.threadTile = {2, 3};
  SmemOptions smem;
  smem.sampleParams = {7, 5, 9};
  expectTiledMatchesReference(block, mePlan(block), tc, {7, 5, 9}, smem);
}

TEST(Tiling, FootprintMatchesInterpreter) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 4, 4};
  tc.blockTile = {4, 8};
  tc.threadTile = {1, 1};
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};
  TiledKernel k = buildTiledKernel(block, mePlan(block), tc, smem);
  IntVec extParams = {8, 8, 4};
  extParams.resize(k.analysis.tileBlock->paramNames.size(), 0);
  EXPECT_EQ(k.footprintPerBlock({8, 8, 4}), scratchpadFootprint(k.unit, extParams));
  // Hand computation: Lout 4x4 + Lcur 7x7 + Lref 7x7 = 16 + 49 + 49.
  EXPECT_EQ(k.footprintPerBlock({8, 8, 4}), 16 + 49 + 49);
}

TEST(Tiling, NumBlockTiles) {
  ProgramBlock block = buildMeBlock(32, 16, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 4, 4};
  tc.blockTile = {8, 16};
  tc.threadTile = {1, 1};
  SmemOptions smem;
  smem.sampleParams = {32, 16, 4};
  TiledKernel k = buildTiledKernel(block, mePlan(block), tc, smem);
  EXPECT_EQ(k.numBlockTiles({32, 16, 4}), 4);  // 32/8 x 16/16
}

TEST(Tiling, HoistingReducesCopies) {
  // out's copy code does not depend on the k/l tile origins, so hoisting
  // lifts it above those loops: fewer copy executions than unhoisted.
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 2, 2};  // multiple k,l sub-tiles per (i,j) tile
  tc.blockTile = {8, 8};
  tc.threadTile = {1, 1};
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};

  MemTrace hoisted, unhoisted;
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 8, 4}, smem, &hoisted);
  tc.hoistCopies = false;
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 8, 4}, smem, &unhoisted);
  EXPECT_LT(hoisted.copyElements, unhoisted.copyElements);
  EXPECT_LT(hoisted.globalReads, unhoisted.globalReads);
}

TEST(Tiling, HoistLevels) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};
  auto plan = mePlan(block);
  TileAnalysis ta = analyzeTile(block, plan, {4, 4, 2, 2}, smem);
  ASSERT_EQ(ta.plan.partitions.size(), 3u);
  for (size_t p = 0; p < ta.plan.partitions.size(); ++p) {
    const PartitionPlan& part = ta.plan.partitions[p];
    if (part.arrayId == 2) {
      EXPECT_EQ(ta.hoistLevel[p], 2) << "out depends only on i,j origins";
    } else {
      EXPECT_EQ(ta.hoistLevel[p], 4) << "cur/ref depend on all origins";
    }
  }
  // Without hoisting everything sits innermost.
  TileAnalysis noHoist = analyzeTile(block, plan, {4, 4, 2, 2}, smem, false);
  for (size_t p = 0; p < noHoist.plan.partitions.size(); ++p)
    EXPECT_EQ(noHoist.hoistLevel[p], 4);
}

TEST(Tiling, EmitterShowsFigure3Structure) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  TileConfig tc;
  tc.subTile = {4, 4, 4, 4};
  tc.blockTile = {4, 8};
  tc.threadTile = {1, 1};
  SmemOptions smem;
  smem.sampleParams = {8, 8, 4};
  TiledKernel k = buildTiledKernel(block, mePlan(block), tc, smem);
  std::string code = emitC(k.unit);
  EXPECT_NE(code.find("FORALL_BLOCKS"), std::string::npos) << code;
  EXPECT_NE(code.find("FORALL_THREADS"), std::string::npos) << code;
  EXPECT_NE(code.find("move-in"), std::string::npos);
  EXPECT_NE(code.find("move-out"), std::string::npos);
  EXPECT_NE(code.find("__syncthreads"), std::string::npos);
}

TEST(Tiling, RejectsInvalidConfigs) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  auto plan = mePlan(block);
  SmemOptions smem;
  TileConfig tc;
  tc.subTile = {4, 4, 4};  // wrong arity
  tc.blockTile = {4, 8};
  tc.threadTile = {1, 1};
  EXPECT_THROW(buildTiledKernel(block, plan, tc, smem), ApiError);
  tc.subTile = {4, 4, 4, 0};  // zero tile
  EXPECT_THROW(buildTiledKernel(block, plan, tc, smem), ApiError);
}

class TileSizeSweep
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64, i64>> {};

TEST_P(TileSizeSweep, MeAlwaysCorrect) {
  auto [ti, tj, tk, tl] = GetParam();
  ProgramBlock block = buildMeBlock(8, 6, 4);
  TileConfig tc;
  tc.subTile = {ti, tj, tk, tl};
  tc.blockTile = {2 * ti, tj};  // conforming: multiples of the sub-tiles
  tc.threadTile = {2, 3};
  SmemOptions smem;
  smem.sampleParams = {8, 6, 4};
  expectTiledMatchesReference(block, mePlan(block), tc, {8, 6, 4}, smem);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TileSizeSweep,
                         ::testing::Values(std::tuple<i64, i64, i64, i64>{1, 1, 1, 1},
                                           std::tuple<i64, i64, i64, i64>{2, 3, 4, 1},
                                           std::tuple<i64, i64, i64, i64>{8, 6, 4, 4},
                                           std::tuple<i64, i64, i64, i64>{3, 5, 2, 3},
                                           std::tuple<i64, i64, i64, i64>{8, 8, 8, 8}));

}  // namespace
}  // namespace emm
