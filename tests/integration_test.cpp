// Cross-module integration tests: whole-pipeline invariants that no single
// module test can check.
//
//  - transform -> tiling -> smem -> interpreter round trips on every kernel,
//  - the count view (countCodeUnit) against executed traces,
//  - plan-level volume bounds vs interpreter-measured traffic,
//  - cost-model occurrence counts vs interpreter-measured copy executions,
//  - footprint accounting vs simulator feasibility,
//  - tile-size search choices actually being the fastest under simulation.
#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "driver/compiler.h"
#include "gpusim/machine.h"
#include "ir/interp.h"
#include "kernels/jacobi_mapped.h"
#include "kernels/me_pipeline.h"
#include "tilesearch/tilesearch.h"

namespace emm {
namespace {

// ---- Pipeline round trips. ----

struct PipelineCase {
  i64 ni, nj, w;
  std::vector<i64> subTile;
  i64 blocks, threads;
};

class MePipelineRoundTrip : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(MePipelineRoundTrip, SemanticsAndCounters) {
  const PipelineCase& pc = GetParam();
  MeConfig c;
  c.ni = pc.ni;
  c.nj = pc.nj;
  c.w = pc.w;
  c.subTile = pc.subTile;
  c.numBlocks = pc.blocks;
  c.numThreads = pc.threads;
  CompileResult p = buildMePipeline(c);

  ArrayStore store(p.input->arrays);
  store.fillAllPattern(3);
  std::vector<double> cur = store.raw(0), ref = store.raw(1), out = store.raw(2);
  const IntVec ext = p.kernel->unitParams(c.params());
  MemTrace t = executeCodeUnit(p.kernel->unit, ext, store);
  referenceMe(cur, ref, out, c.ni, c.nj, c.w);
  for (i64 i = 0; i < c.ni; ++i)
    for (i64 j = 0; j < c.nj; ++j)
      ASSERT_NEAR(store.get(2, {i, j}), out[i * c.nj + j], 1e-9);

  // The count view agrees with the measured trace.
  EXPECT_EQ(countCodeUnit(p.kernel->unit, ext), t);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MePipelineRoundTrip,
    ::testing::Values(PipelineCase{16, 8, 4, {4, 4, 4, 4}, 4, 32},
                      PipelineCase{32, 16, 4, {8, 8, 4, 4}, 4, 64},
                      PipelineCase{16, 16, 8, {8, 8, 8, 8}, 2, 32},
                      PipelineCase{24, 12, 4, {4, 4, 2, 2}, 6, 32}));

// ---- The count view equals execution on every built-in unit. ----

TEST(Integration, CountedTraceEqualsExecutedOnBuiltins) {
  struct Case {
    std::string kernel;
    std::vector<i64> sizes;
  };
  for (const Case& k : {Case{"me", {24, 12, 4}}, Case{"matmul", {20, 12, 16}},
                        Case{"figure1", {}}})
    for (bool scratchpad : {true, false})
      for (bool hoist : {true, false}) {
        IntVec params;
        ProgramBlock block = buildKernelByName(k.kernel, k.sizes, params);
        const bool fig1 = k.kernel == "figure1";
        CompileResult r = Compiler(block)
                              .parameters(params)
                              .scratchpadOnly(fig1)
                              .stageEverything(fig1)
                              .partition(fig1 ? PartitionMode::PerArrayUnion
                                              : PartitionMode::MaximalDisjoint)
                              .useScratchpad(scratchpad)
                              .hoistCopies(hoist)
                              .memoryLimitBytes(1 << 20)
                              .innerProcs(4)
                              .compile();
        const std::string what = k.kernel + (scratchpad ? " smem" : " global") +
                                 (hoist ? " hoisted" : " innermost");
        ASSERT_TRUE(r.ok) << what << ": " << r.firstError();
        ASSERT_NE(r.unit(), nullptr) << what;
        const IntVec ext = r.kernel ? r.kernel->unitParams(params) : params;
        ArrayStore got(r.block().arrays), want(r.block().arrays);
        got.fillAllPattern(9);
        want.fillAllPattern(9);
        const MemTrace executed = executeCodeUnit(*r.unit(), ext, got);
        executeReference(r.block(), params, want);
        EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0) << what;
        EXPECT_EQ(countCodeUnit(*r.unit(), ext), executed)
            << what << ": counted " << countCodeUnit(*r.unit(), ext).str() << " vs executed "
            << executed.str();
        EXPECT_GT(executed.arithOps, 0) << what;
      }
}

// ---- Volume bounds dominate measured traffic. ----

TEST(Integration, VolumeBoundsDominateMeasuredTraffic) {
  ProgramBlock block = buildMeBlock(16, 8, 4);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  SmemOptions smem;
  smem.sampleParams = {16, 8, 4};
  TileAnalysis ta = analyzeTile(block, plan, {4, 4, 4, 4}, smem);

  // Per partition: interpreter-measured copy elements for one tile must be
  // <= the Section-3.1.3 bound.
  IntVec ext = {16, 8, 4};
  for (int l = 0; l < ta.depth; ++l) ext.push_back(0);  // origins at 0
  for (size_t p = 0; p < ta.plan.partitions.size(); ++p) {
    if (!ta.plan.partitions[p].hasBuffer) continue;
    AstPtr in = buildCopyCode(ta.plan, static_cast<int>(p), true, copySetDependences(ta.plan));
    CodeUnit unit;
    unit.source = ta.tileBlock.get();
    // Buffer table must line up with buffer ids used by the copy code.
    for (const PartitionPlan& part : ta.plan.partitions) {
      if (!part.hasBuffer) continue;
      LocalBuffer buf;
      buf.name = part.bufferName;
      buf.ndim = ta.tileBlock->arrays[part.arrayId].ndim();
      buf.offset = part.offset;
      buf.sizeExpr = part.sizeExpr;
      unit.localBuffers.mut().push_back(std::move(buf));
    }
    unit.root = std::move(in);
    ArrayStore store(ta.tileBlock->arrays);
    MemTrace t = executeCodeUnit(unit, ext, store);
    EXPECT_LE(t.copyElements, ta.plan.moveInVolumeBound(static_cast<int>(p), ext))
        << "partition " << p;
    EXPECT_GT(t.copyElements, 0) << "partition " << p;
  }
}

// ---- Cost-model occurrences equal interpreter copy-fragment executions. ----

TEST(Integration, OccurrenceCountsMatchInterpreter) {
  ProgramBlock block = buildMeBlock(16, 16, 4);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  SmemOptions smem;
  smem.sampleParams = {16, 16, 4};
  TileSearchOptions opts;
  opts.paramValues = {16, 16, 4};
  opts.memLimitElems = 1 << 20;
  opts.innerProcs = 1;
  std::vector<i64> tile = {4, 4, 2, 2};
  TileEvaluation ev = evaluateTileSizes(block, plan, tile, opts, smem);
  ASSERT_TRUE(ev.feasible);

  TileConfig tc;
  tc.subTile = tile;
  tc.blockTile = {16, 16};  // single block: occurrences are global counts
  tc.threadTile = {1, 1};
  TiledKernel k = buildTiledKernel(block, plan, tc, smem);
  ArrayStore store(block.arrays);
  IntVec ext = {16, 16, 4};
  ext.resize(k.analysis.tileBlock->paramNames.size(), 0);
  MemTrace t = executeCodeUnit(k.unit, ext, store);

  // Total copied elements == sum over buffers of occurrences * measured
  // per-occurrence volume; with exact (box-filling) ME spaces the bound is
  // exact, so the totals must match.
  i64 expected = 0;
  for (const auto& term : ev.terms)
    expected += term.occurrences * (term.volumeIn + term.volumeOut);
  EXPECT_EQ(t.copyElements, expected);
}

// ---- Footprint accounting matches the simulator's occupancy rule. ----

TEST(Integration, FootprintDrivesOccupancy) {
  // 64 block tiles of 16 rows, more than the footprint lets the 16 SMs
  // hold at once.
  MeConfig c;
  c.ni = 1024;
  c.nj = 64;
  c.w = 8;
  c.numBlocks = 64;
  c.numThreads = 64;
  c.subTile = {16, 16, 8, 8};
  CompileResult p = buildMePipeline(c);
  ASSERT_EQ(p.kernel->numBlockTiles(c.params()), c.numBlocks);
  const i64 smemBytesPerBlock = 4 * p.kernel->footprintPerBlock(c.params());
  // The footprint is the unit's declared buffers, conflict padding aside.
  EXPECT_LE(p.kernel->footprintPerBlock(c.params()),
            scratchpadFootprint(p.kernel->unit, p.kernel->unitParams(c.params())));

  Machine machine = Machine::geforce8800gtx();
  SimResult r = simulateKernel(machine, *p.kernel, c.params(), c.numThreads);
  ASSERT_TRUE(r.feasible);
  i64 expectPerSM =
      std::min<i64>(machine.maxBlocksPerSM, machine.smemBytesPerSM / smemBytesPerBlock);
  EXPECT_EQ(r.concurrentBlocks, std::min<i64>(c.numBlocks, expectPerSM * machine.numSMs));
  EXPECT_LT(r.concurrentBlocks, c.numBlocks);
}

// ---- The searched tile is the fastest simulated configuration. ----

TEST(Integration, SearchedTileWinsSimulation) {
  // Candidate grid from Figure 6; the search minimizes data-movement cost,
  // and under the machine model the same configuration must win end to end.
  std::vector<std::vector<i64>> tiles = {{8, 8, 16, 16}, {16, 8, 16, 16}, {16, 16, 16, 16},
                                         {32, 16, 16, 16}};
  Machine m = Machine::geforce8800gtx();
  double bestMs = 1e300;
  size_t bestIdx = 0;
  for (size_t t = 0; t < tiles.size(); ++t) {
    MeConfig c;
    c.ni = 2048;
    c.nj = 1024;
    c.w = 16;
    c.subTile = tiles[t];
    SimResult r = simulateKernel(m, *buildMePipeline(c).kernel, c.params(), c.numThreads);
    ASSERT_TRUE(r.feasible);
    if (r.milliseconds < bestMs) {
      bestMs = r.milliseconds;
      bestIdx = t;
    }
  }
  EXPECT_EQ(tiles[bestIdx], (std::vector<i64>{32, 16, 16, 16}));

  ProgramBlock block = buildMeBlock(2048, 1024, 16);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  SmemOptions smem;
  smem.sampleParams = {2048, 1024, 16};
  TileSearchOptions opts;
  opts.paramValues = {2048, 1024, 16};
  opts.memLimitElems = 4096;
  opts.innerProcs = 32;
  opts.candidates = {{8, 16, 32}, {8, 16}, {16}, {16}};
  TileSearchResult r = searchTileSizes(block, plan, opts, smem);
  ASSERT_TRUE(r.eval.feasible);
  EXPECT_EQ(r.subTile, (std::vector<i64>{32, 16, 16, 16}));
}

// ---- Jacobi: mapped kernel + simulator reproduce the Figure 5 ratio. ----

TEST(Integration, JacobiScratchpadSpeedupInPaperRange) {
  Machine m = Machine::geforce8800gtx();
  JacobiConfig c;
  c.n = 256 << 10;
  c.timeSteps = 4096;
  c.timeTile = 32;
  c.spaceTile = 256;
  c.numBlocks = 128;
  c.numThreads = 64;
  KernelModelJacobi with = jacobiMachineModel(c);
  c.useScratchpad = false;
  KernelModelJacobi without = jacobiMachineModel(c);
  SimResult rw = simulateLaunch(m, with.launch, with.perBlock);
  SimResult rwo = simulateLaunch(m, without.launch, without.perBlock);
  ASSERT_TRUE(rw.feasible && rwo.feasible);
  double speedup = rwo.milliseconds / rw.milliseconds;
  EXPECT_GT(speedup, 5.0);
  EXPECT_LT(speedup, 20.0);  // paper: ~10x
  double cpuRatio = simulateCpuMs(m, with.cpuOps, with.cpuMemElems) / rw.milliseconds;
  EXPECT_GT(cpuRatio, 8.0);
  EXPECT_LT(cpuRatio, 25.0);  // paper: ~15x
}

TEST(Integration, MeScratchpadSpeedupInPaperRange) {
  Machine m = Machine::geforce8800gtx();
  MeConfig c;
  c.ni = 4096;
  c.nj = 1024;
  c.w = 16;
  c.subTile = {32, 16, 16, 16};
  MemTrace counted;
  SimResult rw = simulateKernel(m, *buildMePipeline(c).kernel, c.params(), c.numThreads, &counted);
  c.useScratchpad = false;
  SimResult rwo = simulateKernel(m, *buildMePipeline(c).kernel, c.params(), c.numThreads);
  ASSERT_TRUE(rw.feasible && rwo.feasible);
  double speedup = rwo.milliseconds / rw.milliseconds;
  EXPECT_GT(speedup, 5.0);
  EXPECT_LT(speedup, 12.0);  // paper: ~8x
  double cpuRatio = simulateCpuMs(m, counted.arithOps, counted.stmtInstances) / rw.milliseconds;
  EXPECT_GT(cpuRatio, 50.0);  // paper: >100x
}

// ---- Emitted code contains the complete Figure-3 structure. ----

TEST(Integration, EmittedTiledCodeIsComplete) {
  MeConfig c;
  c.ni = 16;
  c.nj = 8;
  c.w = 4;
  c.numBlocks = 2;
  c.numThreads = 32;
  c.subTile = {4, 4, 4, 4};
  CompileResult p = buildMePipeline(c);
  std::string code = emitC(p.kernel->unit);
  // All three buffers declared.
  EXPECT_NE(code.find("Lcur0"), std::string::npos);
  EXPECT_NE(code.find("Lref1"), std::string::npos);
  EXPECT_NE(code.find("Lout2"), std::string::npos);
  // Two parallel levels.
  EXPECT_NE(code.find("FORALL_BLOCKS"), std::string::npos);
  EXPECT_NE(code.find("FORALL_THREADS"), std::string::npos);
  // The SAD statement body with rewritten (buffer-relative) indices.
  EXPECT_NE(code.find("fabs("), std::string::npos);
}

}  // namespace
}  // namespace emm
