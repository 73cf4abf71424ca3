// End-to-end kernel tests: the full ME compiler pipeline with its counted
// work (checked against executed counts, and pinned at a paper-scale row),
// the Jacobi concurrent-start mapped kernel and its analytic counter model
// (validated against executed counts).
#include <gtest/gtest.h>

#include <cmath>

#include "gpusim/machine.h"
#include "ir/interp.h"
#include "kernels/jacobi_mapped.h"
#include "kernels/me_pipeline.h"

namespace emm {
namespace {

// ---- ME pipeline. ----

MeConfig smallMe() {
  MeConfig c;
  c.ni = 16;
  c.nj = 8;
  c.w = 4;
  c.numBlocks = 4;
  c.numThreads = 32;
  c.subTile = {4, 4, 4, 4};
  return c;
}

TEST(MePipeline, EndToEndSemantics) {
  MeConfig c = smallMe();
  CompileResult p = buildMePipeline(c);

  ArrayStore got(p.input->arrays);
  got.fillAllPattern(31);
  std::vector<double> cur = got.raw(0), ref = got.raw(1), out = got.raw(2);
  executeCodeUnit(p.kernel->unit, p.kernel->unitParams(c.params()), got);
  referenceMe(cur, ref, out, c.ni, c.nj, c.w);
  for (i64 i = 0; i < c.ni; ++i)
    for (i64 j = 0; j < c.nj; ++j)
      ASSERT_NEAR(got.get(2, {i, j}), out[i * c.nj + j], 1e-9) << i << "," << j;
}

TEST(MePipeline, TransformFindsSpaceLoops) {
  CompileResult p = buildMePipeline(smallMe());
  EXPECT_EQ(p.plan.spaceLoops, (std::vector<int>{0, 1}));
  EXPECT_FALSE(p.plan.needsInterBlockSync);
}

/// The executed trace of the compiled ME unit at `c`, checked against the
/// count view, which must agree on every field.
MemTrace executedAndCounted(const MeConfig& c, const CompileResult& p) {
  ArrayStore store(p.input->arrays);
  const IntVec ext = p.kernel->unitParams(c.params());
  const MemTrace executed = executeCodeUnit(p.kernel->unit, ext, store);
  EXPECT_EQ(countCodeUnit(p.kernel->unit, ext), executed)
      << "counted " << countCodeUnit(p.kernel->unit, ext).str() << " vs executed "
      << executed.str();
  return executed;
}

TEST(MePipeline, CountMatchesInterpreterWithScratchpad) {
  for (bool hoist : {true, false}) {
    MeConfig c = smallMe();
    c.hoistCopies = hoist;
    CompileResult p = buildMePipeline(c);
    const MemTrace t = executedAndCounted(c, p);
    EXPECT_EQ(p.kernel->numBlockTiles(c.params()), c.numBlocks);
    // Every statement instance does |cur - ref| and the accumulation.
    EXPECT_EQ(t.stmtInstances, c.ni * c.nj * c.w * c.w);
    EXPECT_EQ(t.arithOps, 3 * t.stmtInstances);
    EXPECT_GT(t.syncs, 0);
    EXPECT_GT(t.localReads, 0);
  }
}

TEST(MePipeline, CountMatchesInterpreterWithoutScratchpad) {
  for (bool hoist : {true, false}) {
    MeConfig c = smallMe();
    c.useScratchpad = false;
    c.hoistCopies = hoist;
    CompileResult p = buildMePipeline(c);
    const MemTrace t = executedAndCounted(c, p);
    EXPECT_EQ(t.globalReads + t.globalWrites, 4 * t.stmtInstances);
    EXPECT_EQ(t.localReads + t.localWrites, 0);
    EXPECT_EQ(t.syncs, 0);
  }
}

TEST(MePipeline, ScratchpadCutsGlobalTraffic) {
  auto globalElems = [](const MeConfig& c) {
    const CompileResult p = buildMePipeline(c);
    const MemTrace t = countCodeUnit(p.kernel->unit, p.kernel->unitParams(c.params()));
    return t.globalReads + t.globalWrites;
  };
  MeConfig c = smallMe();
  const i64 with = globalElems(c);
  c.useScratchpad = false;
  // At w=4 the per-element reuse factor is ~8; at the paper's w=16 it is
  // far larger (checked below).
  EXPECT_LT(with * 4, globalElems(c));

  MeConfig paper;  // defaults: w=16, tiles {32,16,16,16}
  const i64 paperWith = globalElems(paper);
  paper.useScratchpad = false;
  EXPECT_LT(paperWith * 30, globalElems(paper));
}

TEST(MePipeline, CountsFig4RowAtPaperScale) {
  // Figure 4's 4M-point row, counted in the compiled unit: per-block work
  // at 32 blocks. The switch to the scratchpad moves no statement instance.
  MeConfig c;
  c.ni = 4096;
  c.nj = 1024;
  c.w = 16;
  c.numBlocks = 32;
  auto perBlock = [](const MeConfig& c, MemTrace& total) {
    const CompileResult p = buildMePipeline(c);
    EXPECT_EQ(p.kernel->numBlockTiles(c.params()), 32);
    total = countCodeUnit(p.kernel->unit, p.kernel->unitParams(c.params()));
    return blockShare(total, 32);
  };
  MemTrace with, without;
  const BlockWork w = perBlock(c, with);
  EXPECT_EQ(w.globalElems, 1'008'128);
  EXPECT_EQ(w.smemElems, 135'225'856);
  EXPECT_EQ(w.intraSyncs, 1'024);
  EXPECT_EQ(ceilDiv(with.stmtInstances, 32), 33'554'432);
  EXPECT_EQ(w.computeOps, 3 * 33'554'432);

  c.useScratchpad = false;
  const BlockWork wo = perBlock(c, without);
  EXPECT_EQ(wo.globalElems, 134'217'728);
  EXPECT_EQ(wo.smemElems, 0);
  EXPECT_EQ(without.stmtInstances, with.stmtInstances);
}

// ---- Jacobi mapped kernel. ----

JacobiConfig smallJacobi() {
  JacobiConfig c;
  c.n = 200;
  c.timeSteps = 40;
  c.timeTile = 8;
  c.spaceTile = 32;
  c.numBlocks = 4;
  c.numThreads = 16;
  return c;
}

TEST(JacobiMapped, MatchesReference) {
  JacobiConfig c = smallJacobi();
  std::vector<double> a(c.n), b(c.n), ar(c.n), br(c.n);
  for (i64 i = 0; i < c.n; ++i) a[i] = ar[i] = std::sin(static_cast<double>(i)) * 100;
  runJacobiMapped(c, a, b);
  referenceJacobi(ar, br, c.n, c.timeSteps);
  for (i64 i = 0; i < c.n; ++i) ASSERT_NEAR(a[i], ar[i], 1e-9) << "i=" << i;
}

TEST(JacobiMapped, GlobalVariantMatchesReference) {
  JacobiConfig c = smallJacobi();
  c.useScratchpad = false;
  std::vector<double> a(c.n), b(c.n), ar(c.n), br(c.n);
  for (i64 i = 0; i < c.n; ++i) a[i] = ar[i] = std::cos(static_cast<double>(i)) * 50;
  runJacobiMapped(c, a, b);
  referenceJacobi(ar, br, c.n, c.timeSteps);
  for (i64 i = 0; i < c.n; ++i) ASSERT_NEAR(a[i], ar[i], 1e-9);
}

TEST(JacobiMapped, ModelMatchesExecution) {
  JacobiConfig c = smallJacobi();
  std::vector<double> a(c.n, 1.0), b(c.n, 0.0);
  JacobiCounters run = runJacobiMapped(c, a, b);
  JacobiCounters model = modelJacobi(c);
  EXPECT_EQ(run.globalElems, model.globalElems);
  EXPECT_EQ(run.smemElems, model.smemElems);
  EXPECT_EQ(run.computeOps, model.computeOps);
  EXPECT_EQ(run.interBlockSyncs, model.interBlockSyncs);
  EXPECT_EQ(run.intraSyncs, model.intraSyncs);
}

TEST(JacobiMapped, ModelMatchesExecutionGlobalVariant) {
  JacobiConfig c = smallJacobi();
  c.useScratchpad = false;
  std::vector<double> a(c.n, 1.0), b(c.n, 0.0);
  JacobiCounters run = runJacobiMapped(c, a, b);
  JacobiCounters model = modelJacobi(c);
  EXPECT_EQ(run.globalElems, model.globalElems);
  EXPECT_EQ(run.interBlockSyncs, model.interBlockSyncs);
}

TEST(JacobiMapped, ScratchpadCutsGlobalTrafficAndSyncs) {
  JacobiConfig c = smallJacobi();
  JacobiCounters with = modelJacobi(c);
  c.useScratchpad = false;
  JacobiCounters without = modelJacobi(c);
  EXPECT_LT(with.globalElems * 3, without.globalElems);
  EXPECT_EQ(without.interBlockSyncs, c.timeSteps);
  EXPECT_EQ(with.interBlockSyncs, (c.timeSteps + c.timeTile - 1) / c.timeTile);
}

TEST(JacobiMapped, FootprintTracksTiles) {
  JacobiConfig c = smallJacobi();
  JacobiCounters m = modelJacobi(c);
  EXPECT_EQ(m.maxSmemElemsPerBlock, 2 * (c.spaceTile + 2 * c.timeTile + 2));
}

class JacobiShapeSweep
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64>> {};

TEST_P(JacobiShapeSweep, AlwaysMatchesReference) {
  auto [n, t, tt] = GetParam();
  JacobiConfig c;
  c.n = n;
  c.timeSteps = t;
  c.timeTile = tt;
  c.spaceTile = 16;
  std::vector<double> a(c.n), b(c.n), ar(c.n), br(c.n);
  for (i64 i = 0; i < c.n; ++i) a[i] = ar[i] = static_cast<double>((i * 37) % 100);
  runJacobiMapped(c, a, b);
  referenceJacobi(ar, br, c.n, c.timeSteps);
  for (i64 i = 0; i < c.n; ++i) ASSERT_NEAR(a[i], ar[i], 1e-9) << "n=" << n << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JacobiShapeSweep,
    ::testing::Values(std::tuple<i64, i64, i64>{64, 10, 3},   // ragged tiles
                      std::tuple<i64, i64, i64>{100, 17, 8},  // partial last band
                      std::tuple<i64, i64, i64>{33, 5, 5},    // tiny
                      std::tuple<i64, i64, i64>{256, 32, 16}));

}  // namespace
}  // namespace emm
