// Tests for the cuda target, the cell target's DMA coalescing, the
// Cell-like machine profile, and the 2-D Jacobi extension kernel.
#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "driver/compiler.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "kernels/jacobi2d_mapped.h"
#include "kernels/me_pipeline.h"
#include "smem/data_manage.h"

namespace emm {
namespace {

// ---- CUDA backend. ----

TEST(CudaBackend, Figure1BlockStructure) {
  ProgramBlock block = buildFigure1Block();
  SmemOptions o;
  o.onlyBeneficial = false;
  o.partitionMode = PartitionMode::PerArrayUnion;
  CodeUnit unit = buildScratchpadUnit(block, o);
  CompileOptions copts;
  copts.backendName = "cuda";
  copts.kernelName = "figure1";
  std::string cu = emitArtifact(unit, copts, nullptr, nullptr);
  EXPECT_NE(cu.find("__global__ void figure1("), std::string::npos) << cu;
  EXPECT_NE(cu.find("__shared__ float LA0[19][10];"), std::string::npos) << cu;
  EXPECT_NE(cu.find("__shared__ float LB1[19][24];"), std::string::npos) << cu;
  // Global arrays are linearized: A[i][j] -> A[(i) * 200 + (j)].
  EXPECT_NE(cu.find("* 200 +"), std::string::npos) << cu;
}

TEST(CudaBackend, TiledMeKernel) {
  MeConfig c;
  c.ni = 16;
  c.nj = 8;
  c.w = 4;
  c.numBlocks = 2;
  c.numThreads = 32;
  c.subTile = {4, 4, 4, 4};
  MePipeline p = buildMePipeline(c);
  CompileOptions copts;
  copts.backendName = "cuda";
  copts.paramValues = {c.ni, c.nj, c.w};
  copts.numBoundParams = 3;  // origins stay loop-bound
  copts.kernelName = "me_sad";
  std::string cu = emitArtifact(p.kernel.unit, copts, nullptr, nullptr);
  // Two block-parallel loops -> blockIdx.x and blockIdx.y.
  EXPECT_NE(cu.find("blockIdx.x"), std::string::npos) << cu;
  EXPECT_NE(cu.find("blockIdx.y"), std::string::npos) << cu;
  // Thread-parallel loops -> threadIdx strided loops.
  EXPECT_NE(cu.find("threadIdx.x"), std::string::npos);
  EXPECT_NE(cu.find("blockDim.x"), std::string::npos);
  // Barriers survive.
  EXPECT_NE(cu.find("__syncthreads();"), std::string::npos);
  // Shared buffers have constant extents (7 = 4+4-1).
  EXPECT_NE(cu.find("__shared__ float Lcur0[7][7];"), std::string::npos) << cu;
  // Launch stub names every array.
  EXPECT_NE(cu.find("d_cur, d_ref, d_out"), std::string::npos) << cu;
}

TEST(CudaBackend, RequiresPositiveExtents) {
  ProgramBlock block = buildMeBlock(8, 8, 4);
  SmemOptions o;
  o.sampleParams = {8, 8, 4};
  CodeUnit unit = buildScratchpadUnit(block, o);
  CompileOptions copts;
  copts.backendName = "cuda";
  copts.paramValues = {0, 0, 0};  // folds extents to zero
  EXPECT_DEATH(emitArtifact(unit, copts, nullptr, nullptr), "positive");
}

// ---- Cell-like machine. ----

TEST(CellMachine, ProfileShape) {
  Machine cell = Machine::cellLike();
  EXPECT_EQ(cell.numSMs, 8);
  EXPECT_EQ(cell.smemBytesPerSM, 256 * 1024);
  EXPECT_EQ(cell.maxBlocksPerSM, 1);
}

TEST(CellMachine, LocalStoreFitsLargeTiles) {
  // 256 KB local store admits tiles the GPU's 16 KB cannot.
  Machine cell = Machine::cellLike();
  Machine gpu = Machine::geforce8800gtx();
  LaunchConfig l;
  l.numBlocks = 8;
  l.threadsPerBlock = 1;
  l.smemBytesPerBlock = 100 * 1024;
  BlockWork w;
  w.computeOps = 1000;
  EXPECT_TRUE(simulateLaunch(cell, l, w).feasible);
  EXPECT_FALSE(simulateLaunch(gpu, l, w).feasible);
}

TEST(CellMachine, StagedMeRunsFasterThanDma) {
  // Whole-block staging (onlyBeneficial=false semantics) vs element-wise
  // DMA: the staged version wins on the Cell profile too.
  Machine cell = Machine::cellLike();
  MeConfig c;
  c.ni = 1024;
  c.nj = 512;
  c.w = 16;
  c.numBlocks = 8;
  c.numThreads = 1;
  c.subTile = {32, 16, 16, 16};
  KernelModel with = modelMe(c);
  c.useScratchpad = false;
  KernelModel without = modelMe(c);
  SimResult rw = simulateLaunch(cell, with.launch, with.perBlock);
  SimResult rwo = simulateLaunch(cell, without.launch, without.perBlock);
  ASSERT_TRUE(rw.feasible) << rw.infeasibleReason;
  ASSERT_TRUE(rwo.feasible);
  EXPECT_GT(rwo.milliseconds, rw.milliseconds);
}

// ---- 2-D Jacobi extension. ----

TEST(Jacobi2d, ReferenceExecutorAgreesWithDirect) {
  const i64 n = 10, m = 12, t = 3;
  ProgramBlock block = buildJacobi2dBlock(n, m, t);
  ArrayStore store(block.arrays);
  store.fillAllPattern(3);
  std::vector<double> a = store.raw(0), b = store.raw(1);
  executeReference(block, {n, m, t}, store);
  referenceJacobi2d(a, b, n, m, t);
  for (i64 i = 0; i < n; ++i)
    for (i64 j = 0; j < m; ++j) ASSERT_NEAR(store.get(0, {i, j}), a[i * m + j], 1e-9);
}

TEST(Jacobi2d, ScratchpadFrameworkPreservesSemantics) {
  const i64 n = 8, m = 9, t = 2;
  ProgramBlock block = buildJacobi2dBlock(n, m, t);
  SmemOptions o;
  o.sampleParams = {n, m, t};
  o.onlyBeneficial = false;
  CodeUnit unit = buildScratchpadUnit(block, o);
  ArrayStore got(block.arrays), want(block.arrays);
  got.fillAllPattern(9);
  want.fillAllPattern(9);
  executeCodeUnit(unit, {n, m, t}, got);
  executeReference(block, {n, m, t}, want);
  EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0);
}

TEST(Jacobi2d, MappedKernelMatchesReference) {
  Jacobi2dConfig c;
  c.n = 40;
  c.m = 36;
  c.timeSteps = 10;
  c.timeTile = 4;
  c.spaceTileI = 8;
  c.spaceTileJ = 12;
  std::vector<double> a(c.n * c.m), ar(c.n * c.m), b(c.n * c.m);
  for (i64 i = 0; i < c.n * c.m; ++i) a[i] = ar[i] = static_cast<double>((i * 13) % 101);
  runJacobi2dMapped(c, a);
  referenceJacobi2d(ar, b, c.n, c.m, c.timeSteps);
  for (i64 i = 0; i < c.n * c.m; ++i) ASSERT_NEAR(a[i], ar[i], 1e-9) << "i=" << i;
}

TEST(Jacobi2d, ModelMatchesExecution) {
  Jacobi2dConfig c;
  c.n = 30;
  c.m = 26;
  c.timeSteps = 9;
  c.timeTile = 4;
  c.spaceTileI = 8;
  c.spaceTileJ = 8;
  std::vector<double> a(c.n * c.m, 1.0);
  Jacobi2dCounters run = runJacobi2dMapped(c, a);
  Jacobi2dCounters model = modelJacobi2d(c);
  EXPECT_EQ(run.globalElems, model.globalElems);
  EXPECT_EQ(run.smemElems, model.smemElems);
  EXPECT_EQ(run.computeOps, model.computeOps);
  EXPECT_EQ(run.interBlockSyncs, model.interBlockSyncs);
}

TEST(Jacobi2d, ScratchpadCutsTraffic) {
  Jacobi2dConfig c;
  c.n = 256;
  c.m = 256;
  c.timeSteps = 32;
  c.timeTile = 8;
  c.spaceTileI = 32;
  c.spaceTileJ = 32;
  Jacobi2dCounters with = modelJacobi2d(c);
  c.useScratchpad = false;
  Jacobi2dCounters without = modelJacobi2d(c);
  EXPECT_LT(with.globalElems * 2, without.globalElems);
  EXPECT_LT(with.interBlockSyncs, without.interBlockSyncs);
}

class Jacobi2dShapeSweep
    : public ::testing::TestWithParam<std::tuple<i64, i64, i64, i64>> {};

TEST_P(Jacobi2dShapeSweep, AlwaysMatchesReference) {
  auto [n, m, t, tt] = GetParam();
  Jacobi2dConfig c;
  c.n = n;
  c.m = m;
  c.timeSteps = t;
  c.timeTile = tt;
  c.spaceTileI = 7;
  c.spaceTileJ = 9;
  std::vector<double> a(c.n * c.m), ar(c.n * c.m), b(c.n * c.m);
  for (i64 i = 0; i < c.n * c.m; ++i) a[i] = ar[i] = static_cast<double>((i * 7) % 50);
  runJacobi2dMapped(c, a);
  referenceJacobi2d(ar, b, c.n, c.m, c.timeSteps);
  for (i64 i = 0; i < c.n * c.m; ++i) ASSERT_NEAR(a[i], ar[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Jacobi2dShapeSweep,
    ::testing::Values(std::tuple<i64, i64, i64, i64>{20, 20, 5, 2},
                      std::tuple<i64, i64, i64, i64>{33, 17, 7, 3},
                      std::tuple<i64, i64, i64, i64>{16, 48, 6, 6},
                      std::tuple<i64, i64, i64, i64>{25, 25, 11, 4}));

// ---- Cell backend DMA coalescing. ----

size_t countOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

/// Loops and global<->local copies of a unit's AST.
void countLoopsAndTransfers(const AstNode& n, int numGlobalArrays, size_t& loops,
                            size_t& transfers) {
  if (n.kind == AstNode::Kind::For) ++loops;
  if (n.kind == AstNode::Kind::Copy &&
      (n.dstArray >= numGlobalArrays) != (n.srcArray >= numGlobalArrays))
    ++transfers;
  for (const AstPtr& c : n.children) countLoopsAndTransfers(*c, numGlobalArrays, loops, transfers);
}

TEST(CellBackend, CoalescesContiguousRowCopiesIntoStridedDma) {
  // The tiled ME kernel stages 2-D windows: its move-in/move-out scanners
  // end in unit-stride inner loops, so coalescing must replace the
  // per-element dma_get/dma_put with one strided transfer per row.
  CompileOptions opts;
  opts.backendName = "cell";
  opts.paramValues = {32, 32, 8};
  opts.memLimitBytes = 8 * 1024;
  CompileResult r = Compiler(buildMeBlock(32, 32, 8)).options(opts).compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_NE(r.unit(), nullptr);
  const std::string coalesced = emitArtifact(*r.unit(), opts, nullptr, nullptr);
  EXPECT_EQ(coalesced, r.artifact);

  // The transfer count drops from one DMA per element to one per row: each
  // of the unit's transfers renders as one row-sized dma site whose
  // innermost copy loop is gone, and no transfer of exactly sizeof(float)
  // survives.
  size_t loops = 0, transfers = 0;
  countLoopsAndTransfers(*r.unit()->root, r.unit()->numGlobalArrays(), loops, transfers);
  ASSERT_GT(transfers, 0u);
  const size_t dmaSites =
      countOccurrences(coalesced, "dma_get(") + countOccurrences(coalesced, "dma_put(");
  EXPECT_EQ(dmaSites, transfers);
  EXPECT_EQ(countOccurrences(coalesced, "// coalesced row"), transfers) << coalesced;
  // Every loop of the unit but the coalesced ones survives, plus the launch
  // stub's loop over the SPEs.
  EXPECT_EQ(countOccurrences(coalesced, "for ("), loops - transfers + 1) << coalesced;
  EXPECT_EQ(coalesced.find("sizeof(float));"), std::string::npos) << coalesced;
}

/// The first loop whose only child is a copy, or null.
AstNode* firstCopyLoop(AstNode& n) {
  if (n.kind == AstNode::Kind::For && n.children.size() == 1 &&
      n.children[0]->kind == AstNode::Kind::Copy)
    return &n;
  for (AstPtr& c : n.children)
    if (AstNode* loop = firstCopyLoop(*c)) return loop;
  return nullptr;
}

TEST(CellBackend, NonContiguousCopiesStayPerElementTransfers) {
  CompileOptions opts;
  opts.backendName = "cell";
  opts.paramValues = {32, 32, 8};
  opts.memLimitBytes = 8 * 1024;
  CompileResult r = Compiler(buildMeBlock(32, 32, 8)).options(opts).compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  CodeUnit unit = *r.unit();
  // Make one row copy strided: its iterator now also advances the leading
  // dimension on both sides, so consecutive iterations are not contiguous.
  AstNode* loop = firstCopyLoop(*unit.root);
  ASSERT_NE(loop, nullptr);
  AstNode& copy = *loop->children[0];
  copy.dstIndex.front().terms.emplace_back(loop->iter, 1);
  copy.srcIndex.front().terms.emplace_back(loop->iter, 1);
  const std::string text = emitArtifact(unit, opts, nullptr, nullptr);
  EXPECT_EQ(countOccurrences(text, "sizeof(float));"), 1u) << text;
  EXPECT_EQ(countOccurrences(text, "// coalesced row"),
            countOccurrences(r.artifact, "// coalesced row") - 1);
}

TEST(CellBackend, DriverArtifactUsesCoalescedTransfers) {
  CompileResult r = Compiler(buildMeBlock(32, 32, 8))
                        .parameters({32, 32, 8})
                        .memoryLimitBytes(8 * 1024)
                        .backend("cell")
                        .compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_NE(r.artifact.find("// coalesced row"), std::string::npos);
  EXPECT_NE(r.artifact.find("dma_get("), std::string::npos);
}

}  // namespace
}  // namespace emm
