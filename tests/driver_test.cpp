// Tests for the unified emm::Compiler driver API: builder configuration,
// pass skipping/replacement, backend registry lookup, structured results,
// and diagnostics ordering.
#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "driver/compiler.h"
#include "ir/interp.h"
#include "kernels/blocks.h"

namespace emm {
namespace {

// ---- Builder configuration and structured results. ----

TEST(CompilerBuilder, FullPipelineOnMatmul) {
  const i64 n = 32, m = 32, k = 32;
  CompileResult r = Compiler(buildMatmulBlock(n, m, k))
                        .parameters({n, m, k})
                        .memoryLimitBytes(1536 * 4)
                        .tileCandidates({{4, 8, 16}, {4, 8, 16}, {4, 8, 16}})
                        .backend("c")
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_TRUE(r.havePlan);
  EXPECT_EQ(r.plan.spaceLoops.size(), 2u);
  ASSERT_TRUE(r.kernel.has_value());
  EXPECT_NE(r.unit(), nullptr);
  EXPECT_NE(r.dataPlan(), nullptr);
  EXPECT_FALSE(r.artifact.empty());
  EXPECT_TRUE(r.search.eval.feasible);
  EXPECT_GT(r.search.evaluations, 1);

  // One timing entry per standard pass, in pipeline order, all executed.
  // Passes may interleave named sub-stage entries ("pass.sub") after their
  // own — the tilesearch pass reports plan-build vs evaluation time.
  std::vector<std::string> order = Compiler().passNames();
  std::vector<const PassTiming*> mainEntries;
  for (const PassTiming& t : r.timings) {
    if (t.pass.find('.') != std::string::npos) {
      EXPECT_TRUE(t.ran);
      continue;
    }
    mainEntries.push_back(&t);
  }
  ASSERT_EQ(mainEntries.size(), order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(mainEntries[i]->pass, order[i]);
    EXPECT_TRUE(mainEntries[i]->ran);
    EXPECT_FALSE(mainEntries[i]->skipped);
    EXPECT_GE(mainEntries[i]->millis, 0.0);
  }
  // The searched pipeline surfaces the parametric-analysis split.
  EXPECT_NE(r.timing("tilesearch.plan"), nullptr);
  EXPECT_NE(r.timing("tilesearch.eval"), nullptr);
  EXPECT_TRUE(r.search.parametric) << r.search.parametricReason;
}

TEST(CompilerBuilder, CompiledKernelPreservesSemantics) {
  const i64 n = 24, m = 16, k = 20;
  CompileResult r = Compiler(buildMatmulBlock(n, m, k))
                        .parameters({n, m, k})
                        .tileSizes({4, 4, 8})
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  ASSERT_TRUE(r.kernel.has_value());

  ArrayStore store(r.block().arrays);
  store.fillAllPattern(13);
  std::vector<double> a = store.raw(0), b = store.raw(1), c = store.raw(2);
  IntVec ext = {n, m, k};
  ext.resize(r.kernel->analysis.tileBlock->paramNames.size(), 0);
  executeCodeUnit(r.kernel->unit, ext, store);
  referenceMatmul(a, b, c, n, m, k);
  for (i64 i = 0; i < n; ++i)
    for (i64 j = 0; j < m; ++j) ASSERT_NEAR(store.get(2, {i, j}), c[i * m + j], 1e-9);
}

TEST(CompilerBuilder, ExplicitTileEvaluatesInsteadOfSearching) {
  const i64 n = 32;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .tileSizes({8, 8, 8})
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_EQ(r.search.evaluations, 1);  // evaluated, not searched
  EXPECT_EQ(r.search.subTile, (std::vector<i64>{8, 8, 8}));
  EXPECT_TRUE(r.search.eval.feasible);
  EXPECT_GT(r.search.eval.footprint, 0);
}

TEST(CompilerBuilder, ReusableAcrossCompiles) {
  const i64 n = 16;
  Compiler c(buildMatmulBlock(n, n, n));
  c.parameters({n, n, n}).tileSizes({4, 4, 4});
  CompileResult first = c.compile();
  CompileResult second = c.backend("cuda").kernelName("mm").compile();
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok) << renderDiagnostics(second.diagnostics);
  EXPECT_NE(second.artifact.find("__global__ void mm("), std::string::npos);
}

TEST(CompilerBuilder, CompileWithoutSourceThrows) {
  Compiler c;
  EXPECT_THROW(c.compile(), ApiError);
}

// ---- Pipeline shapes. ----

TEST(CompilerPipeline, ScratchpadOnlyFigure1) {
  CompileResult r = Compiler(buildFigure1Block())
                        .scratchpadOnly()
                        .stageEverything(true)
                        .partition(PartitionMode::PerArrayUnion)
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_FALSE(r.kernel.has_value());
  ASSERT_TRUE(r.scratchpadUnit.has_value());
  ASSERT_NE(r.dataPlan(), nullptr);
  EXPECT_EQ(r.dataPlan()->partitions.size(), 2u);  // one buffer per array
  EXPECT_NE(r.artifact.find("LA0"), std::string::npos) << r.artifact;

  // The generated unit is semantically equivalent to the source block.
  ArrayStore got(r.block().arrays), want(r.block().arrays);
  got.fillAllPattern(7);
  want.fillAllPattern(7);
  executeCodeUnit(*r.unit(), {}, got);
  executeReference(r.block(), {}, want);
  EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0);
}

TEST(CompilerPipeline, FallsBackOnInterBlockSyncBands) {
  // 1-D Jacobi: after shift+skew the band needs inter-block sync, so the
  // Figure-3 tiler does not apply; the driver reports the analysis instead.
  CompileResult r =
      Compiler(buildJacobiBlock(64, 8)).parameters({64, 8}).compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_TRUE(r.plan.needsInterBlockSync);
  EXPECT_FALSE(r.kernel.has_value());
  EXPECT_FALSE(r.scratchpadUnit.has_value());
  ASSERT_TRUE(r.blockPlan.has_value());
  EXPECT_FALSE(r.blockPlan->partitions.empty());
  EXPECT_FALSE(r.appliedSkews.empty());  // the skew was applied and reported
  bool sawWarning = false;
  for (const Diagnostic& d : r.diagnostics)
    sawWarning |= d.severity == Severity::Warning && d.stage == "transform";
  EXPECT_TRUE(sawWarning) << renderDiagnostics(r.diagnostics);
}

// ---- Pass skipping and replacement. ----

TEST(CompilerPasses, SkipCodegenLeavesArtifactEmpty) {
  const i64 n = 16;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .tileSizes({4, 4, 4})
                        .skipPass("codegen")
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_TRUE(r.artifact.empty());
  ASSERT_NE(r.timing("codegen"), nullptr);
  EXPECT_TRUE(r.timing("codegen")->skipped);
  EXPECT_FALSE(r.timing("codegen")->ran);
  EXPECT_TRUE(r.kernel.has_value());  // earlier passes unaffected
}

TEST(CompilerPasses, SkipTilingFallsBackToBlockAnalysis) {
  const i64 n = 16;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .tileSizes({4, 4, 4})
                        .skipPass("tiling")
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_FALSE(r.kernel.has_value());
  ASSERT_TRUE(r.blockPlan.has_value());  // smem pass analyzed the block
  EXPECT_TRUE(r.artifact.empty());       // nothing executable to emit
}

TEST(CompilerPasses, ReplacePassInjectsCustomStage) {
  // Pin the sub-tile through a replacement tilesearch pass.
  class FixedTilePass : public Pass {
  public:
    FixedTilePass() : Pass("tilesearch") {}
    void run(CompileState& s) override {
      s.search.subTile = {2, 2, 16};
      s.search.eval.feasible = true;
      s.search.evaluations = 0;
      s.note(name(), "fixed tile injected");
    }
  };
  const i64 n = 16;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .replacePass("tilesearch", std::make_shared<FixedTilePass>())
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  ASSERT_TRUE(r.kernel.has_value());
  EXPECT_EQ(r.kernel->analysis.subTile, (std::vector<i64>{2, 2, 16}));
  bool sawInjected = false;
  for (const Diagnostic& d : r.diagnostics)
    sawInjected |= d.message == "fixed tile injected";
  EXPECT_TRUE(sawInjected);
}

TEST(CompilerPasses, UnknownPassNamesThrow) {
  Compiler c;
  EXPECT_THROW(c.skipPass("linker"), ApiError);
  EXPECT_THROW(c.replacePass("linker", nullptr), ApiError);
}

// ---- Codegen targets. ----

TEST(EmitTargetTest, StandardTargetsRender) {
  const i64 n = 16;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .tileSizes({4, 4, 4})
                        .backend("cell")
                        .compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  CompileOptions o;
  o.paramValues = {n, n, n};
  const std::uint64_t before = emitterInvocations();
  for (const char* target : {"c", "cuda", "cell"}) {
    o.backendName = target;
    EXPECT_NO_THROW(requireEmitTarget(target));
    EXPECT_FALSE(emitArtifact(*r.unit(), o, nullptr, nullptr).empty()) << target;
  }
  EXPECT_EQ(emitterInvocations() - before, 3u);
  EXPECT_EQ(emitC(*r.unit()), emitArtifact(*r.unit(), CompileOptions{}, nullptr, nullptr));
  o.backendName = "spe";
  try {
    emitArtifact(*r.unit(), o, nullptr, nullptr);
    ADD_FAILURE() << "an unknown target rendered";
  } catch (const ApiError& e) {
    EXPECT_STREQ(e.what(), "unknown backend 'spe' (registered: c, cuda, cell)");
  }
  EXPECT_THROW(requireEmitTarget("spe"), ApiError);
}

TEST(EmitTargetTest, UnknownTargetIsStructuredError) {
  const i64 n = 16;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .tileSizes({4, 4, 4})
                        .backend("vliw")
                        .compile();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.firstError(), "unknown backend 'vliw' (registered: c, cuda, cell)");
  ASSERT_FALSE(r.diagnostics.empty());
  const Diagnostic& last = r.diagnostics.back();
  EXPECT_EQ(last.severity, Severity::Error);
  EXPECT_EQ(last.stage, "codegen");
  // Earlier stages still produced their structured results.
  EXPECT_TRUE(r.kernel.has_value());
}

TEST(EmitTargetTest, ShortBindingIsStructuredError) {
  // numBoundParams arrives from the wire: a binding shorter than it fails
  // the codegen pass with a diagnostic on every target.
  const i64 n = 16;
  for (const char* target : {"c", "cuda", "cell"}) {
    SCOPED_TRACE(target);
    CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                          .parameters({n, n, n})
                          .tileSizes({4, 4, 4})
                          .backend(target)
                          .compile();
    ASSERT_TRUE(r.ok) << r.firstError();
    CompileOptions o;
    o.backendName = target;
    o.paramValues = {n, n, n};
    o.numBoundParams = 4;
    EXPECT_THROW(emitArtifact(*r.unit(), o, nullptr, nullptr), ApiError);
    Compiler c(buildMatmulBlock(n, n, n));
    c.options(o).tileSizes({4, 4, 4});
    r = c.compile();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.firstError(), "parameter binding shorter than numBoundParams");
    EXPECT_EQ(r.diagnostics.back().stage, "codegen");
  }
}

TEST(EmitTargetTest, CudaTargetThroughDriver) {
  const i64 ni = 16, nj = 8, w = 4;
  CompileResult r = Compiler(buildMeBlock(ni, nj, w))
                        .parameters({ni, nj, w})
                        .tileSizes({4, 4, 4, 4})
                        .backend("cuda")
                        .kernelName("me_sad")
                        .compile();
  ASSERT_TRUE(r.ok) << renderDiagnostics(r.diagnostics);
  EXPECT_NE(r.artifact.find("__global__ void me_sad("), std::string::npos) << r.artifact;
  EXPECT_NE(r.artifact.find("__syncthreads();"), std::string::npos);
}

// ---- Diagnostics ordering. ----

TEST(CompilerDiagnostics, OrderedByPipelineStage) {
  const i64 n = 16;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .tileSizes({4, 4, 4})
                        .backend("vliw")  // forces a final codegen error
                        .compile();
  ASSERT_GE(r.diagnostics.size(), 2u);
  // Stages appear in non-decreasing pipeline position.
  std::vector<std::string> order = Compiler().passNames();
  auto position = [&](const std::string& stage) {
    for (size_t i = 0; i < order.size(); ++i)
      if (order[i] == stage) return static_cast<int>(i);
    return -1;
  };
  int prev = -1;
  for (const Diagnostic& d : r.diagnostics) {
    int pos = position(d.stage);
    ASSERT_GE(pos, 0) << "diagnostic from unknown stage " << d.stage;
    EXPECT_GE(pos, prev) << renderDiagnostics(r.diagnostics);
    prev = pos;
  }
  // The error terminates the list.
  EXPECT_EQ(r.diagnostics.back().severity, Severity::Error);
  EXPECT_EQ(r.diagnostics.back().stage, "codegen");
}

TEST(CompilerDiagnostics, InfeasibleSearchReportsError) {
  const i64 n = 32;
  CompileResult r = Compiler(buildMatmulBlock(n, n, n))
                        .parameters({n, n, n})
                        .memoryLimitBytes(4)  // one element: nothing fits
                        .compile();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.firstError().find("no feasible tile"), std::string::npos) << r.firstError();
  // The pipeline stopped: no kernel, no artifact.
  EXPECT_FALSE(r.kernel.has_value());
  EXPECT_TRUE(r.artifact.empty());
}

TEST(CompilerDiagnostics, InfeasibleSearchNamesWhatRuledTheCandidatesOut) {
  // emmapc --kernel=matmul --emit=cell --mem=64: the scratchpad budget.
  IntVec params;
  CompileResult tight = Compiler(buildKernelByName("matmul", {}, params))
                            .parameters(params)
                            .memoryLimitBytes(64)
                            .backend("cell")
                            .compile();
  EXPECT_FALSE(tight.ok);
  EXPECT_EQ(tight.firstError(),
            "no feasible tile: every candidate tile evaluated with at least innerProcs = 32 "
            "iterations exceeds the scratchpad budget of 64 bytes (16 elements)");
  // emmapc --kernel=me --size=1,1,1: the trip counts against innerProcs.
  CompileResult tiny = Compiler(buildKernelByName("me", {1, 1, 1}, params))
                           .parameters(params)
                           .compile();
  EXPECT_FALSE(tiny.ok);
  EXPECT_EQ(tiny.firstError(),
            "no feasible tile: the loop trip counts (1,1,1,1) allow at most 1 iterations per "
            "tile, fewer than innerProcs = 32");
  // Given candidate sizes, none of which fits loop 0.
  CompileResult wide = Compiler(buildMatmulBlock(8, 8, 8))
                           .parameters({8, 8, 8})
                           .tileCandidates({{16, 32}, {4, 8}, {4, 8}})
                           .compile();
  EXPECT_FALSE(wide.ok);
  EXPECT_EQ(wide.firstError(),
            "no feasible tile: no candidate size of loop 0 fits its trip count 8");
}

}  // namespace
}  // namespace emm
