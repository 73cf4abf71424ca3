// Google-benchmark microbenchmarks of the compiler substrate: the
// polyhedral operations dominating compile time (Fourier-Motzkin
// projection, images, set difference, scanning), dependence analysis, the
// Section-3 block analysis, the family binder's plan-only tile search and
// bound-result materialization, the copy of a compile result, and the
// counting walk over a compiled unit (work counts and bank conflicts).
#include <benchmark/benchmark.h>

#include "codegen/scan.h"
#include "deps/dependence.h"
#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "driver/runtime_binder.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "kernels/me_pipeline.h"
#include "tilesearch/tile_evaluator.h"
#include "poly/enumerate.h"
#include "smem/data_manage.h"
#include "tiling/multilevel.h"

namespace emm {
namespace {

Polyhedron simplex(int dim, i64 n) {
  Polyhedron p(dim, 0);
  for (int d = 0; d < dim; ++d) {
    IntVec row(p.cols(), 0);
    row[d] = 1;
    p.addInequality(row);
  }
  IntVec cap(p.cols(), 0);
  for (int d = 0; d < dim; ++d) cap[d] = -1;
  cap.back() = n;
  p.addInequality(cap);
  return p;
}

void BM_FourierMotzkin(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  Polyhedron p = simplex(dim, 100);
  for (auto _ : state) {
    Polyhedron q = p.projectedOnto(1);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_FourierMotzkin)->Arg(3)->Arg(5)->Arg(7);

void BM_Image(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  Polyhedron p = simplex(dim, 50);
  IntMat f(2, dim + 1);
  for (int d = 0; d < dim; ++d) {
    f.at(0, d) = 1;
    f.at(1, d) = d % 2;
  }
  for (auto _ : state) {
    Polyhedron img = p.image(f);
    benchmark::DoNotOptimize(img);
  }
}
BENCHMARK(BM_Image)->Arg(3)->Arg(5);

void BM_SetDifference(benchmark::State& state) {
  Polyhedron a(2, 0), b(2, 0);
  a.addRange(0, 0, 100);
  a.addRange(1, 0, 100);
  b.addRange(0, 25, 75);
  b.addRange(1, 25, 75);
  for (auto _ : state) {
    PolySet d = setDifference(a, b);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_SetDifference);

void BM_CountPoints(benchmark::State& state) {
  Polyhedron p = simplex(3, static_cast<i64>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(countPoints(p, {}));
}
BENCHMARK(BM_CountPoints)->Arg(16)->Arg(48);

void BM_DependenceAnalysis(benchmark::State& state) {
  ProgramBlock block = buildJacobiBlock(64, 16);
  for (auto _ : state) {
    auto deps = computeDependences(block);
    benchmark::DoNotOptimize(deps);
  }
}
BENCHMARK(BM_DependenceAnalysis);

void BM_SmemAnalysis(benchmark::State& state) {
  ProgramBlock block = buildMeBlock(64, 64, 8);
  SmemOptions o;
  o.sampleParams = {64, 64, 8};
  for (auto _ : state) {
    DataPlan plan = analyzeBlock(block, o);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_SmemAnalysis);

void BM_TileAnalysis(benchmark::State& state) {
  ProgramBlock block = buildMeBlock(64, 64, 8);
  auto deps = computeDependences(block);
  ParallelismPlan plan = findParallelism(block, deps);
  SmemOptions o;
  o.sampleParams = {64, 64, 8};
  for (auto _ : state) {
    TileAnalysis ta = analyzeTile(block, plan, {16, 16, 8, 8}, o);
    benchmark::DoNotOptimize(ta);
  }
}
BENCHMARK(BM_TileAnalysis);

void BM_ScanUnion(benchmark::State& state) {
  Polyhedron a(2, 0), b(2, 0);
  a.addRange(0, 0, 31);
  a.addRange(1, 0, 15);
  b.addRange(0, 16, 47);
  b.addRange(1, 8, 23);
  for (auto _ : state) {
    AstPtr root = scanUnion({a, b}, {"i", "j"}, {}, [&](const std::vector<std::string>&) {
      return AstNode::comment("x");
    });
    benchmark::DoNotOptimize(root);
  }
}
BENCHMARK(BM_ScanUnion);

void BM_DriverFullPipeline(benchmark::State& state) {
  // End-to-end emm::Compiler cost (deps through CUDA codegen) with explicit
  // tile sizes — the per-request latency a compile service would pay.
  ProgramBlock block = buildMeBlock(64, 64, 8);
  for (auto _ : state) {
    CompileResult r = Compiler(block)
                          .parameters({64, 64, 8})
                          .tileSizes({16, 16, 8, 8})
                          .skipPass("tilesearch")
                          .backend("cuda")
                          .compile();
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DriverFullPipeline);

void BM_PlanOnlySearch(benchmark::State& state) {
  // The search step of a family bind (runtime_binder.h, certifyBind step
  // 2): the compile's descent solver over a plan-only TileEvaluator at a
  // size the family has not seen, so every iteration binds fresh sizes and
  // evaluates its candidates from scratch. Arg 0: ME (sizes from the
  // family-sweep workload's pool, Ni = 256 + 16k); arg 1: matmul (a step-4
  // grid over [128, 256]^3).
  const bool me = state.range(0) == 0;
  IntVec params;
  ProgramBlock block = me ? buildKernelByName("me", {256, 128, 16}, params)
                          : buildKernelByName("matmul", {128, 128, 128}, params);
  PlanCache cache;
  Compiler c(block);
  c.parameters(params).cache(&cache);
  if (!c.compile().ok) state.SkipWithError("family warm-up did not compile");
  std::shared_ptr<const FamilyPlan> family = c.cachedFamily(block);
  if (family == nullptr || family->tilePlan == nullptr) {
    state.SkipWithError("family has no tile plan");
    return;
  }
  TileSearchOptions options = c.opts().tileSearchOptions();
  i64 k = 0;
  for (auto _ : state) {
    ++k;
    options.paramValues = me ? IntVec{256 + 16 * (k % 4096 + 1), 128, 16}
                             : IntVec{128 + 4 * (k % 33), 128 + 4 * (k / 33 % 33),
                                      128 + 4 * (k / 1089 % 33)};
    TileEvaluator evaluator(family->tilePlan, options);
    TileSearchResult r = searchTileSizes(evaluator);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PlanOnlySearch)->Arg(0)->Arg(1);

void BM_MaterializeBind(benchmark::State& state) {
  // The second half of an in-process family bind (runtime_binder.h):
  // materializeBind turns the family record and a certified overlay into
  // the bound result, which the iteration then frees, as a family-sweep
  // compile does. The overlays are certified up front at 16 sizes and, as
  // compile() does, moved into the call; copying them is left out of the
  // timing (in batches of 256, with the clock paused). Arg 0: ME; arg 1:
  // matmul.
  const bool me = state.range(0) == 0;
  IntVec params;
  ProgramBlock seed = me ? buildKernelByName("me", {256, 128, 16}, params)
                         : buildKernelByName("matmul", {128, 128, 128}, params);
  PlanCache cache;
  Compiler c(seed);
  c.parameters(params).cache(&cache);
  if (!c.compile().ok) state.SkipWithError("family warm-up did not compile");
  std::vector<FamilyBind> binds;
  for (i64 k = 1; k <= 16; ++k) {
    const std::vector<i64> sizes = me ? std::vector<i64>{256 + 16 * k, 128, 16}
                                      : std::vector<i64>{128 + 4 * k, 132, 136};
    ProgramBlock block = buildKernelByName(me ? "me" : "matmul", sizes, params);
    c.parameters(params);
    if (std::optional<FamilyBind> bind = c.tryCertifyFamily(block)) binds.push_back(*bind);
  }
  if (binds.empty()) {
    state.SkipWithError("no size certified");
    return;
  }
  constexpr size_t kBatch = 256;
  std::vector<BindOverlay> overlays;
  auto refill = [&] {
    overlays.clear();
    for (size_t i = 0; i < kBatch; ++i) overlays.push_back(binds[i % binds.size()].overlay);
  };
  refill();
  size_t k = 0;
  for (auto _ : state) {
    if (k == kBatch) {
      state.PauseTiming();
      refill();
      k = 0;
      state.ResumeTiming();
    }
    CompileResult r = materializeBind(*binds[k % binds.size()].record, std::move(overlays[k]));
    benchmark::DoNotOptimize(r);
    ++k;
  }
}
BENCHMARK(BM_MaterializeBind)->Arg(0)->Arg(1);

void BM_ResultCopy(benchmark::State& state) {
  // CompileResult::clone() of a warmed ME pipeline result: what the result
  // tier pays per hit and per store (driver/plan_cache.cpp), and the copy
  // benchsuite's cache.result_clone layer replays.
  IntVec params;
  ProgramBlock block = buildKernelByName("me", {256, 128, 16}, params);
  PlanCache cache;
  Compiler c(block);
  c.parameters(params).cache(&cache);
  c.compile();
  const CompileResult warmed = c.compile();
  if (!warmed.ok || !warmed.cacheHit) state.SkipWithError("no warmed ME result");
  for (auto _ : state) {
    CompileResult copy = warmed.clone();
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_ResultCopy);

/// ME at its default sizes, compiled as `emmapc --kernel=me` compiles it.
CompileResult compileDefaultMe(bool packBuffers, IntVec& params) {
  Compiler c(buildKernelByName("me", {}, params));
  c.parameters(params).memoryLimitBytes(16 * 1024).innerProcs(32).backend("cuda");
  c.opts().packBuffers = packBuffers;
  return c.compile();
}

void BM_CountCodeUnit(benchmark::State& state) {
  // countCodeUnit (ir/interp.h) over a compiled ME unit: the work counts
  // the figures and `emmapc --emit=stats` price. Arg 0: ME at its default
  // sizes; arg 1: fig6's (8,8,16,16) sub-tile at 16M points, a size where
  // counting runs one iteration per sub-tile.
  IntVec params;
  CompileResult r;
  if (state.range(0) == 0) {
    r = compileDefaultMe(true, params);
  } else {
    MeConfig c;
    c.nj = 1024;
    c.ni = (16 << 20) / c.nj;
    c.subTile = {8, 8, 16, 16};
    r = buildMePipeline(c);
    params = c.params();
  }
  if (!r.ok || !r.kernel.has_value()) {
    state.SkipWithError("ME did not compile");
    return;
  }
  const IntVec ext = r.kernel->unitParams(params);
  for (auto _ : state) {
    MemTrace t = countCodeUnit(r.kernel->unit, ext);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_CountCodeUnit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_CountBankConflicts(benchmark::State& state) {
  // countBankConflicts (ir/interp.h) over ME at its default sizes, at the
  // layout's 16 banks of 4-byte words: what `emmapc --emit=stats` pays for
  // its conflict estimate. Arg 0: unpacked buffers; arg 1: packed.
  IntVec params;
  const CompileResult r = compileDefaultMe(state.range(0) == 1, params);
  if (!r.ok || !r.kernel.has_value()) {
    state.SkipWithError("ME did not compile");
    return;
  }
  const IntVec ext = r.kernel->unitParams(params);
  for (auto _ : state) {
    BankConflictStats s = countBankConflicts(r.kernel->unit, ext, BankDescriptor{}, 4);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_CountBankConflicts)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace emm

BENCHMARK_MAIN();
