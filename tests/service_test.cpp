// Tests for the compilation-service layer: structural fingerprints, the
// plan cache (hit/miss accounting, byte-identical warm artifacts, clone
// integrity), the thread pool, async/batch compilation, and the memoized
// tile evaluator.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "codegen/emit.h"
#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "service/server.h"
#include "support/fingerprint.h"
#include "support/serialize.h"
#include "support/thread_pool.h"
#include "tilesearch/tile_evaluator.h"

namespace emm {
namespace {

// ---- Structural fingerprints. ----

TEST(Fingerprint, SameBlockBuiltTwiceHashesEqual) {
  EXPECT_EQ(hashProgramBlock(buildMeBlock(64, 64, 8)), hashProgramBlock(buildMeBlock(64, 64, 8)));
  EXPECT_EQ(hashProgramBlock(buildMatmulBlock(32, 32, 32)),
            hashProgramBlock(buildMatmulBlock(32, 32, 32)));
  EXPECT_EQ(hashProgramBlock(buildFigure1Block()), hashProgramBlock(buildFigure1Block()));
}

TEST(Fingerprint, DistinctBlocksHashDifferently) {
  u64 me = hashProgramBlock(buildMeBlock(64, 64, 8));
  EXPECT_NE(me, hashProgramBlock(buildMeBlock(64, 64, 16)));  // extents differ
  EXPECT_NE(me, hashProgramBlock(buildMatmulBlock(64, 64, 8)));
}

TEST(Fingerprint, AnyStructuralMutationChangesTheHash) {
  ProgramBlock base = buildMatmulBlock(16, 16, 16);
  const u64 h = hashProgramBlock(base);

  ProgramBlock b = base;
  b.name = "other";
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;
  b.paramNames[0] = "Q";
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;
  b.arrays[0].extents[0] += 1;
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;
  b.statements[0].name = "other";
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;  // mutate a domain bound
  {
    IntVec row(b.statements[0].domain.cols(), 0);
    row[0] = 1;
    row.back() = -1;  // i >= 1
    b.statements[0].domain.addInequality(row);
  }
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;  // mutate an access function entry
  b.statements[0].accesses[0].fn.at(0, 0) += 1;
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;  // flip an access direction
  b.statements[0].accesses[0].isWrite = !b.statements[0].accesses[0].isWrite;
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;  // mutate the schedule
  b.statements[0].schedule.at(0, b.statements[0].schedule.cols() - 1) += 1;
  EXPECT_NE(hashProgramBlock(b), h);

  b = base;  // replace the statement body
  b.statements[0].rhs = Expr::constant(42);
  EXPECT_NE(hashProgramBlock(b), h);
}

TEST(Fingerprint, OptionsHashCoversEveryKnob) {
  CompileOptions base;
  base.paramValues = {64, 64, 8};
  const u64 h = hashCompileOptions(base);

  auto mutated = [&](auto&& mutate) {
    CompileOptions o = base;
    mutate(o);
    return hashCompileOptions(o);
  };
  EXPECT_NE(mutated([](CompileOptions& o) { o.paramValues[0] = 65; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.mode = PipelineMode::ScratchpadOnly; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.delta = 0.5; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.partitionMode = PartitionMode::PerArrayUnion; }),
            h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.stageEverything = true; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.subTile = {8, 8, 8}; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.hoistCopies = false; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.searchMode = TileSearchMode::Exhaustive; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.memLimitBytes = 8 * 1024; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.innerProcs = 16; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.tileCandidates = {{4}, {4}, {4}}; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.parametricTileAnalysis = false; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.backendName = "cuda"; }), h);
  EXPECT_NE(mutated([](CompileOptions& o) { o.kernelName = "k2"; }), h);
  EXPECT_EQ(hashCompileOptions(base), h);  // hashing is pure
}

// ---- Thread pool. ----

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
  // The pool stays usable after a wait.
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPoolTest, ClampsWorkerCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  }
  EXPECT_EQ(count.load(), 50);
}

#if defined(__linux__)
/// The calling thread's nice value (per thread on Linux).
int ownNice() {
  errno = 0;
  return ::getpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)));
}

TEST(ThreadPoolTest, WorkersLowerTheirOwnPriorityOnly) {
  const int nice = svc::ServiceServer::kCompilePoolNice;
  const int base = ownNice();
  if (base >= nice) GTEST_SKIP() << "the test already runs at nice " << base;
  // Lowering one's own priority is unprivileged, but a sandbox may refuse
  // setpriority outright: probe on a throwaway thread.
  bool refused = false;
  std::thread([&] {
    refused = ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), nice) != 0;
  }).join();
  if (refused) GTEST_SKIP() << "the kernel refuses setpriority";

  // The daemon's compile pool runs at kCompilePoolNice; a default pool keeps
  // its creator's priority, and so does the creator.
  std::atomic<int> lowered{0};
  ThreadPool compilePool(2, nice);
  for (int i = 0; i < 8; ++i) compilePool.submit([&] { lowered += ownNice() == nice; });
  compilePool.wait();
  int normal = 0;
  ThreadPool plainPool(1);
  plainPool.submit([&] { normal = ownNice(); });
  plainPool.wait();
  EXPECT_EQ(lowered.load(), 8);
  EXPECT_EQ(normal, base);
  EXPECT_EQ(ownNice(), base);
}
#endif

// ---- Memoized tile evaluator. ----

struct EvalSetup {
  ProgramBlock block;
  ParallelismPlan plan;
  SmemOptions smem;
  TileSearchOptions opts;

  EvalSetup() {
    block = buildMeBlock(32, 32, 8);
    auto deps = computeDependences(block);
    plan = findParallelism(block, deps);
    smem.sampleParams = {32, 32, 8};
    opts.paramValues = {32, 32, 8};
    opts.memLimitElems = 2048;
    opts.innerProcs = 32;
  }
};

TEST(TileEvaluatorTest, MatchesDirectEvaluation) {
  EvalSetup s;
  TileEvaluator evaluator(s.block, s.plan, s.opts, s.smem);
  for (const std::vector<i64>& tile :
       {std::vector<i64>{8, 8, 8, 8}, {16, 16, 8, 8}, {1, 1, 2, 2}, {64, 16, 8, 8}}) {
    TileEvaluation direct = evaluateTileSizes(s.block, s.plan, tile, s.opts, s.smem);
    const TileEvaluation& memo = evaluator.evaluate(tile);
    EXPECT_EQ(direct.feasible, memo.feasible);
    EXPECT_EQ(direct.reason, memo.reason);
    EXPECT_DOUBLE_EQ(direct.cost, memo.cost);
    EXPECT_EQ(direct.footprint, memo.footprint);
    ASSERT_EQ(direct.terms.size(), memo.terms.size());
    for (size_t i = 0; i < direct.terms.size(); ++i) {
      EXPECT_EQ(direct.terms[i].occurrences, memo.terms[i].occurrences);
      EXPECT_EQ(direct.terms[i].volumeIn, memo.terms[i].volumeIn);
      EXPECT_EQ(direct.terms[i].volumeOut, memo.terms[i].volumeOut);
      EXPECT_EQ(direct.terms[i].hoistLevel, memo.terms[i].hoistLevel);
    }
  }
}

/// The plan a parametric evaluator over `s` builds, for plan-only evaluators.
std::shared_ptr<const ParametricTilePlan> setupPlan(const EvalSetup& s) {
  TileEvaluator source(s.block, s.plan, s.opts, s.smem);
  source.prepareSearch();
  EXPECT_EQ(source.parametricState(), TileEvaluator::ParametricState::Active)
      << source.fallbackReason();
  return source.sharedPlan();
}

TEST(TileEvaluatorTest, MemoizesRepeatedProbes) {
  // The concrete path (parametric off: no validation probes) and a
  // plan-only evaluator both have exact miss accounting.
  EvalSetup s;
  TileSearchOptions concreteOpts = s.opts;
  concreteOpts.parametric = false;
  TileEvaluator concrete(s.block, s.plan, concreteOpts, s.smem);
  TileEvaluator planOnly(setupPlan(s), s.opts);
  const std::vector<i64> tile = {8, 8, 8, 8};
  for (TileEvaluator* evaluator : {&concrete, &planOnly}) {
    evaluator->evaluate(tile);
    EXPECT_EQ(evaluator->evaluations(), 1);
    EXPECT_EQ(evaluator->memoHits(), 0);
    evaluator->evaluateCost(tile);
    evaluator->evaluate(tile);
    EXPECT_EQ(evaluator->evaluations(), 1);
    EXPECT_EQ(evaluator->memoHits(), 2);
  }
  // A plan-served entry gets its per-buffer terms for evaluate() callers.
  TileEvaluator fresh(setupPlan(s), s.opts);
  EXPECT_TRUE(fresh.evaluateCost(tile).terms.empty());
  EXPECT_EQ(fresh.evaluate(tile), concrete.evaluate(tile));
  EXPECT_EQ(fresh.evaluations(), 1);
}

TEST(TileEvaluatorTest, CheapConstraintsSkipTheAnalysis) {
  EvalSetup s;
  s.opts.parametric = false;  // pin the concrete path: exact analysis counts
  TileEvaluator evaluator(s.block, s.plan, s.opts, s.smem);
  // Volume < innerProcs and out-of-range tiles never pay for Section 3.
  EXPECT_FALSE(evaluator.evaluate({1, 1, 2, 2}).feasible);
  EXPECT_FALSE(evaluator.evaluate({64, 16, 8, 8}).feasible);
  EXPECT_EQ(evaluator.evaluations(), 2);
  EXPECT_EQ(evaluator.analysesRun(), 0);
  EXPECT_TRUE(evaluator.evaluate({8, 8, 8, 8}).feasible);
  EXPECT_EQ(evaluator.analysesRun(), 1);
}

TEST(TileEvaluatorTest, SolversShareOneMemo) {
  // The concrete path (parametric off: no validation probes) and a
  // plan-only evaluator both have exact miss accounting.
  EvalSetup s;
  s.opts.candidates = {{4, 8, 16, 32}, {4, 8, 16, 32}, {4, 8}, {4, 8}};
  TileSearchOptions concreteOpts = s.opts;
  concreteOpts.parametric = false;
  TileEvaluator concrete(s.block, s.plan, concreteOpts, s.smem);
  TileEvaluator planOnly(setupPlan(s), s.opts);
  for (TileEvaluator* evaluator : {&concrete, &planOnly}) {
    TileSearchResult fast = searchTileSizes(*evaluator);
    const int afterDescent = evaluator->evaluations();
    TileSearchResult oracle = exhaustiveTileSearch(*evaluator);
    ASSERT_TRUE(fast.eval.feasible);
    ASSERT_TRUE(oracle.eval.feasible);
    EXPECT_DOUBLE_EQ(fast.eval.cost, oracle.eval.cost);
    // The oracle's sweep re-used every candidate the descent had analyzed.
    int grid = 1;
    for (const std::vector<i64>& ladder : evaluator->candidates())
      grid *= static_cast<int>(ladder.size());
    EXPECT_EQ(evaluator->evaluations(), grid);
    EXPECT_EQ(oracle.evaluations, grid - afterDescent);
    EXPECT_GT(oracle.memoHits, 0);
  }
  EXPECT_EQ(concrete.evaluations(), 4 * 4 * 2 * 2);  // nothing pruned without a plan
}

TEST(TileEvaluatorTest, ExplicitTileIgnoresUnrelatedCandidateArity) {
  // Regression: the explicit-subTile path never reads tileCandidates, so a
  // mismatched candidate arity must not fail the compile.
  CompileResult r = Compiler(buildMeBlock(32, 32, 8))
                        .parameters({32, 32, 8})
                        .tileSizes({8, 8, 8, 8})
                        .tileCandidates({{4}, {4}})  // wrong arity, unused
                        .compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_EQ(r.search.subTile, (std::vector<i64>{8, 8, 8, 8}));
}

// ---- Plan cache. ----

Compiler cachedMeCompiler(PlanCache* cache, const std::string& backend = "c") {
  Compiler c(buildMeBlock(32, 32, 8));
  c.parameters({32, 32, 8}).memoryLimitBytes(8 * 1024).backend(backend).cache(cache);
  return c;
}

/// The ME family of the Figure-4 sweep at (ni, 1024, 16): the sizes the
/// tests below use share one tile argmin, so a warm family binds each one.
Compiler meFamilyCompiler(i64 ni, PlanCache* cache) {
  Compiler c(buildMeBlock(ni, 1024, 16));
  c.parameters({ni, 1024, 16}).memoryLimitBytes(16 * 1024).backend("cuda").cache(cache);
  return c;
}

TEST(PlanCacheTest, WarmHitIsByteIdenticalAcrossBackends) {
  for (const char* backend : {"c", "cuda", "cell"}) {
    PlanCache cache;
    Compiler compiler = cachedMeCompiler(&cache, backend);
    CompileResult cold = compiler.compile();
    CompileResult warm = compiler.compile();
    ASSERT_TRUE(cold.ok) << backend << ": " << cold.firstError();
    ASSERT_TRUE(warm.ok);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_TRUE(warm.cacheHit) << backend;
    EXPECT_FALSE(cold.artifact.empty());
    EXPECT_EQ(cold.artifact, warm.artifact) << backend;
    PlanCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 1);
    EXPECT_EQ(s.entries, 1);
  }
}

TEST(PlanCacheTest, WarmResultIsSemanticallyUsable) {
  PlanCache cache;
  Compiler compiler = cachedMeCompiler(&cache);
  CompileResult cold = compiler.compile();
  CompileResult warm = compiler.compile();
  ASSERT_TRUE(warm.cacheHit);
  ASSERT_TRUE(warm.kernel.has_value());  // the clone carries the full plan
  ASSERT_NE(warm.unit(), nullptr);
  ASSERT_NE(warm.dataPlan(), nullptr);

  // Executing the cloned unit produces the same memory state and trace as
  // the cold one.
  ArrayStore a(cold.block().arrays), b(warm.block().arrays);
  a.fillAllPattern(3);
  b.fillAllPattern(3);
  IntVec ext = {32, 32, 8};
  ext.resize(cold.kernel->analysis.tileBlock->paramNames.size(), 0);
  MemTrace ta = executeCodeUnit(*cold.unit(), ext, a);
  MemTrace tb = executeCodeUnit(*warm.unit(), ext, b);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);
  EXPECT_EQ(ta.stmtInstances, tb.stmtInstances);
  EXPECT_EQ(ta.copyElements, tb.copyElements);
  EXPECT_EQ(ta.syncs, tb.syncs);
}

TEST(PlanCacheTest, KeyCoversOptionsAndSkippedPasses) {
  PlanCache cache;
  Compiler compiler = cachedMeCompiler(&cache);
  CompileResult first = compiler.compile();
  ASSERT_TRUE(first.ok);
  // Different options: miss.
  CompileResult other = compiler.memoryLimitBytes(4 * 1024).compile();
  EXPECT_FALSE(other.cacheHit);
  // Same options again: hit.
  CompileResult again = compiler.compile();
  EXPECT_TRUE(again.cacheHit);
  // Same options but a skipped pass: different key, and the artifact-less
  // result is cached under it.
  compiler.skipPass("codegen");
  CompileResult skipped = compiler.compile();
  EXPECT_FALSE(skipped.cacheHit);
  EXPECT_TRUE(skipped.artifact.empty());
  CompileResult skippedWarm = compiler.compile();
  EXPECT_TRUE(skippedWarm.cacheHit);
  EXPECT_TRUE(skippedWarm.artifact.empty());
}

TEST(PlanCacheTest, ScratchpadOnlyPipelineIsCached) {
  PlanCache cache;
  Compiler compiler(buildFigure1Block());
  compiler.scratchpadOnly().stageEverything(true).partition(PartitionMode::PerArrayUnion);
  compiler.cache(&cache);
  CompileResult cold = compiler.compile();
  CompileResult warm = compiler.compile();
  ASSERT_TRUE(cold.ok) << cold.firstError();
  ASSERT_TRUE(warm.cacheHit);
  EXPECT_EQ(cold.artifact, warm.artifact);
  ASSERT_TRUE(warm.scratchpadUnit.has_value());
  ASSERT_NE(warm.dataPlan(), nullptr);
}

TEST(PlanCacheTest, ReplacedPassesBypassTheCache) {
  class FixedTilePass : public Pass {
  public:
    FixedTilePass() : Pass("tilesearch") {}
    void run(CompileState& s) override {
      s.search.subTile = {4, 4, 8, 8};
      s.search.eval.feasible = true;
    }
  };
  PlanCache cache;
  Compiler compiler = cachedMeCompiler(&cache);
  compiler.replacePass("tilesearch", std::make_shared<FixedTilePass>());
  CompileResult first = compiler.compile();
  CompileResult second = compiler.compile();
  ASSERT_TRUE(first.ok) << first.firstError();
  EXPECT_FALSE(first.cacheHit);
  EXPECT_FALSE(second.cacheHit);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 0);  // never consulted
  EXPECT_EQ(s.entries, 0);
}

TEST(PlanCacheTest, FailedCompilesAreNotCached) {
  PlanCache cache;
  Compiler compiler = cachedMeCompiler(&cache);
  compiler.memoryLimitBytes(4);  // nothing fits: tile search fails
  CompileResult first = compiler.compile();
  CompileResult second = compiler.compile();
  EXPECT_FALSE(first.ok);
  EXPECT_FALSE(second.cacheHit);  // the failure re-ran the pipeline
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.entries, 0);
}

TEST(PlanCacheTest, CapacityEvictsOldestEntries) {
  // Single shard: global insertion order is deterministic (per-shard
  // eviction is covered by sharded_cache_test.cpp).
  PlanCache cache(2, 1);
  Compiler compiler;
  compiler.cache(&cache).memoryLimitBytes(2 * 1024).skipPass("codegen");
  for (i64 n : {16, 20, 24}) {
    CompileResult r = compiler.parameters({n, n, n}).compile(buildMatmulBlock(n, n, n));
    ASSERT_TRUE(r.ok) << r.firstError();
  }
  EXPECT_EQ(cache.size(), 2u);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  // The oldest (16) was evicted; the newer two still hit.
  EXPECT_FALSE(compiler.parameters({16, 16, 16}).compile(buildMatmulBlock(16, 16, 16)).cacheHit);
  EXPECT_TRUE(compiler.parameters({24, 24, 24}).compile(buildMatmulBlock(24, 24, 24)).cacheHit);
}

TEST(PlanCacheTest, FamilySweepKeepsPipelineResultsCached) {
  // A sweep over a warm family binds every size and stores none of them,
  // so even a 4-entry cache evicts nothing: the matmul result built before
  // the sweep is still a hit after eight fresh sizes.
  PlanCache cache(4, 1);
  Compiler matmul(buildMatmulBlock(32, 32, 32));
  matmul.parameters({32, 32, 32}).memoryLimitBytes(8 * 1024).cache(&cache);
  ASSERT_TRUE(matmul.compile().ok);
  CompileResult seed = meFamilyCompiler(512, &cache).compile();
  ASSERT_TRUE(seed.ok && !seed.familyHit) << seed.firstError();
  std::vector<CompileResult> bound;
  for (i64 i = 0; i < 8; ++i) {
    bound.push_back(meFamilyCompiler(1536 + 1024 * i, &cache).compile());
    ASSERT_TRUE(bound.back().ok && bound.back().artifactBound) << "sweep member " << i;
  }
  EXPECT_TRUE(matmul.compile().cacheHit);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.entries, 2);  // the two cold results
  // A repeated size binds again rather than replaying a stored copy: the
  // family's search memo certifies it without re-running the search, and
  // the bound result is the same.
  CompileResult repeat = meFamilyCompiler(1536, &cache).compile();
  EXPECT_TRUE(repeat.familyHit);
  EXPECT_FALSE(repeat.cacheHit);
  EXPECT_EQ(repeat.artifact, bound[0].artifact);
  EXPECT_EQ(repeat.boundArgs, bound[0].boundArgs);
}

TEST(CellBackendTest, SelectionByNameForcesStaging) {
  // delta(0.99) makes Figure 1's constant-reuse partitions fail Algorithm
  // 1, so a partition only gets a buffer here if the backend forces
  // staging. The "c" control proves the test can fail: without the forcing
  // at least one partition stays in global memory.
  auto compileWith = [](const std::string& backend) {
    Compiler c(buildFigure1Block());
    c.scratchpadOnly().delta(0.99).backend(backend);
    return c.compile();
  };
  CompileResult unforced = compileWith("c");
  ASSERT_TRUE(unforced.ok) << unforced.firstError();
  bool anyGlobal = false;
  for (const auto& part : unforced.dataPlan()->partitions) anyGlobal |= !part.hasBuffer;
  ASSERT_TRUE(anyGlobal) << "control lost its teeth: raise delta";

  CompileResult cell = compileWith("cell");
  ASSERT_TRUE(cell.ok) << cell.firstError();
  for (const auto& part : cell.dataPlan()->partitions) EXPECT_TRUE(part.hasBuffer);
  // (The block-level unit has no Sync nodes, so no DMA fence appears here;
  // the tiled-kernel test below covers it.)
  EXPECT_NE(cell.artifact.find("dma_get("), std::string::npos) << cell.artifact;
  EXPECT_NE(cell.artifact.find("dma_put("), std::string::npos);
}

TEST(CellBackendTest, TiledKernelRendersDmaStagedCopies) {
  CompileResult r = Compiler(buildMeBlock(32, 32, 8))
                        .parameters({32, 32, 8})
                        .memoryLimitBytes(8 * 1024)
                        .backend("cell")
                        .compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_TRUE(r.kernel.has_value());
  // Forced staging: every partition is buffered in the local store.
  for (const auto& part : r.kernel->analysis.plan.partitions) EXPECT_TRUE(part.hasBuffer);
  EXPECT_NE(r.artifact.find("_spe("), std::string::npos);
  EXPECT_NE(r.artifact.find("dma_get("), std::string::npos);
  EXPECT_NE(r.artifact.find("dma_put("), std::string::npos);
  EXPECT_NE(r.artifact.find("mfc_read_tag_status_all"), std::string::npos);
  EXPECT_NE(r.artifact.find("distributed across SPEs"), std::string::npos);
}

// ---- Async and batch compilation. ----

TEST(CompileAsyncTest, MatchesSynchronousCompile) {
  Compiler compiler(buildMatmulBlock(24, 24, 24));
  compiler.parameters({24, 24, 24}).tileSizes({4, 4, 8}).jobs(2);
  CompileResult sync = compiler.compile();
  CompileResult async = compiler.compileAsync().get();
  ASSERT_TRUE(sync.ok) << sync.firstError();
  ASSERT_TRUE(async.ok) << async.firstError();
  EXPECT_EQ(sync.artifact, async.artifact);
  EXPECT_EQ(sync.search.subTile, async.search.subTile);
}

TEST(CompileAsyncTest, WithoutSourceThrows) {
  Compiler compiler;
  EXPECT_THROW(compiler.compileAsync(), ApiError);
}

TEST(CompileAsyncTest, SnapshotsTheConfiguration) {
  Compiler compiler(buildMatmulBlock(24, 24, 24));
  compiler.parameters({24, 24, 24}).tileSizes({4, 4, 8}).jobs(1);
  std::future<CompileResult> f = compiler.compileAsync();
  compiler.kernelName("mutated_after_submit").backend("cuda");  // must not affect the task
  CompileResult r = f.get();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.artifact.find("mutated_after_submit"), std::string::npos);
}

TEST(CompileAsyncTest, ConcurrentBindsOfOneSizeRunNoPipeline) {
  // Eight concurrent requests for one never-seen size of a warm family.
  // The leader's bind is not stored, so each follower binds for itself:
  // no pipeline runs, nothing is stored, and every request counts one
  // result-tier miss and one family hit.
  PlanCache cache;
  ASSERT_TRUE(meFamilyCompiler(512, &cache).compile().ok);
  const PlanCache::Stats before = cache.stats();
  const std::uint64_t emitsBefore = emitterInvocations();
  Compiler compiler = meFamilyCompiler(2560, &cache);
  compiler.jobs(4);
  std::vector<std::future<CompileResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(compiler.compileAsync());
  std::vector<CompileResult> results;
  for (std::future<CompileResult>& f : futures) results.push_back(f.get());
  for (const CompileResult& r : results) {
    ASSERT_TRUE(r.ok && r.artifactBound) << r.firstError();
    EXPECT_EQ(r.artifact, results[0].artifact);
    EXPECT_EQ(r.boundArgs, results[0].boundArgs);
  }
  EXPECT_EQ(emitterInvocations(), emitsBefore);
  const PlanCache::Stats after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.misses - before.misses, 8);
  EXPECT_EQ(after.familyHits - before.familyHits, 8);
}

TEST(CompileAsyncTest, ConcurrentBindsShareTheSearchMemo) {
  // Eight threads bind overlapping sizes of one warm family, so they read
  // and publish the family's search memo concurrently (first searches,
  // repeats and slot replacements). Every result must be byte-identical to
  // a serial bind of its size against a separately warmed family.
  constexpr int kThreads = 8;
  constexpr int kSizes = 24;
  const auto sizeOf = [](int i) { return i64{1536} + 1024 * i; };
  // A bound result with its wall-clock fields zeroed, as bytes.
  const auto bytesOf = [](CompileResult r) {
    for (PassTiming& t : r.timings) t.millis = 0;
    r.search.evalMillis = 0;
    r.search.planBuildMillis = 0;
    std::string bytes = serializeCompileResult(r);
    for (const auto& [name, value] : r.boundArgs) bytes += name + "=" + std::to_string(value) + ";";
    return bytes;
  };
  std::vector<std::string> serial;
  {
    PlanCache cache;
    ASSERT_TRUE(meFamilyCompiler(512, &cache).compile().ok);
    for (int i = 0; i < kSizes; ++i) {
      CompileResult r = meFamilyCompiler(sizeOf(i), &cache).compile();
      ASSERT_TRUE(r.ok && r.artifactBound) << "size #" << i << ": " << r.firstError();
      serial.push_back(bytesOf(std::move(r)));
    }
  }
  PlanCache cache;
  ASSERT_TRUE(meFamilyCompiler(512, &cache).compile().ok);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Each thread walks its own rotation of the sizes, twice.
      for (int step = 0; step < 2 * kSizes; ++step) {
        const int i = (t * 3 + step) % kSizes;
        CompileResult r = meFamilyCompiler(sizeOf(i), &cache).compile();
        if (!r.ok || !r.artifactBound || bytesOf(std::move(r)) != serial[i]) ++mismatches;
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(CompileAsyncTest, BindFollowersComputeInParallel) {
  // One leader and seven followers ask for one key. The leader's result is
  // a bind, which the store rule keeps out, so there is nothing to share:
  // the woken followers must bind for themselves at once, in parallel.
  // Their computes meet at a seven-party barrier, which times out when
  // they run one after another.
  constexpr int kFollowers = 7;
  PlanCache cache;
  const PlanKey key{1, 2, 3};
  std::atomic<int> entered{0};
  std::atomic<int> computes{0};
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  bool timedOut = false;
  const auto bind = [] {
    CompileResult r;
    r.ok = true;
    r.familyHit = true;
    r.artifactBound = true;
    return r;
  };
  const std::function<CompileResult()> compute = [&] {
    if (computes.fetch_add(1) == 0) {
      // The leader: give every follower time to park on its latch.
      while (entered.load() < kFollowers + 1) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return bind();
    }
    std::unique_lock<std::mutex> lock(m);
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(5),
                     [&] { return arrived == kFollowers || timedOut; }))
      timedOut = true;
    cv.notify_all();
    return bind();
  };
  std::vector<std::thread> threads;
  for (int i = 0; i <= kFollowers; ++i)
    threads.emplace_back([&] {
      entered.fetch_add(1);
      CompileResult r = cache.getOrCompute(key, compute);
      EXPECT_TRUE(r.ok && r.artifactBound && !r.cacheHit);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(timedOut) << "the followers bound one after another";
  EXPECT_EQ(computes.load(), kFollowers + 1);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, kFollowers + 1);  // one per request, none per retry
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.entries, 0);
}

TEST(CompileBatchTest, PreservesInputOrder) {
  std::vector<ProgramBlock> blocks;
  blocks.push_back(buildMatmulBlock(16, 16, 16));
  blocks.push_back(buildMatmulBlock(16, 16, 16));
  blocks.push_back(buildMatmulBlock(16, 16, 16));
  blocks[1].name = "marker_block";  // structural difference in the middle
  Compiler compiler;
  compiler.parameters({16, 16, 16}).tileSizes({4, 4, 4}).jobs(2).skipPass("codegen");
  std::vector<CompileResult> results = compiler.compileBatch(std::move(blocks));
  ASSERT_EQ(results.size(), 3u);
  for (const CompileResult& r : results) ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_NE(results[0].block().name, "marker_block");
  EXPECT_EQ(results[1].block().name, "marker_block");
  EXPECT_NE(results[2].block().name, "marker_block");
}

TEST(CompileBatchTest, SequentialDuplicatesHitTheCache) {
  PlanCache cache;
  std::vector<ProgramBlock> blocks;
  for (int i = 0; i < 4; ++i) blocks.push_back(buildMeBlock(32, 32, 8));
  Compiler compiler;
  compiler.parameters({32, 32, 8}).memoryLimitBytes(8 * 1024).jobs(1).cache(&cache);
  std::vector<CompileResult> results = compiler.compileBatch(std::move(blocks));
  ASSERT_EQ(results.size(), 4u);
  int hits = 0;
  for (const CompileResult& r : results) {
    ASSERT_TRUE(r.ok) << r.firstError();
    hits += r.cacheHit ? 1 : 0;
  }
  // jobs(1) runs the batch in order: the first compile fills the cache, the
  // other three replay it. All four artifacts are identical either way.
  EXPECT_EQ(hits, 3);
  for (const CompileResult& r : results) EXPECT_EQ(r.artifact, results[0].artifact);
}

TEST(CompileBatchTest, ConcurrentCompilesShareTheCacheSafely) {
  PlanCache cache;
  std::vector<ProgramBlock> blocks;
  for (int i = 0; i < 8; ++i) blocks.push_back(buildMeBlock(32, 32, 8));
  Compiler compiler;
  compiler.parameters({32, 32, 8}).memoryLimitBytes(8 * 1024).jobs(4).cache(&cache);
  std::vector<CompileResult> results = compiler.compileBatch(std::move(blocks));
  ASSERT_EQ(results.size(), 8u);
  int pipelineRuns = 0;
  for (const CompileResult& r : results) {
    ASSERT_TRUE(r.ok) << r.firstError();
    EXPECT_EQ(r.artifact, results[0].artifact);
    pipelineRuns += r.cacheHit ? 0 : 1;
  }
  // Single-flight: concurrent misses on the one key collapse onto one
  // leader; the other seven block on the in-flight latch (or hit the
  // finished entry) and are served the leader's plan as cache hits.
  EXPECT_EQ(pipelineRuns, 1);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CompileBatchTest, FamilyAwareSchedulingRunsOneLeaderPerFamily) {
  PlanCache cache;
  std::vector<ProgramBlock> blocks;
  // Two families interleaved. Family-aware scheduling submits one leader
  // per family FIRST and gates the rest, so every follower deterministically
  // replays its leader's plan — no reliance on the single-flight race.
  for (int i = 0; i < 4; ++i) {
    blocks.push_back(buildMeBlock(32, 32, 8));
    blocks.push_back(buildMatmulBlock(32, 32, 8));
  }
  Compiler compiler;
  compiler.parameters({32, 32, 8}).memoryLimitBytes(8 * 1024).jobs(4).cache(&cache);
  std::vector<CompileResult> results = compiler.compileBatch(std::move(blocks));
  ASSERT_EQ(results.size(), 8u);
  int pipelineRuns = 0;
  for (const CompileResult& r : results) {
    ASSERT_TRUE(r.ok) << r.firstError();
    pipelineRuns += r.cacheHit ? 0 : 1;
  }
  EXPECT_EQ(pipelineRuns, 2);  // exactly the two leaders
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 6);
  EXPECT_EQ(s.familyMisses, 2);  // one cold family build each, no races
}

TEST(PlanCacheTest, SingleFlightRetriesAfterALeaderFailure) {
  PlanCache cache;
  PlanKey key{1, 2, 3};
  std::atomic<int> computes{0};
  // A failing leader must not poison the key: the next caller recomputes.
  CompileResult failed = cache.getOrCompute(key, [&] {
    ++computes;
    return CompileResult{};  // ok = false
  });
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(cache.size(), 0u);
  CompileResult good = cache.getOrCompute(key, [&] {
    ++computes;
    CompileResult r;
    r.ok = true;
    r.artifact = "art";
    return r;
  });
  EXPECT_TRUE(good.ok);
  EXPECT_FALSE(good.cacheHit);
  EXPECT_EQ(computes.load(), 2);
  // Third call is a plain hit.
  CompileResult warm = cache.getOrCompute(key, [&] {
    ++computes;
    return CompileResult{};
  });
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.artifact, "art");
  EXPECT_EQ(computes.load(), 2);
}

}  // namespace
}  // namespace emm
