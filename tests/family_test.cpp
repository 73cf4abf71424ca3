// Tests for size-generic (kernel-family) compilation: one symbolic plan per
// family serving a whole --size sweep.
//
//  - Equivalence: family-instantiated compiles produce byte-identical
//    artifacts, identical chosen tiles and identical cost models to
//    isolated per-size cold compiles, across randomized problem sizes for
//    ME, jacobi 1-D/2-D and matmul.
//  - Accounting: a sweep performs exactly one family miss (the cold run
//    that builds the family plan) and family hits for every further size,
//    in both the memory tier and the disk tier (.emmfam round trip).
//  - Safety: collision-guard digests make foreign entries misses, corrupt
//    family records fall back to clean cold compiles, and footprint-
//    interval box pruning never changes the chosen tile.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <thread>

#include "deps/dependence.h"
#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "driver/runtime_binder.h"
#include "kernels/blocks.h"
#include "service/protocol.h"
#include "support/fingerprint.h"
#include "support/serialize.h"
#include "testgen/generator.h"
#include "tilesearch/tile_evaluator.h"
#include "transform/transform.h"

namespace fs = std::filesystem;

namespace emm {
namespace {

/// Fresh unique cache directory per test, removed on destruction.
struct TempCacheDir {
  fs::path path;
  TempCacheDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("emmfam_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Builder configured the way the sweeps run: cuda backend (folds the
/// problem sizes into the artifact, so byte equality is meaningful).
Compiler sweepCompiler(const std::string& kernel, const std::vector<i64>& sizes) {
  IntVec params;
  ProgramBlock block = buildKernelByName(kernel, sizes, params);
  Compiler c(std::move(block));
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda");
  return c;
}

/// Isolated cold compile: no caches, no family tier.
CompileResult coldCompile(const std::string& kernel, const std::vector<i64>& sizes) {
  return sweepCompiler(kernel, sizes).compile();
}

void expectSameOutcome(const CompileResult& a, const CompileResult& b, const char* what) {
  ASSERT_EQ(a.ok, b.ok) << what;
  EXPECT_EQ(a.search.subTile, b.search.subTile) << what;
  EXPECT_EQ(a.search.eval.feasible, b.search.eval.feasible) << what;
  EXPECT_DOUBLE_EQ(a.search.eval.cost, b.search.eval.cost) << what;
  EXPECT_EQ(a.search.eval.footprint, b.search.eval.footprint) << what;
  EXPECT_EQ(a.artifact, b.artifact) << what;  // byte-identical
}

// ---- equivalence across a sweep (memory family tier) ---------------------

TEST(FamilyTierTest, MeSweepIsOneColdCompilePlusFamilyHits) {
  const std::vector<std::vector<i64>> sweep = {
      {64, 64, 8}, {128, 64, 8}, {192, 96, 8}, {256, 128, 8}};
  PlanCache cache;
  for (size_t i = 0; i < sweep.size(); ++i) {
    Compiler c = sweepCompiler("me", sweep[i]);
    CompileResult r = c.cache(&cache).compile();
    ASSERT_TRUE(r.ok) << r.firstError();
    EXPECT_EQ(r.familyHit, i > 0) << "size #" << i;
    EXPECT_EQ(r.search.familyAdopted, i > 0) << "size #" << i;
    EXPECT_TRUE(r.search.parametric);
    CompileResult cold = coldCompile("me", sweep[i]);
    expectSameOutcome(r, cold, "me sweep vs cold");
  }
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.familyMisses, 1);  // exactly one cold pipeline per family
  EXPECT_EQ(s.familyHits, static_cast<i64>(sweep.size()) - 1);
  EXPECT_EQ(s.familyEntries, 1);
}

TEST(FamilyTierTest, RandomizedSizesStayByteIdentical) {
  std::mt19937 rng(20260729);
  const struct {
    const char* kernel;
    int nsizes;
    std::vector<std::vector<i64>> pool;  ///< per size slot: values to draw
  } cases[] = {
      {"me", 3, {{48, 64, 96, 128, 160}, {32, 64, 96}, {8, 16}}},
      {"matmul", 3, {{32, 48, 64, 96}, {32, 64, 96}, {32, 48, 64}}},
  };
  for (const auto& kc : cases) {
    PlanCache cache;
    std::vector<std::vector<i64>> drawn;
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<i64> sizes;
      for (int d = 0; d < kc.nsizes; ++d) {
        const std::vector<i64>& pool = kc.pool[d];
        sizes.push_back(pool[rng() % pool.size()]);
      }
      const bool repeat =
          std::find(drawn.begin(), drawn.end(), sizes) != drawn.end();
      drawn.push_back(sizes);
      CompileResult r = sweepCompiler(kc.kernel, sizes).cache(&cache).compile();
      ASSERT_TRUE(r.ok) << kc.kernel << ": " << r.firstError();
      if (trial > 0 && !repeat) {
        EXPECT_TRUE(r.familyHit) << kc.kernel;
      }
      CompileResult cold = coldCompile(kc.kernel, sizes);
      expectSameOutcome(r, cold, kc.kernel);
    }
    EXPECT_EQ(cache.stats().familyMisses, 1) << kc.kernel;
  }
}

// ---- kernels without a tile search: deps/transform family reuse ----------

TEST(FamilyTierTest, JacobiPipelinesReuseDepsAndTransform) {
  // Jacobi bands need inter-block sync, so the pipeline falls back to the
  // block-level analysis — the family tier still serves the dependences
  // and the skewing transform, and the per-size products stay identical to
  // isolated cold compiles.
  for (const char* kernel : {"jacobi", "jacobi2d"}) {
    PlanCache cache;
    const std::vector<std::vector<i64>> sweep =
        std::string(kernel) == "jacobi"
            ? std::vector<std::vector<i64>>{{512, 16}, {1024, 16}, {4096, 32}}
            : std::vector<std::vector<i64>>{{48, 48, 8}, {64, 96, 8}, {128, 64, 8}};
    for (size_t i = 0; i < sweep.size(); ++i) {
      CompileResult r = sweepCompiler(kernel, sweep[i]).cache(&cache).compile();
      ASSERT_TRUE(r.ok) << kernel << ": " << r.firstError();
      EXPECT_EQ(r.familyHit, i > 0) << kernel << " size #" << i;
      ASSERT_TRUE(r.havePlan);
      EXPECT_TRUE(r.plan.needsInterBlockSync);
      CompileResult cold = coldCompile(kernel, sweep[i]);
      EXPECT_EQ(r.deps.size(), cold.deps.size());
      EXPECT_EQ(r.appliedSkews, cold.appliedSkews);
      EXPECT_EQ(r.plan.spaceLoops, cold.plan.spaceLoops);
      ASSERT_NE(r.dataPlan(), nullptr);
      ASSERT_NE(cold.dataPlan(), nullptr);
      ASSERT_EQ(r.dataPlan()->partitions.size(), cold.dataPlan()->partitions.size());
      for (size_t p = 0; p < r.dataPlan()->partitions.size(); ++p) {
        EXPECT_EQ(r.dataPlan()->partitions[p].bufferName,
                  cold.dataPlan()->partitions[p].bufferName);
        EXPECT_EQ(r.dataPlan()->partitions[p].hasBuffer,
                  cold.dataPlan()->partitions[p].hasBuffer);
      }
      EXPECT_EQ(r.artifact, cold.artifact);
    }
    EXPECT_EQ(cache.stats().familyMisses, 1) << kernel;
    EXPECT_EQ(cache.stats().familyHits, 2) << kernel;
  }
}

TEST(FamilyTierTest, ScratchpadOnlyCellSweepIsByteIdentical) {
  // Scratchpad-only + cell backend: the artifact folds the problem sizes,
  // so byte equality is a real check; the family tier serves dependences.
  auto build = [](i64 n, i64 t) {
    Compiler c(buildJacobiBlock(n, t));
    c.parameters({n, t})
        .scratchpadOnly(true)
        .stageEverything(true)
        .backend("cell")
        .memoryLimitBytes(16 * 1024);
    return c;
  };
  PlanCache cache;
  const std::vector<std::pair<i64, i64>> sweep = {{512, 16}, {1024, 16}, {2048, 32}};
  for (size_t i = 0; i < sweep.size(); ++i) {
    Compiler c = build(sweep[i].first, sweep[i].second);
    CompileResult r = c.cache(&cache).compile();
    ASSERT_TRUE(r.ok) << r.firstError();
    EXPECT_EQ(r.familyHit, i > 0);
    CompileResult cold = build(sweep[i].first, sweep[i].second).compile();
    ASSERT_TRUE(cold.ok);
    EXPECT_FALSE(cold.artifact.empty());
    EXPECT_EQ(r.artifact, cold.artifact);
  }
  EXPECT_EQ(cache.stats().familyMisses, 1);
  EXPECT_EQ(cache.stats().familyHits, 2);
}

// ---- the size-generic plan itself ----------------------------------------

TEST(FamilyTierTest, AdoptedPlanMatchesFreshlyBuiltPlanEverywhere) {
  // Build the plan at one size, adopt it at another, and compare every
  // candidate evaluation against an evaluator that rebuilt its own plan.
  ProgramBlock b0 = buildMeBlock(64, 64, 8);
  auto deps0 = computeDependences(b0);
  ParallelismPlan plan0 = findParallelism(b0, deps0);
  TileSearchOptions topts;
  topts.paramValues = {64, 64, 8};
  topts.memLimitElems = 4096;
  SmemOptions smem;
  smem.sampleParams = {64, 64, 8};
  TileEvaluator source(b0, plan0, topts, smem);
  searchTileSizes(source);
  ASSERT_EQ(source.parametricState(), TileEvaluator::ParametricState::Active);
  std::shared_ptr<const ParametricTilePlan> family = source.sharedPlan();
  ASSERT_NE(family, nullptr);
  EXPECT_FALSE(source.familyAdopted());

  ProgramBlock b1 = buildMeBlock(160, 96, 16);
  auto deps1 = computeDependences(b1);
  ParallelismPlan plan1 = findParallelism(b1, deps1);
  TileSearchOptions topts1 = topts;
  topts1.paramValues = {160, 96, 16};
  SmemOptions smem1;
  smem1.sampleParams = {160, 96, 16};
  TileEvaluator adopted(b1, plan1, topts1, smem1);
  adopted.adoptFamilyPlan(family);
  TileEvaluator fresh(b1, plan1, topts1, smem1);

  std::mt19937 rng(7);
  for (int i = 0; i < 40; ++i) {
    std::vector<i64> tile = {i64(1) << (rng() % 8), i64(1) << (rng() % 7),
                             i64(1) << (rng() % 5), i64(1) << (rng() % 5)};
    const TileEvaluation& a = adopted.evaluate(tile);
    const TileEvaluation& f = fresh.evaluate(tile);
    EXPECT_EQ(a.feasible, f.feasible) << "tile " << i;
    EXPECT_EQ(a.reason, f.reason);
    EXPECT_DOUBLE_EQ(a.cost, f.cost);
    EXPECT_EQ(a.footprint, f.footprint);
    ASSERT_EQ(a.terms.size(), f.terms.size());
    for (size_t t = 0; t < a.terms.size(); ++t) {
      EXPECT_EQ(a.terms[t].name, f.terms[t].name);
      EXPECT_EQ(a.terms[t].occurrences, f.terms[t].occurrences);
      EXPECT_EQ(a.terms[t].volumeIn, f.terms[t].volumeIn);
      EXPECT_EQ(a.terms[t].volumeOut, f.terms[t].volumeOut);
      EXPECT_EQ(a.terms[t].hoistLevel, f.terms[t].hoistLevel);
    }
  }
  EXPECT_TRUE(adopted.familyAdopted());
  EXPECT_FALSE(fresh.familyAdopted());
}

TEST(FamilyTierTest, BoxPruningNeverChangesTheChosenTile) {
  // Tight memory budgets prune large-tile boxes; the surviving search must
  // choose exactly the tile the unpruned concrete path chooses.
  for (i64 memBytes : {1024, 4 * 1024, 8 * 1024, 16 * 1024}) {
    Compiler parametric = sweepCompiler("me", {128, 64, 16});
    parametric.memoryLimitBytes(memBytes);
    CompileResult rp = parametric.compile();
    ASSERT_TRUE(rp.ok) << rp.firstError();
    Compiler concrete = sweepCompiler("me", {128, 64, 16});
    concrete.memoryLimitBytes(memBytes).opts().parametricTileAnalysis = false;
    CompileResult rc = concrete.compile();
    ASSERT_TRUE(rc.ok) << rc.firstError();
    EXPECT_EQ(rp.search.subTile, rc.search.subTile) << "mem " << memBytes;
    EXPECT_DOUBLE_EQ(rp.search.eval.cost, rc.search.eval.cost);
    EXPECT_EQ(rp.artifact, rc.artifact);
    EXPECT_EQ(rc.search.prunedBoxes, 0);  // concrete path never prunes
  }
}

TEST(FamilyTierTest, TightBudgetReportsPrunedBoxes) {
  // At 1 KB (256 floats) the large-tile tails of the i/j ladders exceed the
  // budget even with every other loop at its minimum, so the interval
  // oracle can discard them before the solver runs.
  Compiler c = sweepCompiler("me", {256, 128, 16});
  c.memoryLimitBytes(1024);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_TRUE(r.search.parametric);
  EXPECT_GT(r.search.prunedBoxes, 0);
}

// ---- disk round trip ------------------------------------------------------

TEST(FamilyTierTest, FamilyPlanRoundTripsThroughDisk) {
  TempCacheDir dir;
  {
    PlanCache warmers;
    DiskPlanCache disk(dir.str());
    CompileResult r =
        sweepCompiler("me", {64, 64, 8}).cache(&warmers).diskCache(&disk).compile();
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(r.familyHit);
    EXPECT_EQ(disk.stats().familyInsertions, 1);
    EXPECT_EQ(disk.stats().familyEntries, 1);
  }
  // "Second process": fresh memory cache, fresh disk handle, NEW size.
  PlanCache cache;
  DiskPlanCache disk(dir.str());
  CompileResult r =
      sweepCompiler("me", {192, 96, 16}).cache(&cache).diskCache(&disk).compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_TRUE(r.familyHit);           // family loaded from disk
  EXPECT_TRUE(r.search.familyAdopted);  // no symbolic rebuild
  EXPECT_EQ(disk.stats().familyHits, 1);
  CompileResult cold = coldCompile("me", {192, 96, 16});
  expectSameOutcome(r, cold, "disk family instantiation");
  // The deserialized family was promoted into the memory tier.
  EXPECT_EQ(cache.stats().familyEntries, 1);
}

TEST(FamilyTierTest, CorruptFamilyRecordFallsBackToColdCompile) {
  TempCacheDir dir;
  {
    PlanCache warmers;
    DiskPlanCache disk(dir.str());
    ASSERT_TRUE(
        sweepCompiler("me", {64, 64, 8}).cache(&warmers).diskCache(&disk).compile().ok);
  }
  fs::path fam;
  for (const fs::directory_entry& de : fs::directory_iterator(dir.path))
    if (de.path().extension() == ".emmfam") fam = de.path();
  ASSERT_FALSE(fam.empty());
  {
    // Flip a byte in the middle of the payload: checksum must reject it.
    std::fstream f(fam, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200, std::ios::beg);
    char c = 0x5a;
    f.write(&c, 1);
  }
  PlanCache cache;
  DiskPlanCache disk(dir.str());
  CompileResult r =
      sweepCompiler("me", {128, 64, 8}).cache(&cache).diskCache(&disk).compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_FALSE(r.familyHit);  // record rejected; clean cold compile
  EXPECT_EQ(disk.stats().familyRejects, 1);
  CompileResult cold = coldCompile("me", {128, 64, 8});
  expectSameOutcome(r, cold, "after corrupt family record");
}

TEST(FamilyTierTest, SerializedFamilyPlanEvaluatesIdentically) {
  // Direct serialize -> deserialize of a family plan; the reloaded
  // ParametricTilePlan must evaluate bit-identically, bound at a NEW size.
  ProgramBlock b0 = buildMatmulBlock(64, 64, 64);
  auto deps = computeDependences(b0);
  ParallelismPlan plan0 = findParallelism(b0, deps);
  TileSearchOptions topts;
  topts.paramValues = {64, 64, 64};
  topts.memLimitElems = 4096;
  SmemOptions smem;
  smem.sampleParams = {64, 64, 64};
  TileEvaluator source(b0, plan0, topts, smem);
  searchTileSizes(source);
  ASSERT_EQ(source.parametricState(), TileEvaluator::ParametricState::Active);

  FamilyPlan fam;
  fam.haveDeps = true;
  fam.deps = deps;
  fam.tilePlan = source.sharedPlan();
  std::string bytes = serializeFamilyPlan(fam);
  std::shared_ptr<const FamilyPlan> reloaded = deserializeFamilyPlan(bytes);
  ASSERT_NE(reloaded->tilePlan, nullptr);
  EXPECT_EQ(reloaded->deps.size(), deps.size());

  const IntVec newSizes = {96, 128, 48};
  ParametricTilePlan::SizeBinding ba = fam.tilePlan->bindSizes(newSizes);
  ParametricTilePlan::SizeBinding bb = reloaded->tilePlan->bindSizes(newSizes);
  EXPECT_EQ(ba.ext, bb.ext);
  EXPECT_EQ(ba.loopRange, bb.loopRange);
  for (const std::vector<i64>& tile :
       {std::vector<i64>{8, 8, 8}, {16, 16, 4}, {32, 8, 16}, {64, 64, 48}}) {
    TileEvaluation ea = fam.tilePlan->evaluate(ba, tile);
    TileEvaluation eb = reloaded->tilePlan->evaluate(bb, tile);
    EXPECT_EQ(ea.feasible, eb.feasible);
    EXPECT_EQ(ea.reason, eb.reason);
    EXPECT_DOUBLE_EQ(ea.cost, eb.cost);
    EXPECT_EQ(ea.footprint, eb.footprint);
    ASSERT_EQ(ea.terms.size(), eb.terms.size());
    for (size_t t = 0; t < ea.terms.size(); ++t) {
      EXPECT_EQ(ea.terms[t].name, eb.terms[t].name);
      EXPECT_EQ(ea.terms[t].occurrences, eb.terms[t].occurrences);
      EXPECT_EQ(ea.terms[t].volumeIn, eb.terms[t].volumeIn);
      EXPECT_EQ(ea.terms[t].volumeOut, eb.terms[t].volumeOut);
    }
  }
}

// ---- collision guards -----------------------------------------------------

TEST(FamilyTierTest, MemoryTierRejectsForeignDigests) {
  PlanCache cache;
  FamilyKey key{1, 2, 3};
  auto plan = std::make_shared<FamilyPlan>();
  plan->haveDeps = true;
  cache.insertFamily(key, /*collisionDigest=*/111, plan);
  EXPECT_EQ(cache.lookupFamily(key, 222), nullptr);  // colliding key, other family
  EXPECT_NE(cache.lookupFamily(key, 111), nullptr);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.familyMisses, 1);
  EXPECT_EQ(s.familyHits, 1);
  EXPECT_EQ(s.familyEntries, 1);
}

TEST(FamilyTierTest, DistinctKernelsAreDistinctFamilies) {
  PlanCache cache;
  ASSERT_TRUE(sweepCompiler("me", {64, 64, 8}).cache(&cache).compile().ok);
  ASSERT_TRUE(sweepCompiler("matmul", {64, 64, 64}).cache(&cache).compile().ok);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.familyMisses, 2);
  EXPECT_EQ(s.familyHits, 0);
  EXPECT_EQ(s.familyEntries, 2);
}

TEST(FamilyTierTest, FamilyKeyIgnoresCodegenOnlyDifferences) {
  // A cache warmed by full compiles (codegen run, cuda backend) must serve
  // plan-only sweeps (codegen skipped, c backend): codegen consumes
  // products and contributes nothing to the family plan.
  PlanCache cache;
  ASSERT_TRUE(sweepCompiler("me", {64, 64, 8}).cache(&cache).compile().ok);
  Compiler c = sweepCompiler("me", {128, 64, 8});
  c.backend("c").skipPass("codegen");
  CompileResult r = c.cache(&cache).compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_TRUE(r.familyHit);
  EXPECT_TRUE(r.search.familyAdopted);
  EXPECT_EQ(cache.stats().familyMisses, 1);
}

TEST(FamilyTierTest, FamilyHashIgnoresSizesButNotStructure) {
  ProgramBlock a = buildMeBlock(64, 64, 8);
  ProgramBlock b = buildMeBlock(256, 128, 16);
  EXPECT_NE(hashProgramBlock(a), hashProgramBlock(b));
  EXPECT_EQ(hashProgramBlockFamily(a), hashProgramBlockFamily(b));
  ProgramBlock c = buildMatmulBlock(64, 64, 64);
  EXPECT_NE(hashProgramBlockFamily(a), hashProgramBlockFamily(c));

  CompileOptions o1, o2;
  o1.paramValues = {64, 64, 8};
  o2.paramValues = {256, 128, 16};
  EXPECT_EQ(hashCompileOptionsFamily(o1), hashCompileOptionsFamily(o2));
  o2.memLimitBytes = 8 * 1024;
  EXPECT_NE(hashCompileOptionsFamily(o1), hashCompileOptionsFamily(o2));

  // Codegen-only knobs are neutralized; analysis-relevant knobs are not.
  CompileOptions o3 = o1;
  o3.backendName = "cuda";
  o3.kernelName = "other";
  o3.elementType = "double";
  EXPECT_EQ(hashCompileOptionsFamily(o1), hashCompileOptionsFamily(o3));
  o3.stageEverything = true;
  EXPECT_NE(hashCompileOptionsFamily(o1), hashCompileOptionsFamily(o3));
}

// ---- collision digests ---------------------------------------------------

TEST(FamilyDigest, StreamedDigestsMatchTheEncodedBytes) {
  // The family and disk tiers digest blocks and options without building
  // their encodings; the value must be the digest of those bytes.
  std::vector<ProgramBlock> blocks;
  std::vector<CompileOptions> options;
  const std::vector<std::pair<std::string, std::vector<i64>>> kernels = {
      {"me", {272, 128, 16}}, {"jacobi", {64, 8}}, {"jacobi2d", {32, 32, 4}},
      {"matmul", {160, 132, 144}}};
  for (const auto& [kernel, sizes] : kernels) {
    IntVec params;
    ProgramBlock block = buildKernelByName(kernel, sizes, params);
    CompileOptions o;
    o.paramValues = params;
    o.kernelName = kernel;
    blocks.push_back(familyCanonicalBlock(block));
    blocks.push_back(std::move(block));
    options.push_back(familyCanonicalOptions(o));
    options.push_back(std::move(o));
  }
  testgen::GeneratorOptions go;
  go.seed = 1;
  testgen::ProgramGenerator gen(go);
  for (u64 i = 0; i < 64; ++i) blocks.push_back(gen.generate(i).block);

  for (size_t i = 0; i < blocks.size(); ++i)
    EXPECT_EQ(digestProgramBlock(blocks[i]), digestBytes(serializeProgramBlock(blocks[i])))
        << "block " << i;
  for (size_t i = 0; i < options.size(); ++i)
    EXPECT_EQ(digestCompileOptions(options[i]), digestBytes(serializeCompileOptions(options[i])))
        << "options " << i;
}

TEST(FamilyDigest, AMarkedEmptyPolyhedronChangesTheDigest) {
  // Two blocks with the same constraint rows, one domain marked empty by
  // simplify()'s integer test (2*i0 - 2*i1 + 1 == 0 has no integer
  // solution). The cache keys ignore emptiness; the collision digests must
  // not.
  ProgramBlock plain = buildMeBlock(64, 32, 8);
  Polyhedron& domain = plain.statements[0].domain;
  ASSERT_GE(domain.dim(), 2);
  IntVec row(domain.cols(), 0);
  row[0] = 2;
  row[1] = -2;
  row.back() = 1;
  domain.addEquality(row);
  ProgramBlock marked = plain;
  EXPECT_FALSE(marked.statements[0].domain.simplify());
  ASSERT_TRUE(marked.statements[0].domain.markedEmpty());
  ASSERT_FALSE(plain.statements[0].domain.markedEmpty());
  EXPECT_EQ(serializeProgramBlock(plain).size(), serializeProgramBlock(marked).size());
  EXPECT_EQ(hashProgramBlock(plain), hashProgramBlock(marked));

  EXPECT_NE(digestProgramBlock(plain), digestProgramBlock(marked));
  EXPECT_EQ(digestProgramBlock(marked), digestBytes(serializeProgramBlock(marked)));
  // The unmarked domain is empty by elimination, the one case where the
  // streamed digest departs from the encoded bytes: those carry isEmpty(),
  // which is true for both blocks.
  EXPECT_TRUE(plain.statements[0].domain.isEmpty());
  EXPECT_EQ(digestBytes(serializeProgramBlock(plain)), digestBytes(serializeProgramBlock(marked)));
}

// ---- records for families first built with codegen skipped ----------------

TEST(FamilyTest, CodegenSkippedWarmupStillGetsARecord) {
  // A stats-only warm-up builds the family without a record. The first
  // member compiled with codegen must publish one, to both tiers, so the
  // sizes after it bind instead of re-emitting.
  TempCacheDir dir;
  {
    PlanCache cache;
    DiskPlanCache disk(dir.str());
    CompileResult warm = sweepCompiler("me", {256, 128, 16})
                             .cache(&cache)
                             .diskCache(&disk)
                             .skipPass("codegen")
                             .compile();
    ASSERT_TRUE(warm.ok) << warm.firstError();
    EXPECT_TRUE(warm.artifact.empty());
    CompileResult second =
        sweepCompiler("me", {512, 128, 16}).cache(&cache).diskCache(&disk).compile();
    ASSERT_TRUE(second.ok) << second.firstError();
    EXPECT_TRUE(second.familyHit);
    EXPECT_FALSE(second.artifactBound);  // no record yet: bind-and-emit
    CompileResult third =
        sweepCompiler("me", {768, 128, 16}).cache(&cache).diskCache(&disk).compile();
    ASSERT_TRUE(third.ok) << third.firstError();
    EXPECT_TRUE(third.artifactBound);
    expectSameOutcome(third, coldCompile("me", {768, 128, 16}), "bound after the warm-up");
  }
  // "Second process": the record reached the disk tier too.
  PlanCache cache;
  DiskPlanCache disk(dir.str());
  CompileResult r =
      sweepCompiler("me", {1024, 128, 16}).cache(&cache).diskCache(&disk).compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_TRUE(r.artifactBound);
  expectSameOutcome(r, coldCompile("me", {1024, 128, 16}), "bound from the disk family");
}

// ---- the binder's search memo ----------------------------------------------

/// A compiler for `kernel` at `sizes`, configured like the benchmark
/// suite's built-in requests (default backend, kernel "<kernel>_kernel").
Compiler builtinCompiler(const std::string& kernel, const std::vector<i64>& sizes,
                         PlanCache& cache) {
  IntVec params;
  Compiler c(buildKernelByName(kernel, sizes, params));
  CompileOptions o;
  o.paramValues = params;
  o.kernelName = kernel + "_kernel";
  c.options(o).cache(&cache);
  return c;
}

/// One certifyBind outcome in comparable form: the overlay's wire bytes
/// with its bind timing zeroed, the bound arguments and the diagnostics.
struct Certified {
  bool bound = false;
  std::string overlayBytes;
  std::vector<std::pair<std::string, i64>> boundArgs;
  std::vector<std::string> diagnostics;

  bool operator==(const Certified&) const = default;
};

/// Certifies `kernel` at `sizes` against `family` under `base` (its
/// paramValues replaced). A memo hit copies the stored search, clocks
/// included; `zeroSearchClocks` zeroes them to compare with a search that
/// ran separately.
Certified certify(const FamilyPlan& family, const std::string& kernel,
                  const std::vector<i64>& sizes, const CompileOptions& base,
                  bool zeroSearchClocks) {
  IntVec params;
  const ProgramBlock block = buildKernelByName(kernel, sizes, params);
  CompileOptions o = base;
  o.paramValues = params;
  std::vector<Diagnostic> diags;
  std::optional<BindOverlay> overlay = certifyBind(family, block, o, &diags);
  Certified c;
  for (const Diagnostic& d : diags) c.diagnostics.push_back(d.message);
  if (overlay) {
    c.bound = true;
    overlay->timing.millis = 0;
    if (zeroSearchClocks && overlay->search) {
      overlay->search->evalMillis = 0;
      overlay->search->planBuildMillis = 0;
    }
    svc::WireBoundReply reply;
    reply.overlay = *overlay;
    c.overlayBytes = svc::encodeBoundReply(reply);
    c.boundArgs = overlay->boundArgs;
  }
  return c;
}

/// Whether `family`'s memo holds the search certify() runs for `sizes`.
bool memoized(const FamilyPlan& family, const std::string& kernel,
              const std::vector<i64>& sizes, const CompileOptions& base) {
  CompileOptions o = base;
  buildKernelByName(kernel, sizes, o.paramValues);
  return family.searchMemo.find(o.tileSearchOptions(),
                                o.searchMode == TileSearchMode::Exhaustive) != nullptr;
}

/// A warmed family of `kernel` (built at `seedSizes`) and the options its
/// members are certified under.
struct WarmFamily {
  PlanCache cache;
  CompileOptions options;
  std::shared_ptr<const FamilyPlan> plan;
  std::string bytes;  ///< serializeFamilyPlan(*plan): a fresh copy, memo empty

  WarmFamily(const std::string& kernel, const std::vector<i64>& seedSizes) {
    Compiler seed = builtinCompiler(kernel, seedSizes, cache);
    EXPECT_TRUE(seed.compile().ok);
    options = seed.opts();
    IntVec params;
    plan = seed.cachedFamily(buildKernelByName(kernel, seedSizes, params));
    EXPECT_TRUE(plan != nullptr && plan->haveRecord) << kernel;
    if (plan != nullptr) bytes = serializeFamilyPlan(*plan);
  }
  std::shared_ptr<const FamilyPlan> fresh() const { return deserializeFamilyPlan(bytes); }
};

const char* const kArgminMoved =
    "tile argmin moved at this size; the record's choice is no longer optimal, bind-and-emit";
const char* const kInfeasible = "no feasible tile at this size; bind-and-emit";

TEST(FamilyTest, SearchMemoRepeatsEveryOutcomeExactly) {
  struct Case {
    const char* kernel;
    std::vector<i64> seed;
    std::vector<std::vector<i64>> sizes;
    std::vector<std::pair<std::vector<i64>, const char*>> rejected;
  };
  std::vector<Case> cases = {
      {"me", {256, 128, 16}, {}, {{{8, 128, 16}, kArgminMoved}}},
      {"matmul",
       {128, 128, 128},
       {},
       {{{448, 64, 64}, kArgminMoved}, {{2, 2, 2}, kInfeasible}}},
  };
  for (i64 k = 1; k <= 16; ++k) cases[0].sizes.push_back({256 + 16 * k * 7, 128, 16});
  for (i64 k = 0; k < 16; ++k)
    cases[1].sizes.push_back({128 + 4 * ((k * 5) % 33), 128 + 4 * ((k * 11) % 33),
                              132 + 4 * ((k * 3) % 32)});
  for (Case& kc : cases) {
    SCOPED_TRACE(kc.kernel);
    WarmFamily fam(kc.kernel, kc.seed);
    ASSERT_NE(fam.plan, nullptr);
    std::vector<std::vector<i64>> all = kc.sizes;
    for (const auto& [sizes, why] : kc.rejected) all.push_back(sizes);
    int bound = 0;
    for (const std::vector<i64>& sizes : all) {
      SCOPED_TRACE(::testing::PrintToString(sizes));
      EXPECT_FALSE(memoized(*fam.plan, kc.kernel, sizes, fam.options));
      const Certified first = certify(*fam.plan, kc.kernel, sizes, fam.options, false);
      EXPECT_TRUE(memoized(*fam.plan, kc.kernel, sizes, fam.options));
      bound += first.bound ? 1 : 0;
      // The repeat is served by the memo: the same bytes, the stored
      // search clocks included, and the same rejection notes.
      EXPECT_EQ(certify(*fam.plan, kc.kernel, sizes, fam.options, false), first);
      // A plan whose memo is empty searches again and agrees.
      EXPECT_EQ(certify(*fam.fresh(), kc.kernel, sizes, fam.options, true),
                certify(*fam.plan, kc.kernel, sizes, fam.options, true));
    }
    EXPECT_EQ(bound, static_cast<int>(kc.sizes.size()));
    for (const auto& [sizes, why] : kc.rejected) {
      const Certified c = certify(*fam.plan, kc.kernel, sizes, fam.options, false);
      EXPECT_FALSE(c.bound);
      EXPECT_EQ(c.diagnostics, std::vector<std::string>{why});
    }
  }
}

TEST(FamilyTest, SearchMemoMissesOnOtherSearchOptions) {
  // Certifies against ONE plan object under three option sets that differ
  // only in what the search reads. Each must miss the others' entries and
  // agree with a plan whose memo is empty.
  WarmFamily fam("me", {256, 128, 16});
  ASSERT_NE(fam.plan, nullptr);
  const std::vector<i64> sizes = {1040, 128, 16};
  CompileOptions ladder = fam.options;
  ladder.tileCandidates.assign(fam.plan->record->search.subTile.size(), {1, 2, 4});
  CompileOptions exhaustive = fam.options;
  exhaustive.searchMode = TileSearchMode::Exhaustive;
  const Certified base = certify(*fam.plan, "me", sizes, fam.options, true);
  ASSERT_TRUE(base.bound);
  for (const CompileOptions* other : {&ladder, &exhaustive}) {
    EXPECT_FALSE(memoized(*fam.plan, "me", sizes, *other));
    const Certified got = certify(*fam.plan, "me", sizes, *other, true);
    EXPECT_TRUE(memoized(*fam.plan, "me", sizes, *other));
    EXPECT_EQ(got, certify(*fam.fresh(), "me", sizes, *other, true));
    // One set per size, two ways: the ladder's entry joins the base, the
    // exhaustive one then replaces the oldest, the base.
    EXPECT_EQ(memoized(*fam.plan, "me", sizes, fam.options), other == &ladder);
    EXPECT_EQ(certify(*fam.plan, "me", sizes, fam.options, true), base);
  }
  // The ladder excludes the record's tile, so its search must have run:
  // a stale hit on the base entry would have bound.
  EXPECT_EQ(certify(*fam.plan, "me", sizes, ladder, true).diagnostics,
            std::vector<std::string>{kArgminMoved});
}

TEST(FamilyTest, SearchMemoSharedSlotsBindExactly) {
  WarmFamily fam("me", {256, 128, 16});
  ASSERT_NE(fam.plan, nullptr);
  // Two pool sizes mapping to one slot.
  std::vector<i64> a, b;
  std::map<size_t, std::vector<i64>> seen;
  for (i64 k = 1; b.empty(); ++k) {
    const std::vector<i64> sizes = {256 + 16 * k, 128, 16};
    auto [it, fresh] = seen.emplace(SearchMemo::slotOf(IntVec(sizes.begin(), sizes.end())), sizes);
    if (!fresh) {
      a = it->second;
      b = sizes;
    }
  }
  const Certified wantA = certify(*fam.fresh(), "me", a, fam.options, true);
  const Certified wantB = certify(*fam.fresh(), "me", b, fam.options, true);
  ASSERT_TRUE(wantA.bound && wantB.bound);
  ASSERT_NE(wantA, wantB);
  // Asked in turn, the two colliding sizes both stay: each ask after the
  // first two is a hit.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(certify(*fam.plan, "me", a, fam.options, true), wantA);
    EXPECT_TRUE(memoized(*fam.plan, "me", a, fam.options));
    EXPECT_EQ(certify(*fam.plan, "me", b, fam.options, true), wantB);
    EXPECT_TRUE(memoized(*fam.plan, "me", b, fam.options));
    EXPECT_TRUE(memoized(*fam.plan, "me", a, fam.options));
  }
}

/// `count` distinct sizes of the form (n, 128, 16) that share one memo set.
std::vector<IntVec> collidingSizes(size_t count) {
  std::map<size_t, std::vector<IntVec>> bySet;
  for (i64 n = 1;; ++n) {
    IntVec sizes = {n, 128, 16};
    std::vector<IntVec>& set = bySet[SearchMemo::slotOf(sizes)];
    set.push_back(std::move(sizes));
    if (set.size() == count) return set;
  }
}

/// A memo entry for `sizes` whose result records the sizes it was stored for.
std::shared_ptr<const SearchMemo::Entry> memoEntry(const IntVec& sizes) {
  SearchMemo::Entry e;
  e.options.paramValues = sizes;
  e.result.subTile.assign(sizes.begin(), sizes.end());
  return std::make_shared<const SearchMemo::Entry>(std::move(e));
}

TEST(FamilyTest, SearchMemoSetEvictsItsOldestWay) {
  const std::vector<IntVec> sizes = collidingSizes(3);
  SearchMemo memo;
  auto has = [&](const IntVec& s) {
    TileSearchOptions o;
    o.paramValues = s;
    return memo.find(o, false) != nullptr;
  };
  memo.store(memoEntry(sizes[0]));
  memo.store(memoEntry(sizes[1]));
  memo.store(memoEntry(sizes[1]));  // already held: no way changes
  EXPECT_TRUE(has(sizes[0]) && has(sizes[1]));
  memo.store(memoEntry(sizes[2]));
  EXPECT_FALSE(has(sizes[0]));
  EXPECT_TRUE(has(sizes[1]) && has(sizes[2]));
}

TEST(FamilyTest, SearchMemoConcurrentStoresOnOneSet) {
  // Four threads store and find four sizes that share one set. A find must
  // return null or the entry of exactly the requested size, never another
  // way's; afterwards the set still holds two sizes asked in turn.
  const std::vector<IntVec> sizes = collidingSizes(4);
  SearchMemo memo;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const IntVec& s = sizes[static_cast<size_t>(t + i) % sizes.size()];
        TileSearchOptions o;
        o.paramValues = s;
        std::shared_ptr<const SearchMemo::Entry> hit = memo.find(o, false);
        if (hit == nullptr)
          memo.store(memoEntry(s));
        else if (hit->result.subTile != std::vector<i64>(s.begin(), s.end()))
          ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  for (int round = 0; round < 2; ++round) {
    for (size_t k : {0, 1}) {
      TileSearchOptions o;
      o.paramValues = sizes[k];
      if (memo.find(o, false) == nullptr) memo.store(memoEntry(sizes[k]));
    }
  }
  for (size_t k : {0, 1}) {
    TileSearchOptions o;
    o.paramValues = sizes[k];
    EXPECT_NE(memo.find(o, false), nullptr);
  }
}

TEST(FamilyTest, CopiedFamilyPlanStartsWithAnEmptyMemo) {
  WarmFamily fam("me", {256, 128, 16});
  ASSERT_NE(fam.plan, nullptr);
  const std::vector<i64> sizes = {1040, 128, 16};
  ASSERT_TRUE(certify(*fam.plan, "me", sizes, fam.options, false).bound);
  ASSERT_TRUE(memoized(*fam.plan, "me", sizes, fam.options));
  FamilyPlan copy = *fam.plan;
  EXPECT_FALSE(memoized(copy, "me", sizes, fam.options));
  EXPECT_EQ(certify(copy, "me", sizes, fam.options, true),
            certify(*fam.plan, "me", sizes, fam.options, true));
  FamilyPlan assigned;
  assigned = copy;
  EXPECT_FALSE(memoized(assigned, "me", sizes, fam.options));
  EXPECT_EQ(serializeFamilyPlan(copy), fam.bytes);
}

}  // namespace
}  // namespace emm
