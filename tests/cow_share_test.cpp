// Copy-on-write sharing of pipeline products (support/deep_ptr.h).
//
// A copy of a compile result shares its blocks, AST, dependences, geometry
// hints and the unit's and plan's tables with the original; a write goes
// through DeepPtr/Cow::mut(), which detaches a private copy first. These
// tests pin both halves: binds and result-tier hits share the family
// record's pointees, and no write path the code has — the binder's
// overlay, the passes' writers, decoding — changes a byte of the record or
// of the cached entry it was copied from, on one thread or on four.
#include <gtest/gtest.h>

#include <thread>
#include <type_traits>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "driver/runtime_binder.h"
#include "kernels/blocks.h"
#include "support/field_codec.h"
#include "support/serialize.h"
#include "testgen/planted_bug.h"

namespace emm {
namespace {

/// A family warmed at `seedSizes`, plus a certified bind at `bindSizes`.
struct WarmBind {
  PlanCache cache;
  CompileOptions options;
  FamilyBind bind;
  bool ok = false;

  WarmBind(const std::string& kernel, const std::vector<i64>& seedSizes,
           const std::vector<i64>& bindSizes, bool scratchpadOnly = false) {
    IntVec params;
    ProgramBlock seed = buildKernelByName(kernel, seedSizes, params);
    Compiler c(seed);
    c.parameters(params).cache(&cache);
    if (scratchpadOnly) c.scratchpadOnly(true).stageEverything(true);
    if (!c.compile().ok) return;
    ProgramBlock request = buildKernelByName(kernel, bindSizes, params);
    c.parameters(params);
    options = c.opts();
    std::optional<FamilyBind> certified = c.tryCertifyFamily(request);
    if (!certified) return;
    bind = std::move(*certified);
    ok = true;
  }
  const CompileResult& record() const { return *bind.record; }
};

std::vector<std::vector<i64>> extentsOf(const std::vector<ArrayDecl>& arrays) {
  std::vector<std::vector<i64>> out;
  for (const ArrayDecl& a : arrays) out.push_back(a.extents);
  return out;
}

TEST(CowShare, HandleReadsAreConstAndWritesDetach) {
  // The const path must never hand out mutable access: every write has to
  // go through mut(), which is what makes sharing safe.
  using V = std::vector<int>;
  using Ptr = DeepPtr<V>;
  using Val = Cow<V>;
  EXPECT_TRUE((std::is_same_v<decltype(std::declval<const Ptr&>().get()), const V*>));
  EXPECT_TRUE((std::is_same_v<decltype(*std::declval<const Ptr&>()), const V&>));
  EXPECT_TRUE((std::is_same_v<decltype(std::declval<const Ptr&>().operator->()), const V*>));
  EXPECT_TRUE((std::is_same_v<decltype(std::declval<Ptr&>().get()), const V*>));
  EXPECT_TRUE((std::is_same_v<decltype(*std::declval<Ptr&>()), const V&>));
  EXPECT_TRUE((std::is_same_v<decltype(std::declval<Val&>().get()), const V*>));
  EXPECT_TRUE((std::is_same_v<decltype(*std::declval<Val&>()), const V&>));
  EXPECT_TRUE((std::is_same_v<decltype(std::declval<Val&>()[0]), const int&>));

  Ptr a = Ptr::make(V{1, 2});
  Ptr b = a;
  EXPECT_EQ(a.get(), b.get());
  const V* unique = &a.mut();  // shared: detaches
  EXPECT_NE(unique, b.get());
  EXPECT_EQ(&a.mut(), unique);  // now unique: written in place
  a.mut().push_back(3);
  EXPECT_EQ(*b, (V{1, 2}));
  EXPECT_EQ(*a, (V{1, 2, 3}));

  Val v;
  EXPECT_TRUE(v.empty());  // an empty handle reads as a default value
  Val w = v;
  w.mut().push_back(7);
  EXPECT_TRUE(v.empty());
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 7);
}

TEST(CowShare, BoundResultsAndCacheHitsShareTheRecord) {
  for (const auto& [kernel, seed, size] :
       std::vector<std::tuple<std::string, std::vector<i64>, std::vector<i64>>>{
           {"me", {256, 128, 16}, {272, 128, 16}}, {"matmul", {128, 128, 128}, {132, 132, 136}}}) {
    SCOPED_TRACE(kernel);
    WarmBind warm(kernel, seed, size);
    ASSERT_TRUE(warm.ok);
    const CompileResult& rec = warm.record();
    ASSERT_TRUE(rec.kernel.has_value());
    const CompileResult bound = materializeBind(rec, warm.bind.overlay);
    ASSERT_TRUE(bound.artifactBound);

    // What the bind does not write stays shared with the record.
    const TiledKernel& rk = *rec.kernel;
    const TiledKernel& bk = *bound.kernel;
    EXPECT_EQ(bk.unit.root.get(), rk.unit.root.get());
    EXPECT_EQ(bk.unit.statements.get(), rk.unit.statements.get());
    EXPECT_EQ(bk.unit.localBuffers.get(), rk.unit.localBuffers.get());
    EXPECT_EQ(bk.analysis.plan.partitions.get(), rk.analysis.plan.partitions.get());
    EXPECT_EQ(bk.analysis.loopBounds.get(), rk.analysis.loopBounds.get());
    EXPECT_EQ(bk.spaceLoopRange.get(), rk.spaceLoopRange.get());
    EXPECT_EQ(bound.deps.get(), rec.deps.get());
    EXPECT_EQ(bound.geometryHints.get(), rec.geometryHints.get());

    // The blocks it writes are its own, and so are the back-pointers.
    EXPECT_NE(bound.input.get(), rec.input.get());
    EXPECT_NE(bk.analysis.tileBlock.get(), rk.analysis.tileBlock.get());
    EXPECT_EQ(bk.unit.source, bk.analysis.tileBlock.get());
    EXPECT_EQ(bk.analysis.plan.block, bk.analysis.tileBlock.get());
    EXPECT_EQ(extentsOf(bk.analysis.tileBlock->arrays), extentsOf(warm.bind.overlay.arrays));
    EXPECT_NE(extentsOf(rk.analysis.tileBlock->arrays), extentsOf(warm.bind.overlay.arrays));

    // Result-tier hits share the stored snapshot, and so the pipeline
    // result it was taken from, until written.
    PlanCache cache;
    PlanKey key;
    key.block = 1;
    cache.insert(key, rec);
    std::optional<CompileResult> hit1 = cache.lookup(key);
    std::optional<CompileResult> hit2 = cache.lookup(key);
    ASSERT_TRUE(hit1 && hit2 && hit1->cacheHit);
    EXPECT_EQ(hit1->input.get(), rec.input.get());
    EXPECT_EQ(hit1->kernel->unit.root.get(), rk.unit.root.get());
    EXPECT_EQ(hit2->kernel->analysis.tileBlock.get(), rk.analysis.tileBlock.get());
    EXPECT_EQ(hit2->kernel->unit.source, hit2->kernel->analysis.tileBlock.get());
  }
}

/// Writes through every mutable path a result's products have.
void writeEverything(CompileResult& r) {
  using BlockRef = CompileResult::BlockRef;
  r.mutBlock(BlockRef::Input).name += "_written";
  if (r.transformed != nullptr) r.mutBlock(BlockRef::Transformed).arrays.clear();
  r.deps.mut().clear();
  r.geometryHints.mut().clear();
  if (r.kernel.has_value()) {
    TiledKernel& k = *r.kernel;
    k.mutTileBlock().paramNames.push_back("extra");
    k.analysis.plan.partitions.mut().clear();
    k.analysis.loopBounds.mut().clear();
    k.spaceLoopRange.mut().clear();
    k.unit.statements.mut().clear();
    k.unit.localBuffers.mut().clear();
    k.unit.root.mut().children.clear();
  }
}

TEST(CowShare, WritesLeaveTheRecordAndTheCachedEntryUnchanged) {
  WarmBind warm("me", {256, 128, 16}, {272, 128, 16});
  ASSERT_TRUE(warm.ok);
  const CompileResult& rec = warm.record();
  const std::string recordBytes = serializeCompileResult(rec);
  PlanCache cache;
  PlanKey key;
  key.block = 2;
  cache.insert(key, rec);
  const std::string entryBytes = serializeCompileResult(*cache.lookup(key));
  ASSERT_EQ(entryBytes, recordBytes);

  // The binder's overlay, then a write through every handle, on a bind
  // and on a cache hit.
  CompileResult bound = materializeBind(rec, warm.bind.overlay);
  EXPECT_NE(serializeCompileResult(bound), recordBytes);
  writeEverything(bound);
  CompileResult hit = *cache.lookup(key);
  writeEverything(hit);
  EXPECT_NE(serializeCompileResult(hit), recordBytes);

  // The passes' writers: the smem pass pads the unit's buffers in place,
  // and the planted tiler bug (codegen, then an AST corruption) rewrites
  // the kernel's AST.
  CompileState state;
  static_cast<PipelineProducts&>(state) = rec;
  state.options = warm.options;
  state.options.smemBanks = 7;  // a bank count that moves the pads
  PassRegistry::standard().create("smem")->run(state);
  testgen::PlantedTilerBugPass planted;
  planted.run(state);
  EXPECT_TRUE(planted.corrupted());
  EXPECT_NE(state.kernel->unit.root.get(), rec.kernel->unit.root.get());

  // Decoding into a result that shares the record writes through mut().
  CompileResult decoded = rec;
  const std::string otherBytes = serializeCompileResult(bound);
  ByteReader reader(otherBytes);
  Decoder decoder{reader};
  readValue(decoder, decoded);
  EXPECT_EQ(serializeCompileResult(decoded), otherBytes);

  EXPECT_EQ(serializeCompileResult(rec), recordBytes);
  EXPECT_EQ(serializeCompileResult(*cache.lookup(key)), entryBytes);
}

TEST(CowShare, ScratchpadOnlyBindKeepsItsBackPointersOnItsOwnBlock) {
  // A record with no tile search: a scratchpad-only Jacobi unit. The bind
  // detaches the input block to write its array table, which moves it;
  // the unit's and the plan's back-pointers must follow.
  WarmBind warm("jacobi", {64, 8}, {64, 16}, /*scratchpadOnly=*/true);
  ASSERT_TRUE(warm.ok);
  const CompileResult& rec = warm.record();
  ASSERT_TRUE(rec.scratchpadUnit.has_value() && rec.blockPlan.has_value());
  ASSERT_TRUE(rec.search.subTile.empty());
  const CompileResult bound = materializeBind(rec, warm.bind.overlay);
  ASSERT_TRUE(bound.scratchpadUnit.has_value() && bound.blockPlan.has_value());

  const auto unitRef = rec.blockRef(rec.scratchpadUnit->source);
  const auto planRef = rec.blockRef(rec.blockPlan->block);
  ASSERT_NE(unitRef, CompileResult::BlockRef::None);
  ASSERT_NE(planRef, CompileResult::BlockRef::None);
  EXPECT_EQ(bound.blockRef(bound.scratchpadUnit->source), unitRef);
  EXPECT_EQ(bound.blockRef(bound.blockPlan->block), planRef);
  EXPECT_NE(bound.scratchpadUnit->source, rec.scratchpadUnit->source);
  EXPECT_EQ(extentsOf(bound.scratchpadUnit->source->arrays), extentsOf(warm.bind.overlay.arrays));

  // The references survive the wire form too.
  const CompileResult back = deserializeCompileResult(serializeCompileResult(bound));
  EXPECT_EQ(back.blockRef(back.scratchpadUnit->source), unitRef);
  EXPECT_EQ(back.blockRef(back.blockPlan->block), planRef);
}

TEST(CowShare, ConcurrentBindsAndWritesLeaveTheRecordIntact) {
  // Four threads bind one record and write through their own copies while
  // the others read and copy the shared pointees (run under TSan in CI).
  WarmBind warm("me", {256, 128, 16}, {272, 128, 16});
  ASSERT_TRUE(warm.ok);
  const CompileResult& rec = warm.record();
  const std::string recordBytes = serializeCompileResult(rec);
  const std::string boundBytes = serializeCompileResult(materializeBind(rec, warm.bind.overlay));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        CompileResult bound = materializeBind(rec, warm.bind.overlay);
        if (serializeCompileResult(bound) != boundBytes) mismatches.fetch_add(1);
        CompileResult copy = bound;
        writeEverything(copy);
        writeEverything(bound);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(serializeCompileResult(rec), recordBytes);
}

}  // namespace
}  // namespace emm
