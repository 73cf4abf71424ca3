// Tests for the Section-3 scratchpad data-management framework: data-space
// computation, partitioning, Algorithm 1 (reuse benefit), Algorithm 2
// (buffer allocation), access rewriting, move-in/move-out code, the
// Figure-1 worked example, volume bounds, and the Section-3.1.4 copy-set
// optimization.
#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "poly/enumerate.h"
#include "smem/data_manage.h"

namespace emm {
namespace {

SmemOptions basicOptions(IntVec sample = {}) {
  SmemOptions o;
  o.sampleParams = std::move(sample);
  o.onlyBeneficial = false;  // most structural tests want buffers regardless
  return o;
}

/// The framework's output must preserve semantics: executing the
/// scratchpad unit leaves the global arrays exactly as the reference does.
void expectSemanticsPreserved(const ProgramBlock& block, const IntVec& params,
                              const SmemOptions& options) {
  CodeUnit unit = buildScratchpadUnit(block, options);
  ArrayStore got(block.arrays), want(block.arrays);
  got.fillAllPattern(41);
  want.fillAllPattern(41);
  executeCodeUnit(unit, params, got);
  executeReference(block, params, want);
  EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0) << emitC(unit);
}

// ---- Figure 1 worked example. ----

/// Figure 1 allocates one buffer per array (convex union of all of the
/// array's data spaces) — the PerArrayUnion mode; see DESIGN.md.
SmemOptions figure1Options() {
  SmemOptions o = basicOptions();
  o.partitionMode = PartitionMode::PerArrayUnion;
  return o;
}

TEST(Figure1, PartitionsAndBufferGeometry) {
  ProgramBlock block = buildFigure1Block();
  DataPlan plan = analyzeBlock(block, figure1Options());

  // Paper: one local array each for A and B.
  ASSERT_EQ(plan.partitions.size(), 2u);
  const PartitionPlan* pa = nullptr;
  const PartitionPlan* pb = nullptr;
  for (const PartitionPlan& p : plan.partitions)
    (p.arrayId == 0 ? pa : pb) = &p;
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);

  // Paper Figure 1: LA[19][10] with offsets (10, 11); LB[19][24] with
  // offsets (10, 11).
  std::vector<std::pair<std::string, i64>> env;  // no parameters
  ASSERT_TRUE(pa->hasBuffer);
  EXPECT_EQ(pa->offset[0].evalExact(env), 10);
  EXPECT_EQ(pa->offset[1].evalExact(env), 11);
  EXPECT_EQ(pa->sizeExpr[0].eval(env), 19);
  EXPECT_EQ(pa->sizeExpr[1].eval(env), 10);
  ASSERT_TRUE(pb->hasBuffer);
  EXPECT_EQ(pb->offset[0].evalExact(env), 10);
  EXPECT_EQ(pb->offset[1].evalExact(env), 11);
  EXPECT_EQ(pb->sizeExpr[0].eval(env), 19);
  EXPECT_EQ(pb->sizeExpr[1].eval(env), 24);
}

TEST(Figure1, SemanticsPreservedBothModes) {
  expectSemanticsPreserved(buildFigure1Block(), {}, figure1Options());
  expectSemanticsPreserved(buildFigure1Block(), {}, basicOptions());
}

TEST(Figure1, DisjointModeSplitsAndShrinksFootprint) {
  // Under the Section-3.1 algorithm text, A splits into {write, S2-read}
  // vs the far S1 read, and B splits similarly: 4 partitions total, with a
  // strictly smaller total footprint than the per-array-union buffers.
  ProgramBlock block = buildFigure1Block();
  DataPlan disjoint = analyzeBlock(block, basicOptions());
  DataPlan unioned = analyzeBlock(block, figure1Options());
  EXPECT_EQ(disjoint.partitions.size(), 4u);
  auto footprint = [](const DataPlan& p) {
    i64 total = 0;
    for (size_t i = 0; i < p.partitions.size(); ++i)
      total += p.bufferFootprint(static_cast<int>(i), {});
    return total;
  };
  EXPECT_LT(footprint(disjoint), footprint(unioned));
}

TEST(Figure1, SingleTransferOfOverlappingData) {
  // The move-in code must load each element exactly once even though the
  // data spaces of A's references overlap (paper Section 3.1.3).
  ProgramBlock block = buildFigure1Block();
  DataPlan plan;
  CodeUnit unit = buildScratchpadUnit(block, figure1Options(), plan);

  ArrayStore store(block.arrays);
  MemTrace trace = executeCodeUnit(unit, {}, store);
  // Expected global reads: |union of read spaces| of A + of B.
  i64 expected = 0;
  for (const PartitionPlan& p : plan.partitions) expected += countUnion(p.readSpaces(), {});
  EXPECT_EQ(trace.globalReads, expected);
}

TEST(Figure1, MoveOutCountsMatchWriteSpaces) {
  ProgramBlock block = buildFigure1Block();
  DataPlan plan;
  CodeUnit unit = buildScratchpadUnit(block, figure1Options(), plan);
  ArrayStore store(block.arrays);
  MemTrace trace = executeCodeUnit(unit, {}, store);
  i64 expected = 0;
  for (const PartitionPlan& p : plan.partitions) expected += countUnion(p.writeSpaces(), {});
  EXPECT_EQ(trace.globalWrites, expected);
}

TEST(Figure1, EmitterShowsBuffersAndCopies) {
  ProgramBlock block = buildFigure1Block();
  CodeUnit unit = buildScratchpadUnit(block, figure1Options());
  std::string code = emitC(unit);
  EXPECT_NE(code.find("LA0[19][10]"), std::string::npos) << code;
  EXPECT_NE(code.find("LB1[19][24]"), std::string::npos) << code;
  EXPECT_NE(code.find("move-in"), std::string::npos);
  EXPECT_NE(code.find("move-out"), std::string::npos);
}

// ---- Algorithm 1 (reuse benefit). ----

TEST(Algorithm1, OrderOfMagnitudeReuseByRank) {
  // ME: out/cur/ref all have rank 2 < dim 4: every partition beneficial.
  ProgramBlock block = buildMeBlock(8, 8, 4);
  SmemOptions o;
  o.sampleParams = {8, 8, 4};
  DataPlan plan = analyzeBlock(block, o);
  ASSERT_EQ(plan.partitions.size(), 3u);
  for (const PartitionPlan& p : plan.partitions) {
    EXPECT_TRUE(p.orderReuse);
    EXPECT_TRUE(p.beneficial);
    EXPECT_TRUE(p.hasBuffer);
  }
}

TEST(Algorithm1, NoReuseNotBeneficial) {
  // B[i] = A[i]: rank 1 == dim 1, no overlap: not beneficial.
  ProgramBlock block;
  block.name = "stream";
  block.arrays = {{"A", {64}}, {"B", {64}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 63);
  Access w{1, IntMat{{1, 0}}, true};
  Access r{0, IntMat{{1, 0}}, false};
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::load(1);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));

  SmemOptions o;
  o.sampleParams = {};
  o.onlyBeneficial = true;
  DataPlan plan = analyzeBlock(block, o);
  for (const PartitionPlan& p : plan.partitions) {
    EXPECT_FALSE(p.orderReuse);
    EXPECT_FALSE(p.beneficial);
    EXPECT_FALSE(p.hasBuffer);
  }
  // No buffers: unit must still be semantically correct (all global).
  expectSemanticsPreserved(block, {}, o);
}

TEST(Algorithm1, ConstantReuseAboveDelta) {
  // Two shifted reads of A: A[i] and A[i+2] over [0, 19]: overlap 18 of 40
  // total volume = 45% > 30%: beneficial.
  ProgramBlock block;
  block.name = "shift2";
  block.arrays = {{"A", {32}}, {"B", {32}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 19);
  Access w{1, IntMat{{1, 0}}, true};
  Access r1{0, IntMat{{1, 0}}, false};
  Access r2{0, IntMat{{1, 2}}, false};
  s.accesses = {w, r1, r2};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::load(2));
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));

  SmemOptions o;
  o.onlyBeneficial = true;
  DataPlan plan = analyzeBlock(block, o);
  const PartitionPlan* pa = nullptr;
  for (const PartitionPlan& p : plan.partitions)
    if (p.arrayId == 0) pa = &p;
  ASSERT_NE(pa, nullptr);
  EXPECT_FALSE(pa->orderReuse);
  EXPECT_NEAR(pa->constReuseFraction, 18.0 / 40.0, 1e-9);
  EXPECT_TRUE(pa->beneficial);
}

TEST(Algorithm1, ConstantReuseBelowDelta) {
  // A[i] and A[i+15] over [0, 19]: overlap 5 of 40 = 12.5% < 30%.
  ProgramBlock block;
  block.name = "shift15";
  block.arrays = {{"A", {64}}, {"B", {64}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 19);
  Access w{1, IntMat{{1, 0}}, true};
  Access r1{0, IntMat{{1, 0}}, false};
  Access r2{0, IntMat{{1, 15}}, false};
  s.accesses = {w, r1, r2};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::load(2));
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));

  SmemOptions o;
  o.onlyBeneficial = true;
  DataPlan plan = analyzeBlock(block, o);
  const PartitionPlan* pa = nullptr;
  for (const PartitionPlan& p : plan.partitions)
    if (p.arrayId == 0) pa = &p;
  ASSERT_NE(pa, nullptr);
  EXPECT_FALSE(pa->beneficial);
  // Delta is configurable: with delta = 0.1 it becomes beneficial.
  o.delta = 0.10;
  plan = analyzeBlock(block, o);
  for (const PartitionPlan& p : plan.partitions)
    if (p.arrayId == 0) { EXPECT_TRUE(p.beneficial); }
}

// ---- Partitioning. ----

TEST(Partitioning, DisjointRegionsGetSeparateBuffers) {
  // Reads A[i] (i in [0,9]) and A[i+100] (i.e. [100,109]): two partitions.
  ProgramBlock block;
  block.name = "twofar";
  block.arrays = {{"A", {256}}, {"B", {16}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 9);
  Access w{1, IntMat{{1, 0}}, true};
  Access r1{0, IntMat{{1, 0}}, false};
  Access r2{0, IntMat{{1, 100}}, false};
  s.accesses = {w, r1, r2};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::load(2));
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));

  DataPlan plan = analyzeBlock(block, basicOptions());
  int aPartitions = 0;
  for (const PartitionPlan& p : plan.partitions)
    if (p.arrayId == 0) ++aPartitions;
  EXPECT_EQ(aPartitions, 2);
  expectSemanticsPreserved(block, {}, basicOptions());
}

TEST(Partitioning, TransitiveOverlapMerges) {
  // A[i], A[i+5], A[i+10] over [0,9]: pairwise chains merge into one
  // partition even though A[i] and A[i+10] themselves do not overlap.
  ProgramBlock block;
  block.name = "chain3";
  block.arrays = {{"A", {64}}, {"B", {16}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 9);
  Access w{1, IntMat{{1, 0}}, true};
  Access r1{0, IntMat{{1, 0}}, false};
  Access r2{0, IntMat{{1, 5}}, false};
  Access r3{0, IntMat{{1, 10}}, false};
  s.accesses = {w, r1, r2, r3};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::add(Expr::load(2), Expr::load(3)));
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));

  DataPlan plan = analyzeBlock(block, basicOptions());
  int aPartitions = 0;
  const PartitionPlan* pa = nullptr;
  for (const PartitionPlan& p : plan.partitions)
    if (p.arrayId == 0) {
      ++aPartitions;
      pa = &p;
    }
  EXPECT_EQ(aPartitions, 1);
  ASSERT_NE(pa, nullptr);
  std::vector<std::pair<std::string, i64>> env;
  EXPECT_EQ(pa->sizeExpr[0].eval(env), 20);  // [0, 19]
}

// ---- Parametric buffers. ----

TEST(Parametric, BufferSizeTracksParams) {
  // Read A[i..i+W-1] style window: buffer bounds are parametric in W... use
  // matmul row access A[i][p] in a (i,j,p) nest with params (N,M,K).
  ProgramBlock block = buildMatmulBlock(6, 5, 4);
  SmemOptions o;
  o.sampleParams = {6, 5, 4};
  DataPlan plan = analyzeBlock(block, o);
  ASSERT_EQ(plan.partitions.size(), 3u);
  // Footprints at the sample: A: 6x4, B: 4x5, C: 6x5.
  i64 total = 0;
  for (size_t p = 0; p < plan.partitions.size(); ++p)
    total += plan.bufferFootprint(static_cast<int>(p), {6, 5, 4});
  EXPECT_EQ(total, 24 + 20 + 30);
  // Different binding, same plan: footprints re-evaluate.
  total = 0;
  for (size_t p = 0; p < plan.partitions.size(); ++p)
    total += plan.bufferFootprint(static_cast<int>(p), {8, 3, 2});
  EXPECT_EQ(total, 16 + 6 + 24);
}

TEST(Parametric, MatmulSemanticsPreserved) {
  ProgramBlock block = buildMatmulBlock(5, 4, 6);
  SmemOptions o;
  o.sampleParams = {5, 4, 6};
  expectSemanticsPreserved(block, {5, 4, 6}, o);
}

TEST(Parametric, MeSemanticsPreserved) {
  ProgramBlock block = buildMeBlock(6, 5, 3);
  SmemOptions o;
  o.sampleParams = {6, 5, 3};
  expectSemanticsPreserved(block, {6, 5, 3}, o);
}

TEST(Parametric, JacobiSemanticsPreserved) {
  ProgramBlock block = buildJacobiBlock(18, 4);
  SmemOptions o;
  o.sampleParams = {18, 4};
  o.onlyBeneficial = false;
  expectSemanticsPreserved(block, {18, 4}, o);
}

// ---- Volume bounds (Section 3.1.3). ----

TEST(VolumeBounds, MatchHandComputation) {
  ProgramBlock block = buildFigure1Block();
  DataPlan plan = analyzeBlock(block, basicOptions());
  for (size_t p = 0; p < plan.partitions.size(); ++p) {
    const PartitionPlan& part = plan.partitions[p];
    i64 vin = plan.moveInVolumeBound(static_cast<int>(p), {});
    i64 vout = plan.moveOutVolumeBound(static_cast<int>(p), {});
    // Bounds dominate the exact union volumes.
    EXPECT_GE(vin, countUnion(part.readSpaces(), {}));
    EXPECT_GE(vout, countUnion(part.writeSpaces(), {}));
    // And are no larger than the full buffer box per non-overlapping subset
    // (sanity: bound is finite and not absurd).
    EXPECT_LE(vout, plan.bufferFootprint(static_cast<int>(p), {}));
  }
}

// ---- Section 3.1.4 copy-set optimization. ----

TEST(CopySetOpt, ProducerConsumerSkipsMoveIn) {
  // S1: T[i] = A[i] + 1;  S2: B[i] = T[i] * 2.  T's reads are fully covered
  // by in-block flow deps: with the optimization, T is written to the local
  // buffer by S1 and never loaded from global memory.
  ProgramBlock block;
  block.name = "prodcons";
  block.arrays = {{"A", {32}}, {"T", {32}}, {"B", {32}}};
  {
    Statement s1;
    s1.name = "S1";
    s1.domain = Polyhedron(1, 0);
    s1.domain.addRange(0, 0, 15);
    Access w{1, IntMat{{1, 0}}, true};
    Access r{0, IntMat{{1, 0}}, false};
    s1.accesses = {w, r};
    s1.writeAccess = 0;
    s1.rhs = Expr::add(Expr::load(1), Expr::constant(1));
    s1.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
    block.statements.push_back(std::move(s1));
  }
  {
    Statement s2;
    s2.name = "S2";
    s2.domain = Polyhedron(1, 0);
    s2.domain.addRange(0, 0, 15);
    Access w{2, IntMat{{1, 0}}, true};
    Access r{1, IntMat{{1, 0}}, false};
    s2.accesses = {w, r};
    s2.writeAccess = 0;
    s2.rhs = Expr::mul(Expr::load(1), Expr::constant(2));
    s2.schedule = ProgramBlock::interleavedSchedule(1, 0, {1, 0});
    block.statements.push_back(std::move(s2));
  }
  block.validate();

  SmemOptions o = basicOptions();
  DataPlan planNoOpt;
  CodeUnit noOpt = buildScratchpadUnit(block, o, planNoOpt);
  o.optimizeCopySets = true;
  DataPlan planOpt;
  CodeUnit opt = buildScratchpadUnit(block, o, planOpt);

  ArrayStore s1(block.arrays), s2(block.arrays), ref(block.arrays);
  s1.fillAllPattern(9);
  s2.fillAllPattern(9);
  ref.fillAllPattern(9);
  MemTrace tNo = executeCodeUnit(noOpt, {}, s1);
  MemTrace tOpt = executeCodeUnit(opt, {}, s2);
  executeReference(block, {}, ref);
  EXPECT_EQ(ArrayStore::maxAbsDiff(s1, ref), 0.0);
  EXPECT_EQ(ArrayStore::maxAbsDiff(s2, ref), 0.0);
  // T's 16 move-in loads disappear.
  EXPECT_EQ(tNo.globalReads - tOpt.globalReads, 16);
}

TEST(CopySetOpt, DeadArraySkipsMoveOut) {
  // Same block; mark T dead after the block: its move-out disappears too.
  ProgramBlock block;
  block.name = "deadtmp";
  block.arrays = {{"A", {32}}, {"T", {32}}, {"B", {32}}};
  {
    Statement s1;
    s1.name = "S1";
    s1.domain = Polyhedron(1, 0);
    s1.domain.addRange(0, 0, 15);
    Access w{1, IntMat{{1, 0}}, true};
    Access r{0, IntMat{{1, 0}}, false};
    s1.accesses = {w, r};
    s1.writeAccess = 0;
    s1.rhs = Expr::add(Expr::load(1), Expr::constant(1));
    s1.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
    block.statements.push_back(std::move(s1));
  }
  {
    Statement s2;
    s2.name = "S2";
    s2.domain = Polyhedron(1, 0);
    s2.domain.addRange(0, 0, 15);
    Access w{2, IntMat{{1, 0}}, true};
    Access r{1, IntMat{{1, 0}}, false};
    s2.accesses = {w, r};
    s2.writeAccess = 0;
    s2.rhs = Expr::mul(Expr::load(1), Expr::constant(2));
    s2.schedule = ProgramBlock::interleavedSchedule(1, 0, {1, 0});
    block.statements.push_back(std::move(s2));
  }
  block.validate();

  SmemOptions o = basicOptions();
  o.optimizeCopySets = true;
  o.deadAfterBlock = {1};  // T
  DataPlan plan;
  CodeUnit unit = buildScratchpadUnit(block, o, plan);
  ArrayStore store(block.arrays), ref(block.arrays);
  store.fillAllPattern(4);
  ref.fillAllPattern(4);
  MemTrace t = executeCodeUnit(unit, {}, store);
  executeReference(block, {}, ref);
  // B must be correct; T may differ (dead).
  for (i64 i = 0; i < 32; ++i) EXPECT_EQ(store.get(2, {i}), ref.get(2, {i}));
  // Global writes: only B's 16 elements.
  EXPECT_EQ(t.globalWrites, 16);
}

// ---- Property sweep: shifted-window blocks across shift amounts. ----

class ShiftedWindowProperty : public ::testing::TestWithParam<int> {};

TEST_P(ShiftedWindowProperty, SemanticsAndSingleTransfer) {
  int shift = GetParam();
  ProgramBlock block;
  block.name = "win" + std::to_string(shift);
  block.arrays = {{"A", {96}}, {"B", {64}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 31);
  Access w{1, IntMat{{1, 0}}, true};
  Access r1{0, IntMat{{1, 0}}, false};
  Access r2{0, IntMat{{1, shift}}, false};
  s.accesses = {w, r1, r2};
  s.writeAccess = 0;
  s.rhs = Expr::add(Expr::load(1), Expr::load(2));
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));
  block.validate();

  SmemOptions o = basicOptions();
  CodeUnit unit = buildScratchpadUnit(block, o);
  ArrayStore got(block.arrays), want(block.arrays);
  got.fillAllPattern(13);
  want.fillAllPattern(13);
  MemTrace trace = executeCodeUnit(unit, {}, got);
  executeReference(block, {}, want);
  EXPECT_EQ(ArrayStore::maxAbsDiff(got, want), 0.0);
  // Union of A-reads: [0, 31] and [shift, 31+shift].
  i64 unionA = shift <= 32 ? 32 + shift : 64;
  EXPECT_EQ(trace.globalReads, unionA);
}

INSTANTIATE_TEST_SUITE_P(Shifts, ShiftedWindowProperty,
                         ::testing::Values(0, 1, 3, 8, 31, 32, 40));

}  // namespace
}  // namespace emm
