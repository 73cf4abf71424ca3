// Tests for the bank-conflict-aware buffer packing planner
// (smem/buffer_layout.h), the static conflict counter
// (gpusim/bank_conflicts.h) that grades its layouts, and the Cell
// double-buffer emitter that consumes the halved budget. The planner
// invariants — disjoint bank-aligned placements, symbolic footprints that
// match concrete enumeration at randomized sizes and tiles, unpadded
// fallback under budget pressure — are checked on real compiled units, not
// synthetic buffers, so the formulas are exercised with the tile-origin
// parameters the pipeline actually produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "gpusim/bank_conflicts.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "smem/buffer_layout.h"

namespace emm {
namespace {

struct MeCase {
  i64 ni, nj, w;
  IntVec tile;
};

/// Size/tile combinations chosen so natural pitches hit several residues
/// mod the bank count (multiples, coprimes, shared factors).
const std::vector<MeCase> kMeCases = {
    {64, 64, 16, {32, 16, 16, 4}},
    {48, 96, 8, {16, 32, 8, 8}},
    {80, 64, 16, {16, 16, 16, 16}},
    {96, 48, 8, {32, 48, 8, 4}},
};

CompileResult compileMe(const MeCase& c, bool packed = true) {
  Compiler comp(buildMeBlock(c.ni, c.nj, c.w));
  comp.parameters({c.ni, c.nj, c.w}).tileSizes(c.tile).backend("cuda");
  comp.opts().packBuffers = packed;
  return comp.compile();
}

/// Sample binding of every source parameter (problem sizes, origins zero).
IntVec sampleParams(const CodeUnit& unit, const IntVec& params) {
  IntVec sample = params;
  sample.resize(unit.source->paramNames.size(), 0);
  return sample;
}

std::vector<std::pair<std::string, i64>> sampleEnv(const CodeUnit& unit, const IntVec& sample) {
  std::vector<std::pair<std::string, i64>> env;
  for (size_t j = 0; j < unit.source->paramNames.size(); ++j)
    env.emplace_back(unit.source->paramNames[j], sample[j]);
  return env;
}

TEST(BufferLayoutPlanner, PlacementsAreDisjointBankAlignedAndInsideTheArena) {
  for (const MeCase& c : kMeCases) {
    SCOPED_TRACE(c.ni);
    CompileResult r = compileMe(c);
    ASSERT_TRUE(r.ok) << r.firstError();
    ASSERT_TRUE(r.bufferLayout.has_value());
    const BufferLayout& lo = *r.bufferLayout;
    const IntVec sample = sampleParams(*r.unit(), {c.ni, c.nj, c.w});

    std::vector<std::pair<i64, i64>> spans;  // [offset, end)
    for (const BufferLayoutEntry& e : lo.buffers) {
      const i64 off = e.offsetElems->eval(sample);
      const i64 len = e.footprintElems->eval(sample);
      ASSERT_GE(len, 0);
      // In the packed arena (no fallback note) base offsets land on
      // bank-row multiples, so packing never rotates a buffer's bank
      // assignment; the flat fallback packs back to back instead.
      if (lo.note.empty()) {
        EXPECT_EQ(off % lo.bank.banks, 0) << e.name;
      }
      spans.emplace_back(off, off + len);
    }
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i)
      EXPECT_LE(spans[i - 1].second, spans[i].first) << "overlap at buffer " << i;
    EXPECT_LE(spans.back().second, lo.totalElems->eval(sample));
  }
}

TEST(BufferLayoutPlanner, SymbolicFootprintsMatchConcreteEnumeration) {
  for (const MeCase& c : kMeCases) {
    SCOPED_TRACE(c.ni);
    CompileResult r = compileMe(c);
    ASSERT_TRUE(r.ok) << r.firstError();
    ASSERT_TRUE(r.bufferLayout.has_value());
    const BufferLayout& lo = *r.bufferLayout;
    const CodeUnit& unit = *r.unit();
    const IntVec sample = sampleParams(unit, {c.ni, c.nj, c.w});
    const auto env = sampleEnv(unit, sample);

    // Each buffer's footprint formula must equal the product of the padded
    // extents the unit allocates (the interpreter and every emitter use
    // LocalBuffer::paddedExtent, so this ties formula to allocation).
    ASSERT_EQ(lo.buffers.size(), unit.localBuffers.size());
    for (size_t i = 0; i < lo.buffers.size(); ++i) {
      const LocalBuffer& b = unit.localBuffers[i];
      i64 concrete = 1;
      for (int d = 0; d < b.ndim; ++d) concrete = mulChecked(concrete, b.paddedExtent(d, env));
      EXPECT_EQ(lo.buffers[i].footprintElems->eval(sample), concrete) << b.name;
    }
    // The interval enclosure at the point box agrees with the point value.
    std::vector<SymInterval> box;
    for (i64 v : sample) box.push_back({v, v});
    const SymInterval total = lo.totalElemsInterval(box);
    EXPECT_EQ(total.lo, total.hi);
    EXPECT_EQ(total.lo, lo.totalElems->eval(sample));
  }
}

TEST(BufferLayoutPlanner, BudgetOverflowFallsBackToUnpadded) {
  const MeCase c = kMeCases[0];
  CompileResult r = compileMe(c);
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_TRUE(r.bufferLayout.has_value());
  const IntVec sample = sampleParams(*r.unit(), {c.ni, c.nj, c.w});
  const i64 paddedBytes = r.bufferLayout->totalBytes(sample);
  ASSERT_GT(r.bufferLayout->paddingBytes(sample), 0) << "case no longer pads; pick another";

  // Re-plan the same unit with a budget one byte short of the padded
  // arena: the planner must fall back to the unpadded layout (zero pads,
  // a smaller arena) and say why, never exceed the budget with padding.
  BufferLayoutOptions lo;
  lo.bank = r.bufferLayout->bank;
  lo.elementBytes = r.bufferLayout->elementBytes;
  lo.paramValues = {c.ni, c.nj, c.w};
  lo.memLimitBytes = paddedBytes - 1;
  BufferLayout tight = planBufferLayout(*r.unit(), lo);
  EXPECT_FALSE(tight.padded);
  EXPECT_FALSE(tight.note.empty());
  for (const BufferLayoutEntry& e : tight.buffers) EXPECT_EQ(e.rowPadElems, 0) << e.name;
  EXPECT_LT(tight.totalBytes(sample), paddedBytes);
}

TEST(BankConflicts, PaddingEliminatesWarpSerializationOnMe) {
  const MeCase c = kMeCases[0];
  CompileResult flat = compileMe(c, /*packed=*/false);
  CompileResult packed = compileMe(c, /*packed=*/true);
  ASSERT_TRUE(flat.ok && packed.ok);

  const IntVec ext = sampleParams(*flat.unit(), {c.ni, c.nj, c.w});
  BankConflictOptions bc;  // G80: 16 banks, 16-lane half-warps
  const BankConflictStats before = countBankConflicts(*flat.unit(), ext, bc);
  const BankConflictStats after = countBankConflicts(*packed.unit(), ext, bc);
  EXPECT_GT(before.excessCycles(), 0) << "unpadded ME no longer conflicts; test is vacuous";
  EXPECT_EQ(after.excessCycles(), 0);
  EXPECT_EQ(after.conflictedAccesses, 0);
  // Same instruction stream either way: padding changes strides, not code.
  EXPECT_EQ(before.warpAccesses, after.warpAccesses);

  // The oracle: padded and unpadded units compute byte-identical results.
  ArrayStore a(flat.input->arrays), b(packed.input->arrays);
  a.fillAllPattern(17);
  b.fillAllPattern(17);
  executeCodeUnit(*flat.unit(), ext, a);
  executeCodeUnit(*packed.unit(), ext, b);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);
}

TEST(BankConflicts, UnbankedStoreNeverConflicts) {
  const MeCase c = kMeCases[0];
  CompileResult flat = compileMe(c, /*packed=*/false);
  ASSERT_TRUE(flat.ok);
  BankConflictOptions bc;
  bc.banks = 1;  // Cell-style unbanked local store
  const BankConflictStats s =
      countBankConflicts(*flat.unit(), sampleParams(*flat.unit(), {c.ni, c.nj, c.w}), bc);
  EXPECT_EQ(s.excessCycles(), 0);
  EXPECT_EQ(s.conflictedAccesses, 0);
}

// ---- Cell double-buffer emitter. ----

CompileResult compileCellMe(bool doubleBuffer, IntVec tile = {}) {
  Compiler c(buildMeBlock(256, 256, 16));
  c.parameters({256, 256, 16}).backend("cell").memoryLimitBytes(256 * 1024).innerProcs(4);
  if (tile.empty())
    c.tileCandidates({{16, 32, 64}, {16, 32, 64}, {16}, {8, 16}});
  else
    c.tileSizes(tile);
  c.opts().doubleBuffer = doubleBuffer;
  return c.compile();
}

bool contains(const std::string& s, const char* marker) {
  return s.find(marker) != std::string::npos;
}

TEST(CellDoubleBuffer, EmitsTagRotatedPipeline) {
  CompileResult r = compileCellMe(true);
  ASSERT_TRUE(r.ok) << r.firstError();
  // Rotated declarations, the prologue/steady-state pipeline, per-stage DMA
  // tags and the buffer-flip all present; the fences inside the pipelined
  // loop are replaced by tag waits.
  EXPECT_TRUE(contains(r.artifact, "double-buffered"));
  EXPECT_TRUE(contains(r.artifact, "software-pipelined"));
  EXPECT_TRUE(contains(r.artifact, "int emm_db = 0;"));
  EXPECT_TRUE(contains(r.artifact, "emm_db = 1 - emm_db;"));
  EXPECT_TRUE(contains(r.artifact, "mfc_write_tag_mask(1 << emm_db);"));
}

TEST(CellDoubleBuffer, SynchronousCompileHasNoPipelineMarkers) {
  CompileResult r = compileCellMe(false);
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_FALSE(contains(r.artifact, "emm_db"));
  EXPECT_FALSE(contains(r.artifact, "software-pipelined"));
  EXPECT_TRUE(contains(r.artifact, "mfc_read_tag_status_all"));  // plain fences
}

TEST(CellDoubleBuffer, OversizedFootprintFallsBackToSynchronous) {
  // Explicit tiles whose single-copy footprint fits the store but whose
  // rotated pair does not: the emitter must refuse, explain, and emit the
  // synchronous schedule — never exceed the local store.
  CompileResult r = compileCellMe(true, {128, 128, 16, 16});
  ASSERT_TRUE(r.ok) << r.firstError();
  EXPECT_TRUE(contains(r.artifact, "double-buffering requested, but"));
  EXPECT_FALSE(contains(r.artifact, "emm_db"));
  EXPECT_FALSE(contains(r.artifact, "software-pipelined"));
}

}  // namespace
}  // namespace emm
