// Extension E4: bank-conflict-aware buffer packing.
//
// The paper's Section-5 discussion notes that scratchpad layouts must avoid
// bank conflicts for the per-element access cost the evaluation assumes to
// hold. This driver measures that claim on the framework's own generated
// units: the static conflict counter (gpusim/bank_conflicts.h) grades the
// packed (padded) and unpacked layouts of the ME tiled kernel and a 2-D
// Jacobi scratchpad unit under a G80-style 16-bank half-warp model, and the
// interpreter oracle certifies that padding changed no result byte.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "driver/compiler.h"
#include "gpusim/bank_conflicts.h"
#include "ir/interp.h"
#include "kernels/blocks.h"

using namespace emm;

namespace {

/// Lane dimension for the scratchpad-only Jacobi unit: thread-per-row
/// mapping, so the lane stride through a buffer is the ROW PITCH — the
/// tile-strided case conflict padding exists for.
void markThreadParallel(AstNode& n, const std::string& iter) {
  if (n.kind == AstNode::Kind::For && n.iter == iter) n.loopKind = LoopKind::ThreadParallel;
  for (AstPtr& c : n.children) markThreadParallel(c.mut(), iter);
}

/// Max |difference| between the unit's output and the reference execution
/// of the source block; 0.0 means byte-identical results.
double oracleDiff(const ProgramBlock& block, const CodeUnit& unit, const IntVec& params) {
  ArrayStore ref(block.arrays), got(block.arrays);
  ref.fillAllPattern(17);
  got.fillAllPattern(17);
  executeReference(block, params, ref);
  IntVec ext = params;
  ext.resize(unit.source->paramNames.size(), 0);
  executeCodeUnit(unit, ext, got);
  return ArrayStore::maxAbsDiff(ref, got);
}

void report(const char* kernel, const BankConflictStats& flat, const BankConflictStats& packed,
            double flatDiff, double packedDiff) {
  const double reduction =
      flat.excessCycles() > 0
          ? 100.0 * (1.0 - static_cast<double>(packed.excessCycles()) /
                               static_cast<double>(flat.excessCycles()))
          : 0.0;
  std::printf("  %-9s unpacked: %8lld excess cycles (%4.1f%% of %lld serialized)\n", kernel,
              flat.excessCycles(), 100.0 * flat.serializedFraction(), flat.bankCycles);
  std::printf("  %-9s packed:   %8lld excess cycles (%4.1f%% of %lld serialized)"
              "  -> %.1f%% conflict reduction\n",
              "", packed.excessCycles(), 100.0 * packed.serializedFraction(), packed.bankCycles,
              reduction);
  std::printf("  %-9s oracle max|diff| vs reference: unpacked %g, packed %g%s\n", "", flatDiff,
              packedDiff,
              flatDiff == 0.0 && packedDiff == 0.0 ? "  (byte-identical)" : "  ** MISMATCH **");
}

/// ME through the full tiled pipeline: the t0 thread loop walks Lout2's
/// OUTER dimension, so unpadded lanes stride by the row pitch (a multiple
/// of the bank count at these tile sizes) and serialize 16-ways.
void runMe(bool packed, BankConflictStats& stats, double& diff) {
  const i64 ni = 64, nj = 64, w = 16;
  Compiler c(buildMeBlock(ni, nj, w));
  c.parameters({ni, nj, w}).tileSizes({32, 16, 16, 4}).backend("cuda");
  c.opts().packBuffers = packed;
  CompileResult r = c.compile();
  if (!r.ok || !r.kernel.has_value()) {
    std::printf("  me: compile failed: %s\n", r.firstError().c_str());
    return;
  }
  BankConflictOptions bc;  // G80: 16 banks, half-warp of 16 lanes
  IntVec ext = {ni, nj, w};
  ext.resize(r.kernel->unit.source->paramNames.size(), 0);
  stats = countBankConflicts(r.kernel->unit, ext, bc);
  diff = oracleDiff(buildMeBlock(ni, nj, w), r.kernel->unit, {ni, nj, w});
}

/// 2-D Jacobi through the Figure-1 scratchpad flow. Sizes are chosen so the
/// natural pitches share factors with the bank count: LB1's interior row is
/// 16 wide (16-way conflicts), LA0's full row 18 (2-way).
void runJacobi2d(bool packed, BankConflictStats& stats, double& diff) {
  const i64 n = 18, m = 18, t = 2;
  Compiler c(buildJacobi2dBlock(n, m, t));
  c.parameters({n, m, t}).scratchpadOnly(true).stageEverything(true).memoryLimitBytes(64 * 1024);
  c.opts().packBuffers = packed;
  CompileResult r = c.compile();
  if (!r.ok || !r.scratchpadUnit.has_value()) {
    std::printf("  jacobi2d: compile failed: %s\n", r.firstError().c_str());
    return;
  }
  markThreadParallel(r.scratchpadUnit->root.mut(), "c1");
  BankConflictOptions bc;
  stats = countBankConflicts(*r.scratchpadUnit, {n, m, t}, bc);
  diff = oracleDiff(buildJacobi2dBlock(n, m, t), *r.scratchpadUnit, {n, m, t});
}

}  // namespace

int main() {
  bench::header("Extension E4: bank-conflict-aware buffer packing",
                "Section 5's banked-scratchpad access cost assumption");
  std::printf("  model: 16 banks x 4-byte words, 16-lane half-warps\n\n");

  BankConflictStats meFlat, mePacked, jFlat, jPacked;
  double meFlatDiff = -1, mePackedDiff = -1, jFlatDiff = -1, jPackedDiff = -1;
  runMe(false, meFlat, meFlatDiff);
  runMe(true, mePacked, mePackedDiff);
  report("me", meFlat, mePacked, meFlatDiff, mePackedDiff);
  runJacobi2d(false, jFlat, jFlatDiff);
  runJacobi2d(true, jPacked, jPackedDiff);
  report("jacobi2d", jFlat, jPacked, jFlatDiff, jPackedDiff);

  std::printf("\n  reading: coprime row pitches spread tile-strided warp accesses\n"
              "  across all banks; padding rescues the flat per-element scratchpad\n"
              "  cost the simulator charges, at a few words of local memory\n");
  return 0;
}
