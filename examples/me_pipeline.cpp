// Motion-estimation pipeline: the full compiler stack on the paper's main
// kernel, at a size small enough to execute through the interpreter.
//
// Steps shown:
//   1. polyhedral block construction (Figure-2 loop nest),
//   2. one emm::Compiler invocation covering dependence analysis,
//      parallelism detection (space loops i, j), tile-size search under the
//      scratchpad limit (Section 4.3), and per-pass timings,
//   3. the mapped ME kernel (multi-level tiling + scratchpad management,
//      Figure 3) built over the same driver,
//   4. execution + verification against the plain reference,
//   5. simulated time on the 8800 GTX-like machine, from the work counted
//      in the compiled unit at the paper's frame size.
//
//   ./examples/me_pipeline [--size=NI,NJ,W]
#include <cstdio>

#include "driver/compiler.h"
#include "gpusim/machine.h"
#include "ir/interp.h"
#include "kernels/me_pipeline.h"
#include "support/cli.h"

using namespace emm;

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  std::vector<i64> sizes = args.intList("size");
  if (!args.validate("usage: me_pipeline [--size=NI,NJ,W]\n")) return 2;
  const i64 ni = sizes.size() > 0 ? sizes[0] : 64;
  const i64 nj = sizes.size() > 1 ? sizes[1] : 32;
  const i64 w = sizes.size() > 2 ? sizes[2] : 8;

  // 1-2. Block + the full pipeline through the driver.
  CompileResult r = Compiler(buildMeBlock(ni, nj, w))
                        .parameters({ni, nj, w})
                        .memoryLimitBytes(2048 * 4)
                        .innerProcs(32)
                        .tileCandidates({{8, 16, 32}, {8, 16, 32}, {4, 8}, {4, 8}})
                        .skipPass("tiling")  // the mapped kernel below does the tiling
                        .skipPass("smem")
                        .skipPass("codegen")
                        .compile();
  if (!r.ok) {
    std::fprintf(stderr, "%s", renderDiagnostics(r.diagnostics).c_str());
    return 1;
  }
  std::printf("space loops:");
  for (int l : r.plan.spaceLoops) std::printf(" %d", l);
  std::printf("  (inter-block sync needed: %s)\n", r.plan.needsInterBlockSync ? "yes" : "no");
  std::printf("tile search: (%lld,%lld,%lld,%lld), cost %.0f, footprint %lld elems, "
              "%d evaluations\n",
              r.search.subTile[0], r.search.subTile[1], r.search.subTile[2],
              r.search.subTile[3], r.search.eval.cost, r.search.eval.footprint,
              r.search.evaluations);
  std::printf("pipeline timing:");
  for (const PassTiming& t : r.timings)
    if (t.ran) std::printf(" %s %.2fms", t.pass.c_str(), t.millis);
  std::printf("\n");

  // 3. The mapped ME kernel (block-tile layout per Section 6) over the same
  //    driver, with the searched sub-tile.
  MeConfig config;
  config.ni = ni;
  config.nj = nj;
  config.w = w;
  config.numBlocks = 8;
  config.numThreads = 64;
  config.subTile = r.search.subTile;
  const CompileResult mapped = buildMePipeline(config);
  const TiledKernel& kernel = *mapped.kernel;
  std::printf("\nbuffers per block (%lld scratchpad elements):\n",
              kernel.footprintPerBlock(config.params()));
  for (const LocalBuffer& b : kernel.unit.localBuffers)
    std::printf("  %s (%d-d)\n", b.name.c_str(), b.ndim);

  // 4. Execute + verify.
  ArrayStore store(mapped.input->arrays);
  store.fillAllPattern(11);
  std::vector<double> cur = store.raw(0), ref = store.raw(1), out = store.raw(2);
  MemTrace trace = executeCodeUnit(kernel.unit, kernel.unitParams(config.params()), store);
  referenceMe(cur, ref, out, ni, nj, w);
  double worst = 0;
  for (i64 i = 0; i < ni; ++i)
    for (i64 j = 0; j < nj; ++j)
      worst = std::max(worst, std::abs(store.get(2, {i, j}) - out[i * nj + j]));
  std::printf("\nexecuted %lld statement instances; global traffic %lld elems; "
              "verification max diff %g (%s)\n",
              trace.stmtInstances, trace.globalReads + trace.globalWrites, worst,
              worst == 0 ? "OK" : "MISMATCH");

  // 5. Simulated performance at paper scale: the compiled unit's work,
  //    counted without executing it.
  MeConfig paperScale;
  paperScale.ni = 8192;
  paperScale.nj = 1024;
  paperScale.w = 16;
  paperScale.subTile = {32, 16, 16, 16};
  Machine m = Machine::geforce8800gtx();
  auto simulate = [&](const MeConfig& c) {
    return simulateKernel(m, *buildMePipeline(c).kernel, c.params(), c.numThreads);
  };
  SimResult sim = simulate(paperScale);
  paperScale.useScratchpad = false;
  SimResult simNo = simulate(paperScale);
  std::printf("simulated 8M-point frame: %.0f ms with scratchpad, %.0f ms without (%.1fx)\n",
              sim.milliseconds, simNo.milliseconds, simNo.milliseconds / sim.milliseconds);
  return worst == 0 ? 0 : 1;
}
