// Ablation A2: hoisting of data-movement code (Section 4.2) on/off.
//
// For the ME kernel, the out-array buffer does not depend on the k/l tile
// origins, so its copies hoist above those loops. This ablation compares
// the Section-4.3 cost, the interpreter-measured copy counts, and the
// simulated time with and without hoisting — both variants driven through
// emm::Compiler.
#include <cstdio>

#include "bench_util.h"
#include "driver/compiler.h"
#include "ir/interp.h"
#include "kernels/me_pipeline.h"

using namespace emm;

int main() {
  bench::header("Ablation A2: data-movement hoisting (Section 4.2) on/off",
                "Section 4.2 placement optimization");

  // Cost-model view at paper scale: with explicit tile sizes the driver's
  // tilesearch pass evaluates the Section-4.3 objective instead of
  // searching, which is exactly the number this ablation compares.
  {
    auto evaluate = [](bool hoist) {
      return Compiler(buildMeBlock(8192, 1024, 16))
          .parameters({8192, 1024, 16})
          .memoryLimitBytes(4096 * 4)
          .innerProcs(32)
          .tileSizes({32, 16, 8, 8})
          .hoistCopies(hoist)
          .skipPass("tiling")
          .skipPass("smem")
          .skipPass("codegen")
          .compile();
    };
    CompileResult on = evaluate(true);
    CompileResult off = evaluate(false);
    std::printf("  cost model (tile 32,16,8,8):  hoisted %.3g  unhoisted %.3g  (%.2fx)\n",
                on.search.eval.cost, off.search.eval.cost,
                off.search.eval.cost / on.search.eval.cost);
    for (const auto& t : on.search.eval.terms)
      std::printf("    hoisted   %-8s occurrences %-8lld level %d\n", t.name.c_str(),
                  t.occurrences, t.hoistLevel);
    for (const auto& t : off.search.eval.terms)
      std::printf("    unhoisted %-8s occurrences %-8lld level %d\n", t.name.c_str(),
                  t.occurrences, t.hoistLevel);
  }

  // Interpreter view at a small size (real executed copies).
  {
    MeConfig c;
    c.ni = 32;
    c.nj = 16;
    c.w = 8;
    c.numBlocks = 4;
    c.numThreads = 32;
    c.subTile = {8, 8, 4, 4};
    const CompileResult on = buildMePipeline(c);
    c.hoistCopies = false;
    const CompileResult off = buildMePipeline(c);

    auto run = [&](const CompileResult& p) {
      ArrayStore store(p.input->arrays);
      store.fillAllPattern(5);
      return executeCodeUnit(p.kernel->unit, p.kernel->unitParams(c.params()), store);
    };
    MemTrace tOn = run(on), tOff = run(off);
    std::printf("\n  interpreter (32x16, w=8): copies %lld vs %lld, global reads %lld vs %lld\n",
                tOn.copyElements, tOff.copyElements, tOn.globalReads, tOff.globalReads);
  }
  std::printf("\n  reading: hoisting removes the out-buffer copies from the k/l sub-tile\n"
              "  loops, cutting copy executions and the P*S sync term\n");
  return 0;
}
