// Figure 6: execution time of the Mpeg4 ME kernel for varying tile sizes.
//
// Paper setup: 32 blocks, 256 threads, W = 16, problem sizes 8M..64M; the
// Section-4.3 search picked (32, 16, 16, 16), which beat the alternatives.
// This driver replays the paper's tile-size legend, compiles ME at each
// tile and size, prints the simulated time of the work countCodeUnit counts
// in the compiled unit, and runs the actual tile-size search. It exits 1
// unless the search's pick is the fastest feasible tile at every size.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "gpusim/machine.h"
#include "kernels/me_pipeline.h"

using namespace emm;

int main() {
  bench::header("Figure 6: Mpeg4 ME execution time for varying tile sizes",
                "Baskaran et al. PPoPP'08, Fig. 6");
  Machine m = Machine::geforce8800gtx();

  std::vector<std::vector<i64>> tiles = {{8, 8, 16, 16},   {16, 8, 16, 16}, {16, 16, 16, 16},
                                         {32, 16, 16, 16}, {32, 32, 16, 16}, {64, 16, 16, 16}};
  std::vector<i64> sizes = {8 << 20, 16 << 20, 32 << 20, 64 << 20};

  std::printf("  %-16s", "tile (i,j,k,l)");
  for (i64 s : sizes) std::printf(" %11s", bench::sizeLabel(s).c_str());
  std::printf("   (ms per problem size)\n");

  std::vector<double> bestMs(sizes.size(), 1e300);
  std::vector<int> bestTile(sizes.size(), -1);
  for (size_t t = 0; t < tiles.size(); ++t) {
    std::printf("  %2lld,%2lld,%2lld,%2lld      ", tiles[t][0], tiles[t][1], tiles[t][2],
                tiles[t][3]);
    for (size_t s = 0; s < sizes.size(); ++s) {
      MeConfig c;
      c.nj = 1024;
      c.ni = sizes[s] / c.nj;
      c.w = 16;
      c.numBlocks = 32;
      c.numThreads = 256;
      c.subTile = tiles[t];
      SimResult r = simulateKernel(m, *buildMePipeline(c).kernel, c.params(), c.numThreads);
      if (!r.feasible) {
        std::printf(" %11s", "infeasible");
        continue;
      }
      std::printf(" %11.1f", r.milliseconds);
      if (r.milliseconds < bestMs[s]) {
        bestMs[s] = r.milliseconds;
        bestTile[s] = static_cast<int>(t);
      }
    }
    std::printf("\n");
  }
  for (size_t s = 0; s < sizes.size(); ++s)
    if (bestTile[s] >= 0)
      std::printf("  best at %-6s: tile (%lld,%lld,%lld,%lld)\n",
                  bench::sizeLabel(sizes[s]).c_str(), tiles[bestTile[s]][0],
                  tiles[bestTile[s]][1], tiles[bestTile[s]][2], tiles[bestTile[s]][3]);

  // The real tile-size search over the same candidate grid (Section 4.3),
  // through the unified driver (codegen stages skipped: only the search
  // outcome is needed here).
  std::vector<i64> picked;
  {
    Compiler compiler(buildMeBlock(8192, 1024, 16));
    compiler.parameters({8192, 1024, 16})
        .memoryLimitBytes(16 * 1024)  // 16 KB of 4-byte elements
        .innerProcs(32)               // warp size = Plow (Section 5)
        .tileCandidates({{8, 16, 32, 64}, {8, 16, 32}, {16}, {16}})
        .skipPass("tiling")
        .skipPass("smem")
        .skipPass("codegen");
    compiler.opts().syncCost = Machine::geforce8800gtx().syncBaseCycles;
    compiler.opts().transferCost = 4;
    CompileResult r = compiler.compile();
    if (r.ok && r.search.eval.feasible) picked = r.search.subTile;
    if (!picked.empty())
      std::printf("\n  tile-size search (Sec 4.3) picks (%lld,%lld,%lld,%lld), footprint %lld "
                  "elems, %d evaluations\n",
                  r.search.subTile[0], r.search.subTile[1], r.search.subTile[2],
                  r.search.subTile[3], r.search.eval.footprint, r.search.evaluations);
  }
  std::printf("  paper reports: (32,16,16,16) chosen by the search performs best\n");
  for (size_t s = 0; s < sizes.size(); ++s)
    bench::require(bestTile[s] >= 0 && tiles[bestTile[s]] == picked,
                   "the searched tile is not the fastest feasible tile at every size");
  return 0;
}
