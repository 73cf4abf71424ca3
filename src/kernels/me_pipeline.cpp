#include "kernels/me_pipeline.h"

namespace emm {

CompileResult buildMePipeline(const MeConfig& config) {
  // Space loops are (i, j); divide the i range equally across blocks (the
  // paper distributes tiles equally, boundary tiles excepted), and the j
  // range too when the i range alone yields fewer tiles than blocks. Block
  // tiles are rounded up to sub-tile multiples so sub-tiles nest exactly.
  auto blockTile = [](i64 extent, i64 parts, i64 subTile) {
    const i64 t = std::max<i64>(1, ceilDiv(extent, parts));
    return mulChecked(ceilDiv(t, subTile), subTile);
  };
  const i64 blockTileI = blockTile(config.ni, config.numBlocks, config.subTile[0]);
  const i64 tilesI = ceilDiv(config.ni, blockTileI);
  const i64 blockTileJ =
      blockTile(config.nj, ceilDiv(config.numBlocks, tilesI), config.subTile[1]);

  // Threads cover the (i, j) sub-tile: distribute j across threads, i in
  // chunks of 1 (a thread-tile of 1 x 1 point per thread pass).
  CompileResult r = Compiler(buildMeBlock(config.ni, config.nj, config.w))
                        .parameters(config.params())
                        .tileSizes(config.subTile)
                        .blockTileSizes({blockTileI, blockTileJ})
                        .threadTileSizes({1, 1})
                        .useScratchpad(config.useScratchpad)
                        .hoistCopies(config.hoistCopies)
                        .skipPass("tilesearch")  // sizes are given; no need to re-evaluate
                        .skipPass("codegen")     // callers render the unit themselves
                        .compile();
  EMM_REQUIRE(r.ok, "ME pipeline failed: " + r.firstError());
  EMM_REQUIRE(r.plan.spaceLoops.size() == 2, "ME should expose two space loops");
  EMM_REQUIRE(r.kernel.has_value(), "ME pipeline produced no tiled kernel");
  return r;
}

}  // namespace emm
