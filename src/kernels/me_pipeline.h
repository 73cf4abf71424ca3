// The Motion Estimation kernel compiled with the paper's Section-6 mapping.
//
// buildMePipeline runs the real pipeline (block construction -> dependence
// analysis -> parallelism detection -> multi-level tiling with the
// Section-3 scratchpad framework) at given sub-tile sizes, with block tiles
// that divide the i range among the thread blocks. Tests execute the
// resulting unit through the interpreter against the plain reference; the
// figure benches count it with countCodeUnit at the paper's problem sizes
// and price the counts on the simulated machine.
#pragma once

#include "driver/compiler.h"
#include "kernels/blocks.h"

namespace emm {

/// Launch/tiling configuration for ME, mirroring Section 6's setup.
struct MeConfig {
  i64 ni = 64, nj = 64, w = 16;  ///< frame dims and search-window size
  i64 numBlocks = 32;            ///< thread blocks (paper: 32)
  i64 numThreads = 256;          ///< threads per block (paper: 256)
  std::vector<i64> subTile = {32, 16, 16, 16};  ///< (i, j, k, l) sub-tile
  bool useScratchpad = true;
  bool hoistCopies = true;

  IntVec params() const { return {ni, nj, w}; }
};

/// Compiles ME at `config`: the result's kernel is the mapped Figure-3 unit
/// over the parameters config.params(). Block tiles divide the i range
/// across `numBlocks` (the paper divides the problem equally among blocks).
CompileResult buildMePipeline(const MeConfig& config);

}  // namespace emm
