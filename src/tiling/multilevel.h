// Multi-level tiling for two-level parallel architectures (paper Section 4).
//
// Produces the structure of the paper's Figure 3 from the structure of
// Figure 2:
//   FORALL block-tile loops  (space loops distributed over outer-level units)
//     FOR   sub-tile loops   (extra sequential level that bounds scratchpad
//                             footprint; all tiled loops)
//       <move-in code>                         -- placed per Section 4.2
//       FORALL thread-tile loops (space loops over inner-level units)
//         FOR point loops
//           statement instances (rewritten to hit scratchpad buffers)
//       <move-out code>
//
// The scratchpad framework of Section 3 is applied to the sub-tile viewed
// as a program block whose parameters are the original parameters plus the
// tile-origin iterators; buffer sizes are then tile-size expressions and the
// move-in/move-out code is parameterized by the origins, exactly as in the
// paper. Hoisting (Section 4.2) moves copy code above sub-tile loops that
// are redundant for a buffer (no data space depends on their origin).
//
// Scope: statements must share all `commonLoopDepth` loops and loop bounds
// must be parameter-only (rectangular bands) — the shape of Figure 2. The
// Jacobi pipeline uses the concurrent-start mapping in src/kernels instead
// (the paper likewise defers to [27] for that kernel).
#pragma once

#include <memory>

#include "smem/data_manage.h"
#include "support/deep_ptr.h"
#include "transform/transform.h"

namespace emm {

/// The members of TileAnalysis (below).
struct TileAnalysisMembers {
  DeepPtr<ProgramBlock> tileBlock;
  DataPlan plan;  ///< plan.block points at tileBlock; empty partitions when scratchpad off
  std::vector<std::string> originParams;  ///< one per common loop
  /// Symbolic tile-size parameter names (one per common loop) when the
  /// analysis ran in parametric mode (analyzeTileSymbolic); empty otherwise.
  std::vector<std::string> tileParams;
  Cow<std::vector<DimBounds>> loopBounds;  ///< parameter-only bounds per loop
  std::vector<i64> subTile;               ///< empty in parametric mode
  int depth = 0;
  /// Per partition index: sub-tile nesting level (0..depth) the copy code is
  /// placed at; `depth` = innermost. Only meaningful for buffered partitions.
  std::vector<int> hoistLevel;

  void rebindBlocks(const TileAnalysisMembers&) { plan.block = tileBlock.get(); }

  static constexpr void fields(auto& v) {
    v.tag(kTagTileAnalysis, "TileAnalysis");
    v("tileBlock", &TileAnalysisMembers::tileBlock);
    v("plan", &TileAnalysisMembers::plan);
    v("originParams", &TileAnalysisMembers::originParams);
    v("tileParams", &TileAnalysisMembers::tileParams);
    v("loopBounds", &TileAnalysisMembers::loopBounds);
    v("subTile", &TileAnalysisMembers::subTile);
    v("depth", &TileAnalysisMembers::depth);
    v("hoistLevel", &TileAnalysisMembers::hoistLevel);
  }
};

/// Tile-level analysis shared by code generation and the tile-size search:
/// the sub-tile program block (origins as parameters), its scratchpad plan,
/// and the hoisted placement level of every buffer's copy code. A copy's
/// plan points at the copy's own tile block.
using TileAnalysis = RebindOnCopy<TileAnalysisMembers>;

/// Runs the Section-3 analysis on the sub-tile block induced by `subTile`
/// sizes and computes copy-code placement levels (Section 4.2; pass
/// hoist=false for the ablation that pins copies innermost).
TileAnalysis analyzeTile(const ProgramBlock& block, const ParallelismPlan& plan,
                         const std::vector<i64>& subTile, const SmemOptions& smemBase,
                         bool hoist = true, bool useScratchpad = true);

/// Parametric variant: the sub-tile box is written with one fresh *symbolic*
/// parameter per loop (TileAnalysis::tileParams, constrained >= 1 in the
/// analysis context) instead of concrete sizes, so the whole Section-3
/// analysis — data-space images, overlap partitions, buffer geometry, hoist
/// levels — is derived once for all tile sizes. `tileSample` (one value per
/// loop) extends the Algorithm-1/geometry sample binding the way concrete
/// sizes would. The ParametricTilePlan layer compiles the result into
/// closed-form evaluators.
TileAnalysis analyzeTileSymbolic(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const std::vector<i64>& tileSample, const SmemOptions& smemBase,
                                 bool hoist = true);

/// The Section-4.2 dependence test behind copy-code hoisting: true when a
/// constraint of `dataSpace` (a reference's data space over a tile block)
/// couples the data to parameter `param`, a tile origin. A constraint with
/// no set-variable coefficient is a pure parameter residue of the
/// projection (e.g. o2 + 1 >= 0 combined out of the tile box); it does not
/// make the data space depend on that origin.
bool dataSpaceDependsOn(const Polyhedron& dataSpace, int param);

/// Per-loop parameter-only bounds shared by all statements (the rectangular
/// band shape the tiler requires); identical to TileAnalysis::loopBounds but
/// computed without running the scratchpad analysis. Tile-size independent,
/// so the tile-size search computes them once and shares them across all
/// candidate evaluations. Throws ApiError on non-rectangular blocks.
std::vector<DimBounds> rectangularLoopBounds(const ProgramBlock& block, int depth);

/// One concrete problem size bound to a rectangular band: everything the
/// Section-4.3 cost model reads from the sizes besides the formulas. A
/// handful of DivExpr evaluations, so a kernel family binds a new size
/// without re-running any analysis.
struct SizeBinding {
  /// [sizes, origins]: the block parameters extended by one tile origin per
  /// loop, pinned at the loop's lower bound — the binding at which the
  /// footprint and volume bounds of a TileAnalysis are evaluated.
  IntVec ext;
  /// Iteration range per loop (0 when the loop is empty or unbounded); a
  /// tile size t runs ceilDiv(range, t) tiling-loop iterations.
  std::vector<i64> loopRange;

  static constexpr void fields(auto& v) {
    v.tag(kTagSizeBinding, "SizeBinding");
    v("ext", &SizeBinding::ext);
    v("loopRange", &SizeBinding::loopRange);
  }
};

/// Binds `sizes` (one value per block parameter) to `bounds`, the per-loop
/// parameter-only bounds of rectangularLoopBounds / TileAnalysis::loopBounds.
SizeBinding bindLoopBounds(const std::vector<DimBounds>& bounds, const IntVec& sizes);

/// Concrete tile sizes. Ordering follows loop index order of the block.
struct TileConfig {
  /// Per common loop: sub-tile (memory-level) size; must be >= 1.
  std::vector<i64> subTile;
  /// Per space loop (in plan.spaceLoops order): block-tile size.
  std::vector<i64> blockTile;
  /// Per space loop: thread-tile size.
  std::vector<i64> threadTile;
  /// Section 4.2 hoisting of copy code out of redundant loops.
  bool hoistCopies = true;
  /// When false, no scratchpad framework is applied: all accesses stay in
  /// global memory (the paper's "GPU w/o scratchpad" baseline).
  bool useScratchpad = true;
};

/// The members of TiledKernel (below).
struct TiledKernelMembers {
  TileAnalysis analysis;  ///< owns the tile block; unit.source points at it
  CodeUnit unit;
  std::vector<int> spaceLoops;
  std::vector<i64> blockTileSizes;  ///< per space loop
  Cow<std::vector<std::pair<BoundExpr, BoundExpr>>> spaceLoopRange;  ///< lb/ub per space loop

  /// Number of outer-level tiles (= thread blocks launched) at a binding.
  i64 numBlockTiles(const IntVec& paramValues) const;
  /// Scratchpad elements needed per block instance.
  i64 footprintPerBlock(const IntVec& paramValues) const;
  /// `paramValues` extended by the tile-origin parameters, zero-filled: the
  /// binding executeCodeUnit and countCodeUnit take for `unit`.
  IntVec unitParams(const IntVec& paramValues) const;

  void rebindBlocks(const TiledKernelMembers&) { unit.source = analysis.tileBlock.get(); }
  /// Write access to the tile block: detaches it from the copies sharing it
  /// (DeepPtr::mut), which moves it, and rebinds unit.source and the
  /// analysis plan's block at the private copy.
  ProgramBlock& mutTileBlock() {
    ProgramBlock& block = analysis.tileBlock.mut();
    analysis.rebindBlocks(analysis);
    rebindBlocks(*this);
    return block;
  }

  static constexpr void fields(auto& v) {
    v.tag(kTagTiledKernel, "TiledKernel");
    v("analysis", &TiledKernelMembers::analysis);
    v("unit", &TiledKernelMembers::unit);
    v("spaceLoops", &TiledKernelMembers::spaceLoops);
    v("blockTileSizes", &TiledKernelMembers::blockTileSizes);
    v("spaceLoopRange", &TiledKernelMembers::spaceLoopRange);
  }
};

/// A fully mapped kernel: executable CodeUnit plus the analysis artifacts.
/// A copy's unit points at the copy's own tile block.
using TiledKernel = RebindOnCopy<TiledKernelMembers>;

/// Builds the multi-level tiled kernel (Figure 3).
TiledKernel buildTiledKernel(const ProgramBlock& block, const ParallelismPlan& plan,
                             const TileConfig& config, const SmemOptions& smemBase);

}  // namespace emm
