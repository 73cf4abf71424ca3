// CompileOptions: every knob of the pipeline in one struct.
//
// Consolidates the per-stage option structs (SmemOptions, TileSearchOptions)
// plus the tiling and codegen configuration that tools/examples used to
// assemble by hand. The per-stage structs remain the stage-local interfaces
// of the analysis passes; the conversion methods below derive them, so a
// caller sets each fact (problem sizes, memory limit, ...) exactly once. The
// emitters (codegen/emit.h) read the codegen fields directly.
#pragma once

#include <string>
#include <vector>

#include "smem/data_manage.h"
#include "tilesearch/tilesearch.h"

namespace emm {

/// Pipeline shape selection.
enum class PipelineMode {
  /// Full flow: deps -> transform -> tilesearch -> tiling -> smem -> codegen.
  /// Falls back to block-level scratchpad analysis when the band needs
  /// inter-block synchronization (the paper's Jacobi case).
  Auto,
  /// Section-3 only: scratchpad planning + data-movement codegen on the
  /// block as written, no transformation or tiling (the Figure-1 flow).
  ScratchpadOnly,
};
constexpr PipelineMode enumMax(PipelineMode) { return PipelineMode::ScratchpadOnly; }

/// Tile-size search solver selection (Section 4.3).
enum class TileSearchMode {
  CoordinateDescent,  ///< geometric seeding + projected descent (default)
  Exhaustive,         ///< full candidate-grid oracle (ablation/tests)
};
constexpr TileSearchMode enumMax(TileSearchMode) { return TileSearchMode::Exhaustive; }

struct CompileOptions {
  // ---- problem binding ----
  /// Concrete values of the block's parameters (problem sizes). Used for
  /// Algorithm-1 volume sampling, tile-size search, and CUDA extent folding.
  IntVec paramValues;

  // ---- pipeline shape ----
  PipelineMode mode = PipelineMode::Auto;

  // ---- scratchpad framework (Section 3) ----
  double delta = 0.30;  ///< Algorithm-1 constant-reuse threshold
  PartitionMode partitionMode = PartitionMode::MaximalDisjoint;
  /// Cell-style targets must stage every reference through the local store;
  /// GPU-style targets may leave low-reuse data in global memory (false).
  bool stageEverything = false;
  bool optimizeCopySets = false;  ///< Section 3.1.4 live-in reduction

  // ---- tiling (Section 4) ----
  /// Sub-tile sizes per common loop. Empty: run the tile-size search.
  std::vector<i64> subTile;
  /// Block-tile sizes per space loop. Empty: 2x the space loop's sub-tile.
  std::vector<i64> blockTile;
  /// Thread-tile sizes per space loop. Empty: all 1.
  std::vector<i64> threadTile;
  bool hoistCopies = true;   ///< Section 4.2 copy placement
  bool useScratchpad = true; ///< false: the paper's "GPU w/o smem" baseline

  // ---- tile-size search (Section 4.3) ----
  TileSearchMode searchMode = TileSearchMode::CoordinateDescent;
  i64 memLimitBytes = 16 * 1024;  ///< scratchpad capacity (Mup)
  i64 elementBytes = 4;           ///< bytes per element (paper: float)
  i64 innerProcs = 32;            ///< P, inner-level processes
  double syncCost = 32;           ///< S, cycles per process per barrier
  double transferCost = 4;        ///< L, cycles per element
  /// Candidate tile sizes per loop; empty = geometric ladder.
  std::vector<std::vector<i64>> tileCandidates;
  /// Build the Section-3 cost model once with tile sizes symbolic and
  /// evaluate candidates as pure expression evaluation (falls back to the
  /// concrete per-candidate analysis, with a diagnostic, when the block is
  /// not parametrically analyzable).
  bool parametricTileAnalysis = true;

  // ---- scratchpad layout (bank-conflict-aware packing) ----
  /// Pack local buffers into a banked layout: bank-aligned base offsets and
  /// innermost-dimension padding chosen so the padded row pitch is coprime
  /// with the bank count (unit- and tile-strided warp accesses then hit
  /// distinct banks). Padding never changes semantics, only allocation.
  bool packBuffers = true;
  /// Bank descriptor of the target scratchpad (gpusim::Machine mirrors
  /// these). banks <= 1 disables conflict padding; packing still assigns
  /// offsets.
  i64 smemBanks = 16;
  i64 smemBankWidthBytes = 4;

  // ---- codegen ----
  std::string backendName = "c";  ///< codegen target: c, cuda or cell
  std::string kernelName = "emmap_kernel";
  std::string elementType = "float";
  /// Leading parameters bound at emission (CUDA extent folding);
  /// -1: all of paramValues (tile origins are never part of paramValues).
  int numBoundParams = -1;
  /// Cell backend: emit the tag-rotated double-buffered DMA pipeline
  /// (prologue / steady-state prefetch / epilogue drain). The tile search
  /// and layout planner then certify tiles against HALF the scratchpad
  /// budget, so the rotated (doubled) move-in buffers fit the full store;
  /// the emitter re-checks the doubled footprint and falls back to the
  /// synchronous schedule (with a diagnostic comment) when it still does
  /// not fit.
  bool doubleBuffer = false;
  /// Size-generic emission (runtime-size-bound codegen): problem sizes and
  /// global-array strides stay runtime kernel arguments, buffer geometry is
  /// folded in as guarded closed-form expressions, and a warmed family
  /// serves every in-envelope size from ONE cached artifact via
  /// RuntimeBinder — no re-emission. Off reproduces the historical
  /// size-baked artifacts (and the bind-and-emit warm path).
  bool runtimeSizeArgs = true;

  // ---- derived per-stage views ----
  /// The scratchpad bytes one buffer instance may use: memLimitBytes, or
  /// half of it under doubleBuffer so the rotated move-in buffers fit the
  /// full store. The tile search and the layout planner certify against it.
  i64 scratchpadBudgetBytes() const { return doubleBuffer ? memLimitBytes / 2 : memLimitBytes; }
  SmemOptions smemOptions() const;
  TileSearchOptions tileSearchOptions() const;

  static constexpr void fields(auto& v) {
    v.tag(kTagCompileOptions, "CompileOptions");
    v("paramValues", &CompileOptions::paramValues);
    v("mode", &CompileOptions::mode);
    v("delta", &CompileOptions::delta);
    v("partitionMode", &CompileOptions::partitionMode);
    v("stageEverything", &CompileOptions::stageEverything);
    v("optimizeCopySets", &CompileOptions::optimizeCopySets);
    v("subTile", &CompileOptions::subTile);
    v("blockTile", &CompileOptions::blockTile);
    v("threadTile", &CompileOptions::threadTile);
    v("hoistCopies", &CompileOptions::hoistCopies);
    v("useScratchpad", &CompileOptions::useScratchpad);
    v("searchMode", &CompileOptions::searchMode);
    v("memLimitBytes", &CompileOptions::memLimitBytes);
    v("elementBytes", &CompileOptions::elementBytes);
    v("innerProcs", &CompileOptions::innerProcs);
    v("syncCost", &CompileOptions::syncCost);
    v("transferCost", &CompileOptions::transferCost);
    v("tileCandidates", &CompileOptions::tileCandidates);
    v("parametricTileAnalysis", &CompileOptions::parametricTileAnalysis);
    v("packBuffers", &CompileOptions::packBuffers);
    v("smemBanks", &CompileOptions::smemBanks);
    v("smemBankWidthBytes", &CompileOptions::smemBankWidthBytes);
    v("backendName", &CompileOptions::backendName);
    v("kernelName", &CompileOptions::kernelName);
    v("elementType", &CompileOptions::elementType);
    v("numBoundParams", &CompileOptions::numBoundParams);
    v("doubleBuffer", &CompileOptions::doubleBuffer);
    v("runtimeSizeArgs", &CompileOptions::runtimeSizeArgs);
  }
};

}  // namespace emm
