// Transformation framework: finding parallelism for multi-level mapping.
//
// Substitutes for the Bondhugula-et-al. framework the paper cites [7]. The
// paper consumes exactly two products of that framework: (1) the outermost
// band of permutable loops, and (2) the classification of band loops into
// space loops (communication-free, distributed across parallel units) and
// time loops. We compute both from dependence-distance signs, and provide
// the unit-skewing transformation that legalizes tiling of stencil-style
// bands (negative distance components), which is how time loops of Jacobi
// become tilable.
//
// Scope: statements must share their outer `commonDepth` loops in original
// nesting order (true for the paper's kernels and the canonical interleaved
// schedules this IR produces).
#pragma once

#include <vector>

#include "deps/dependence.h"
#include "ir/program.h"

namespace emm {

/// Per-loop dependence summary over all dependences of a block.
struct LoopDepSummary {
  int loop = 0;
  SignRange sign = SignRange::Zero;  ///< combined distance sign
  bool carriesDependence() const { return sign != SignRange::Zero; }

  static constexpr void fields(auto& v) {
    v.tag(kTagLoopDepSummary, "LoopDepSummary");
    v("loop", &LoopDepSummary::loop);
    v("sign", &LoopDepSummary::sign);
  }
};

/// Result of parallelism detection.
struct ParallelismPlan {
  /// Loops of the outermost permutable band, in nesting order.
  std::vector<int> band;
  /// Band loops that are communication-free (zero distance on every
  /// dependence): the paper's space loops.
  std::vector<int> spaceLoops;
  /// Band loops that carry dependences: executed sequentially (time loops).
  std::vector<int> timeLoops;
  /// True when dependences cross outer-level tiles, so outer-level parallel
  /// processes must synchronize (the paper's Jacobi case).
  bool needsInterBlockSync = false;
  /// Per-loop summaries for diagnostics and tests.
  std::vector<LoopDepSummary> summaries;

  static constexpr void fields(auto& v) {
    v.tag(kTagParallelismPlan, "ParallelismPlan");
    v("band", &ParallelismPlan::band);
    v("spaceLoops", &ParallelismPlan::spaceLoops);
    v("timeLoops", &ParallelismPlan::timeLoops);
    v("needsInterBlockSync", &ParallelismPlan::needsInterBlockSync);
    v("summaries", &ParallelismPlan::summaries);
  }
};

/// Number of outer loops every statement of the block shares.
int commonLoopDepth(const ProgramBlock& block);

/// Distance-sign summary for each of the first `depth` common loops.
std::vector<LoopDepSummary> summarizeLoops(const ProgramBlock& block,
                                           const std::vector<Dependence>& deps, int depth);

/// Detects the outermost permutable band and classifies space/time loops
/// following Section 4.1: communication-free loops in the band become space
/// loops; if there are none, all but the last band loop become space loops
/// (pipeline parallelism). Requires all common-loop distance signs to be
/// non-negative (apply skewing first if not).
ParallelismPlan findParallelism(const ProgramBlock& block, const std::vector<Dependence>& deps);

/// Number of leading common loops a tile may split below their full
/// extent: the permutable band, extended by each following loop on which
/// every dependence that is not a reduction dependence
/// (isReductionDependence) has a non-negative distance. Tiling a loop past
/// that point would interchange its tile loop with inner point loops that
/// a non-reduction dependence orders (the tile search gives such a loop
/// its full extent only). Builds the block's dependences only when the
/// band is shorter than the common depth; `plan` is findParallelism's for
/// `block`.
int reductionTilableDepth(const ProgramBlock& block, const ParallelismPlan& plan);

/// Applies the unit skew  loop_target += factor * loop_source  to every
/// statement (domains, access functions; schedules stay canonical since the
/// new iterator replaces the old one in place). Returns the transformed
/// block. Legality (making distance signs non-negative) is the caller's
/// concern; findSkewFactor below searches for a legalizing factor.
ProgramBlock skewLoop(const ProgramBlock& block, int targetLoop, int sourceLoop, i64 factor);

/// Searches factors 1..maxFactor such that after skewing `targetLoop` by
/// `sourceLoop`, every dependence distance on `targetLoop` is non-negative.
/// Returns 0 if none is needed (already non-negative) and -1 if none works.
/// Only `targetLoop`'s distances are tested, and a candidate is rejected at
/// its first dependence (in computeDependences order) whose distance is
/// not non-negative, before the rest are built.
i64 findSkewFactor(const ProgramBlock& block, int targetLoop, int sourceLoop, i64 maxFactor = 4);

/// Shifts one statement's iterator: new iterator z = old + offset (the
/// statement's instances move `offset` slots later along `loop` relative to
/// other statements). Domains and access functions are rewritten; schedules
/// stay canonical. Together with skewing this spans the enabling
/// transformations the paper's toolchain [7] applies to stencil codes
/// (e.g. two-statement Jacobi needs S2 shifted by +1 and a skew factor 2).
ProgramBlock shiftStatementLoop(const ProgramBlock& block, int stmtIdx, int loop, i64 offset);

/// One-call driver: skews loops as needed to make the outer band permutable,
/// then detects parallelism. This mirrors how the paper's toolchain composes
/// [7] with [27]-style enabling transformations. Each repair candidate is
/// checked as findSkewFactor does; the dependences of the accepted one are
/// kept, so every block version's dependences are built once and the
/// final findParallelism reuses them.
struct TransformResult {
  ProgramBlock block;  ///< possibly skewed
  ParallelismPlan plan;
  std::vector<std::pair<int, std::pair<int, i64>>> appliedSkews;  ///< target -> (source, factor)
};
TransformResult makeTilable(const ProgramBlock& block);
/// Same, starting from `deps`, which must be computeDependences(block) (the
/// deps pass's products): the block's dependences are not rebuilt.
TransformResult makeTilable(const ProgramBlock& block, const std::vector<Dependence>& deps);

}  // namespace emm
