// Automatic data management in scratchpad memories (paper Section 3).
//
// Given a program block (iteration spaces + affine access functions), this
// module:
//   1. computes the data space touched by every reference (image of the
//      iteration polytope under the access function),
//   2. partitions each array's data spaces into maximal non-overlapping
//      groups (connected components of the overlap graph) — Section 3.1,
//   3. runs the reuse-benefit test (Algorithm 1: order-of-magnitude reuse
//      when rank(F) < dim(iteration space); otherwise pairwise intersection
//      volume against the delta threshold, default 30%),
//   4. allocates one local buffer per beneficial group, sized by parametric
//      per-dimension bounds of the group's convex union (Algorithm 2; our
//      FM-based bound extraction substitutes for PIP),
//   5. rewrites access functions to target local buffers (F'(y) - g),
//   6. generates move-in / move-out code scanning the unions of data spaces
//      so each element moves exactly once (Section 3.1.3; our disjoint
//      union scanner substitutes for CLooG),
//   7. optionally shrinks copy sets using flow-dependence information
//      (Section 3.1.4, which the paper outlines as future work),
//   8. reports upper bounds on moved volume for the tile-size cost model.
//
// Dimensions of the original array whose accessed extent is a single point
// are kept as size-1 buffer dimensions rather than dropped; storage cost is
// identical and access-function rewriting stays uniform: a buffer has its
// array's rank, so a rewritten access keeps one index per dimension.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/ast.h"
#include "ir/program.h"
#include "poly/polyhedron.h"

namespace emm {

struct Dependence;

/// How references of one array are grouped into local buffers.
///
/// The paper's Section 3.1 text describes maximal disjoint partitioning
/// (connected components of the overlap graph), but its Figure 1 allocates a
/// single buffer per array spanning the convex union of ALL of the array's
/// data spaces (LA[19][10] covers two disjoint row bands). Both behaviors
/// are provided; MaximalDisjoint is the default, since disjoint buffers hold
/// no storage for the gap between two bands, and PerArrayUnion reproduces
/// the figure exactly.
enum class PartitionMode { MaximalDisjoint, PerArrayUnion };
constexpr PartitionMode enumMax(PartitionMode) { return PartitionMode::PerArrayUnion; }

/// Precomputed buffer-bound candidates for one partition, instantiated from
/// a parametric tile plan. A hint applies when a partition has the same
/// array and exactly the same (stmt, access) reference set;
/// planBufferGeometry then uses the pre-verified candidate pools instead of
/// re-deriving them via per-reference Fourier-Motzkin, and runs the normal
/// minimize-extent selection over them, so the chosen geometry (including
/// tie-breaks against the constant fallbacks) is identical to the derived
/// one.
struct GeometryHint {
  int arrayId = -1;
  std::vector<std::pair<int, int>> refs;  ///< sorted (stmt, access) pairs
  /// Per array dim: valid lower/upper bound candidates in derivation pool
  /// order, already verified against every reference of the partition.
  std::vector<std::vector<AffExpr>> lower;
  std::vector<std::vector<AffExpr>> upper;

  static constexpr void fields(auto& v) {
    v.tag(kTagGeometryHint, "GeometryHint");
    v("arrayId", &GeometryHint::arrayId);
    v("refs", &GeometryHint::refs);
    v("lower", &GeometryHint::lower);
    v("upper", &GeometryHint::upper);
  }
};

/// Options controlling the framework.
struct SmemOptions {
  /// Constant-reuse threshold of Algorithm 1 (fraction of total volume that
  /// pairwise overlaps must exceed). The paper fixes 30%.
  double delta = 0.30;
  /// Reference grouping (see PartitionMode).
  PartitionMode partitionMode = PartitionMode::MaximalDisjoint;
  /// GPU-style targets can leave low-reuse data in global memory; Cell-style
  /// targets must copy everything (set to false).
  bool onlyBeneficial = true;
  /// Enables the Section 3.1.4 dependence-based live-in reduction.
  bool optimizeCopySets = false;
  /// Arrays (by id) whose values are dead after the block: move-out is
  /// skipped for them when optimizeCopySets is set.
  std::vector<int> deadAfterBlock;
  /// Parameters (by name) that vary per block instance (e.g. tile origins).
  /// Buffer *sizes* must not depend on these; offsets may.
  std::vector<std::string> blockLocalParams;
  /// Known constraints on parameters (0 set variables, nparam parameters),
  /// used when verifying candidate bounds. Empty = no context.
  std::optional<Polyhedron> paramContext;
  /// Concrete parameter binding for Algorithm 1's volume measurements.
  IntVec sampleParams;
  /// Enumeration cap for volume measurements.
  i64 volumeCap = 4'000'000;
  /// Buffer-geometry hints from a parametric tile plan (see GeometryHint).
  /// Unmatched or invalid hints are ignored and bounds are derived as usual.
  Cow<std::vector<GeometryHint>> geometryHints;

  static constexpr void fields(auto& v) {
    v.tag(kTagSmemOptions, "SmemOptions");
    v("delta", &SmemOptions::delta);
    v("partitionMode", &SmemOptions::partitionMode);
    v("onlyBeneficial", &SmemOptions::onlyBeneficial);
    v("optimizeCopySets", &SmemOptions::optimizeCopySets);
    v("deadAfterBlock", &SmemOptions::deadAfterBlock);
    v("blockLocalParams", &SmemOptions::blockLocalParams);
    v("paramContext", &SmemOptions::paramContext);
    v("sampleParams", &SmemOptions::sampleParams);
    v("volumeCap", &SmemOptions::volumeCap);
    v("geometryHints", &SmemOptions::geometryHints);
  }
};

/// One reference of the analyzed array.
struct RefSummary {
  int stmt = -1;
  int access = -1;
  bool isWrite = false;
  int rank = 0;     ///< rank of the access function's iterator part
  int iterDim = 0;  ///< dimensionality of the statement's iteration space
  Polyhedron dataSpace;  ///< dim = array ndim

  /// Algorithm 1's order-of-magnitude reuse condition (1): rank < dim.
  bool hasOrderReuse() const { return rank < iterDim; }

  static constexpr void fields(auto& v) {
    v.tag(kTagRefSummary, "RefSummary");
    v("stmt", &RefSummary::stmt);
    v("access", &RefSummary::access);
    v("isWrite", &RefSummary::isWrite);
    v("rank", &RefSummary::rank);
    v("iterDim", &RefSummary::iterDim);
    v("dataSpace", &RefSummary::dataSpace);
  }
};

/// A maximal non-overlapping group of data spaces of one array, plus the
/// local buffer planned for it.
struct PartitionPlan {
  int arrayId = -1;
  std::vector<RefSummary> refs;
  bool orderReuse = false;        ///< Algorithm 1 line 2-4
  double constReuseFraction = 0;  ///< measured pairwise-overlap fraction
  bool beneficial = false;        ///< Algorithm 1 verdict

  // Buffer geometry (filled when a buffer is allocated).
  bool hasBuffer = false;
  std::string bufferName;
  std::vector<AffExpr> offset;      ///< per array dim, over params
  std::vector<BoundExpr> sizeExpr;  ///< per array dim, over non-block-local params

  PolySet readSpaces() const;
  PolySet writeSpaces() const;
  PolySet allSpaces() const;

  static constexpr void fields(auto& v) {
    v.tag(kTagPartitionPlan, "PartitionPlan");
    v("arrayId", &PartitionPlan::arrayId);
    v("refs", &PartitionPlan::refs);
    v("orderReuse", &PartitionPlan::orderReuse);
    v("constReuseFraction", &PartitionPlan::constReuseFraction);
    v("beneficial", &PartitionPlan::beneficial);
    v("hasBuffer", &PartitionPlan::hasBuffer);
    v("bufferName", &PartitionPlan::bufferName);
    v("offset", &PartitionPlan::offset);
    v("sizeExpr", &PartitionPlan::sizeExpr);
  }
};

/// Full analysis result for a block.
struct DataPlan {
  const ProgramBlock* block = nullptr;
  SmemOptions options;
  Cow<std::vector<PartitionPlan>> partitions;
  /// partitionOf[stmt][access] = partition index, or -1 when the reference
  /// stays in global memory.
  std::vector<std::vector<int>> partitionOf;

  /// Paper Section 3.1.3: upper bound on elements moved in for partition
  /// `p`, computed by summing bounding-box sizes of maximal non-overlapping
  /// subsets of the read (resp. write) spaces, at a concrete binding.
  i64 moveInVolumeBound(int p, const IntVec& paramValues) const;
  i64 moveOutVolumeBound(int p, const IntVec& paramValues) const;
  /// Buffer footprint in elements at a concrete binding (product of size
  /// expressions), 0 for partitions without buffers.
  i64 bufferFootprint(int p, const IntVec& paramValues) const;

  static constexpr void fields(auto& v) {
    v.tag(kTagDataPlan, "DataPlan");
    v.skip("block", "back-pointer, rebound by the owner");
    v("options", &DataPlan::options);
    v("partitions", &DataPlan::partitions);
    v("partitionOf", &DataPlan::partitionOf);
  }
};

/// Steps 1-4: analysis and buffer planning. Does not generate code.
DataPlan analyzeBlock(const ProgramBlock& block, const SmemOptions& options);

/// Steps 5-7 packaged as an executable unit:
///   move-in loops; the block's original computation (statements rewritten
///   to hit local buffers); move-out loops.
/// Statement order inside the computation follows the original schedules.
CodeUnit buildScratchpadUnit(const ProgramBlock& block, const SmemOptions& options);

/// Same, but returns the plan too (for inspection and the tiling driver).
CodeUnit buildScratchpadUnit(const ProgramBlock& block, const SmemOptions& options,
                             DataPlan& planOut);

/// The dependences buildCopyCode reads: those of plan.block when
/// plan.options.optimizeCopySets is set (the live-in copy sets), else none.
/// Computed once per unit and passed to each partition's buildCopyCode.
std::vector<Dependence> copySetDependences(const DataPlan& plan);

/// Generates only the move-in (direction=true) or move-out (false) code for
/// one partition, as Copy loops. Exposed for the tiling driver, which places
/// these fragments at hoisted positions (Section 4.2). `copySetDeps` is
/// copySetDependences(plan).
AstPtr buildCopyCode(const DataPlan& plan, int partition, bool moveIn,
                     const std::vector<Dependence>& copySetDeps);

// ---- Bound-candidate machinery, exposed for the parametric tile plan
// (which re-runs the same candidate generation once, symbolically). ----

/// Intersects `space` with the parameter-only context constraints.
Polyhedron spaceWithContext(const Polyhedron& space, const std::optional<Polyhedron>& context);

/// True when the affine form `e` (over parameters) bounds every point of
/// `space` (under the optional context) from below (lower=true) or above.
bool boundIsValidForSpace(const Polyhedron& space, const std::optional<Polyhedron>& context,
                          int dim, const AffExpr& e, const std::vector<std::string>& paramNames,
                          bool lower);

/// Converts a DivExpr over [params, 1] to an AffExpr; nullopt when the
/// divisor is not 1 (such forms are kept out of candidate pools).
std::optional<AffExpr> divToAffine(const DivExpr& d, const std::vector<std::string>& paramNames);

}  // namespace emm
