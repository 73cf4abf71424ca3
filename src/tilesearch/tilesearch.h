// Tile-size search (paper Section 4.3).
//
// Finds sub-tile sizes (t_1,...,t_m) minimizing the data-movement cost
//   C = sum_k N_k * ((P*S) + V_k*L/P)
// where, per local buffer k, N_k is the number of copy-code executions
// (trip counts of the tiling loops above its hoisted placement), V_k the
// per-execution volume bound (Section 3.1.3), P the number of inner-level
// processes, S the per-process synchronization cost, and L the per-element
// transfer cost. Constraints:
//   0 < t_i <= N_i,  sum_k M_k(t) <= Mup,  prod t_i >= P.
//
// The evaluator instantiates the Section-3 analysis for each candidate, so
// footprints, hoist levels and volumes are the real ones the code generator
// would produce — not closed-form approximations. Both solvers run over a
// TileEvaluator (tile_evaluator.h), the one home of the candidate ladders,
// the cheap constraints, box pruning and the evaluation memo: a candidate
// probed twice — across descent sweeps, seeds, or solvers — is analyzed
// once. The compile's search and the runtime binder's re-search at a new
// size are the same solver over two kinds of evaluator.
//
// Two solvers are provided:
//  - searchTileSizes: geometric seeding + projected coordinate descent with
//    integral rounding (the role SQP-plus-rounding plays in the paper),
//  - exhaustiveTileSearch: grid oracle used by tests and the ablation bench
//    to certify the fast solver's answer.
#pragma once

#include <functional>
#include <vector>

#include "tiling/multilevel.h"

namespace emm {

struct TileSearchOptions {
  i64 memLimitElems = 4096;  ///< Mup, in elements
  i64 innerProcs = 32;       ///< P (>= Plow, the warp size on the GPU)
  double syncCost = 32;      ///< S, cycles per process per occurrence
  double transferCost = 4;   ///< L, cycles per element
  /// Concrete binding of the block's parameters (problem sizes).
  IntVec paramValues;
  /// Candidate tile sizes per loop for seeding/exhaustive search. When empty
  /// a geometric ladder {1,2,4,...} clipped to the loop range is used.
  std::vector<std::vector<i64>> candidates;
  bool hoistCopies = true;
  /// Run the Section-3 analysis once with tile sizes symbolic and evaluate
  /// candidates as pure expression evaluation (see parametric_plan.h). The
  /// evaluator validates the symbolic plan against concrete probe
  /// evaluations and falls back to the per-candidate path — with a
  /// diagnostic reason — when the block is not parametrically analyzable.
  bool parametric = true;

  bool operator==(const TileSearchOptions&) const = default;

  static constexpr void fields(auto& v) {
    v.tag(kTagTileSearchOptions, "TileSearchOptions");
    v("memLimitElems", &TileSearchOptions::memLimitElems);
    v("innerProcs", &TileSearchOptions::innerProcs);
    v("syncCost", &TileSearchOptions::syncCost);
    v("transferCost", &TileSearchOptions::transferCost);
    v("paramValues", &TileSearchOptions::paramValues);
    v("candidates", &TileSearchOptions::candidates);
    v("hoistCopies", &TileSearchOptions::hoistCopies);
    v("parametric", &TileSearchOptions::parametric);
  }
};

/// One buffer's Section-4.3 data-movement cost term,
///   occ * (P*S + V*L/P)  (0 when nothing moves).
/// Shared by the concrete and the parametric evaluator: probe validation
/// compares costs EXACTLY, so both paths must combine these quantities
/// with literally the same floating-point expression.
inline double bufferCostTerm(i64 occurrences, i64 volume, double P, double syncCost,
                             double transferCost) {
  return volume > 0 ? static_cast<double>(occurrences) *
                          (P * syncCost + static_cast<double>(volume) * transferCost / P)
                    : 0.0;
}

struct TileEvaluation {
  bool feasible = false;
  std::string reason;
  double cost = 0;
  i64 footprint = 0;
  /// Per-buffer terms for diagnostics: (occurrences, volume in, volume out).
  struct BufferTerm {
    std::string name;
    i64 occurrences = 0;
    i64 volumeIn = 0;
    i64 volumeOut = 0;
    int hoistLevel = 0;

    bool operator==(const BufferTerm&) const = default;

    static constexpr void fields(auto& v) {
      v.tag(kTagBufferTerm, "BufferTerm");
      v("name", &BufferTerm::name);
      v("occurrences", &BufferTerm::occurrences);
      v("volumeIn", &BufferTerm::volumeIn);
      v("volumeOut", &BufferTerm::volumeOut);
      v("hoistLevel", &BufferTerm::hoistLevel);
    }
  };
  std::vector<BufferTerm> terms;

  /// Field-by-field equivalence, used by probe validation. Costs compare
  /// exactly: both evaluators combine identical integers with identical
  /// floating-point expressions, so any difference is a real model mismatch.
  bool operator==(const TileEvaluation&) const = default;

  static constexpr void fields(auto& v) {
    v.tag(kTagTileEvaluation, "TileEvaluation");
    v("feasible", &TileEvaluation::feasible);
    v("reason", &TileEvaluation::reason);
    v("cost", &TileEvaluation::cost);
    v("footprint", &TileEvaluation::footprint);
    v("terms", &TileEvaluation::terms);
  }
};

struct TileSearchResult {
  std::vector<i64> subTile;
  TileEvaluation eval;
  int evaluations = 0;  ///< candidates actually analyzed (memo misses)
  int memoHits = 0;     ///< probes answered from the shared evaluation memo
  /// True when candidates were evaluated through a ParametricTilePlan
  /// (Section-3 analysis run once, symbolically).
  bool parametric = false;
  /// True when that plan was adopted from the driver's family tier (built
  /// once for the kernel family, bound at this problem size and, in a
  /// compile, revalidated against concrete probes) instead of being rebuilt.
  bool familyAdopted = false;
  /// Candidate ladder entries discarded by footprint-interval box pruning
  /// before the solver ran (each entry is a whole box of the grid).
  int prunedBoxes = 0;
  /// Why the concrete fallback was used (empty when parametric).
  std::string parametricReason;
  /// Symbolic plan construction time, including probe validation, in ms.
  double planBuildMillis = 0;
  /// Cumulative candidate evaluation time (memo misses only), in ms.
  double evalMillis = 0;

  static constexpr void fields(auto& v) {
    v.tag(kTagTileSearchResult, "TileSearchResult");
    v("subTile", &TileSearchResult::subTile);
    v("eval", &TileSearchResult::eval);
    v("evaluations", &TileSearchResult::evaluations);
    v("memoHits", &TileSearchResult::memoHits);
    v("parametric", &TileSearchResult::parametric);
    v("familyAdopted", &TileSearchResult::familyAdopted);
    v("prunedBoxes", &TileSearchResult::prunedBoxes);
    v("parametricReason", &TileSearchResult::parametricReason);
    v("planBuildMillis", &TileSearchResult::planBuildMillis);
    v("evalMillis", &TileSearchResult::evalMillis);
  }
};

/// Evaluates the Section-4.3 objective for one concrete tile-size vector.
TileEvaluation evaluateTileSizes(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const std::vector<i64>& subTile,
                                 const TileSearchOptions& options, const SmemOptions& smemBase);

/// Fast solver: geometric seeding + projected coordinate descent.
TileSearchResult searchTileSizes(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const TileSearchOptions& options, const SmemOptions& smemBase);

/// Oracle: evaluates the full candidate grid.
TileSearchResult exhaustiveTileSearch(const ProgramBlock& block, const ParallelismPlan& plan,
                                      const TileSearchOptions& options,
                                      const SmemOptions& smemBase);

}  // namespace emm
