// Candidate evaluation for the Section-4.3 tile-size search.
//
// Every candidate evaluation used to instantiate the full Section-3
// analysis (analyzeTile -> analyzeBlock: data-space images, overlap
// partitioning, volume sampling) from scratch — the dominant cost of the
// whole pipeline (~90% of an ME compile). A TileEvaluator fixes the
// (block, plan, options) context once and then:
//
//  - computes the rectangular loop bounds a single time and shares them
//    across all candidates (they do not depend on the tile sizes), so the
//    range and minimum-volume constraints are checked BEFORE any analysis
//    runs and infeasible candidates cost ~nothing,
//  - lazily builds a ParametricTilePlan — the Section-3 analysis run ONCE
//    with tile sizes symbolic — on the first candidate that survives the
//    cheap constraints, validates it against concrete probe evaluations,
//    and from then on serves evaluations as pure expression evaluation
//    (parametric_plan.h); when the block is not parametrically analyzable
//    or a probe disagrees, it falls back to the concrete per-candidate
//    path and records the reason,
//  - may ADOPT a shared family plan (adoptFamilyPlan) instead of building
//    one: the driver's family tier keeps one size-generic ParametricTilePlan
//    per kernel family, and a per-size compile binds it (bindSizes) and
//    revalidates it against the same concrete probes — adoption that fails
//    a probe falls back to building a fresh plan, so a family hit can never
//    change the result of a compile,
//  - prunes whole tile-size boxes before a solver seeds candidates
//    (prepareSearch): when the partition structure is already coarsest at a
//    box's minimum corner, ParametricTilePlan::footprintInterval encloses
//    the true footprint of every candidate in the box, and a box whose
//    lower bound exceeds the memory limit is dropped from the candidate
//    ladders without evaluating anything,
//  - memoizes full evaluations by candidate vector, so a tile probed by
//    several descent sweeps, several seeds, or several solvers (the
//    coordinate-descent solver and the exhaustive oracle used to certify
//    it) is analyzed exactly once.
//
// Both searchTileSizes and exhaustiveTileSearch route through a shared
// TileEvaluator; the driver's tilesearch pass holds one per compile.
//
// Accounting: evaluations() counts memo misses, including the probe
// candidates evaluated during plan validation; analysesRun() counts the
// candidates that paid for a *concrete* Section-3 analysis (probes and
// fallback evaluations — zero extra analyses once a parametric plan is
// active).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "tilesearch/parametric_plan.h"
#include "tilesearch/tilesearch.h"

namespace emm {

class TileEvaluator {
public:
  /// Parametric-plan status. Pending = no candidate has survived the cheap
  /// constraints yet, so no plan has been attempted.
  enum class ParametricState { Pending, Active, Fallback };

  /// Binds the evaluation context. `block` and `plan` must outlive the
  /// evaluator. Throws ApiError on arity mismatches (candidates vs depth,
  /// paramValues vs block parameters).
  TileEvaluator(const ProgramBlock& block, const ParallelismPlan& plan,
                const TileSearchOptions& options, const SmemOptions& smemBase);
  ~TileEvaluator();

  /// Offers a size-generic family plan to adopt instead of building one.
  /// Must be called before the first evaluate()/prepareSearch(). The plan
  /// is revalidated against concrete probe evaluations at THIS evaluator's
  /// problem size; a failed revalidation silently builds a fresh plan, so
  /// adoption never changes any evaluation result.
  void adoptFamilyPlan(std::shared_ptr<const ParametricTilePlan> plan);

  /// Runs plan construction/adoption and candidate-box pruning once, before
  /// a solver reads candidates(). Idempotent; called by both solvers.
  void prepareSearch();

  /// Memoized Section-4.3 evaluation of one candidate tile-size vector.
  /// The reference stays valid for the evaluator's lifetime.
  const TileEvaluation& evaluate(const std::vector<i64>& subTile);

  int depth() const { return depth_; }
  /// Iteration range of common loop `l` at the bound parameter values.
  i64 loopRange(int l) const { return loopRange_[l]; }
  /// Candidate ladder per loop: options.candidates when given, otherwise the
  /// geometric ladder {1, 2, 4, ...} clipped to each loop's range. After
  /// prepareSearch() the ladders exclude pruned boxes.
  const std::vector<std::vector<i64>>& candidates() const { return candidates_; }

  const TileSearchOptions& options() const { return options_; }

  /// Number of candidates actually evaluated (memo misses).
  int evaluations() const { return evaluations_; }
  /// Number of evaluate() calls answered from the memo.
  int memoHits() const { return memoHits_; }
  /// Number of evaluations that survived the cheap constraints and paid for
  /// a concrete Section-3 analysis (<= evaluations(); stays at the probe
  /// count while a parametric plan serves evaluations).
  int analysesRun() const { return analysesRun_; }
  /// Candidate ladder entries removed by footprint-interval box pruning.
  int prunedBoxes() const { return prunedBoxes_; }

  /// Current parametric-plan status (never forces a build).
  ParametricState parametricState() const { return state_; }
  /// Why the fallback is active ("" while Pending/Active).
  const std::string& fallbackReason() const { return fallbackReason_; }
  /// The active plan, or nullptr (Pending or Fallback).
  const ParametricTilePlan* parametricPlan() const { return paramPlan_.get(); }
  /// The active plan as a shareable handle (for the driver's family tier).
  std::shared_ptr<const ParametricTilePlan> sharedPlan() const { return paramPlan_; }
  /// True when the active plan came from adoptFamilyPlan (probe-validated
  /// at this size) rather than a fresh symbolic analysis.
  bool familyAdopted() const { return familyAdopted_; }
  /// Symbolic plan construction + probe-validation time, ms.
  double planBuildMillis() const { return planBuildMillis_; }
  /// Cumulative time spent evaluating memo-miss candidates, ms.
  double evalMillis() const { return evalMillis_; }

private:
  /// Tile-size-independent constraints (range, minimum volume). Returns an
  /// infeasible evaluation when one fails, feasible=false + empty reason
  /// when the candidate survives.
  TileEvaluation cheapCheck(const std::vector<i64>& subTile) const;
  /// Full concrete evaluation (cheap constraints + Section-3 analysis).
  TileEvaluation evaluateConcrete(const std::vector<i64>& subTile);
  /// Builds/adopts and validates the parametric plan once (no-op after).
  void ensurePlan();
  /// Footprint-interval box pruning of the candidate ladders; requires an
  /// Active plan.
  void pruneCandidateBoxes();

  const ProgramBlock& block_;
  const ParallelismPlan& plan_;
  TileSearchOptions options_;
  SmemOptions smemBase_;
  int depth_ = 0;
  std::vector<DimBounds> loopBounds_;  ///< tile-size independent, shared
  std::vector<i64> loopRange_;
  std::vector<std::vector<i64>> candidates_;
  std::map<std::vector<i64>, TileEvaluation> memo_;
  std::shared_ptr<const ParametricTilePlan> paramPlan_;
  ParametricTilePlan::SizeBinding binding_;  ///< paramPlan_ bound at our size
  ParametricTilePlan::Scratch scratch_;       ///< for every plan evaluation
  std::shared_ptr<const ParametricTilePlan> familyCandidate_;
  ParametricState state_ = ParametricState::Pending;
  std::string fallbackReason_;
  bool familyAdopted_ = false;
  bool prepared_ = false;
  double planBuildMillis_ = 0;
  double evalMillis_ = 0;
  int evaluations_ = 0;
  int memoHits_ = 0;
  int analysesRun_ = 0;
  int prunedBoxes_ = 0;
};

/// Fast solver (geometric seeding + projected coordinate descent) over a
/// caller-provided evaluator, sharing its memo with other solvers.
TileSearchResult searchTileSizes(TileEvaluator& evaluator);

/// Grid oracle over a caller-provided evaluator.
TileSearchResult exhaustiveTileSearch(TileEvaluator& evaluator);

}  // namespace emm
