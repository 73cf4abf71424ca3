// Candidate evaluation for the Section-4.3 tile-size search.
//
// Every candidate evaluation used to instantiate the full Section-3
// analysis (analyzeTile -> analyzeBlock: data-space images, overlap
// partitioning, volume sampling) from scratch — the dominant cost of the
// whole pipeline (~90% of an ME compile). A TileEvaluator fixes the search
// context once. It is the one home of the search's decisions: the
// candidate ladders, the cheap constraints (1) and (3), footprint-interval
// box pruning and the evaluation memo exist here and nowhere else, and
// both solvers (searchTileSizes, exhaustiveTileSearch) run over it.
//
// Two constructors:
//
//  - over a (block, plan, options) context, for the driver's tilesearch
//    pass (one per compile). It binds the problem size to the block's
//    rectangular loop bounds once (bindLoopBounds), so the range and
//    minimum-volume constraints are checked BEFORE any analysis runs and
//    infeasible candidates cost ~nothing. On the first candidate that
//    survives them it lazily builds a ParametricTilePlan — the Section-3
//    analysis run ONCE with tile sizes symbolic — validates it against
//    concrete probe evaluations, and from then on serves evaluations as
//    pure expression evaluation (parametric_plan.h); when the block is not
//    parametrically analyzable or a probe disagrees, it falls back to the
//    concrete per-candidate path and records the reason. It may instead
//    ADOPT a shared family plan (adoptFamilyPlan): the driver's family tier
//    keeps one size-generic ParametricTilePlan per kernel family, and a
//    per-size compile revalidates it against the same concrete probes —
//    adoption that fails a probe falls back to building a fresh plan, so a
//    family hit can never change the result of a compile;
//  - over a family plan alone, for the runtime binder's argmin
//    re-certification (driver/runtime_binder.h): Active and adopted from
//    the start, with no block, no probes and no concrete fallback. Where
//    the plan would pass probe validation at this size, it chooses the
//    tile the block evaluator would choose, with the same evaluation.
//
// Box pruning (prepareSearch): when the partition structure is already
// coarsest at a box's minimum corner, ParametricTilePlan::footprintInterval
// encloses the true footprint of every candidate in the box, and a box
// whose lower bound exceeds the memory limit is dropped from the candidate
// ladders without evaluating anything.
//
// The memo is keyed by candidate vector, so a tile probed by several
// descent sweeps, several seeds, or several solvers (the coordinate-descent
// solver and the exhaustive oracle used to certify it) is evaluated once.
// The solvers decide on feasibility and cost alone, so a plan-served
// candidate is memoized without its per-buffer terms (evaluateCost); the
// terms are filled in for the evaluation a search returns and for
// evaluate() callers.
//
// Accounting: evaluations() counts memo misses, including the probe
// candidates evaluated during plan validation; analysesRun() counts the
// candidates that paid for a *concrete* Section-3 analysis (probes and
// fallback evaluations — zero extra analyses once a parametric plan is
// active).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "tilesearch/parametric_plan.h"
#include "tilesearch/tilesearch.h"

namespace emm {

/// Value-keyed memo of tile evaluations in flat storage: keys packed back
/// to back in one vector, open addressing over entry indices. Entries live
/// in a deque, so the references handed out stay valid for the memo's
/// lifetime.
class TileMemo {
public:
  explicit TileMemo(int depth) : depth_(static_cast<size_t>(depth)), slots_(64, -1) {}

  /// The entry for `tile` (depth values), or null.
  TileEvaluation* find(const std::vector<i64>& tile);
  /// Adds an entry for a tile find() just missed.
  TileEvaluation& insert(const std::vector<i64>& tile, TileEvaluation ev);

private:
  /// The slot holding `key` (depth_ values), or the free slot it belongs in.
  size_t probe(const i64* key) const;
  void grow();

  size_t depth_;
  std::vector<i64> keys_;
  std::deque<TileEvaluation> values_;
  std::vector<int> slots_;  ///< power-of-two table of entry indices, -1 = free
};

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
  /// The evaluator keeps pointers to `block` and `plan`: binding either to
  /// a temporary is a compile error.
  TileEvaluator(ProgramBlock&&, const ParallelismPlan&, const TileSearchOptions&,
                const SmemOptions&) = delete;
  TileEvaluator(const ProgramBlock&, ParallelismPlan&&, const TileSearchOptions&,
                const SmemOptions&) = delete;
  /// Plan-only evaluator: `plan` bound at options.paramValues, Active and
  /// adopted from the start. Throws ApiError when the sizes do not bind
  /// (arity) or the candidate ladders are malformed (arity, empty ladder).
  TileEvaluator(std::shared_ptr<const ParametricTilePlan> plan,
                const TileSearchOptions& options);
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

  /// Memoized Section-4.3 evaluation of one candidate tile-size vector,
  /// per-buffer terms included. The reference stays valid for the
  /// evaluator's lifetime.
  const TileEvaluation& evaluate(const std::vector<i64>& subTile);
  /// What the solvers read: evaluate() without the per-buffer terms of a
  /// plan-served candidate (no solver decision reads them). Counts as
  /// evaluate() does.
  const TileEvaluation& evaluateCost(const std::vector<i64>& subTile);
  /// `ev`, an evaluateCost() result for `subTile`, with its per-buffer
  /// terms. Counts nothing: a search calls it for the evaluation it returns.
  TileEvaluation withTerms(const std::vector<i64>& subTile, const TileEvaluation& ev);

  int depth() const { return depth_; }
  /// Iteration range of common loop `l` at the bound parameter values.
  i64 loopRange(int l) const { return binding_.loopRange[l]; }
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
  /// at this size) or the plan-only constructor, rather than a fresh
  /// symbolic analysis.
  bool familyAdopted() const { return familyAdopted_; }
  /// Symbolic plan construction + probe-validation time, ms.
  double planBuildMillis() const { return planBuildMillis_; }
  /// Cumulative time spent evaluating memo-miss candidates, ms (0 for a
  /// plan-only evaluator, which reads no clock).
  double evalMillis() const { return evalMillis_; }

private:
  /// The candidate ladders at this size (options.candidates or geometric).
  void buildLadders();
  /// Tile-size-independent constraints (range, minimum volume). Returns an
  /// infeasible evaluation when one fails, feasible=false + empty reason
  /// when the candidate survives.
  TileEvaluation cheapCheck(const std::vector<i64>& subTile) const;
  /// The memo entry of `subTile`, evaluated on a miss (plan-served entries
  /// without their per-buffer terms).
  TileEvaluation& memoized(const std::vector<i64>& subTile);
  /// Full concrete evaluation (cheap constraints + Section-3 analysis).
  TileEvaluation evaluateConcrete(const std::vector<i64>& subTile);
  /// Builds/adopts and validates the parametric plan once (no-op after).
  void ensurePlan();
  /// Footprint-interval box pruning of the candidate ladders; requires an
  /// Active plan.
  void pruneCandidateBoxes();

  const ProgramBlock* block_ = nullptr;  ///< null for a plan-only evaluator
  const ParallelismPlan* plan_ = nullptr;
  TileSearchOptions options_;
  SmemOptions smemBase_;
  int depth_ = 0;
  SizeBinding binding_;  ///< options_.paramValues bound to the loop bounds
  std::vector<std::vector<i64>> candidates_;
  TileMemo memo_;
  std::shared_ptr<const ParametricTilePlan> paramPlan_;
  ParametricTilePlan::Scratch scratch_;  ///< for every plan evaluation
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
