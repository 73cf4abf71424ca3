#include "tilesearch/tilesearch.h"

#include "tilesearch/tile_evaluator.h"

namespace emm {

TileEvaluation evaluateTileSizes(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const std::vector<i64>& subTile,
                                 const TileSearchOptions& options, const SmemOptions& smemBase) {
  // One-shot evaluation: building a symbolic plan (one analysis + probe
  // validation) costs more than the single concrete analysis it would save.
  // Candidate ladders play no part, so an unrelated ladder arity mismatch
  // must not fail the evaluation.
  TileSearchOptions concrete = options;
  concrete.parametric = false;
  concrete.candidates.clear();
  TileEvaluator evaluator(block, plan, concrete, smemBase);
  return evaluator.evaluate(subTile);
}

namespace {

/// Grid oracle over the evaluator's (pruned) candidate ladders.
void solveExhaustive(TileEvaluator& evaluator, TileSearchResult& best) {
  const std::vector<std::vector<i64>>& cands = evaluator.candidates();
  const int depth = static_cast<int>(cands.size());
  std::vector<size_t> idx(depth, 0);
  std::vector<i64> tile(depth);
  while (true) {
    for (int l = 0; l < depth; ++l) tile[l] = cands[l][idx[l]];
    const TileEvaluation& ev = evaluator.evaluateCost(tile);
    if (ev.feasible && (!best.eval.feasible || ev.cost < best.eval.cost)) {
      best.eval = ev;
      best.subTile = tile;
    }
    int l = depth - 1;
    while (l >= 0 && ++idx[l] == cands[l].size()) idx[l--] = 0;
    if (l < 0) break;
  }
}

/// Geometric seeding + projected coordinate descent over the evaluator's
/// (pruned) candidate ladders. Deterministic: with identical ladders and
/// identical per-candidate evaluations the chosen tile is identical.
void solveDescent(TileEvaluator& evaluator, TileSearchResult& result) {
  const std::vector<std::vector<i64>>& cands = evaluator.candidates();
  const int depth = static_cast<int>(cands.size());

  std::vector<i64> tile(depth);
  auto evalPos = [&](const std::vector<size_t>& p) -> const TileEvaluation& {
    for (int l = 0; l < depth; ++l) tile[l] = cands[l][p[l]];
    return evaluator.evaluateCost(tile);
  };

  // Coordinate descent over ladder positions from one seed, in place. This
  // plays the role of the paper's relaxed continuous solve + rounding;
  // multi-start covers the non-convexity introduced by the constraint
  // boundaries. Evaluations are held by pointer: the memo's references
  // outlive the solve.
  auto descend = [&](std::vector<size_t>& pos) {
    const TileEvaluation* cur = &evalPos(pos);
    bool improved = true;
    int guard = 0;
    while (improved && guard++ < 64) {
      improved = false;
      for (int l = 0; l < depth; ++l) {
        for (int dir : {+1, -1}) {
          while (true) {
            if (dir > 0 && pos[l] + 1 >= cands[l].size()) break;
            if (dir < 0 && pos[l] == 0) break;
            pos[l] += dir;
            const TileEvaluation& ev = evalPos(pos);
            bool better = ev.feasible && (!cur->feasible || ev.cost < cur->cost);
            if (!better) {
              pos[l] -= dir;
              break;
            }
            cur = &ev;
            improved = true;
          }
        }
      }
    }
    return cur;
  };

  // Seeds, in order: midpoint, all-smallest, all-largest, then per loop the
  // midpoint with that loop at its largest and at its smallest.
  std::vector<size_t> mid(depth), hi(depth), pos(depth), bestPos;
  for (int l = 0; l < depth; ++l) {
    mid[l] = cands[l].size() / 2;
    hi[l] = cands[l].size() - 1;
  }
  const TileEvaluation* best = nullptr;
  for (int k = 0; k < 3 + 2 * depth; ++k) {
    if (k == 1) {
      pos.assign(depth, 0);
    } else {
      pos = k == 2 ? hi : mid;
      if (k >= 3) pos[(k - 3) / 2] = (k - 3) % 2 == 0 ? hi[(k - 3) / 2] : 0;
    }
    const TileEvaluation* ev = descend(pos);
    if (ev->feasible && (best == nullptr || ev->cost < best->cost)) {
      best = ev;
      bestPos = pos;
    }
  }
  if (best != nullptr) result.eval = *best;
  if (result.eval.feasible) {
    result.subTile.resize(depth);
    for (int l = 0; l < depth; ++l) result.subTile[l] = cands[l][bestPos[l]];
  }
}

/// Runs `solve` over `evaluator`: every probe goes through the evaluator's
/// value-keyed memo, so a candidate re-probed across descent sweeps, seeds,
/// or a later solver run (the exhaustive oracle certifying this answer) is
/// evaluated once. The counts are this run's own.
TileSearchResult runSolver(TileEvaluator& evaluator,
                           void (*solve)(TileEvaluator&, TileSearchResult&)) {
  evaluator.prepareSearch();  // plan adoption/build + candidate-box pruning
  const int evalsBefore = evaluator.evaluations();
  const int hitsBefore = evaluator.memoHits();
  TileSearchResult result;
  result.eval.feasible = false;
  solve(evaluator, result);
  if (result.eval.feasible) result.eval = evaluator.withTerms(result.subTile, result.eval);
  result.evaluations = evaluator.evaluations() - evalsBefore;
  result.memoHits = evaluator.memoHits() - hitsBefore;
  result.parametric = evaluator.parametricState() == TileEvaluator::ParametricState::Active;
  result.familyAdopted = evaluator.familyAdopted();
  result.prunedBoxes = evaluator.prunedBoxes();
  result.parametricReason = evaluator.fallbackReason();
  result.planBuildMillis = evaluator.planBuildMillis();
  result.evalMillis = evaluator.evalMillis();
  return result;
}

}  // namespace

TileSearchResult exhaustiveTileSearch(TileEvaluator& evaluator) {
  return runSolver(evaluator, solveExhaustive);
}

TileSearchResult searchTileSizes(TileEvaluator& evaluator) {
  return runSolver(evaluator, solveDescent);
}

TileSearchResult exhaustiveTileSearch(const ProgramBlock& block, const ParallelismPlan& plan,
                                      const TileSearchOptions& options,
                                      const SmemOptions& smemBase) {
  TileEvaluator evaluator(block, plan, options, smemBase);
  return exhaustiveTileSearch(evaluator);
}

TileSearchResult searchTileSizes(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const TileSearchOptions& options, const SmemOptions& smemBase) {
  TileEvaluator evaluator(block, plan, options, smemBase);
  return searchTileSizes(evaluator);
}

}  // namespace emm
