#include "tilesearch/tilesearch.h"

#include <algorithm>
#include <cstdint>
#include <deque>

#include "tilesearch/tile_evaluator.h"

namespace emm {

TileEvaluation evaluateTileSizes(const ProgramBlock& block, const ParallelismPlan& plan,
                                 const std::vector<i64>& subTile,
                                 const TileSearchOptions& options, const SmemOptions& smemBase) {
  // One-shot evaluation: building a symbolic plan (one analysis + probe
  // validation) costs more than the single concrete analysis it would save.
  TileSearchOptions concrete = options;
  concrete.parametric = false;
  TileEvaluator evaluator(block, plan, concrete, smemBase);
  return evaluator.evaluate(subTile);
}

namespace {

/// Copies the evaluator's parametric/timing bookkeeping into a result.
void recordEvaluatorStats(const TileEvaluator& evaluator, TileSearchResult& result) {
  result.parametric = evaluator.parametricState() == TileEvaluator::ParametricState::Active;
  result.familyAdopted = evaluator.familyAdopted();
  result.prunedBoxes = evaluator.prunedBoxes();
  result.parametricReason = evaluator.fallbackReason();
  result.planBuildMillis = evaluator.planBuildMillis();
  result.evalMillis = evaluator.evalMillis();
}

/// Grid-oracle core over abstract candidate ladders. `evalTile` must return
/// a reference that stays valid for the whole solve (both callers memoize).
template <typename EvalFn>
void solveExhaustive(const std::vector<std::vector<i64>>& cands, EvalFn&& evalTile,
                     TileSearchResult& best) {
  const int depth = static_cast<int>(cands.size());
  std::vector<size_t> idx(depth, 0);
  while (true) {
    std::vector<i64> tile(depth);
    for (int l = 0; l < depth; ++l) tile[l] = cands[l][idx[l]];
    const TileEvaluation& ev = evalTile(tile);
    if (ev.feasible && (!best.eval.feasible || ev.cost < best.eval.cost)) {
      best.eval = ev;
      best.subTile = tile;
    }
    int l = depth - 1;
    while (l >= 0 && ++idx[l] == cands[l].size()) idx[l--] = 0;
    if (l < 0) break;
  }
}

/// Fast-solver core (geometric seeding + projected coordinate descent) over
/// abstract candidate ladders. Deterministic: with identical ladders and
/// identical per-candidate evaluations the chosen tile is identical, which
/// is what makes the plan-only re-run below a faithful argmin check.
template <typename EvalFn>
void solveDescent(const std::vector<std::vector<i64>>& cands, EvalFn&& evalTile,
                  TileSearchResult& result) {
  const int depth = static_cast<int>(cands.size());

  std::vector<i64> tile(depth);
  auto evalPos = [&](const std::vector<size_t>& p) -> const TileEvaluation& {
    for (int l = 0; l < depth; ++l) tile[l] = cands[l][p[l]];
    return evalTile(tile);
  };

  // Coordinate descent over ladder positions from one seed. This plays the
  // role of the paper's relaxed continuous solve + rounding; multi-start
  // covers the non-convexity introduced by the constraint boundaries.
  // Evaluations are held by pointer: evalTile's references outlive the solve.
  auto descend = [&](std::vector<size_t> pos) {
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
    return std::make_pair(std::move(pos), cur);
  };

  // Seeds: midpoint, all-smallest, all-largest, and per-loop extremes.
  std::vector<std::vector<size_t>> seeds;
  std::vector<size_t> mid(depth), lo(depth, 0), hi(depth);
  for (int l = 0; l < depth; ++l) {
    mid[l] = cands[l].size() / 2;
    hi[l] = cands[l].size() - 1;
  }
  seeds.push_back(mid);
  seeds.push_back(lo);
  seeds.push_back(hi);
  for (int l = 0; l < depth; ++l) {
    std::vector<size_t> s = mid;
    s[l] = hi[l];
    seeds.push_back(s);
    s[l] = 0;
    seeds.push_back(s);
  }

  std::vector<size_t> bestPos;
  const TileEvaluation* best = nullptr;
  for (const std::vector<size_t>& seed : seeds) {
    auto [pos, ev] = descend(seed);
    if (ev->feasible && (best == nullptr || ev->cost < best->cost)) {
      best = ev;
      bestPos = std::move(pos);
    }
  }
  if (best != nullptr) result.eval = *best;
  if (result.eval.feasible) {
    result.subTile.resize(depth);
    for (int l = 0; l < depth; ++l) result.subTile[l] = cands[l][bestPos[l]];
  }
}

/// Value-keyed memo of tile evaluations in flat storage: keys packed
/// back to back in one vector, open addressing over entry indices. Entries
/// live in a deque, so the references handed to the solvers stay valid for
/// the whole solve.
class TileMemo {
public:
  explicit TileMemo(int depth) : depth_(static_cast<size_t>(depth)), slots_(64, -1) {}

  const TileEvaluation* find(const std::vector<i64>& tile) const {
    const int e = slots_[probe(tile.data())];
    return e < 0 ? nullptr : &values_[static_cast<size_t>(e)];
  }

  /// Adds an entry for a tile find() just missed.
  const TileEvaluation& insert(const std::vector<i64>& tile, TileEvaluation ev) {
    if (2 * (values_.size() + 1) > slots_.size()) grow();
    slots_[probe(tile.data())] = static_cast<int>(values_.size());
    keys_.insert(keys_.end(), tile.begin(), tile.end());
    values_.push_back(std::move(ev));
    return values_.back();
  }

private:
  static std::uint64_t hash(const i64* key, size_t n) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < n; ++i)
      h = (h ^ static_cast<std::uint64_t>(key[i])) * 0x100000001b3ULL;
    return h ^ (h >> 32);
  }
  /// The slot holding `key` (depth_ values), or the free slot it belongs in.
  size_t probe(const i64* key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash(key, depth_) & mask;; s = (s + 1) & mask) {
      const int e = slots_[s];
      if (e < 0 || std::equal(key, key + depth_, keys_.begin() + static_cast<size_t>(e) * depth_))
        return s;
    }
  }
  void grow() {
    slots_.assign(slots_.size() * 2, -1);
    for (size_t e = 0; e < values_.size(); ++e)
      slots_[probe(keys_.data() + e * depth_)] = static_cast<int>(e);
  }

  size_t depth_;
  std::vector<i64> keys_;
  std::deque<TileEvaluation> values_;
  std::vector<int> slots_;  ///< power-of-two table of entry indices, -1 = free
};

}  // namespace

TileSearchResult exhaustiveTileSearch(TileEvaluator& evaluator) {
  evaluator.prepareSearch();  // plan adoption/build + candidate-box pruning
  const int evalsBefore = evaluator.evaluations();
  const int hitsBefore = evaluator.memoHits();

  TileSearchResult best;
  best.eval.feasible = false;
  solveExhaustive(evaluator.candidates(),
                  [&](const std::vector<i64>& tile) -> const TileEvaluation& {
                    return evaluator.evaluate(tile);
                  },
                  best);
  best.evaluations = evaluator.evaluations() - evalsBefore;
  best.memoHits = evaluator.memoHits() - hitsBefore;
  recordEvaluatorStats(evaluator, best);
  return best;
}

TileSearchResult searchTileSizes(TileEvaluator& evaluator) {
  evaluator.prepareSearch();  // plan adoption/build + candidate-box pruning
  const int evalsBefore = evaluator.evaluations();
  const int hitsBefore = evaluator.memoHits();

  TileSearchResult result;
  result.eval.feasible = false;
  // All probes go through the evaluator's value-keyed memo, so the same
  // candidate re-probed across descent sweeps, seeds, or a later solver run
  // (e.g. the exhaustive oracle certifying this answer) is analyzed once.
  solveDescent(evaluator.candidates(),
               [&](const std::vector<i64>& tile) -> const TileEvaluation& {
                 return evaluator.evaluate(tile);
               },
               result);
  result.evaluations = evaluator.evaluations() - evalsBefore;
  result.memoHits = evaluator.memoHits() - hitsBefore;
  recordEvaluatorStats(evaluator, result);
  return result;
}

TileSearchResult searchTileSizesWithPlan(const ParametricTilePlan& plan,
                                         const ParametricTilePlan::SizeBinding& binding,
                                         const TileSearchOptions& options, bool exhaustive) {
  const int depth = plan.depth();
  EMM_REQUIRE(static_cast<int>(binding.loopRange.size()) == depth,
              "size binding arity mismatch");

  // Candidate ladders, exactly as the TileEvaluator constructor builds them
  // at this problem size: the given ladders, or the geometric ladder
  // {1, 2, 4, ...} clipped to each loop's range.
  std::vector<std::vector<i64>> cands;
  if (options.candidates.empty()) {
    for (int l = 0; l < depth; ++l) {
      std::vector<i64> ladder;
      for (i64 t = 1; t < binding.loopRange[l]; t *= 2) ladder.push_back(t);
      ladder.push_back(std::max<i64>(binding.loopRange[l], 1));
      cands.push_back(std::move(ladder));
    }
  } else {
    EMM_REQUIRE(static_cast<int>(options.candidates.size()) == depth,
                "candidate arity mismatch");
    cands = options.candidates;
  }
  for (const std::vector<i64>& ladder : cands)
    EMM_REQUIRE(!ladder.empty(), "empty candidate ladder");

  // Footprint-interval box pruning, mirroring the evaluator (so the solver
  // sees the same ladders and walks the same descent paths). See
  // TileEvaluator::pruneCandidateBoxes for the soundness argument.
  ParametricTilePlan::Scratch scratch;
  int pruned = 0;
  bool sorted = true;
  for (const std::vector<i64>& ladder : cands)
    sorted = sorted && std::is_sorted(ladder.begin(), ladder.end());
  if (sorted) {
    for (int l = 0; l < depth; ++l) {
      std::vector<i64>& ladder = cands[l];
      size_t cut = ladder.size();
      for (size_t k = 1; k < ladder.size(); ++k) {
        std::vector<SymInterval> box(depth);
        std::vector<i64> minCorner(depth);
        for (int j = 0; j < depth; ++j) {
          const i64 blo = j == l ? ladder[k] : cands[j].front();
          const i64 bhi = j == l ? ladder.back() : cands[j].back();
          box[j] = {blo, bhi};
          minCorner[j] = blo;
        }
        if (!plan.coarsestStructureAt(binding, minCorner, scratch)) continue;
        if (plan.footprintInterval(binding, box, scratch).lo > options.memLimitElems) {
          cut = k;
          break;
        }
      }
      if (cut < ladder.size()) {
        pruned += static_cast<int>(ladder.size() - cut);
        ladder.resize(cut);
      }
    }
  }

  // Memoized plan-backed evaluation with the evaluator's cheap range and
  // minimum-volume constraints in front. Probes run without their
  // per-buffer terms in the search's scratch; only the returned evaluation
  // gets them, below.
  TileMemo memo(depth);
  int evaluations = 0;
  int memoHits = 0;
  auto evalTile = [&](const std::vector<i64>& tile) -> const TileEvaluation& {
    if (const TileEvaluation* hit = memo.find(tile)) {
      ++memoHits;
      return *hit;
    }
    ++evaluations;
    TileEvaluation ev;
    for (int l = 0; l < depth && ev.reason.empty(); ++l)
      if (tile[l] < 1 || tile[l] > std::max<i64>(binding.loopRange[l], 1))
        ev.reason = "tile size out of loop range";
    if (ev.reason.empty()) {
      i64 tileVolume = 1;
      for (int l = 0; l < depth; ++l) tileVolume = mulChecked(tileVolume, tile[l]);
      if (tileVolume < options.innerProcs)
        ev.reason = "tile smaller than inner-level process count";
    }
    if (ev.reason.empty()) ev = plan.evaluate(binding, tile, scratch, /*withTerms=*/false);
    return memo.insert(tile, std::move(ev));
  };

  TileSearchResult result;
  result.eval.feasible = false;
  if (exhaustive)
    solveExhaustive(cands, evalTile, result);
  else
    solveDescent(cands, evalTile, result);
  if (result.eval.feasible)
    result.eval = plan.evaluate(binding, result.subTile, scratch, /*withTerms=*/true);
  result.evaluations = evaluations;
  result.memoHits = memoHits;
  result.parametric = true;
  result.familyAdopted = true;
  result.prunedBoxes = pruned;
  return result;
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
