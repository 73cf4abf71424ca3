#include "tilesearch/tile_evaluator.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace emm {

namespace {

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string joinTile(const std::vector<i64>& tile) {
  std::string out;
  for (size_t i = 0; i < tile.size(); ++i) out += (i ? "," : "") + std::to_string(tile[i]);
  return out;
}

std::uint64_t hashTile(const i64* key, size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) h = (h ^ static_cast<std::uint64_t>(key[i])) * 0x100000001b3ULL;
  return h ^ (h >> 32);
}

}  // namespace

struct TileMemo::Storage {
  static constexpr size_t kChunk = 64;  ///< entries per chunk
  std::vector<i64> keys;
  std::vector<int> slots;  ///< power-of-two table of entry indices, -1 = free
  std::vector<std::unique_ptr<TileEvaluation[]>> chunks;
  TileEvaluation& entry(size_t e) { return chunks[e / kChunk][e % kChunk]; }
};

namespace {

/// Storage kept per thread, and the most chunks a kept storage may hold:
/// a search of a few hundred candidates reuses its storage, while the
/// storage of a large exhaustive grid is freed rather than kept.
constexpr size_t kPooledMemos = 4;
constexpr size_t kPooledChunks = 4;
thread_local std::vector<std::unique_ptr<TileMemo::Storage>> pooledMemos;

}  // namespace

TileMemo::TileMemo(int depth) : depth_(static_cast<size_t>(depth)) {
  if (pooledMemos.empty()) {
    s_ = std::make_unique<Storage>();
  } else {
    s_ = std::move(pooledMemos.back());
    pooledMemos.pop_back();
  }
  s_->keys.clear();
  s_->slots.assign(64, -1);
}

TileMemo::~TileMemo() {
  if (s_ != nullptr && s_->chunks.size() <= kPooledChunks && pooledMemos.size() < kPooledMemos)
    pooledMemos.push_back(std::move(s_));
}

TileEvaluation* TileMemo::find(const std::vector<i64>& tile, size_t& slot) {
  slot = probe(tile.data());
  const int e = s_->slots[slot];
  return e < 0 ? nullptr : &s_->entry(static_cast<size_t>(e));
}

TileEvaluation& TileMemo::add(size_t slot, const std::vector<i64>& tile) {
  if (2 * (size_ + 1) > s_->slots.size()) {
    grow();
    slot = probe(tile.data());
  }
  s_->slots[slot] = static_cast<int>(size_);
  for (i64 t : tile) s_->keys.push_back(t);
  if (size_ == s_->chunks.size() * Storage::kChunk)
    s_->chunks.push_back(std::make_unique<TileEvaluation[]>(Storage::kChunk));
  TileEvaluation& ev = s_->entry(size_++);
  ev.feasible = false;
  ev.reason.clear();
  ev.cost = 0;
  ev.footprint = 0;
  ev.terms.clear();
  return ev;
}

void TileMemo::dropLast() {
  // The last entry ends no other entry's probe sequence: every slot it
  // passes was taken before it was placed.
  --size_;
  s_->slots[probe(s_->keys.data() + size_ * depth_)] = -1;
  s_->keys.resize(size_ * depth_);
}

size_t TileMemo::probe(const i64* key) const {
  const size_t mask = s_->slots.size() - 1;
  for (size_t s = hashTile(key, depth_) & mask;; s = (s + 1) & mask) {
    const int e = s_->slots[s];
    if (e < 0) return s;
    const i64* stored = s_->keys.data() + static_cast<size_t>(e) * depth_;
    size_t i = 0;
    while (i < depth_ && key[i] == stored[i]) ++i;  // inline: depth_ is a handful
    if (i == depth_) return s;
  }
}

void TileMemo::grow() {
  s_->slots.assign(s_->slots.size() * 2, -1);
  for (size_t e = 0; e < size_; ++e)
    s_->slots[probe(s_->keys.data() + e * depth_)] = static_cast<int>(e);
}

TileEvaluator::TileEvaluator(const ProgramBlock& block, const ParallelismPlan& plan,
                             const TileSearchOptions& options, const SmemOptions& smemBase)
    : block_(&block),
      plan_(&plan),
      options_(options),
      smemBase_(smemBase),
      depth_(commonLoopDepth(block)),
      memo_(depth_) {
  EMM_REQUIRE(static_cast<int>(options_.paramValues.size()) == block.nparam(),
              "paramValues arity mismatch");
  binding_ = bindLoopBounds(rectangularLoopBounds(block, depth_), options_.paramValues);
  tilableDepth_ = reductionTilableDepth(block, plan);
  buildLadders();
}

TileEvaluator::TileEvaluator(std::shared_ptr<const ParametricTilePlan> plan,
                             const TileSearchOptions& options)
    : options_(options),
      depth_(plan->depth()),
      binding_(plan->bindSizes(options.paramValues)),
      memo_(depth_),
      paramPlan_(std::move(plan)),
      state_(ParametricState::Active),
      familyAdopted_(true) {
  tilableDepth_ = paramPlan_->tilableDepth();
  buildLadders();
  // No concrete fallback to report an empty ladder through: reject.
  for (const std::vector<i64>& ladder : candidates_)
    EMM_REQUIRE(!ladder.empty(), "empty candidate ladder");
}

TileEvaluator::~TileEvaluator() = default;

void TileEvaluator::buildLadders() {
  if (!options_.candidates.empty()) {
    EMM_REQUIRE(static_cast<int>(options_.candidates.size()) == depth_,
                "candidate arity mismatch");
    candidates_ = options_.candidates;
  } else {
    // Geometric ladder clipped to each loop's range.
    for (int l = 0; l < depth_; ++l) {
      std::vector<i64> ladder;
      for (i64 t = 1; t < binding_.loopRange[l]; t *= 2) ladder.push_back(t);
      ladder.push_back(std::max<i64>(binding_.loopRange[l], 1));
      candidates_.push_back(std::move(ladder));
    }
  }
  // A loop past the tilable depth is ordered by a dependence that is not a
  // reduction: its one candidate is its full extent, a single tile.
  for (int l = tilableDepth_; l < depth_; ++l)
    candidates_[l].assign(1, std::max<i64>(binding_.loopRange[l], 1));
}

void TileEvaluator::adoptFamilyPlan(std::shared_ptr<const ParametricTilePlan> plan) {
  EMM_REQUIRE(state_ == ParametricState::Pending && !prepared_,
              "adoptFamilyPlan must precede the first evaluation");
  familyCandidate_ = std::move(plan);
}

const TileEvaluation& TileEvaluator::evaluate(const std::vector<i64>& subTile) {
  TileEvaluation& ev = memoized(subTile);
  if (ev.feasible && ev.terms.empty() && paramPlan_ != nullptr)
    ev.terms = paramPlan_->evaluate(binding_, subTile, scratch_, /*withTerms=*/true).terms;
  return ev;
}

const TileEvaluation& TileEvaluator::evaluateCost(const std::vector<i64>& subTile) {
  return memoized(subTile);
}

TileEvaluation TileEvaluator::withTerms(const std::vector<i64>& subTile,
                                        const TileEvaluation& ev) {
  if (!ev.feasible || !ev.terms.empty() || paramPlan_ == nullptr) return ev;
  return paramPlan_->evaluate(binding_, subTile, scratch_, /*withTerms=*/true);
}

TileEvaluation& TileEvaluator::memoized(const std::vector<i64>& subTile) {
  EMM_REQUIRE(static_cast<int>(subTile.size()) == depth_, "subTile arity mismatch");
  size_t slot;
  if (TileEvaluation* hit = memo_.find(subTile, slot)) {
    ++memoHits_;
    return *hit;
  }

  // Constraints that need no analysis come first, so the search discards
  // infeasible candidates without building a plan or paying for Section 3.
  if (const char* reason = cheapReason(subTile)) {
    ++evaluations_;
    TileEvaluation& ev = memo_.add(slot, subTile);
    ev.reason = reason;
    return ev;
  }

  // First surviving candidate: build (and probe-validate) the symbolic plan.
  if (state_ == ParametricState::Pending) {
    ensurePlan();
    if (TileEvaluation* hit = memo_.find(subTile, slot)) {  // it may have served as a probe
      ++memoHits_;
      return *hit;
    }
  }

  ++evaluations_;
  // A plan-only evaluator (the binder's) reads no clock per candidate.
  const bool timed = block_ != nullptr;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  // The evaluation fills its memo entry in place; one that throws leaves
  // no entry behind.
  TileEvaluation& ev = memo_.add(slot, subTile);
  try {
    if (paramPlan_ != nullptr)
      paramPlan_->evaluate(binding_, subTile, scratch_, /*withTerms=*/false, ev);
    else
      ev = evaluateConcrete(subTile);
  } catch (...) {
    memo_.dropLast();
    throw;
  }
  if (timed) evalMillis_ += millisSince(start);
  return ev;
}

const char* TileEvaluator::cheapReason(const std::vector<i64>& subTile) const {
  // Constraint (1): 0 < t_i <= N_i (shared, tile-size-independent bounds).
  for (int l = 0; l < depth_; ++l)
    if (subTile[l] < 1 || subTile[l] > std::max<i64>(binding_.loopRange[l], 1))
      return "tile size out of loop range";
  // Constraint (3): tile volume keeps all inner-level processes busy.
  i64 tileVolume = 1;
  for (int l = 0; l < depth_; ++l) tileVolume = mulChecked(tileVolume, subTile[l]);
  if (tileVolume < options_.innerProcs) return "tile smaller than inner-level process count";
  return nullptr;
}

void TileEvaluator::ensurePlan() {
  if (state_ != ParametricState::Pending) return;
  if (!options_.parametric) {
    state_ = ParametricState::Fallback;
    fallbackReason_ = "parametric evaluation disabled by options";
    return;
  }
  if (depth_ == 0) {
    state_ = ParametricState::Fallback;
    fallbackReason_ = "block has no common loops";
    return;
  }
  for (const std::vector<i64>& ladder : candidates_) {
    if (ladder.empty()) {
      state_ = ParametricState::Fallback;
      fallbackReason_ = "empty candidate ladder";
      return;
    }
  }
  const auto start = std::chrono::steady_clock::now();
  // Probe tiles: the mid-grid candidate (validates the full feasible-path
  // formulas at a typical point) and the largest grid corner (stresses the
  // footprint formulas, usually against the memory limit). Both are
  // clipped into the loop ranges so user-supplied out-of-range ladders
  // cannot sneak an unvalidated plan past the cheap constraints — the
  // clipped corner has the maximum feasible volume, so it survives the
  // cheap check whenever any candidate does.
  std::vector<i64> mid(depth_), corner(depth_);
  for (int l = 0; l < depth_; ++l) {
    const i64 range = std::max<i64>(binding_.loopRange[l], 1);
    mid[l] = std::min(candidates_[l][candidates_[l].size() / 2], range);
    corner[l] = std::min(candidates_[l].back(), range);
  }

  // Concrete probe evaluations first — they are authoritative regardless of
  // which plan (family or fresh) ends up serving candidates, so a family
  // hit can never change a result the concrete analysis would produce.
  std::vector<std::pair<std::vector<i64>, TileEvaluation>> probes;
  for (const std::vector<i64>& probe : {mid, corner}) {
    size_t slot;
    if (memo_.find(probe, slot) != nullptr) continue;
    bool seen = false;
    for (const auto& [tile, ev] : probes) seen = seen || tile == probe;
    if (seen) continue;
    ++evaluations_;
    if (const char* reason = cheapReason(probe)) {
      memo_.add(slot, probe).reason = reason;
      continue;  // both paths agree trivially; nothing to validate
    }
    probes.emplace_back(probe, evaluateConcrete(probe));
  }
  if (probes.empty()) {
    // Never serve candidates from a plan no probe could exercise.
    state_ = ParametricState::Fallback;
    fallbackReason_ = "no probe candidate survived the cheap constraints";
    planBuildMillis_ = millisSince(start);
    return;
  }

  // Candidate plans, in preference order: the adopted family plan (bound at
  // this size), then a fresh symbolic build. Either must reproduce every
  // authoritative probe exactly to become active.
  std::string reason;
  for (int attempt = 0; attempt < 2 && state_ != ParametricState::Active; ++attempt) {
    const bool family = attempt == 0;
    if (family && familyCandidate_ == nullptr) continue;
    try {
      std::shared_ptr<const ParametricTilePlan> plan =
          family ? familyCandidate_
                 : std::make_shared<const ParametricTilePlan>(*block_, *plan_, options_,
                                                              smemBase_, binding_.loopRange,
                                                              mid, tilableDepth_);
      bool agree = plan->tilableDepth() == tilableDepth_;
      if (!agree) reason = "family plan tiles a different loop prefix";
      for (size_t i = 0; agree && i < probes.size(); ++i) {
        const auto& [tile, concrete] = probes[i];
        if (concrete != plan->evaluate(binding_, tile, scratch_, /*withTerms=*/true)) {
          agree = false;
          reason = std::string(family ? "family plan" : "symbolic plan") +
                   " disagrees with the concrete analysis at tile (" + joinTile(tile) + ")";
        }
      }
      if (agree) {
        paramPlan_ = std::move(plan);
        familyAdopted_ = family;
        state_ = ParametricState::Active;
      }
    } catch (const ApiError& e) {
      reason = e.what();
    }
  }
  if (state_ != ParametricState::Active) {
    state_ = ParametricState::Fallback;
    fallbackReason_ = reason;
    paramPlan_.reset();
  }
  for (auto& [tile, concrete] : probes) {  // authoritative either way
    size_t slot;
    memo_.find(tile, slot);
    memo_.add(slot, tile) = std::move(concrete);
  }
  planBuildMillis_ = millisSince(start);
}

void TileEvaluator::prepareSearch() {
  if (prepared_) return;
  prepared_ = true;
  if (depth_ == 0) return;
  ensurePlan();
  if (state_ != ParametricState::Active) return;
  pruneCandidateBoxes();
}

void TileEvaluator::pruneCandidateBoxes() {
  // Box soundness needs "larger ladder index => larger tile", so unsorted
  // user ladders opt out of pruning.
  for (const std::vector<i64>& ladder : candidates_)
    if (!std::is_sorted(ladder.begin(), ladder.end())) return;
  std::vector<SymInterval> box(depth_);
  std::vector<i64> minCorner(depth_);
  for (int l = 0; l < depth_; ++l) {
    std::vector<i64>& ladder = candidates_[l];
    size_t cut = ladder.size();
    // Box B(l, k) = { t_l in [ladder[k], ladder.back()], t_j in its full
    // ladder range }. If the partition structure is already coarsest at the
    // box's minimum corner it stays coarsest across the box (overlap grows
    // with tile sizes), so footprintInterval().lo is a true lower bound of
    // every candidate's footprint — above the memory limit, the whole box
    // (and, ladders being sorted, every longer-tailed box after it) is
    // infeasible. The smallest ladder entry is always kept so the solvers
    // see a non-empty grid and report infeasibility through evaluation.
    for (size_t k = 1; k < ladder.size(); ++k) {
      for (int j = 0; j < depth_; ++j) {
        const i64 lo = j == l ? ladder[k] : candidates_[j].front();
        const i64 hi = j == l ? ladder.back() : candidates_[j].back();
        box[j] = {lo, hi};
        minCorner[j] = lo;
      }
      if (!paramPlan_->coarsestStructureAt(binding_, minCorner, scratch_)) continue;
      if (paramPlan_->footprintInterval(binding_, box, scratch_).lo > options_.memLimitElems) {
        cut = k;
        break;
      }
    }
    if (cut < ladder.size()) {
      prunedBoxes_ += static_cast<int>(ladder.size() - cut);
      ladder.resize(cut);
    }
  }
}

TileEvaluation TileEvaluator::evaluateConcrete(const std::vector<i64>& subTile) {
  TileEvaluation ev;
  if (const char* reason = cheapReason(subTile)) {
    ev.reason = reason;
    return ev;
  }

  // The candidate survives the cheap constraints: run the Section-3
  // analysis (the dominant cost, memoized by the caller).
  ++analysesRun_;
  TileAnalysis ta = analyzeTile(*block_, *plan_, subTile, smemBase_, options_.hoistCopies);
  const IntVec& ext = binding_.ext;

  // Constraint (2): footprint <= Mup.
  i64 footprint = 0;
  for (size_t p = 0; p < ta.plan.partitions.size(); ++p)
    footprint = addChecked(footprint, ta.plan.bufferFootprint(static_cast<int>(p), ext));
  ev.footprint = footprint;
  if (footprint > options_.memLimitElems) {
    ev.reason = "scratchpad footprint exceeds limit";
    return ev;
  }

  // Objective: sum over buffers of occurrences * (P*S + V*L/P).
  double P = static_cast<double>(options_.innerProcs);
  double cost = 0;
  for (size_t p = 0; p < ta.plan.partitions.size(); ++p) {
    const PartitionPlan& part = ta.plan.partitions[p];
    if (!part.hasBuffer) continue;
    // Occurrences: product of tiling-loop trip counts above the placement
    // level (the r_k of Section 4.3).
    i64 occ = 1;
    for (int l = 0; l < ta.hoistLevel[p]; ++l)
      occ = mulChecked(occ, ceilDiv(binding_.loopRange[l], subTile[l]));
    i64 vin = ta.plan.moveInVolumeBound(static_cast<int>(p), ext);
    i64 vout = ta.plan.moveOutVolumeBound(static_cast<int>(p), ext);
    double termIn = bufferCostTerm(occ, vin, P, options_.syncCost, options_.transferCost);
    double termOut = bufferCostTerm(occ, vout, P, options_.syncCost, options_.transferCost);
    cost += termIn + termOut;
    ev.terms.push_back({part.bufferName, occ, vin, vout, ta.hoistLevel[p]});
  }
  ev.feasible = true;
  ev.cost = cost;
  return ev;
}

}  // namespace emm
