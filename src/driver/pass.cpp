#include "driver/pass.h"

#include <algorithm>
#include <utility>

#include "codegen/emit.h"
#include "support/diagnostics.h"
#include "tilesearch/tile_evaluator.h"

namespace emm {

PipelineProductsMembers::BlockRef PipelineProductsMembers::blockRef(
    const ProgramBlock* block) const {
  if (block != nullptr && block == input.get()) return BlockRef::Input;
  if (block != nullptr && block == transformed.get()) return BlockRef::Transformed;
  return BlockRef::None;
}

const ProgramBlock* PipelineProductsMembers::blockAt(BlockRef ref) const {
  switch (ref) {
    case BlockRef::Input:
      return input.get();
    case BlockRef::Transformed:
      return transformed.get();
    default:
      return nullptr;
  }
}

void PipelineProductsMembers::rebindBlocks(const PipelineProductsMembers& original) {
  rebindBlocks(original.input.get(), original.transformed.get());
}

void PipelineProductsMembers::rebindBlocks(const ProgramBlock* oldInput,
                                           const ProgramBlock* oldTransformed) {
  auto rebind = [&](const ProgramBlock* block) -> const ProgramBlock* {
    if (block != nullptr && block == oldInput) return input.get();
    if (block != nullptr && block == oldTransformed) return transformed.get();
    return nullptr;
  };
  if (scratchpadUnit) scratchpadUnit->source = rebind(scratchpadUnit->source);
  if (blockPlan) blockPlan->block = rebind(blockPlan->block);
}

ProgramBlock& PipelineProductsMembers::mutBlock(BlockRef ref) {
  EMM_CHECK(blockAt(ref) != nullptr, "mutBlock names no block");
  const ProgramBlock* oldInput = input.get();
  const ProgramBlock* oldTransformed = transformed.get();
  ProgramBlock& block = (ref == BlockRef::Input ? input : transformed).mut();
  rebindBlocks(oldInput, oldTransformed);
  return block;
}

void CompileState::note(const std::string& stage, const std::string& message) {
  diagnostics.push_back({Severity::Note, stage, message});
}

void CompileState::warn(const std::string& stage, const std::string& message) {
  diagnostics.push_back({Severity::Warning, stage, message});
}

void CompileState::error(const std::string& stage, const std::string& message) {
  diagnostics.push_back({Severity::Error, stage, message});
  failed = true;
}

void PassRegistry::add(const std::string& name, Factory factory) {
  EMM_REQUIRE(!contains(name), "pass '" + name + "' already registered");
  EMM_REQUIRE(factory != nullptr, "null factory for pass '" + name + "'");
  order_.push_back(name);
  factories_.push_back(std::move(factory));
}

bool PassRegistry::contains(const std::string& name) const {
  for (const std::string& n : order_)
    if (n == name) return true;
  return false;
}

PassPtr PassRegistry::create(const std::string& name) const {
  for (size_t i = 0; i < order_.size(); ++i)
    if (order_[i] == name) return factories_[i]();
  throw ApiError("unknown pass '" + name + "'");
}

namespace {

std::string joinInts(const std::vector<i64>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + std::to_string(v[i]);
  return out;
}

/// Why a search found no feasible tile, named by the constraint that rules
/// candidates out: a loop whose trip count no candidate size fits, trip
/// counts whose product stays below innerProcs (so no tile keeps every
/// inner-level process busy), or else the scratchpad budget.
std::string noFeasibleTileReason(const TileEvaluator& evaluator, const CompileOptions& options) {
  std::vector<i64> tripCounts;
  i128 maxVolume = 1;
  for (int l = 0; l < evaluator.depth(); ++l) {
    const i64 trips = std::max<i64>(evaluator.loopRange(l), 1);
    const std::vector<i64>& ladder = evaluator.candidates()[l];
    if (std::none_of(ladder.begin(), ladder.end(), [&](i64 t) { return t >= 1 && t <= trips; }))
      return "no candidate size of loop " + std::to_string(l) + " fits its trip count " +
             std::to_string(trips);
    tripCounts.push_back(trips);
    maxVolume = std::min<i128>(maxVolume * trips, INT64_MAX);
  }
  if (maxVolume < options.innerProcs)
    return "the loop trip counts (" + joinInts(tripCounts) + ") allow at most " +
           std::to_string(static_cast<i64>(maxVolume)) +
           " iterations per tile, fewer than innerProcs = " + std::to_string(options.innerProcs);
  return "every candidate tile evaluated with at least innerProcs = " +
         std::to_string(options.innerProcs) + " iterations exceeds the scratchpad budget of " +
         std::to_string(options.scratchpadBudgetBytes()) + " bytes (" +
         std::to_string(options.scratchpadBudgetBytes() / options.elementBytes) + " elements)";
}

// ---- deps: dependence polyhedra over all reference pairs. ----
class DepsPass : public Pass {
public:
  DepsPass() : Pass("deps") {}
  void run(CompileState& s) override {
    if (s.familyIn != nullptr && s.familyIn->haveDeps) {
      // Dependences are family-invariant: domains, access functions and
      // schedules never mention the concrete array extents, so the
      // family's polyhedra are exactly what computeDependences would
      // rebuild for this member.
      s.deps = s.familyIn->deps;
      s.haveDeps = true;
      s.familyUsed = true;
      s.note(name(), std::to_string(s.deps.size()) + " dependences (family tier)");
      return;
    }
    s.deps = computeDependences(s.currentBlock());
    s.haveDeps = true;
    if (s.familyOut != nullptr) {
      s.familyOut->deps = s.deps;
      s.familyOut->haveDeps = true;
    }
    s.note(name(), std::to_string(s.deps.size()) + " dependences");
  }
};

// ---- transform: enabling shifts/skews + space/time classification. ----
class TransformPass : public Pass {
public:
  TransformPass() : Pass("transform") {}
  void run(CompileState& s) override {
    if (s.options.mode == PipelineMode::ScratchpadOnly) {
      s.note(name(), "scratchpad-only pipeline: transformation skipped");
      return;
    }
    if (s.familyIn != nullptr && s.familyIn->haveTransform) {
      // The enabling transformation is derived from the (family-invariant)
      // dependences and touches statements and schedules only, so the
      // family's transformed block is reused with this member's array
      // table swapped in — the skew search is skipped entirely.
      ProgramBlock t = s.familyIn->transformedTemplate;
      t.arrays = s.input->arrays;
      s.transformed = DeepPtr<ProgramBlock>::make(std::move(t));
      s.plan = s.familyIn->plan;
      s.havePlan = true;
      s.appliedSkews = s.familyIn->appliedSkews;
      s.familyUsed = true;
      s.note(name(), "transformation adopted from the family tier");
    } else {
      // The deps pass built the input's dependences; unless it was skipped,
      // the skew search starts from them instead of rebuilding them.
      TransformResult tr = s.haveDeps ? makeTilable(*s.input, *s.deps) : makeTilable(*s.input);
      s.transformed = DeepPtr<ProgramBlock>::make(std::move(tr.block));
      s.plan = std::move(tr.plan);
      s.havePlan = true;
      s.appliedSkews = std::move(tr.appliedSkews);
      if (s.familyOut != nullptr) {
        s.familyOut->transformedTemplate = *s.transformed;
        s.familyOut->plan = s.plan;
        s.familyOut->appliedSkews = s.appliedSkews;
        s.familyOut->haveTransform = true;
      }
    }
    for (const auto& [target, srcFactor] : s.appliedSkews)
      s.note(name(), "skewed loop " + std::to_string(target) + " by loop " +
                         std::to_string(srcFactor.first) + " (factor " +
                         std::to_string(srcFactor.second) + ")");
    std::string spaces;
    for (int l : s.plan.spaceLoops) spaces += (spaces.empty() ? "" : ",") + std::to_string(l);
    s.note(name(), "band size " + std::to_string(s.plan.band.size()) + ", space loops [" +
                       spaces + "]");
    if (s.plan.needsInterBlockSync)
      s.warn(name(),
             "band needs inter-block synchronization (pipeline parallelism); "
             "the Figure-3 tiler does not apply — falling back to block-level "
             "scratchpad analysis");
  }
};

// ---- tilesearch: Section 4.3 sub-tile selection (or evaluation). ----
class TileSearchPass : public Pass {
public:
  TileSearchPass() : Pass("tilesearch") {}
  void run(CompileState& s) override {
    if (s.options.mode == PipelineMode::ScratchpadOnly || !s.havePlan ||
        s.plan.needsInterBlockSync) {
      s.note(name(), "not applicable on this pipeline path");
      // Record WHY the family has no size-generic tile plan, so sweeps over
      // such kernels show the degradation in --emit=stats instead of
      // silently compiling per size.
      s.search.parametricReason =
          s.options.mode == PipelineMode::ScratchpadOnly
              ? "scratchpad-only pipeline: no tile search"
              : (!s.havePlan ? "no parallelism plan: no tile search"
                             : "pipeline-parallel band: no tile search");
      if (s.familyOut != nullptr) s.familyOut->parametricReason = s.search.parametricReason;
      return;
    }
    const ProgramBlock& block = s.currentBlock();
    TileSearchOptions topts = s.options.tileSearchOptions();
    SmemOptions smem = s.options.smemOptions();
    if (!s.options.subTile.empty()) {
      // Explicit tile sizes: evaluate the Section-4.3 objective for them so
      // the result still carries cost/footprint/per-buffer terms.
      s.search.subTile = s.options.subTile;
      // The search's own rule binds a given tile too: a loop that a
      // dependence other than a reduction keeps outside the permutable band
      // runs as one tile, or the tiled loops reorder what it orders.
      TileSearchOptions one = topts;
      one.parametric = false;
      one.candidates.clear();
      TileEvaluator evaluator(block, s.plan, one, smem);
      const std::vector<i64>& tile = s.options.subTile;
      for (int l = evaluator.tilableDepth(); l < std::min<int>(evaluator.depth(), tile.size()); ++l) {
        const i64 extent = std::max<i64>(evaluator.loopRange(l), 1);
        if (tile[l] < extent) {
          s.error(name(), "given tile (" + joinInts(tile) + ") splits loop " + std::to_string(l) +
                              ", which a dependence other than a reduction keeps outside the "
                              "permutable band; its size must be at least its extent " +
                              std::to_string(extent));
          return;
        }
      }
      s.search.eval = evaluator.evaluate(tile);
      s.search.evaluations = 1;
      if (!s.search.eval.feasible)
        s.warn(name(), "given tile (" + joinInts(s.options.subTile) +
                           ") violates the model constraints: " + s.search.eval.reason);
      else
        s.note(name(), "evaluated given tile (" + joinInts(s.options.subTile) + "), cost " +
                           std::to_string(s.search.eval.cost) + ", footprint " +
                           std::to_string(s.search.eval.footprint) + " elems");
      return;
    }
    // One evaluator per compile: all probes (descent sweeps, seeds, the
    // exhaustive oracle) share its candidate memo, loop bounds, and (when
    // the block admits one) the symbolic Section-3 plan.
    TileEvaluator evaluator(block, s.plan, topts, smem);
    if (s.familyIn != nullptr && s.familyIn->tilePlan != nullptr)
      evaluator.adoptFamilyPlan(s.familyIn->tilePlan);
    s.search = s.options.searchMode == TileSearchMode::Exhaustive
                   ? exhaustiveTileSearch(evaluator)
                   : searchTileSizes(evaluator);
    if (s.search.familyAdopted) {
      s.familyUsed = true;
      s.note(name(), "family plan bound at this problem size (probe-revalidated)");
    }
    if (s.familyOut != nullptr) {
      // Publish the size-generic plan for the rest of the family — or the
      // fallback reason, so degraded families stay visible in stats.
      s.familyOut->tilePlan = evaluator.sharedPlan();
      s.familyOut->parametricReason = evaluator.fallbackReason();
    }
    if (s.search.prunedBoxes > 0)
      s.note(name(), std::to_string(s.search.prunedBoxes) +
                         " candidate boxes pruned by the footprint interval");
    s.subTimings.emplace_back(name() + ".plan", s.search.planBuildMillis);
    s.subTimings.emplace_back(name() + ".eval", s.search.evalMillis);
    if (s.search.parametric) {
      s.note(name(), "parametric plan built in " +
                         std::to_string(s.search.planBuildMillis) +
                         " ms; candidate evaluation took " +
                         std::to_string(s.search.evalMillis) + " ms total");
    } else if (topts.parametric) {
      s.warn(name(), "parametric tile analysis fell back to concrete evaluation: " +
                         s.search.parametricReason);
    }
    if (!s.search.eval.feasible) {
      s.error(name(), "no feasible tile: " + noFeasibleTileReason(evaluator, s.options));
      return;
    }
    // Hand the tiler the buffer geometry instantiated at the chosen tile so
    // the Section-3 planner adopts (and merely re-verifies) those bounds.
    if (const ParametricTilePlan* plan = evaluator.parametricPlan())
      s.geometryHints = plan->instantiateGeometry(s.search.subTile);
    s.note(name(), "chose tile (" + joinInts(s.search.subTile) + "), cost " +
                       std::to_string(s.search.eval.cost) + ", footprint " +
                       std::to_string(s.search.eval.footprint) + " elems, " +
                       std::to_string(s.search.evaluations) + " evaluations (" +
                       std::to_string(evaluator.analysesRun()) + " analyzed, " +
                       std::to_string(s.search.memoHits) + " memo hits)");
  }
};

// ---- tiling: the Figure-3 multi-level tiled kernel. ----
class TilingPass : public Pass {
public:
  TilingPass() : Pass("tiling") {}
  void run(CompileState& s) override {
    if (s.options.mode == PipelineMode::ScratchpadOnly || !s.havePlan ||
        s.plan.needsInterBlockSync) {
      s.note(name(), "not applicable on this pipeline path");
      return;
    }
    // Prefer the search outcome; fall back to explicitly given sizes when
    // the tilesearch pass was skipped.
    TileConfig tc;
    tc.subTile = s.search.subTile.empty() ? s.options.subTile : s.search.subTile;
    if (tc.subTile.empty()) {
      s.error(name(), "no sub-tile sizes: tile search skipped and none given");
      return;
    }
    tc.hoistCopies = s.options.hoistCopies;
    tc.useScratchpad = s.options.useScratchpad;
    const size_t nspace = s.plan.spaceLoops.size();
    if (!s.options.blockTile.empty()) {
      EMM_REQUIRE(s.options.blockTile.size() == nspace,
                  "blockTile must have one entry per space loop");
      tc.blockTile = s.options.blockTile;
    } else {
      for (int loop : s.plan.spaceLoops) tc.blockTile.push_back(tc.subTile[loop] * 2);
    }
    if (!s.options.threadTile.empty()) {
      EMM_REQUIRE(s.options.threadTile.size() == nspace,
                  "threadTile must have one entry per space loop");
      tc.threadTile = s.options.threadTile;
    } else {
      tc.threadTile.assign(nspace, 1);
    }
    SmemOptions smem = s.options.smemOptions();
    smem.geometryHints = s.geometryHints;
    s.kernel = buildTiledKernel(s.currentBlock(), s.plan, tc, smem);
    s.note(name(), "tiled kernel with " + std::to_string(s.kernel->unit.localBuffers.size()) +
                       " local buffers, block tile (" + joinInts(tc.blockTile) + ")");
  }
};

// ---- smem: Section-3 planning summary / block-level fallback. ----
class SmemPass : public Pass {
public:
  SmemPass() : Pass("smem") {}
  void run(CompileState& s) override {
    if (s.kernel) {
      // The tiled path ran the Section-3 framework per sub-tile inside the
      // tiler; just summarize its verdicts.
      int buffered = 0;
      for (const PartitionPlan& p : s.kernel->analysis.plan.partitions)
        if (p.hasBuffer) ++buffered;
      s.note(name(), std::to_string(buffered) + "/" +
                         std::to_string(s.kernel->analysis.plan.partitions.size()) +
                         " partitions buffered in scratchpad");
      planLayout(s, s.kernel->unit);
      return;
    }
    SmemOptions smem = s.options.smemOptions();
    if (s.options.mode == PipelineMode::ScratchpadOnly) {
      DataPlan plan;
      CodeUnit unit = buildScratchpadUnit(s.currentBlock(), smem, plan);
      s.scratchpadUnit = std::move(unit);
      s.blockPlan = std::move(plan);
      planLayout(s, *s.scratchpadUnit);
    } else {
      // Pipeline-parallel fallback (or tiling skipped): analysis only; the
      // concurrent-start mapped kernels in src/kernels execute these bands.
      s.blockPlan = analyzeBlock(s.currentBlock(), smem);
    }
    int buffered = 0;
    for (const PartitionPlan& p : s.blockPlan->partitions)
      if (p.hasBuffer) ++buffered;
    s.note(name(), std::to_string(buffered) + "/" +
                       std::to_string(s.blockPlan->partitions.size()) +
                       " partitions buffered in scratchpad");
  }

private:
  /// Packs the unit's buffers into the banked arena layout and writes the
  /// chosen pads back into the unit, so every emitter and the interpreter
  /// see the padded geometry. The layout itself is published as a product.
  void planLayout(CompileState& s, CodeUnit& unit) {
    if (!s.options.packBuffers || unit.localBuffers.empty()) return;
    BufferLayoutOptions lo;
    lo.bank.banks = s.options.smemBanks;
    lo.bank.widthBytes = s.options.smemBankWidthBytes;
    lo.elementBytes = s.options.elementBytes;
    lo.memLimitBytes = s.options.scratchpadBudgetBytes();
    lo.paramValues = s.options.paramValues;
    BufferLayout layout = planBufferLayout(unit, lo);
    applyBufferLayout(unit, layout);
    if (!layout.note.empty()) s.warn(name(), layout.note);
    IntVec sample = s.options.paramValues;
    sample.resize(unit.source->paramNames.size(), 0);
    s.note(name(), "buffer layout: " + std::to_string(layout.buffers.size()) +
                       " buffers packed into " + std::to_string(layout.totalBytes(sample)) +
                       " bytes (" + std::to_string(layout.paddingBytes(sample)) +
                       " pad bytes, " + std::to_string(layout.bank.banks) + " banks)");
    s.bufferLayout.emplace(std::move(layout));
  }
};

// ---- codegen: render for the target options.backendName. ----
class CodegenPass : public Pass {
public:
  CodegenPass() : Pass("codegen") {}
  void run(CompileState& s) override {
    requireEmitTarget(s.options.backendName);
    const CodeUnit* unit = s.unit();
    if (unit == nullptr) {
      s.warn(name(), "no code unit on this pipeline path; nothing to emit");
      return;
    }
    ArtifactInfo info;
    const BufferLayout* layout = s.bufferLayout ? &*s.bufferLayout : nullptr;
    s.artifact = emitArtifact(*unit, s.options, layout, &info);
    if (info.sizeGeneric) appendLayoutGuards(s, *unit, layout, info);
    if (info.sizeGeneric)
      s.note(name(), "size-generic artifact: " + std::to_string(info.slots.size()) +
                         " bind slots, " + std::to_string(info.guards.size()) +
                         " guard predicates");
    else if (!info.note.empty())
      s.note(name(), "artifact bakes sizes: " + info.note);
    s.artifactInfo.emplace(std::move(info));
    s.note(name(), "emitted " + std::to_string(s.artifact.size()) + " bytes of " +
                       s.options.backendName + " source");
  }

private:
  /// Target-independent validity guards derived from the layout decisions
  /// that were taken at this compile's sample sizes. A bound artifact is
  /// byte-identical to a per-size compile exactly when those decisions
  /// would repeat, so each one is pinned:
  ///  - the packed-vs-flat verdict, via the arena-fits-budget inequality
  ///    (a fallback layout is size-dependent and disables binding instead);
  ///  - every conflict pad, by fixing the innermost extent the pad was
  ///    chosen from wherever it depends on a problem size.
  void appendLayoutGuards(CompileState& s, const CodeUnit& unit, const BufferLayout* layout,
                          ArtifactInfo& info) {
    if (layout == nullptr) return;
    if (!layout->note.empty()) {
      info.sizeGeneric = false;
      info.note = "buffer layout fell back (" + layout->note +
                  "); pad decisions are size-dependent, artifact stays per-size";
      return;
    }
    std::vector<i64> sample(s.options.paramValues.begin(), s.options.paramValues.end());
    sample.resize(unit.source == nullptr ? sample.size() : unit.source->paramNames.size(), 0);
    const i64 limit = s.options.scratchpadBudgetBytes();
    FamilyGuard fit;
    fit.kind = FamilyGuard::Kind::SymLe;
    fit.lhs = SymExpr::mul(layout->totalElems, SymExpr::constant(layout->elementBytes));
    fit.rhs = SymExpr::constant(limit);
    fit.what = "packed arena exceeds the " + std::to_string(limit) + "-byte scratchpad budget";
    info.guards.push_back(std::move(fit));
    for (const BufferLayoutEntry& e : layout->buffers) {
      if (e.extent.empty() || e.extent.back() == nullptr) continue;
      const SymPtr& inner = e.extent.back();
      if (inner->maxParamIndex() < 0) continue;
      FamilyGuard g;
      g.kind = FamilyGuard::Kind::SymEq;
      g.lhs = inner;
      g.rhs = SymExpr::constant(inner->eval(sample));
      g.what = "conflict pad for " + e.name + " chosen at innermost extent " +
               std::to_string(g.rhs->constValue());
      info.guards.push_back(std::move(g));
    }
  }
};

}  // namespace

const PassRegistry& PassRegistry::standard() {
  static const PassRegistry* reg = [] {
    auto* r = new PassRegistry;
    r->add("deps", [] { return PassPtr(new DepsPass); });
    r->add("transform", [] { return PassPtr(new TransformPass); });
    r->add("tilesearch", [] { return PassPtr(new TileSearchPass); });
    r->add("tiling", [] { return PassPtr(new TilingPass); });
    r->add("smem", [] { return PassPtr(new SmemPass); });
    r->add("codegen", [] { return PassPtr(new CodegenPass); });
    return r;
  }();
  return *reg;
}

}  // namespace emm
