#include "driver/runtime_binder.h"

#include <chrono>

#include "codegen/emit.h"
#include "driver/family_plan.h"
#include "support/diagnostics.h"
#include "support/serialize.h"
#include "tilesearch/tile_evaluator.h"

namespace emm {

namespace {

void explain(std::vector<Diagnostic>* diags, const std::string& message) {
  if (diags != nullptr) diags->push_back({Severity::Note, "bind", message});
}

}  // namespace

bool sameArrayShape(const std::vector<ArrayDecl>& a, const std::vector<ArrayDecl>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].extents.size() != b[i].extents.size()) return false;
  return true;
}

bool qualifiesAsFamilyRecord(const CompileResult& result) {
  return result.ok && result.artifactInfo.has_value() && result.artifactInfo->sizeGeneric &&
         !result.artifact.empty() && result.unit() != nullptr;
}

void attachFamilyRecord(FamilyPlan& family, const CompileResult& result,
                        const CompileOptions& options) {
  if (!qualifiesAsFamilyRecord(result)) return;
  family.recordOptions = options;
  family.record = std::make_shared<CompileResult>(result.clone());
  // Binds copy the record and the daemon encodes it once per connection;
  // settle the derived answers once so no copy re-derives them.
  settleDerivedAnswers(*family.record);
  family.haveRecord = true;
}

std::optional<BindOverlay> certifyBind(const FamilyPlan& family, const ProgramBlock& request,
                                       const CompileOptions& options,
                                       std::vector<Diagnostic>* diagnostics) {
  const auto start = std::chrono::steady_clock::now();
  if (!family.haveRecord || family.record == nullptr) return std::nullopt;
  const CompileResult& rec = *family.record;

  // 1. Identity: the family key neutralizes the codegen-only options, so a
  // record emitted for another target must not serve this request.
  const CompileOptions& ro = family.recordOptions;
  if (ro.backendName != options.backendName || ro.kernelName != options.kernelName ||
      ro.elementType != options.elementType || ro.numBoundParams != options.numBoundParams ||
      !options.runtimeSizeArgs) {
    explain(diagnostics, "family record targets backend '" + ro.backendName +
                             "' kernel '" + ro.kernelName + "'; request differs, bind-and-emit");
    return std::nullopt;
  }
  const IntVec& sizes = options.paramValues;
  if (rec.input == nullptr || rec.unit() == nullptr || !rec.artifactInfo.has_value() ||
      !sameArrayShape(rec.input->arrays, request.arrays)) {
    explain(diagnostics, "request array table does not match the family record");
    return std::nullopt;
  }

  // 2. Argmin re-certification: a per-size compile re-runs the tile search
  // at its own size, so the record may only serve sizes where its tile
  // choice is still THE chosen one — mere feasibility is not enough, the
  // cost-model argmin can move with the problem size. The re-search runs the
  // compile's solver over a plan-only TileEvaluator — pure expression
  // evaluation, no analysis, no emission — and its outcome becomes the bound
  // result's search record, so the reported cost/footprint are this size's,
  // not the record's. The search depends on nothing but the plan, the sizes,
  // the search options and the solver, so the family's search memo answers
  // a repeated request — rejections included — without re-running it.
  // Records from no-search pipelines (scratchpad-only / pipeline-parallel
  // fallback) made no tile decision at all: nothing can move with size, and
  // the step-3 guards carry the whole envelope contract.
  if (!options.subTile.empty()) {
    explain(diagnostics, "explicitly tiled request; bind-and-emit");
    return std::nullopt;
  }
  const bool hasTileChoice = !rec.search.subTile.empty();
  TileSearchResult search;
  if (hasTileChoice) {
    if (family.tilePlan == nullptr) {
      explain(diagnostics, "family record has no parametric tile plan to re-certify against");
      return std::nullopt;
    }
    try {
      TileSearchOptions searchOptions = options.tileSearchOptions();
      const bool exhaustive = options.searchMode == TileSearchMode::Exhaustive;
      if (std::shared_ptr<const SearchMemo::Entry> hit =
              family.searchMemo.find(searchOptions, exhaustive)) {
        search = hit->result;
      } else {
        // The compile's search, over the family plan alone. A size the
        // binding rejects throws past the store: only a search that ran is
        // memoized.
        TileEvaluator evaluator(family.tilePlan, searchOptions);
        search = exhaustive ? exhaustiveTileSearch(evaluator) : searchTileSizes(evaluator);
        family.searchMemo.store(std::make_shared<const SearchMemo::Entry>(
            SearchMemo::Entry{std::move(searchOptions), exhaustive, search}));
      }
      if (!search.eval.feasible) {
        explain(diagnostics, "no feasible tile at this size; bind-and-emit");
        return std::nullopt;
      }
      if (search.subTile != rec.search.subTile) {
        explain(diagnostics,
                "tile argmin moved at this size; the record's choice is no longer "
                "optimal, bind-and-emit");
        return std::nullopt;
      }
    } catch (const ApiError& e) {
      explain(diagnostics, std::string("size binding rejected: ") + e.what());
      return std::nullopt;
    }
  }

  // 3. Guards: the emitted text is valid only inside the size envelope the
  // record's layout decisions were taken in. Violations reject cleanly —
  // never a wrong answer — and the caller re-emits for this size.
  const ArtifactInfo& info = *rec.artifactInfo;
  int need = static_cast<int>(sizes.size());
  auto track = [&](const SymPtr& e) {
    if (e != nullptr) need = std::max(need, e->maxParamIndex() + 1);
  };
  for (const FamilyGuard& g : info.guards) {
    track(g.lhs);
    track(g.rhs);
  }
  for (const BindSlot& s : info.slots) track(s.formula);
  IntVec env = sizes;
  env.resize(static_cast<size_t>(need), 0);
  // Named env for folded local-store extents: the emitter's bound
  // environment at the requested sizes.
  const CodeUnit* unit = rec.unit();
  const BoundEnv namedEnv = boundEnvironment(*unit->source, sizes, options.numBoundParams);
  for (const FamilyGuard& g : info.guards) {
    bool holds = true;
    switch (g.kind) {
      case FamilyGuard::Kind::SymLe:
        holds = g.lhs != nullptr && g.rhs != nullptr && g.lhs->eval(env) <= g.rhs->eval(env);
        break;
      case FamilyGuard::Kind::SymEq:
        holds = g.lhs != nullptr && g.rhs != nullptr && g.lhs->eval(env) == g.rhs->eval(env);
        break;
      case FamilyGuard::Kind::BufExtentEq: {
        if (g.bufferIndex < 0 ||
            g.bufferIndex >= static_cast<int>(unit->localBuffers.size()) || g.dim < 0 ||
            g.dim >= unit->localBuffers[g.bufferIndex].ndim) {
          holds = false;
          break;
        }
        holds = unit->localBuffers[g.bufferIndex].paddedExtent(g.dim, namedEnv) == g.expected;
        break;
      }
    }
    if (!holds) {
      explain(diagnostics, "size outside the family envelope: " + g.what +
                               "; re-emitting for this size");
      return std::nullopt;
    }
  }

  // 4. Argument fill. The overlay carries the request's concrete array
  // extents, which replace the record's everywhere a block rides along, so
  // interpreters and stride consumers see this member's geometry.
  BindOverlay overlay;
  for (const BindSlot& s : info.slots) {
    i64 v = 0;
    switch (s.kind) {
      case BindSlot::Kind::SizeParam:
        if (s.a < 0 || s.a >= static_cast<int>(sizes.size())) {
          explain(diagnostics, "bind slot '" + s.name + "' references a missing size");
          return std::nullopt;
        }
        v = sizes[s.a];
        break;
      case BindSlot::Kind::ArrayExtent:
        if (s.a < 0 || s.a >= static_cast<int>(request.arrays.size()) || s.b < 0 ||
            s.b >= static_cast<int>(request.arrays[s.a].extents.size())) {
          explain(diagnostics, "bind slot '" + s.name + "' references a missing array extent");
          return std::nullopt;
        }
        v = request.arrays[s.a].extents[s.b];
        break;
      case BindSlot::Kind::Formula:
        if (s.formula == nullptr) {
          explain(diagnostics, "bind slot '" + s.name + "' carries no formula");
          return std::nullopt;
        }
        v = s.formula->eval(env);
        break;
    }
    overlay.boundArgs.emplace_back(s.name, v);
  }
  if (hasTileChoice) overlay.search = std::move(search);
  overlay.arrays = request.arrays;
  std::string sizeText;
  for (size_t j = 0; j < sizes.size(); ++j)
    sizeText += (j ? "," : "") + std::to_string(sizes[j]);
  overlay.diagnostic = {Severity::Note, "bind",
                        "family record bound at size (" + sizeText + "): " +
                            std::to_string(overlay.boundArgs.size()) +
                            " runtime args filled, " + std::to_string(info.guards.size()) +
                            " guards passed, no emission"};
  overlay.timing.pass = "bind";
  overlay.timing.ran = true;
  overlay.timing.millis =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  return overlay;
}

void applyBindOverlay(CompileResult& out, BindOverlay overlay) {
  if (overlay.search.has_value()) out.search = std::move(*overlay.search);
  if (out.kernel.has_value() && out.kernel->analysis.tileBlock != nullptr &&
      sameArrayShape(out.kernel->analysis.tileBlock->arrays, overlay.arrays))
    out.kernel->analysis.tileBlock->arrays = overlay.arrays;
  if (out.transformed != nullptr) out.transformed->arrays = overlay.arrays;
  if (out.input != nullptr) out.input->arrays = std::move(overlay.arrays);
  out.ok = true;
  out.cacheHit = false;
  out.diskHit = false;
  out.familyHit = true;
  out.artifactBound = true;
  out.boundArgs = std::move(overlay.boundArgs);
  out.diagnostics.assign(1, std::move(overlay.diagnostic));
  out.timings.assign(1, std::move(overlay.timing));
}

CompileResult materializeBind(const CompileResult& record, BindOverlay overlay) {
  CompileResult out = record.clone();
  applyBindOverlay(out, std::move(overlay));
  return out;
}

}  // namespace emm
