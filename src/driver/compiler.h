// emm::Compiler — the unified driver for the paper's compilation flow.
//
// One stable entry point replaces the hand-wired stage calls that the tool,
// examples and benches used to duplicate:
//
//   CompileResult r = Compiler(buildMeBlock(ni, nj, w))
//                         .parameters({ni, nj, w})
//                         .memoryLimitBytes(16 * 1024)
//                         .backend("cuda")
//                         .compile();
//   if (!r.ok) { fputs(renderDiagnostics(r.diagnostics).c_str(), stderr); ... }
//   fputs(r.artifact.c_str(), stdout);
//
// The pipeline is the standard PassRegistry order (deps -> transform ->
// tilesearch -> tiling -> smem -> codegen); individual passes can be
// skipped or replaced for experiments and tests. Results are structured:
// the CodeUnit, the parallelism plan, the tile-search outcome, per-pass
// timings, and Diagnostic records instead of ad-hoc strings.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/pass.h"

namespace emm {

class DiskPlanCache;
struct FamilyPlan;
class PlanCache;
struct PlanKey;
class ThreadPool;

/// Wall-clock record of one pipeline stage.
struct PassTiming {
  std::string pass;
  double millis = 0;
  bool ran = false;      ///< run() was invoked
  bool skipped = false;  ///< user-skipped via Compiler::skipPass

  static constexpr void fields(auto& v) {
    v.tag(kTagPassTiming, "PassTiming");
    v("pass", &PassTiming::pass);
    v("millis", &PassTiming::millis);
    v("ran", &PassTiming::ran);
    v("skipped", &PassTiming::skipped);
  }
};

/// Everything a compilation produced: the pipeline products (block, plan,
/// search outcome, kernel/unit, artifact — see PipelineProducts) plus the
/// verdict, ordered diagnostics, and per-pass timings. Moves and copies
/// keep the internal back-pointers (CodeUnit::source, DataPlan::block)
/// naming the result's own blocks (see PipelineProducts).
struct CompileResult : PipelineProducts {
  bool ok = false;  ///< pipeline completed without error diagnostics
  /// True when this result came from the PlanCache instead of a pipeline
  /// run. The products are a deep copy of the cached plan; `timings`
  /// describe the run that originally produced it.
  bool cacheHit = false;
  /// True when this result was deserialized from the on-disk plan cache
  /// (DiskPlanCache) instead of a pipeline run; `timings` describe the run
  /// that originally produced the plan. A memory-cache replay of a
  /// disk-loaded plan reports cacheHit only.
  bool diskHit = false;
  /// True when this result was instantiated from the size-generic FAMILY
  /// tier: the pipeline ran, but dependence analysis, the transform search
  /// and/or the symbolic tile-plan build were served from a kernel-family
  /// plan compiled once for the whole `--size` sweep, leaving only the
  /// cheap per-size bind-and-emit stages. Like cacheHit/diskHit this is a
  /// transport flag: cache replays of a family-instantiated plan report
  /// their own tier instead.
  bool familyHit = false;
  /// True when this result was BOUND from the family's size-generic record
  /// (RuntimeBinder): no pipeline run and no emission happened — the
  /// artifact text is the record's, verbatim, and `boundArgs` carries the
  /// runtime kernel-argument values for the requested size. Implies
  /// familyHit. Transport-only: never serialized, cache replays re-derive
  /// their own tier flags.
  bool artifactBound = false;
  /// Runtime kernel arguments filled by the binder, in signature order
  /// (empty unless artifactBound).
  std::vector<std::pair<std::string, i64>> boundArgs;
  std::vector<Diagnostic> diagnostics;
  std::vector<PassTiming> timings;  ///< one entry per pipeline pass, in order

  /// First error message, or "" when ok.
  std::string firstError() const;
  /// Timing entry for a pass, or nullptr.
  const PassTiming* timing(const std::string& pass) const;

  /// A deep copy (the same as copying); used by the plan cache and the
  /// runtime binder.
  CompileResult clone() const { return *this; }

  static constexpr void fields(auto& v) {
    v.tag(kTagCompileResult, "CompileResult");
    v.template base<PipelineProducts>("products");
    v("ok", &CompileResult::ok);
    v.skip("cacheHit", "transport flag: set by the tier that served the result");
    v.skip("diskHit", "transport flag: set by the tier that served the result");
    v.skip("familyHit", "transport flag: set by the tier that served the result");
    v.skip("artifactBound", "transport flag: set by the runtime binder");
    v.skip("boundArgs", "transport: filled by the runtime binder per request");
    v("diagnostics", &CompileResult::diagnostics);
    v("timings", &CompileResult::timings);
  }
};

/// Everything a family bind writes into the record's copy
/// (driver/runtime_binder.h): certifyBind computes it without touching the
/// record, applyBindOverlay patches a copy with it. The daemon ships it in
/// place of the bound result once the connection holds the record
/// (service/protocol.h, BoundReply).
struct BindOverlay {
  /// This size's plan-only re-search; set when the record made a tile choice.
  std::optional<TileSearchResult> search;
  /// The request's array table, swapped in wherever a block rides along.
  std::vector<ArrayDecl> arrays;
  /// Runtime kernel arguments in signature order (CompileResult::boundArgs).
  std::vector<std::pair<std::string, i64>> boundArgs;
  Diagnostic diagnostic;  ///< the one "family record bound at size" note
  PassTiming timing;      ///< the one `bind` timing

  static constexpr void fields(auto& v) {
    v.tag(kTagBindOverlay, "BindOverlay");
    v("search", &BindOverlay::search);
    v("arrays", &BindOverlay::arrays);
    v.skip("boundArgs", "transport: not on the wire, as in CompileResult");
    v("diagnostic", &BindOverlay::diagnostic);
    v("timing", &BindOverlay::timing);
  }
};

/// A certified family bind: the family's immutable record plus the overlay
/// that turns a copy of it into the bound result.
struct FamilyBind {
  std::shared_ptr<const CompileResult> record;
  BindOverlay overlay;
};

/// Builder-style façade over the pass pipeline. Reusable: compile() may be
/// called repeatedly (e.g. with different options between calls).
class Compiler {
public:
  /// An empty builder; set a source via source() or compile(block).
  Compiler() = default;
  /// Builder seeded with a validated source block.
  explicit Compiler(ProgramBlock block) { source(std::move(block)); }

  // ---- configuration ----
  /// Sets (and validates) the block to compile. Throws ApiError on
  /// malformed blocks.
  Compiler& source(ProgramBlock block);
  /// Replaces the entire option set.
  Compiler& options(CompileOptions o);
  /// Direct access to the full option set (for knobs without sugar).
  CompileOptions& opts() { return options_; }
  const CompileOptions& opts() const { return options_; }

  /// Concrete problem-size binding for the block's parameters.
  Compiler& parameters(IntVec values);
  /// Explicit sub-tile sizes (one per common loop); empty runs the search.
  Compiler& tileSizes(std::vector<i64> subTile);
  /// Block-tile sizes per space loop; empty defaults to 2x the sub-tile.
  Compiler& blockTileSizes(std::vector<i64> blockTile);
  /// Thread-tile sizes per space loop; empty defaults to all 1.
  Compiler& threadTileSizes(std::vector<i64> threadTile);
  /// Candidate tile sizes per loop for the search; empty uses a geometric
  /// ladder.
  Compiler& tileCandidates(std::vector<std::vector<i64>> candidates);
  /// Scratchpad capacity in bytes (the Section-4.3 Mup constraint).
  Compiler& memoryLimitBytes(i64 bytes);
  /// Inner-level process count P (warp size on the GPU target).
  Compiler& innerProcs(i64 procs);
  /// Section-4.2 copy hoisting on/off.
  Compiler& hoistCopies(bool on);
  /// When false, the paper's "GPU w/o scratchpad" baseline.
  Compiler& useScratchpad(bool on);
  /// Stages every reference through the local store (Cell-style targets).
  Compiler& stageEverything(bool on);
  /// Reference-grouping mode for the Section-3 partitioner.
  Compiler& partition(PartitionMode mode);
  /// Algorithm-1 constant-reuse threshold (the paper fixes 0.30).
  Compiler& delta(double d);
  /// Runs the Figure-1 flow only (Section-3 planning, no tiling).
  Compiler& scratchpadOnly(bool on = true);
  /// Uses the exhaustive candidate-grid oracle instead of the fast solver.
  Compiler& exhaustiveSearch(bool on = true);
  /// Codegen target ("c", "cuda", "cell"); checked by the codegen pass.
  Compiler& backend(std::string name);
  /// Function name used in the emitted source.
  Compiler& kernelName(std::string name);

  // ---- service configuration ----
  /// Attaches a plan cache (nullptr detaches). compile() then returns
  /// cached results for (block fingerprint, options hash, skipped passes)
  /// it has seen succeed before, with CompileResult::cacheHit set.
  /// Pipelines with replaced passes bypass the cache. PlanCache::global()
  /// is the process-wide instance.
  Compiler& cache(PlanCache* cache);
  const PlanCache* planCache() const { return cache_; }
  /// Attaches a persistent on-disk cache as the second tier (nullptr
  /// detaches): compile() then resolves memory hit -> disk hit -> cold
  /// compile, promotes disk hits into the attached memory cache, and
  /// writes successful cold compiles back to disk. Disk hits set
  /// CompileResult::diskHit. The cache must outlive the Compiler (and any
  /// futures it spawned); replaced passes bypass both tiers.
  Compiler& diskCache(DiskPlanCache* cache);
  /// Convenience: creates (and owns) a DiskPlanCache rooted at `dir`,
  /// creating the directory if needed. Throws ApiError when the directory
  /// cannot be created.
  Compiler& diskCache(const std::string& dir);
  /// The attached disk tier, or nullptr.
  DiskPlanCache* diskPlanCache() const;
  /// Worker count for compileAsync/compileBatch (0 = hardware default).
  /// The pool is created lazily on the first async/batch call.
  Compiler& jobs(int n);

  // ---- pass control ----
  /// Skips a standard pass. Throws ApiError for names not in the registry.
  Compiler& skipPass(const std::string& name);
  /// Replaces a standard pass with a custom implementation (shared so the
  /// Compiler stays reusable). Throws ApiError for unknown names.
  Compiler& replacePass(const std::string& name, std::shared_ptr<Pass> pass);
  /// Effective pipeline order (skipped passes still listed; they are marked
  /// in CompileResult::timings instead).
  std::vector<std::string> passNames() const;

  // ---- execution ----
  /// Compiles the configured source block. Throws ApiError when no source
  /// was set; all pipeline failures are reported via CompileResult instead.
  CompileResult compile();
  /// One-shot convenience: sets the source, then compiles.
  CompileResult compile(ProgramBlock block);

  /// Compiles the current configuration on the thread pool and returns a
  /// future. The configuration is snapshotted at the call, so the builder
  /// may be reconfigured (or destroyed — the snapshot owns everything it
  /// needs except the attached cache, which must outlive the future)
  /// immediately afterwards. Replacement passes shared with an async
  /// compile must be thread-safe.
  std::future<CompileResult> compileAsync();
  /// One-shot convenience: sets the source, then compiles asynchronously.
  std::future<CompileResult> compileAsync(ProgramBlock block);

  /// Compiles every block with the current options over the thread pool and
  /// returns results in input order. With a cache attached, the batch is
  /// scheduled family-aware: blocks are grouped by family key (same kernel
  /// modulo problem sizes), one leader per family compiles first, and the
  /// remaining members fan out as cheap bind-and-emit followers once the
  /// leader's family plan has landed — so a size sweep runs one cold
  /// pipeline per kernel, not one per size. Duplicate blocks resolve via
  /// the per-size cache tier as before.
  std::vector<CompileResult> compileBatch(std::vector<ProgramBlock> blocks);

  /// Family fast path for services: resolves the block's family in the
  /// ATTACHED MEMORY cache only (lock-free snapshot read) and, when the
  /// family carries a size-generic record, certifies the bind via
  /// RuntimeBinder — guard check plus argument fill, no pipeline run, no
  /// emission, no disk I/O, and no copy of the record. Returns the record
  /// and its overlay, or nullopt on any miss or guard rejection; the
  /// caller then dispatches a full compile. Cheap enough to run on a
  /// connection thread ahead of the compile pool.
  std::optional<FamilyBind> tryCertifyFamily(const ProgramBlock& block);
  /// tryCertifyFamily, materialized into the bound result.
  std::optional<CompileResult> tryBindFamily(const ProgramBlock& block);
  /// The block's family plan in the ATTACHED MEMORY cache under the
  /// current options (counting a family hit or miss), or null.
  std::shared_ptr<const FamilyPlan> cachedFamily(const ProgramBlock& block);

private:
  std::shared_ptr<const FamilyPlan> cachedFamily(const ProgramBlock& block,
                                                 const CompileOptions& opts);
  CompileOptions effectiveOptions() const;
  CompileResult runPipeline(std::shared_ptr<const FamilyPlan> familyIn = nullptr,
                            std::shared_ptr<FamilyPlan>* familyOut = nullptr);
  /// Disk lookup -> cold compile -> disk write-back; the "compute" half of
  /// the tiered flow (runs as the single-flight leader when a memory cache
  /// is attached).
  CompileResult computeWithDiskTier(const PlanKey& key);
  void ensurePool();

  CompileOptions options_;
  std::optional<ProgramBlock> source_;
  std::vector<std::string> skipped_;
  std::map<std::string, std::shared_ptr<Pass>> replacements_;
  PlanCache* cache_ = nullptr;
  DiskPlanCache* diskCache_ = nullptr;
  /// Owns the cache created by diskCache(dir); shared so async snapshots
  /// keep it alive.
  std::shared_ptr<DiskPlanCache> ownedDiskCache_;
  int jobs_ = 0;
  std::shared_ptr<ThreadPool> pool_;
  /// Set on single-use async snapshots: runPipeline() may move the source
  /// block into the pipeline instead of copying it.
  bool consumeSource_ = false;
};

}  // namespace emm
