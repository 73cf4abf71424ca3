#include "driver/compiler.h"

#include <algorithm>
#include <chrono>

#include "driver/disk_cache.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "driver/runtime_binder.h"
#include "support/serialize.h"
#include "support/diagnostics.h"
#include "support/fingerprint.h"
#include "support/thread_pool.h"

namespace emm {

std::string CompileResult::firstError() const {
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::Error) return d.message;
  return "";
}

const PassTiming* CompileResult::timing(const std::string& pass) const {
  for (const PassTiming& t : timings)
    if (t.pass == pass) return &t;
  return nullptr;
}

Compiler& Compiler::source(ProgramBlock block) {
  block.validate();
  source_ = std::move(block);
  return *this;
}

Compiler& Compiler::options(CompileOptions o) {
  options_ = std::move(o);
  return *this;
}

Compiler& Compiler::parameters(IntVec values) {
  options_.paramValues = std::move(values);
  return *this;
}

Compiler& Compiler::tileSizes(std::vector<i64> subTile) {
  options_.subTile = std::move(subTile);
  return *this;
}

Compiler& Compiler::blockTileSizes(std::vector<i64> blockTile) {
  options_.blockTile = std::move(blockTile);
  return *this;
}

Compiler& Compiler::threadTileSizes(std::vector<i64> threadTile) {
  options_.threadTile = std::move(threadTile);
  return *this;
}

Compiler& Compiler::tileCandidates(std::vector<std::vector<i64>> candidates) {
  options_.tileCandidates = std::move(candidates);
  return *this;
}

Compiler& Compiler::memoryLimitBytes(i64 bytes) {
  options_.memLimitBytes = bytes;
  return *this;
}

Compiler& Compiler::innerProcs(i64 procs) {
  options_.innerProcs = procs;
  return *this;
}

Compiler& Compiler::hoistCopies(bool on) {
  options_.hoistCopies = on;
  return *this;
}

Compiler& Compiler::useScratchpad(bool on) {
  options_.useScratchpad = on;
  return *this;
}

Compiler& Compiler::stageEverything(bool on) {
  options_.stageEverything = on;
  return *this;
}

Compiler& Compiler::partition(PartitionMode mode) {
  options_.partitionMode = mode;
  return *this;
}

Compiler& Compiler::delta(double d) {
  options_.delta = d;
  return *this;
}

Compiler& Compiler::scratchpadOnly(bool on) {
  options_.mode = on ? PipelineMode::ScratchpadOnly : PipelineMode::Auto;
  return *this;
}

Compiler& Compiler::exhaustiveSearch(bool on) {
  options_.searchMode = on ? TileSearchMode::Exhaustive : TileSearchMode::CoordinateDescent;
  return *this;
}

Compiler& Compiler::backend(std::string name) {
  options_.backendName = std::move(name);
  return *this;
}

Compiler& Compiler::kernelName(std::string name) {
  options_.kernelName = std::move(name);
  return *this;
}

Compiler& Compiler::cache(PlanCache* cache) {
  cache_ = cache;
  return *this;
}

Compiler& Compiler::diskCache(DiskPlanCache* cache) {
  diskCache_ = cache;
  ownedDiskCache_.reset();
  return *this;
}

Compiler& Compiler::diskCache(const std::string& dir) {
  ownedDiskCache_ = std::make_shared<DiskPlanCache>(dir);
  diskCache_ = nullptr;
  return *this;
}

DiskPlanCache* Compiler::diskPlanCache() const {
  return diskCache_ != nullptr ? diskCache_ : ownedDiskCache_.get();
}

Compiler& Compiler::jobs(int n) {
  EMM_REQUIRE(n >= 0, "jobs() takes a non-negative worker count");
  if (n != jobs_) pool_.reset();  // recreated lazily at the new size
  jobs_ = n;
  return *this;
}

Compiler& Compiler::skipPass(const std::string& name) {
  EMM_REQUIRE(PassRegistry::standard().contains(name), "unknown pass '" + name + "'");
  if (std::find(skipped_.begin(), skipped_.end(), name) == skipped_.end())
    skipped_.push_back(name);
  return *this;
}

Compiler& Compiler::replacePass(const std::string& name, std::shared_ptr<Pass> pass) {
  EMM_REQUIRE(PassRegistry::standard().contains(name), "unknown pass '" + name + "'");
  EMM_REQUIRE(pass != nullptr, "null replacement for pass '" + name + "'");
  replacements_[name] = std::move(pass);
  return *this;
}

std::vector<std::string> Compiler::passNames() const {
  return PassRegistry::standard().order();
}

CompileResult Compiler::compile(ProgramBlock block) {
  source(std::move(block));
  return compile();
}

CompileOptions Compiler::effectiveOptions() const {
  CompileOptions o = options_;
  // Cell-style targets cannot touch global memory during compute (Section 3):
  // selecting the cell backend forces every reference through the local
  // store, exactly as setting stageEverything by hand would.
  if (o.backendName == "cell") o.stageEverything = true;
  return o;
}

namespace {

u64 skippedPassDigest(std::vector<std::string> skipped) {
  std::sort(skipped.begin(), skipped.end());
  Hasher h;
  h.mix(skipped);
  return h.digest();
}

PlanKey planKeyFor(const ProgramBlock& block, const CompileOptions& options,
                   const std::vector<std::string>& skipped) {
  PlanKey key;
  key.block = hashProgramBlock(block);
  key.options = hashCompileOptions(options);
  key.passes = skippedPassDigest(skipped);
  return key;
}

/// Skipped-pass digest for the family key. Codegen consumes pipeline
/// products and contributes nothing to the family plan, so skipping it
/// must not split the family: a cache warmed by full compiles serves
/// --emit=plan/stats sweeps and vice versa.
u64 familyPassesDigest(const std::vector<std::string>& skipped) {
  std::vector<std::string> relevant;
  for (const std::string& name : skipped)
    if (name != "codegen") relevant.push_back(name);
  return skippedPassDigest(relevant);
}

/// A kernel family's cache identity: the key of its canonical forms and the
/// collision-guard digests of those forms.
struct FamilyIdentity {
  FamilyKey key;
  u64 blockDigest = 0;
  u64 optionsDigest = 0;

  /// The memory tier's one collision digest.
  u64 digest() const { return hashCombine(blockDigest, optionsDigest); }
};

FamilyIdentity familyIdentity(const ProgramBlock& block, const CompileOptions& options,
                              const std::vector<std::string>& skipped) {
  const ProgramBlock famBlock = familyCanonicalBlock(block);
  const CompileOptions famOptions = familyCanonicalOptions(options);
  return {{hashProgramBlock(famBlock), hashCompileOptions(famOptions),
           familyPassesDigest(skipped)},
          digestProgramBlock(famBlock),
          digestCompileOptions(famOptions)};
}

}  // namespace

CompileResult Compiler::compile() {
  EMM_REQUIRE(source_.has_value(), "Compiler::compile() called without a source block");
  // Replaced passes run arbitrary code that a fingerprint cannot witness;
  // those pipelines always run and are never stored in either tier.
  if ((cache_ != nullptr || diskPlanCache() != nullptr) && replacements_.empty()) {
    PlanKey key = planKeyFor(*source_, effectiveOptions(), skipped_);
    // Single-flight: concurrent misses on the same key collapse to one
    // compute (disk lookup, bind or pipeline run); followers receive the
    // leader's result as a cache hit. A disk hit returned by the leader is
    // an ok result, so getOrCompute promotes it into the memory tier; a
    // bind is returned but stored in neither tier. The cache is sharded by
    // key fingerprint with a lock-free snapshot warm path, so concurrent
    // compiles of DIFFERENT keys never serialize here — the single-flight
    // latch is per key on the key's own shard.
    if (cache_ != nullptr)
      return cache_->getOrCompute(key, [this, &key] { return computeWithDiskTier(key); });
    return computeWithDiskTier(key);
  }
  return runPipeline();
}

CompileResult Compiler::computeWithDiskTier(const PlanKey& key) {
  DiskPlanCache* disk = diskPlanCache();
  const CompileOptions opts = effectiveOptions();
  if (disk != nullptr && source_.has_value()) {
    if (std::optional<CompileResult> hit = disk->lookup(key, *source_, opts))
      return std::move(*hit);
  }
  // Family tier: one size-generic plan per kernel family (same block and
  // options modulo the problem sizes). The family's key and digests are
  // computed ONCE, up front — runPipeline() may consume source_ on one-shot
  // async snapshots, so nothing below may touch it afterwards.
  const FamilyIdentity fam = familyIdentity(*source_, opts, skipped_);
  std::shared_ptr<const FamilyPlan> family;
  if (cache_ != nullptr) family = cache_->lookupFamily(fam.key, fam.digest());
  if (family == nullptr && disk != nullptr) {
    family = disk->lookupFamily(fam.key, fam.blockDigest, fam.optionsDigest);
    if (family != nullptr && cache_ != nullptr) cache_->insertFamily(fam.key, fam.digest(), family);
  }
  // Binder fast path: a size-generic family record serves this size with
  // no pipeline run and no emission. Neither per-size tier stores the
  // bound result: the family record already covers every in-envelope size,
  // so one .emmplan or one memory entry per size would just duplicate it
  // (the return below skips the disk insert, and the memory tier's store
  // rule keeps binds out). The family key deliberately ignores a skipped
  // codegen pass, so an artifact-less request must not be answered with
  // the record's artifact.
  const bool codegenSkipped =
      std::find(skipped_.begin(), skipped_.end(), "codegen") != skipped_.end();
  std::vector<Diagnostic> bindDiags;
  if (family != nullptr && family->haveRecord && source_.has_value() && !codegenSkipped) {
    if (std::optional<BindOverlay> overlay = certifyBind(*family, *source_, opts, &bindDiags))
      return materializeBind(*family->record, std::move(*overlay));
  }
  std::shared_ptr<FamilyPlan> produced;
  CompileResult result = runPipeline(family, &produced);
  // Surface why the binder fell back ahead of the pipeline's diagnostics.
  if (!bindDiags.empty())
    result.diagnostics.insert(result.diagnostics.begin(), bindDiags.begin(), bindDiags.end());
  if (result.ok) {
    // Publish the family products of a cold run before the per-size entry,
    // so a racing sweep member sees the family as soon as the plan exists.
    // A family first built with codegen skipped has no record; the first
    // member whose artifact qualifies republishes a copy that carries one,
    // so the sizes after it bind instead of re-emitting.
    std::shared_ptr<FamilyPlan> publish = std::move(produced);
    if (publish == nullptr && family != nullptr && !family->haveRecord &&
        qualifiesAsFamilyRecord(result))
      publish = std::make_shared<FamilyPlan>(*family);
    if (publish != nullptr) {
      attachFamilyRecord(*publish, result, opts);
      if (cache_ != nullptr) cache_->insertFamily(fam.key, fam.digest(), publish);
      if (disk != nullptr)
        disk->insertFamily(fam.key, fam.blockDigest, fam.optionsDigest, publish);
    }
    // The disk tier never fails a compile: a full or read-only cache
    // directory silently degrades to cold compiles.
    if (disk != nullptr) disk->insert(key, opts, result);
  }
  return result;
}

std::shared_ptr<const FamilyPlan> Compiler::cachedFamily(const ProgramBlock& block,
                                                         const CompileOptions& opts) {
  if (cache_ == nullptr) return nullptr;
  const FamilyIdentity fam = familyIdentity(block, opts, skipped_);
  return cache_->lookupFamily(fam.key, fam.digest());
}

std::shared_ptr<const FamilyPlan> Compiler::cachedFamily(const ProgramBlock& block) {
  return cachedFamily(block, effectiveOptions());
}

std::optional<FamilyBind> Compiler::tryCertifyFamily(const ProgramBlock& block) {
  if (cache_ == nullptr || !replacements_.empty()) return std::nullopt;
  if (std::find(skipped_.begin(), skipped_.end(), "codegen") != skipped_.end())
    return std::nullopt;
  const CompileOptions opts = effectiveOptions();
  std::shared_ptr<const FamilyPlan> family = cachedFamily(block, opts);
  if (family == nullptr || !family->haveRecord) return std::nullopt;
  std::optional<BindOverlay> overlay = certifyBind(*family, block, opts, nullptr);
  if (!overlay) return std::nullopt;
  return FamilyBind{family->record, std::move(*overlay)};
}

std::optional<CompileResult> Compiler::tryBindFamily(const ProgramBlock& block) {
  std::optional<FamilyBind> bind = tryCertifyFamily(block);
  if (!bind) return std::nullopt;
  return materializeBind(*bind->record, std::move(bind->overlay));
}

CompileResult Compiler::runPipeline(std::shared_ptr<const FamilyPlan> familyIn,
                                    std::shared_ptr<FamilyPlan>* familyOut) {
  const PassRegistry& registry = PassRegistry::standard();

  CompileState state;
  state.options = effectiveOptions();
  state.familyIn = std::move(familyIn);
  if (state.familyIn == nullptr && familyOut != nullptr)
    state.familyOut = std::make_shared<FamilyPlan>();
  // Keep Compiler reusable by copying the source — except for one-shot
  // async snapshots, which own their source exclusively and may donate it.
  state.input = consumeSource_ ? DeepPtr<ProgramBlock>::make(std::move(*source_))
                               : DeepPtr<ProgramBlock>::make(*source_);
  if (consumeSource_) source_.reset();
  std::vector<PassTiming> timings;

  for (const std::string& passName : registry.order()) {
    PassTiming timing;
    timing.pass = passName;
    if (std::find(skipped_.begin(), skipped_.end(), passName) != skipped_.end()) {
      timing.skipped = true;
      state.note(passName, "skipped by request");
      // Record the entry and continue with the next pass.
      // (Timing stays 0; ran stays false.)
      timings.push_back(timing);
      continue;
    }
    auto it = replacements_.find(passName);
    PassPtr ownedPass;
    Pass* pass = nullptr;
    if (it != replacements_.end()) {
      pass = it->second.get();
    } else {
      ownedPass = registry.create(passName);
      pass = ownedPass.get();
    }
    const auto start = std::chrono::steady_clock::now();
    try {
      pass->run(state);
    } catch (const ApiError& e) {
      state.error(passName, e.what());
    }
    const auto end = std::chrono::steady_clock::now();
    timing.ran = true;
    timing.millis = std::chrono::duration<double, std::milli>(end - start).count();
    timings.push_back(timing);
    // Surface any sub-stage timings the pass recorded (e.g. the tilesearch
    // pass splits plan construction from candidate evaluation).
    for (auto& [sub, millis] : state.subTimings) {
      PassTiming st;
      st.pass = sub;
      st.millis = millis;
      st.ran = true;
      timings.push_back(std::move(st));
    }
    state.subTimings.clear();
    if (state.failed) break;
  }

  CompileResult result;
  result.ok = !state.failed;
  result.familyHit = state.familyUsed;
  if (familyOut != nullptr) *familyOut = std::move(state.familyOut);
  result.diagnostics = std::move(state.diagnostics);
  result.timings = std::move(timings);
  static_cast<PipelineProducts&>(result) = std::move(static_cast<PipelineProducts&>(state));
  return result;
}

void Compiler::ensurePool() {
  if (pool_ == nullptr)
    pool_ = std::make_shared<ThreadPool>(jobs_ > 0 ? jobs_ : ThreadPool::defaultConcurrency());
}

std::future<CompileResult> Compiler::compileAsync() {
  EMM_REQUIRE(source_.has_value(), "Compiler::compileAsync() called without a source block");
  ensurePool();
  // The task compiles a snapshot of the current configuration, so later
  // builder mutations don't race. The snapshot must not share the pool:
  // a worker releasing the last pool reference would join itself. Since the
  // snapshot is single-use, its pipeline run may consume the source block
  // in place instead of copying it again.
  auto snapshot = std::make_shared<Compiler>(*this);
  snapshot->pool_.reset();
  snapshot->consumeSource_ = true;
  auto promise = std::make_shared<std::promise<CompileResult>>();
  std::future<CompileResult> future = promise->get_future();
  pool_->submit([snapshot, promise] {
    try {
      promise->set_value(snapshot->compile());
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

std::future<CompileResult> Compiler::compileAsync(ProgramBlock block) {
  source(std::move(block));
  return compileAsync();
}

std::vector<CompileResult> Compiler::compileBatch(std::vector<ProgramBlock> blocks) {
  ensurePool();
  std::vector<std::future<CompileResult>> futures(blocks.size());
  // Family-aware scheduling: group the batch by family key, compile ONE
  // leader per family first, and fan the remaining members out as
  // bind-and-emit followers only once the leader's family plan has landed
  // in the cache. Without that ordering a sweep over N sizes of one kernel
  // races N cold pipelines before any of them publishes the family plan.
  // Without a cache there is no published plan to reuse (and replaced
  // passes bypass the tiers), so fall back to plain fan-out.
  const bool familyAware = (cache_ != nullptr || diskPlanCache() != nullptr) &&
                           replacements_.empty() && blocks.size() > 1;
  if (!familyAware) {
    for (size_t i = 0; i < blocks.size(); ++i) {
      source(std::move(blocks[i]));
      futures[i] = compileAsync();
    }
  } else {
    const CompileOptions opts = effectiveOptions();
    // Group before any block is moved; input order is preserved within a
    // family, so the leader is always the first-listed member.
    std::map<FamilyKey, std::vector<size_t>> families;
    for (size_t i = 0; i < blocks.size(); ++i)
      families[familyIdentity(blocks[i], opts, skipped_).key].push_back(i);
    // One gate per family, released when its leader's compile returns.
    // Submission order — every leader, then every follower — plus the
    // pool's FIFO dispatch guarantees each leader is dequeued before any
    // follower, so a follower blocking on its gate can never occupy the
    // worker its own leader still needs (no deadlock at any pool width).
    struct Follower {
      size_t index;
      std::shared_ptr<Compiler> snapshot;
      std::shared_future<void> gate;
    };
    std::vector<Follower> followers;
    for (auto& [key, members] : families) {
      auto gatePromise = std::make_shared<std::promise<void>>();
      std::shared_future<void> gate = gatePromise->get_future().share();
      for (size_t m = 0; m < members.size(); ++m) {
        const size_t index = members[m];
        source(std::move(blocks[index]));
        auto snapshot = std::make_shared<Compiler>(*this);
        snapshot->pool_.reset();
        snapshot->consumeSource_ = true;
        if (m == 0) {
          auto promise = std::make_shared<std::promise<CompileResult>>();
          futures[index] = promise->get_future();
          pool_->submit([snapshot, promise, gatePromise] {
            try {
              promise->set_value(snapshot->compile());
            } catch (...) {
              promise->set_exception(std::current_exception());
            }
            // Released on failure too: followers then compile cold rather
            // than wait forever.
            gatePromise->set_value();
          });
        } else {
          followers.push_back({index, std::move(snapshot), gate});
        }
      }
    }
    for (Follower& f : followers) {
      auto promise = std::make_shared<std::promise<CompileResult>>();
      futures[f.index] = promise->get_future();
      pool_->submit([snapshot = std::move(f.snapshot), promise, gate = f.gate] {
        gate.wait();
        try {
          promise->set_value(snapshot->compile());
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      });
    }
  }
  source_.reset();  // the batch consumed the blocks; leave the builder clean
  std::vector<CompileResult> results;
  results.reserve(futures.size());
  for (std::future<CompileResult>& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace emm
