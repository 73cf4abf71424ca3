// PlanCache: memoized compilation results for the service layer.
//
// The benches and any service built on emm::Compiler re-compile identical
// blocks constantly (the same ME/matmul shapes with the same options). A
// PlanCache keys a finished CompileResult on the structural fingerprint of
// the source block plus the canonical hash of the option set (plus the
// skipped-pass set), and hands out independently owned copies, so a
// repeated compile costs one clone instead of the full pipeline. A clone
// shares the entry's blocks, AST and tables copy-on-write
// (support/deep_ptr.h): writing a hit never reaches the entry.
//
// What is cached: the complete, re-emittable plan products — the rendered
// artifact, the tiled kernel / scratchpad unit IR, the data plan, the
// tile-search outcome, the diagnostics, and the per-pass timings of the
// producing run (a hit's timings describe how the plan was originally
// built; CompileResult::cacheHit tells the two apart). Pipelines with
// replaced passes are never cached (arbitrary code cannot be
// fingerprinted); Compiler::compile() skips the cache for them.
//
// What is stored: `ok` pipeline results and disk-loaded results, never a
// failure and never a bind. A size the runtime binder serves from a warm
// family (CompileResult::artifactBound) is returned to its caller and not
// stored: the family tier already covers every in-envelope size, and
// re-binding a repeated size costs less than storing, publishing and
// evicting a clone per size. The daemon's fast path and the disk tier
// follow the same rule.
//
// Sharding: at daemon traffic levels a single cache mutex, not the
// pipeline, is the throughput ceiling — every warm hit serializes on it.
// The cache is therefore split into N shards (N = next power of two of the
// hardware concurrency by default, clamped so every shard owns at least one
// entry of capacity), selected by a mixed fingerprint of the key. Each
// shard has its own mutex, LRU recency list, in-flight map and counters,
// so requests for different shards never contend. Capacity is split across
// the shards (shard i gets capacity/N, the remainder distributed one
// each), and eviction is per shard: the shard's least recently USED entry
// goes, not its oldest insert. Hits re-touch their entry — under the shard
// mutex when the lookup already holds it, and via try_lock from the
// lock-free snapshot path, so a warm hit never blocks on a writer (a
// skipped touch under contention makes the recency order approximate;
// with `shards = 1` and no concurrency it is exact). A single-shard cache
// (`shards = 1`) reproduces the old global single-mutex behavior exactly —
// tests that need deterministic global eviction order and benchmark
// baselines use it.
//
// One tier, two record kinds: each shard holds one private Tier template
// twice, once for per-size results and once for size-generic families. The
// tier owns the authoritative map, the LRU order, the epoch-published
// snapshot, the hit/miss/eviction counters, the snapshot-then-mutex probe,
// insert-with-eviction and clear. The per-kind policies stay with the
// caller: a re-inserted result replaces the old one (and counts as a use),
// a family keeps its first writer, and a family is served only when its
// collision digest matches.
//
// Lock-free warm path: every mutation republishes the tier's entry map as
// an immutable copy-on-write snapshot behind a `std::atomic<
// std::shared_ptr<const ...>>` (an epoch publication: writers install a new
// epoch under the shard mutex; readers atomically load whichever epoch is
// current). Lookups probe the snapshot first and touch the shard mutex only
// on a snapshot miss (cold key, or a key whose epoch has not propagated
// yet) — a warm hit performs zero lock acquisitions. A stale snapshot can
// only under-report (a just-inserted key falls through to the mutex path; a
// just-evicted entry is served one last time, exactly as if the lookup had
// run before the eviction), never serve a wrong plan: entries are immutable
// once published and keyed by collision-guarded fingerprints.
//
// Counters are per-shard relaxed atomics. Hit counts are bumped off-lock on
// the snapshot path; miss/eviction counts flip under the shard mutex, so a
// stats() snapshot of one shard is internally coherent (entries never
// exceed misses) and totals across shards are exact once traffic quiesces.
//
// This is the first tier of a two-tier hierarchy: driver/disk_cache.h
// persists plans across processes, and Compiler::compile() resolves
// memory hit -> disk hit (promoted here) -> cold compile.
//
// Single-flight: getOrCompute() collapses concurrent misses on the same key
// to ONE pipeline run. The first caller becomes the leader and computes;
// followers block on a per-key in-flight latch and receive the leader's
// result as a cache hit, so a batch of identical kernels performs exactly
// one compile no matter how many workers race. A leader whose result is
// not stored has nothing to share. After a failure the followers retry
// and the next one leads; after a bind each woken follower binds for
// itself at once, in parallel, against the warm family, and no pipeline
// runs. The latch, like
// everything keyed, lives on the key's shard: a finished leader wakes
// exactly the followers parked on that shard's condition variable.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "support/fields.h"
#include "support/fingerprint.h"

namespace emm {

/// Cache key: (block fingerprint, options fingerprint, skipped-pass set).
struct PlanKey {
  u64 block = 0;    ///< hashProgramBlock of the source
  u64 options = 0;  ///< hashCompileOptions of the effective option set
  u64 passes = 0;   ///< digest of the sorted skipped-pass names

  auto operator<=>(const PlanKey&) const = default;
};

/// One 64-bit digest of a three-part key (PlanKey or FamilyKey): what shard
/// selection mixes and what the disk tier names a record file after.
template <class Key>
u64 keyDigest(const Key& key) {
  return hashCombine(key.block, hashCombine(key.options, key.passes));
}

/// Memoizes finished CompileResults by PlanKey (see file comment).
class PlanCache {
public:
  /// Counter totals aggregated over the shards. Each shard's contribution
  /// is read coherently (entries with the misses that produced them), so
  /// cross-field invariants like entries <= misses hold in every snapshot;
  /// totals are exact whenever no lookup is concurrently in flight.
  struct Stats {
    i64 hits = 0;       ///< lookups served from the cache
    i64 misses = 0;     ///< lookups that fell through (or led a compute)
    i64 entries = 0;    ///< results currently stored
    i64 evictions = 0;  ///< entries dropped by the capacity bound
    // Family tier (size-generic kernel-family plans; see family_plan.h).
    i64 familyHits = 0;       ///< family lookups served from the tier
    i64 familyMisses = 0;     ///< family lookups that fell through
    i64 familyEntries = 0;    ///< family plans currently stored
    i64 familyEvictions = 0;  ///< family plans dropped by the capacity bound

    static constexpr void fields(auto& v) {
      v.tag(kTagNone, "PlanCacheStats");
      v("hits", &Stats::hits);
      v("misses", &Stats::misses);
      v("entries", &Stats::entries);
      v("evictions", &Stats::evictions);
      v("familyHits", &Stats::familyHits);
      v("familyMisses", &Stats::familyMisses);
      v("familyEntries", &Stats::familyEntries);
      v("familyEvictions", &Stats::familyEvictions);
    }
  };

  /// `capacity` = max entries per tier before per-shard least-recently-used
  /// eviction (>= 1), split across the shards. `shards` = 0 picks the next
  /// power of two of the hardware concurrency (clamped so each shard owns
  /// capacity); `shards` = 1 is the exact single-mutex behavior of the
  /// pre-sharded cache. Non-power-of-two counts are rounded up.
  explicit PlanCache(size_t capacity = 1024, size_t shards = 0);
  ~PlanCache();

  /// Number of shards actually in use (a power of two).
  size_t shardCount() const { return shardCount_; }
  /// Index of the shard serving a PlanKey or a FamilyKey — stable for a
  /// given shard count. Exposed for shard-boundary tests and diagnostics.
  template <class Key>
  size_t shardOf(const Key& key) const;

  /// Returns an independently owned copy of the cached result with
  /// cacheHit set, or nullopt (counting a miss). Warm hits are served from
  /// the shard's lock-free snapshot.
  std::optional<CompileResult> lookup(const PlanKey& key);

  /// Stores a snapshot of `result` under `key`, overwriting any previous
  /// entry and evicting the shard's least recently used entry when over
  /// its capacity. Both a fresh insert and an overwrite count as a use. A
  /// failed result or a bind (artifactBound) is not stored.
  void insert(const PlanKey& key, const CompileResult& result);

  /// Single-flight lookup-or-compute. Returns a cached result (hit), or —
  /// when another caller is already computing this key — waits on its
  /// in-flight latch and returns that result as a hit. Otherwise the caller
  /// becomes the leader: exactly one miss is counted, `compute` runs
  /// without any lock held, and a result the store rule keeps (ok, not a
  /// bind) is stored for followers and future lookups. A leader with
  /// nothing stored (its result failed or was a bind, or compute threw)
  /// releases the key and wakes the followers. After a failure they retry
  /// and the next one becomes leader, so failures are never served from
  /// the cache; after a bind each computes for itself at once, unled and
  /// in parallel, so each bound request counts one miss and binds for
  /// itself.
  CompileResult getOrCompute(const PlanKey& key, const std::function<CompileResult()>& compute);

  // ---- family tier (size-generic kernel-family plans) ------------------
  /// Returns the stored family plan when both the key and the collision
  /// digest match, else nullptr (counting a family miss). The plan is
  /// shared, immutable and safe to use from any thread. Warm hits are
  /// served from the shard's lock-free snapshot.
  std::shared_ptr<const FamilyPlan> lookupFamily(const FamilyKey& key, u64 collisionDigest);
  /// Stores a family plan (first writer wins: a family is built once and
  /// republishing an identical plan is pointless churn — except that a plan
  /// carrying the family record replaces a stored record-less plan of the
  /// same digest). Capacity-bounded
  /// with per-shard least-recently-used eviction like the result tier:
  /// hits re-touch their family, so a hot family survives insert pressure.
  void insertFamily(const FamilyKey& key, u64 collisionDigest,
                    std::shared_ptr<const FamilyPlan> plan);

  Stats stats() const;
  size_t size() const;
  /// Drops entries (both tiers) and resets counters. Coherent across
  /// shards: every shard mutex is held for the duration, so no concurrent
  /// observer sees a half-cleared cache through the mutex path.
  void clear();

  /// Process-wide cache shared by every Compiler that enables caching
  /// without supplying its own.
  static PlanCache& global();

private:
  struct Shard;  ///< one independently locked slice, two tiers (plan_cache.cpp)

  template <class Key>
  Shard& shardFor(const Key& key) const;

  size_t shardCount_ = 1;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace emm
