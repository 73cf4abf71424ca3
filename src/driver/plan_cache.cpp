#include "driver/plan_cache.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "support/diagnostics.h"
#include "support/serialize.h"

namespace emm {

namespace {

/// Final avalanche of a 64-bit hash (the 64-bit finalizer from MurmurHash3).
/// The structural fingerprints are FNV-1a digests whose low bits correlate
/// for near-identical inputs (e.g. a --size sweep); shard selection needs
/// every bit of the key to influence the index or a sweep would pile one
/// shard high while the others idle.
u64 mix64(u64 x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

size_t nextPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// Resolves the shard count: an explicit request is rounded up to a power
/// of two; 0 asks for the hardware concurrency. Always clamped so every
/// shard owns at least one entry of `capacity` (a cache of capacity 2
/// gets at most 2 shards — per-shard eviction must still be able to hold
/// an entry per shard) and to a sane ceiling.
size_t resolveShardCount(size_t requested, size_t capacity) {
  size_t n = requested != 0 ? requested : std::max<size_t>(1, std::thread::hardware_concurrency());
  n = nextPow2(std::min<size_t>(n, 256));
  while (n > capacity) n >>= 1;
  return std::max<size_t>(1, n);
}

/// Settles the derived answers of a plan about to become a result-tier
/// snapshot, so every hit's clone inherits them (see settleDerivedAnswers).
/// A binder result is a clone of an already-settled family record that the
/// bind touched no polyhedron of, so it is skipped.
void settleForSnapshot(const CompileResult& result) {
  if (!result.artifactBound) settleDerivedAnswers(result);
}

}  // namespace

PlanCache::PlanCache(size_t capacity, size_t shards) {
  capacity = std::max<size_t>(1, capacity);
  shardCount_ = resolveShardCount(shards, capacity);
  shards_ = std::make_unique<Shard[]>(shardCount_);
  // Split the budget: shard i gets capacity/N plus one unit of the
  // remainder, so the totals sum to exactly `capacity`.
  const size_t base = capacity / shardCount_;
  const size_t rem = capacity % shardCount_;
  for (size_t i = 0; i < shardCount_; ++i) {
    shards_[i].capacity = base + (i < rem ? 1 : 0);
    shards_[i].snapshot.store(std::make_shared<const ResultMap>(), std::memory_order_release);
    shards_[i].familySnapshot.store(std::make_shared<const FamilyMap>(),
                                    std::memory_order_release);
  }
}

size_t PlanCache::shardOf(const PlanKey& key) const {
  const u64 h = mix64(hashCombine(key.block, hashCombine(key.options, key.passes)));
  return static_cast<size_t>(h & (shardCount_ - 1));
}

size_t PlanCache::shardOfFamily(const FamilyKey& key) const {
  const u64 h = mix64(hashCombine(key.block, hashCombine(key.options, key.passes)));
  return static_cast<size_t>(h & (shardCount_ - 1));
}

PlanCache::Shard& PlanCache::shardFor(const PlanKey& key) const { return shards_[shardOf(key)]; }

PlanCache::Shard& PlanCache::shardForFamily(const FamilyKey& key) const {
  return shards_[shardOfFamily(key)];
}

CompileResult PlanCache::cloneHit(const CompileResult& entry) {
  // Clone outside any lock: deep copies are cheap next to a compile but not
  // free, and pool workers hit the cache concurrently.
  CompileResult out = entry.clone();
  out.cacheHit = true;
  out.diskHit = false;    // a memory replay, even of a disk-loaded plan
  out.familyHit = false;  // the replay itself did not instantiate a family
  return out;
}

std::optional<CompileResult> PlanCache::lookup(const PlanKey& key) {
  Shard& shard = shardFor(key);
  std::shared_ptr<const CompileResult> entry;
  {
    // Lock-free warm path: probe the published epoch. A hit touches no lock.
    std::shared_ptr<const ResultMap> snap = shard.snapshot.load(std::memory_order_acquire);
    auto it = snap->find(key);
    if (it != snap->end()) entry = it->second;
  }
  if (entry == nullptr) {
    // Snapshot miss: consult the authoritative map (the key may have been
    // inserted since the last epoch was published).
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    entry = it->second;
    touchLocked(shard, key);
  } else {
    touchLockFree(shard, key);
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return cloneHit(*entry);
}

void PlanCache::touchLocked(Shard& shard, const PlanKey& key) {
  auto it = shard.lruPos.find(key);
  if (it != shard.lruPos.end())
    shard.lruOrder.splice(shard.lruOrder.end(), shard.lruOrder, it->second);
}

void PlanCache::touchLockFree(Shard& shard, const PlanKey& key) {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (lock.owns_lock()) touchLocked(shard, key);
}

void PlanCache::touchFamilyLocked(Shard& shard, const FamilyKey& key) {
  auto it = shard.familyPos.find(key);
  if (it != shard.familyPos.end())
    shard.familyOrder.splice(shard.familyOrder.end(), shard.familyOrder, it->second);
}

void PlanCache::touchFamilyLockFree(Shard& shard, const FamilyKey& key) {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (lock.owns_lock()) touchFamilyLocked(shard, key);
}

void PlanCache::insert(const PlanKey& key, const CompileResult& result) {
  settleForSnapshot(result);
  auto snapshot = std::make_shared<const CompileResult>(result.clone());
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  insertLocked(shard, key, std::move(snapshot));
}

void PlanCache::insertLocked(Shard& shard, const PlanKey& key,
                             std::shared_ptr<const CompileResult> snapshot) {
  auto [it, inserted] = shard.entries.emplace(key, snapshot);
  if (inserted) {
    shard.lruPos[key] = shard.lruOrder.insert(shard.lruOrder.end(), key);
    if (shard.entries.size() > shard.capacity) {
      const PlanKey victim = shard.lruOrder.front();
      shard.lruOrder.pop_front();
      shard.lruPos.erase(victim);
      shard.entries.erase(victim);
      shard.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    it->second = std::move(snapshot);  // refresh in place
    touchLocked(shard, key);           // an overwrite counts as a use
  }
  // Publish the new epoch for the lock-free readers.
  shard.snapshot.store(std::make_shared<const ResultMap>(shard.entries),
                       std::memory_order_release);
}

void PlanCache::finishFlight(Shard& shard, const PlanKey& key,
                             const std::shared_ptr<InFlight>& flight,
                             std::shared_ptr<const CompileResult> snapshot) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (snapshot != nullptr) insertLocked(shard, key, snapshot);
  flight->result = std::move(snapshot);
  flight->done = true;
  shard.inflight.erase(key);
  shard.flightDone.notify_all();
}

CompileResult PlanCache::getOrCompute(const PlanKey& key,
                                      const std::function<CompileResult()>& compute) {
  Shard& shard = shardFor(key);
  {
    // Lock-free warm path, same as lookup(). In-flight keys are invisible
    // to snapshots (they have no entry yet), so single-flight semantics are
    // decided on the mutex path below.
    std::shared_ptr<const ResultMap> snap = shard.snapshot.load(std::memory_order_acquire);
    auto it = snap->find(key);
    if (it != snap->end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      touchLockFree(shard, key);
      return cloneHit(*it->second);
    }
  }
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    while (true) {
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        touchLocked(shard, key);
        std::shared_ptr<const CompileResult> entry = it->second;
        lock.unlock();
        return cloneHit(*entry);
      }
      auto fit = shard.inflight.find(key);
      if (fit == shard.inflight.end()) break;  // no leader: become one
      std::shared_ptr<InFlight> waitFor = fit->second;
      shard.flightDone.wait(lock, [&] { return waitFor->done; });
      if (waitFor->result != nullptr) {
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        std::shared_ptr<const CompileResult> entry = waitFor->result;
        lock.unlock();
        return cloneHit(*entry);
      }
      // The leader failed; loop to retry (and maybe become the next leader).
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    flight = std::make_shared<InFlight>();
    shard.inflight.emplace(key, flight);
  }
  CompileResult result;
  try {
    result = compute();
  } catch (...) {
    finishFlight(shard, key, flight, nullptr);
    throw;
  }
  std::shared_ptr<const CompileResult> snapshot;
  if (result.ok) {
    // Settled before the clone, so the caller's copy carries the answers too.
    settleForSnapshot(result);
    snapshot = std::make_shared<const CompileResult>(result.clone());
  }
  finishFlight(shard, key, flight, std::move(snapshot));
  return result;
}

std::shared_ptr<const FamilyPlan> PlanCache::lookupFamily(const FamilyKey& key,
                                                          u64 collisionDigest) {
  Shard& shard = shardForFamily(key);
  {
    std::shared_ptr<const FamilyMap> snap =
        shard.familySnapshot.load(std::memory_order_acquire);
    auto it = snap->find(key);
    if (it != snap->end()) {
      if (it->second.digest != collisionDigest) {
        // A colliding key with a foreign digest is a miss, never a wrong
        // plan — and since entries are never replaced in place, the
        // authoritative map cannot disagree; skip the lock.
        shard.familyMisses.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
      }
      shard.familyHits.fetch_add(1, std::memory_order_relaxed);
      // Re-touch on the snapshot fast path too (best effort, try_lock):
      // without this a hot family never moves off the cold end and can be
      // evicted under insert pressure despite serving every lookup.
      std::shared_ptr<const FamilyPlan> plan = it->second.plan;
      touchFamilyLockFree(shard, key);
      return plan;
    }
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.families.find(key);
  if (it == shard.families.end() || it->second.digest != collisionDigest) {
    shard.familyMisses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.familyHits.fetch_add(1, std::memory_order_relaxed);
  touchFamilyLocked(shard, key);
  return it->second.plan;
}

void PlanCache::insertFamily(const FamilyKey& key, u64 collisionDigest,
                             std::shared_ptr<const FamilyPlan> plan) {
  if (plan == nullptr) return;
  Shard& shard = shardForFamily(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [it, inserted] = shard.families.emplace(key, FamilyEntry{collisionDigest, std::move(plan)});
  if (!inserted) return;  // first writer wins; families are built once
  shard.familyPos[key] = shard.familyOrder.insert(shard.familyOrder.end(), key);
  if (shard.families.size() > shard.capacity) {
    const FamilyKey victim = shard.familyOrder.front();
    shard.familyOrder.pop_front();
    shard.familyPos.erase(victim);
    shard.families.erase(victim);
    shard.familyEvictions.fetch_add(1, std::memory_order_relaxed);
  }
  shard.familySnapshot.store(std::make_shared<const FamilyMap>(shard.families),
                             std::memory_order_release);
}

PlanCache::Stats PlanCache::stats() const {
  // Per-shard coherence: each shard's counters are read with its mutex
  // held, so entries and the misses that produced them come from one
  // instant. (Hits tick off-lock on the snapshot path; a concurrent hit
  // may land in one shard's total and not another's, which only ever
  // under-reports in-flight traffic, never tears an invariant.)
  Stats s;
  for (size_t i = 0; i < shardCount_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses.load(std::memory_order_relaxed);
    s.entries += static_cast<i64>(shard.entries.size());
    s.evictions += shard.evictions.load(std::memory_order_relaxed);
    s.familyHits += shard.familyHits.load(std::memory_order_relaxed);
    s.familyMisses += shard.familyMisses.load(std::memory_order_relaxed);
    s.familyEntries += static_cast<i64>(shard.families.size());
    s.familyEvictions += shard.familyEvictions.load(std::memory_order_relaxed);
  }
  return s;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (size_t i = 0; i < shardCount_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    n += shards_[i].entries.size();
  }
  return n;
}

void PlanCache::clear() {
  // Hold every shard mutex (ascending order — the only multi-shard lock
  // path, so no ordering conflicts) for the whole wipe: no mutex-path
  // observer can see shard A empty and shard B still populated.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shardCount_);
  for (size_t i = 0; i < shardCount_; ++i) locks.emplace_back(shards_[i].mutex);
  for (size_t i = 0; i < shardCount_; ++i) {
    Shard& shard = shards_[i];
    shard.entries.clear();
    shard.lruOrder.clear();
    shard.lruPos.clear();
    shard.families.clear();
    shard.familyOrder.clear();
    shard.familyPos.clear();
    shard.snapshot.store(std::make_shared<const ResultMap>(), std::memory_order_release);
    shard.familySnapshot.store(std::make_shared<const FamilyMap>(), std::memory_order_release);
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
    shard.familyHits.store(0, std::memory_order_relaxed);
    shard.familyMisses.store(0, std::memory_order_relaxed);
    shard.familyEvictions.store(0, std::memory_order_relaxed);
  }
}

PlanCache& PlanCache::global() {
  static PlanCache* cache = new PlanCache;
  return *cache;
}

}  // namespace emm
