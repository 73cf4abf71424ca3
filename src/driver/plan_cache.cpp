#include "driver/plan_cache.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <list>
#include <map>
#include <mutex>
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

/// The result tier's one store rule, shared by insert() and the
/// getOrCompute() leader: a pipeline or disk-loaded result is stored, a
/// failed result never is, and neither is a bind (artifactBound). A bind
/// is answered from its family, which the family tier keeps warm, and
/// redoing it costs less than storing a clone of it per size. Returns the
/// snapshot to store, or null when the rule keeps `result` out. The
/// snapshot shares `result`'s products (support/deep_ptr.h), and the
/// derived answers are settled on `result` before the clone, so the
/// caller's copy and every hit's clone inherit them.
std::shared_ptr<const CompileResult> snapshotToStore(const CompileResult& result) {
  if (!result.ok || result.artifactBound) return nullptr;
  settleDerivedAnswers(result);
  return std::make_shared<const CompileResult>(result.clone());
}

/// Clones `entry` into an independently owned hit result, which shares the
/// entry's products until it writes them (BM_ResultCopy in
/// bench/micro_compiler_ops.cpp: about 1 µs for ME). Called outside any
/// lock, as pool workers hit the cache concurrently.
CompileResult cloneHit(const CompileResult& entry) {
  CompileResult out = entry.clone();
  out.cacheHit = true;
  out.diskHit = false;    // a memory replay, even of a disk-loaded plan
  out.familyHit = false;  // the replay itself did not instantiate a family
  return out;
}

/// Per-key latch for in-flight computations. `done` flips under the
/// owning shard's mutex; `result` is the leader's stored snapshot, or null
/// when the store rule kept the leader's result out (it failed, or it was
/// a bind) and there is nothing to share. `bound` marks the bind case.
struct InFlight {
  bool done = false;
  bool bound = false;
  std::shared_ptr<const CompileResult> result;
};

/// Family-tier entry: the shared plan plus the digest guarding the 64-bit
/// key against collisions.
struct FamilyEntry {
  u64 digest = 0;
  std::shared_ptr<const FamilyPlan> plan;
};

/// One record kind's store inside a shard (see the file comment in
/// plan_cache.h). Every *Locked member requires the owning shard's mutex;
/// the mutex is shared by the shard's two tiers and its in-flight table.
template <class Key, class Value>
class Tier {
public:
  using Map = std::map<Key, Value>;

  explicit Tier(std::mutex& mutex) : mutex_(mutex) { publishLocked(); }

  /// The lock-free probe: the entry in the published epoch, if any.
  std::optional<Value> published(const Key& key) const {
    std::shared_ptr<const Map> snap = snapshot_.load(std::memory_order_acquire);
    auto it = snap->find(key);
    if (it == snap->end()) return std::nullopt;
    return it->second;
  }

  /// Snapshot-then-mutex lookup, counting a hit or a miss. An entry the
  /// caller's `accept` policy rejects is a miss, on the snapshot path
  /// without taking the lock: a caller that rejects entries (the family
  /// tier) never replaces one in place with an entry of another verdict,
  /// so the authoritative map agrees.
  template <class Accept>
  std::optional<Value> lookup(const Key& key, Accept accept) {
    if (std::optional<Value> found = published(key)) {
      if (!accept(*found)) return miss();
      hitLockFree(key);
      return found;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const Value* entry = findLocked(key);
    if (entry == nullptr || !accept(*entry)) return miss();
    hitLocked(key);
    return *entry;
  }

  /// Counts a hit on `key` and refreshes its recency: under the mutex the
  /// caller holds, or best effort from the lock-free path (try_lock, skip
  /// on contention — an approximate recency order beats blocking a warm
  /// hit, and without any touch a hot entry would age toward the cold end
  /// and be evicted under insert pressure despite serving every lookup).
  void hitLocked(const Key& key) {
    hits.fetch_add(1, std::memory_order_relaxed);
    touchLocked(key);
  }
  void hitLockFree(const Key& key) {
    hits.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (lock.owns_lock()) touchLocked(key);
  }

  Value* findLocked(const Key& key) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Inserts `value` when `key` is absent, evicting the least recently
  /// used entry beyond `capacity`, and publishes the new epoch. Returns the
  /// stored entry and whether it is new; what a present key means is the
  /// caller's policy (a caller that changes the entry publishes again).
  std::pair<Value*, bool> emplaceLocked(const Key& key, Value value, size_t capacity) {
    auto [it, inserted] = entries_.emplace(key, std::move(value));
    if (!inserted) return {&it->second, false};
    pos_[key] = order_.insert(order_.end(), key);
    if (entries_.size() > capacity) {
      const Key victim = order_.front();
      order_.pop_front();
      pos_.erase(victim);
      entries_.erase(victim);
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
    publishLocked();
    return {&it->second, true};
  }

  /// Splices `key` to the hot end of the LRU order. No-op for a key that
  /// was evicted in the meantime.
  void touchLocked(const Key& key) {
    auto it = pos_.find(key);
    if (it != pos_.end()) order_.splice(order_.end(), order_, it->second);
  }

  /// Installs a new epoch for the lock-free readers.
  void publishLocked() {
    snapshot_.store(std::make_shared<const Map>(entries_), std::memory_order_release);
  }

  /// Drops every entry, republishes and resets the counters.
  void clearLocked() {
    entries_.clear();
    order_.clear();
    pos_.clear();
    publishLocked();
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
    evictions.store(0, std::memory_order_relaxed);
  }

  size_t sizeLocked() const { return entries_.size(); }

  // Relaxed counters. Hits flip off-lock; the rest under the mutex.
  std::atomic<i64> hits{0};
  std::atomic<i64> misses{0};
  std::atomic<i64> evictions{0};

private:
  std::optional<Value> miss() {
    misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }

  std::mutex& mutex_;
  Map entries_;
  // LRU recency order (front = coldest) with O(1) re-touch via the
  // iterator map; hits splice their key to the back.
  std::list<Key> order_;
  std::map<Key, typename std::list<Key>::iterator> pos_;
  // Epoch-published immutable copy of `entries_`.
  std::atomic<std::shared_ptr<const Map>> snapshot_;
};

}  // namespace

/// One independently locked slice of the cache (see the file comment).
struct PlanCache::Shard {
  mutable std::mutex mutex;
  std::condition_variable flightDone;
  size_t capacity = 1;  ///< this shard's slice of each tier's entry budget
  std::map<PlanKey, std::shared_ptr<InFlight>> inflight;
  Tier<PlanKey, std::shared_ptr<const CompileResult>> results{mutex};
  Tier<FamilyKey, FamilyEntry> families{mutex};

  /// Stores a pre-cloned result snapshot, replacing any previous entry;
  /// requires `mutex`.
  void storeResultLocked(const PlanKey& key, std::shared_ptr<const CompileResult> snapshot) {
    auto [entry, inserted] = results.emplaceLocked(key, snapshot, capacity);
    if (inserted) return;
    *entry = std::move(snapshot);  // refresh in place
    results.touchLocked(key);      // an overwrite counts as a use
    results.publishLocked();
  }

  /// Publishes the leader's snapshot, stores it when non-null, erases the
  /// in-flight entry and wakes the followers.
  void finishFlight(const PlanKey& key, const std::shared_ptr<InFlight>& flight,
                    std::shared_ptr<const CompileResult> snapshot, bool bound) {
    std::lock_guard<std::mutex> lock(mutex);
    if (snapshot != nullptr) storeResultLocked(key, snapshot);
    flight->result = std::move(snapshot);
    flight->bound = bound;
    flight->done = true;
    inflight.erase(key);
    flightDone.notify_all();
  }
};

PlanCache::PlanCache(size_t capacity, size_t shards) {
  capacity = std::max<size_t>(1, capacity);
  shardCount_ = resolveShardCount(shards, capacity);
  shards_ = std::make_unique<Shard[]>(shardCount_);
  // Split the budget: shard i gets capacity/N plus one unit of the
  // remainder, so the totals sum to exactly `capacity`.
  const size_t base = capacity / shardCount_;
  const size_t rem = capacity % shardCount_;
  for (size_t i = 0; i < shardCount_; ++i) shards_[i].capacity = base + (i < rem ? 1 : 0);
}

PlanCache::~PlanCache() = default;

template <class Key>
size_t PlanCache::shardOf(const Key& key) const {
  return static_cast<size_t>(mix64(keyDigest(key)) & (shardCount_ - 1));
}
template size_t PlanCache::shardOf(const PlanKey&) const;
template size_t PlanCache::shardOf(const FamilyKey&) const;

template <class Key>
PlanCache::Shard& PlanCache::shardFor(const Key& key) const {
  return shards_[shardOf(key)];
}

std::optional<CompileResult> PlanCache::lookup(const PlanKey& key) {
  std::optional<std::shared_ptr<const CompileResult>> entry =
      shardFor(key).results.lookup(key, [](const auto&) { return true; });
  if (!entry) return std::nullopt;
  return cloneHit(**entry);
}

void PlanCache::insert(const PlanKey& key, const CompileResult& result) {
  std::shared_ptr<const CompileResult> snapshot = snapshotToStore(result);
  if (snapshot == nullptr) return;
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.storeResultLocked(key, std::move(snapshot));
}

CompileResult PlanCache::getOrCompute(const PlanKey& key,
                                      const std::function<CompileResult()>& compute) {
  Shard& shard = shardFor(key);
  // Lock-free warm path, same as lookup(). In-flight keys are invisible to
  // snapshots (they have no entry yet), so single-flight semantics are
  // decided on the mutex path below.
  if (std::optional<std::shared_ptr<const CompileResult>> entry = shard.results.published(key)) {
    shard.results.hitLockFree(key);
    return cloneHit(**entry);
  }
  std::shared_ptr<InFlight> flight;
  bool lead = true;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    while (true) {
      if (const std::shared_ptr<const CompileResult>* found = shard.results.findLocked(key)) {
        shard.results.hitLocked(key);
        std::shared_ptr<const CompileResult> entry = *found;
        lock.unlock();
        return cloneHit(*entry);
      }
      auto fit = shard.inflight.find(key);
      if (fit == shard.inflight.end()) break;  // no leader: become one
      std::shared_ptr<InFlight> waitFor = fit->second;
      shard.flightDone.wait(lock, [&] { return waitFor->done; });
      if (waitFor->result != nullptr) {
        shard.results.hits.fetch_add(1, std::memory_order_relaxed);
        std::shared_ptr<const CompileResult> entry = waitFor->result;
        lock.unlock();
        return cloneHit(*entry);
      }
      // The leader bound: there is nothing to share, and the woken
      // followers bind for themselves at once, in parallel — parking behind
      // a next leader would run N concurrent binds one after another.
      if (waitFor->bound) {
        lead = false;
        break;
      }
      // The leader failed. Loop to retry: the next caller to lead
      // recomputes, and a stored result reaches the rest as hits.
    }
    shard.results.misses.fetch_add(1, std::memory_order_relaxed);
    if (lead) {
      flight = std::make_shared<InFlight>();
      shard.inflight.emplace(key, flight);
    }
  }
  CompileResult result;
  try {
    result = compute();
  } catch (...) {
    if (lead) shard.finishFlight(key, flight, nullptr, false);
    throw;
  }
  if (lead)
    shard.finishFlight(key, flight, snapshotToStore(result), result.ok && result.artifactBound);
  else
    insert(key, result);
  return result;
}

std::shared_ptr<const FamilyPlan> PlanCache::lookupFamily(const FamilyKey& key,
                                                          u64 collisionDigest) {
  // A colliding key with a foreign digest is a miss, never a wrong plan.
  std::optional<FamilyEntry> entry = shardFor(key).families.lookup(
      key, [collisionDigest](const FamilyEntry& e) { return e.digest == collisionDigest; });
  return entry ? entry->plan : nullptr;
}

void PlanCache::insertFamily(const FamilyKey& key, u64 collisionDigest,
                             std::shared_ptr<const FamilyPlan> plan) {
  if (plan == nullptr) return;
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  // First writer wins: a family is built once, and republishing an
  // identical plan is pointless churn. The one exception is a plan that
  // carries the family record where the stored one of the same family has
  // none (it was built with codegen skipped): it replaces that plan in
  // place. The digest is unchanged, so the lookup's accept verdict is too.
  auto [entry, inserted] =
      shard.families.emplaceLocked(key, FamilyEntry{collisionDigest, plan}, shard.capacity);
  if (!inserted && entry->digest == collisionDigest && plan->haveRecord &&
      !entry->plan->haveRecord) {
    entry->plan = std::move(plan);
    shard.families.touchLocked(key);
    shard.families.publishLocked();
  }
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
    s.hits += shard.results.hits.load(std::memory_order_relaxed);
    s.misses += shard.results.misses.load(std::memory_order_relaxed);
    s.entries += static_cast<i64>(shard.results.sizeLocked());
    s.evictions += shard.results.evictions.load(std::memory_order_relaxed);
    s.familyHits += shard.families.hits.load(std::memory_order_relaxed);
    s.familyMisses += shard.families.misses.load(std::memory_order_relaxed);
    s.familyEntries += static_cast<i64>(shard.families.sizeLocked());
    s.familyEvictions += shard.families.evictions.load(std::memory_order_relaxed);
  }
  return s;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (size_t i = 0; i < shardCount_; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mutex);
    n += shards_[i].results.sizeLocked();
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
    shards_[i].results.clearLocked();
    shards_[i].families.clearLocked();
  }
}

PlanCache& PlanCache::global() {
  static PlanCache* cache = new PlanCache;
  return *cache;
}

}  // namespace emm
