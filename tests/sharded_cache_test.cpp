// Shard-boundary tests for the sharded PlanCache: shard-count resolution
// (power-of-two rounding, capacity clamping), per-shard capacity split and
// eviction (a shard at its slice evicts even when the cache as a whole is
// far under capacity), single-flight leader failure waking followers parked
// on the failing key's shard while other shards keep serving, clear()
// coherence across every shard, a Zipfian multi-thread hammer whose
// hit/miss/entry counter totals must come out exact, and a family-tier race
// (first writer wins, digest guard, exact counters). The deterministic
// tests force a fixed shard count so they behave identically on any
// machine; the hammer forces shards > 1 so the cross-shard paths run even
// on single-core CI boxes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "testgen/generator.h"

namespace emm {
namespace {

/// A tiny but clonable CompileResult whose artifact witnesses its key.
CompileResult syntheticResult(u64 key) {
  CompileResult r;
  r.ok = true;
  r.input = DeepPtr<ProgramBlock>::make();
  r.artifact = "artifact-" + std::to_string(key);
  return r;
}

PlanKey keyAt(u64 i) {
  PlanKey k;
  k.block = 0x9e3779b97f4a7c15ULL * (i + 1);
  k.options = i;
  return k;
}

/// First `count` keys from the keyAt stream that land on `shard`.
std::vector<PlanKey> keysOnShard(const PlanCache& cache, size_t shard, size_t count) {
  std::vector<PlanKey> out;
  for (u64 i = 0; out.size() < count; ++i)
    if (cache.shardOf(keyAt(i)) == shard) out.push_back(keyAt(i));
  return out;
}

std::vector<FamilyKey> familyKeysOnShard(const PlanCache& cache, size_t shard, size_t count) {
  std::vector<FamilyKey> out;
  for (u64 i = 0; out.size() < count; ++i) {
    FamilyKey k;
    k.block = 0x9e3779b97f4a7c15ULL * (i + 1);
    k.options = i;
    if (cache.shardOf(k) == shard) out.push_back(k);
  }
  return out;
}

TEST(ShardedCache, ShardCountIsPow2AndClampedToCapacity) {
  EXPECT_EQ(PlanCache(1024, 16).shardCount(), 16u);
  EXPECT_EQ(PlanCache(1024, 1).shardCount(), 1u);
  // Non-power-of-two requests round up.
  EXPECT_EQ(PlanCache(1024, 9).shardCount(), 16u);
  EXPECT_EQ(PlanCache(1024, 3).shardCount(), 4u);
  // Every shard must own at least one entry of capacity: a tiny cache
  // cannot have more shards than entries.
  EXPECT_LE(PlanCache(2, 64).shardCount(), 2u);
  EXPECT_EQ(PlanCache(1, 64).shardCount(), 1u);
  // The auto default is some power of two >= 1.
  const size_t n = PlanCache(1024, 0).shardCount();
  EXPECT_GE(n, 1u);
  EXPECT_EQ(n & (n - 1), 0u);
}

TEST(ShardedCache, EvictionIsLeastRecentlyUsedNotOldestInsert) {
  // Single shard, capacity 3, deterministic recency order: hits re-touch,
  // so the victim is the coldest entry, not the oldest insert.
  PlanCache cache(3, 1);
  const PlanKey a = keyAt(0), b = keyAt(1), c = keyAt(2), d = keyAt(3);
  cache.insert(a, syntheticResult(0));
  cache.insert(b, syntheticResult(1));
  cache.insert(c, syntheticResult(2));
  // Touch a (the oldest insert): recency order becomes b, c, a.
  EXPECT_TRUE(cache.lookup(a).has_value());
  cache.insert(d, syntheticResult(3));
  // b — the least recently used — went; a survived its age.
  EXPECT_FALSE(cache.lookup(b).has_value());
  EXPECT_TRUE(cache.lookup(a).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());
  EXPECT_TRUE(cache.lookup(d).has_value());
  EXPECT_EQ(cache.stats().evictions, 1);

  // An overwrite counts as a use too: re-inserting c makes a the victim.
  cache.insert(c, syntheticResult(20));
  cache.insert(a, syntheticResult(10));  // order now d, c, a
  cache.insert(b, syntheticResult(11));
  EXPECT_FALSE(cache.lookup(d).has_value());
  EXPECT_TRUE(cache.lookup(c).has_value());

  // getOrCompute hits re-touch as well: touch c, then push two new keys —
  // the untouched a and b go first while c outlives both.
  (void)cache.getOrCompute(c, [] { return syntheticResult(99); });
  cache.insert(keyAt(4), syntheticResult(4));
  cache.insert(keyAt(5), syntheticResult(5));
  EXPECT_TRUE(cache.lookup(c).has_value());
  EXPECT_FALSE(cache.lookup(a).has_value());
  EXPECT_FALSE(cache.lookup(b).has_value());
}

TEST(ShardedCache, EvictionIsPerShardNotGlobal) {
  // Capacity 8 over 4 shards: each shard owns exactly 2 entries.
  PlanCache cache(8, 4);
  ASSERT_EQ(cache.shardCount(), 4u);
  const std::vector<PlanKey> shard0 = keysOnShard(cache, 0, 3);
  const std::vector<PlanKey> shard1 = keysOnShard(cache, 1, 2);

  // Overfill shard 0 while the cache as a whole is far under capacity:
  // the shard's slice, not the global budget, bounds it.
  for (const PlanKey& k : shard0) cache.insert(k, syntheticResult(k.options));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  // Oldest of shard 0 went; the newer two survive.
  EXPECT_FALSE(cache.lookup(shard0[0]).has_value());
  EXPECT_TRUE(cache.lookup(shard0[1]).has_value());
  EXPECT_TRUE(cache.lookup(shard0[2]).has_value());

  // Other shards are untouched by shard 0's pressure.
  for (const PlanKey& k : shard1) cache.insert(k, syntheticResult(k.options));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.lookup(shard1[0]).has_value());
  EXPECT_TRUE(cache.lookup(shard1[1]).has_value());
}

TEST(ShardedCache, LeaderFailureWakesFollowersOnTheRightShard) {
  PlanCache cache(64, 4);
  ASSERT_EQ(cache.shardCount(), 4u);
  const PlanKey keyA = keysOnShard(cache, 0, 1)[0];
  const PlanKey keyB = keysOnShard(cache, 1, 1)[0];

  std::atomic<bool> leaderIn{false};
  std::atomic<bool> release{false};
  std::atomic<int> failComputes{0};
  std::atomic<int> okComputes{0};

  // Leader parks inside its compute (so followers provably queue behind
  // its in-flight latch), then fails.
  std::thread leader([&] {
    CompileResult r = cache.getOrCompute(keyA, [&] {
      leaderIn.store(true);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++failComputes;
      CompileResult fail;
      fail.ok = false;
      return fail;
    });
    EXPECT_FALSE(r.ok);
  });
  while (!leaderIn.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // While shard 0 has a parked leader, shard 1 keeps serving: a compute
  // on keyB completes without waiting on keyA's flight.
  CompileResult b = cache.getOrCompute(keyB, [&] { return syntheticResult(keyB.options); });
  EXPECT_TRUE(b.ok);
  EXPECT_FALSE(b.cacheHit);

  // Three followers queue on keyA, then the leader is released to fail.
  // Exactly one follower must be woken into leadership and recompute; the
  // others get its result as hits.
  std::vector<std::thread> followers;
  std::atomic<int> followerHits{0};
  for (int i = 0; i < 3; ++i)
    followers.emplace_back([&] {
      CompileResult r = cache.getOrCompute(keyA, [&] {
        ++okComputes;
        return syntheticResult(keyA.options);
      });
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.artifact, syntheticResult(keyA.options).artifact);
      if (r.cacheHit) ++followerHits;
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  leader.join();
  for (std::thread& f : followers) f.join();

  EXPECT_EQ(failComputes.load(), 1);
  EXPECT_EQ(okComputes.load(), 1);
  EXPECT_EQ(followerHits.load(), 2);
  const PlanCache::Stats s = cache.stats();
  // Misses: failed leader on A, retry leader on A, cold B. Hits: the two
  // followers served by the retry leader.
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.entries, 2);
  // The failure was never cached; the retry's result was.
  EXPECT_TRUE(cache.lookup(keyA).has_value());
}

TEST(ShardedCache, ClearIsCoherentAcrossShards) {
  PlanCache cache(64, 4);
  ASSERT_EQ(cache.shardCount(), 4u);
  for (u64 i = 0; i < 16; ++i) cache.insert(keyAt(i), syntheticResult(i));
  const FamilyKey fam = familyKeysOnShard(cache, 2, 1)[0];
  cache.insertFamily(fam, /*collisionDigest=*/7, std::make_shared<FamilyPlan>());
  for (u64 i = 0; i < 16; ++i) EXPECT_TRUE(cache.lookup(keyAt(i)).has_value());
  EXPECT_NE(cache.lookupFamily(fam, 7), nullptr);

  cache.clear();

  // Every shard's tiers and counters reset; nothing half-cleared.
  EXPECT_EQ(cache.size(), 0u);
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.familyHits, 0);
  EXPECT_EQ(s.familyMisses, 0);
  EXPECT_EQ(s.familyEntries, 0);
  EXPECT_EQ(s.familyEvictions, 0);
  // The snapshot (lock-free) read path was republished too: a stale
  // pre-clear epoch must not serve evicted entries forever.
  EXPECT_FALSE(cache.lookup(keyAt(0)).has_value());
  EXPECT_EQ(cache.lookupFamily(fam, 7), nullptr);

  // The cache stays fully usable after clear().
  cache.insert(keyAt(99), syntheticResult(99));
  EXPECT_TRUE(cache.lookup(keyAt(99)).has_value());
}

TEST(ShardedCache, FamilyTierEvictsPerShardAndGuardsDigests) {
  PlanCache cache(8, 4);
  ASSERT_EQ(cache.shardCount(), 4u);
  const std::vector<FamilyKey> keys = familyKeysOnShard(cache, 3, 3);
  for (const FamilyKey& k : keys) cache.insertFamily(k, 11, std::make_shared<FamilyPlan>());
  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.familyEntries, 2);
  EXPECT_EQ(s.familyEvictions, 1);
  EXPECT_EQ(cache.lookupFamily(keys[0], 11), nullptr);  // shard 3's oldest went
  EXPECT_NE(cache.lookupFamily(keys[1], 11), nullptr);
  EXPECT_NE(cache.lookupFamily(keys[2], 11), nullptr);
  // A colliding 64-bit key with the wrong digest is a miss, on the warm
  // snapshot path too (the second probe is served lock-free).
  EXPECT_EQ(cache.lookupFamily(keys[2], 12), nullptr);
  EXPECT_EQ(cache.lookupFamily(keys[2], 12), nullptr);
}

TEST(ShardedCache, FamilyTierHitsRetouchOnTheSnapshotFastPath) {
  // Regression test: family-tier lookups must refresh recency like the
  // result tier does — including hits served lock-free from a published
  // snapshot. Before the fix, the family order was insertion-only, so a
  // hot family was evicted the moment two colder ones arrived.
  PlanCache cache(2, 1);  // single shard, two family slots
  ASSERT_EQ(cache.shardCount(), 1u);
  const std::vector<FamilyKey> keys = familyKeysOnShard(cache, 0, 3);
  cache.insertFamily(keys[0], 11, std::make_shared<FamilyPlan>());
  cache.insertFamily(keys[1], 11, std::make_shared<FamilyPlan>());
  // Both inserts republished the snapshot, so this hit is served from the
  // lock-free path — and must still move keys[0] to most-recently-used.
  ASSERT_NE(cache.lookupFamily(keys[0], 11), nullptr);
  cache.insertFamily(keys[2], 11, std::make_shared<FamilyPlan>());
  // The untouched keys[1] is the LRU victim; the hot keys[0] survives.
  EXPECT_NE(cache.lookupFamily(keys[0], 11), nullptr);
  EXPECT_EQ(cache.lookupFamily(keys[1], 11), nullptr);
  EXPECT_NE(cache.lookupFamily(keys[2], 11), nullptr);
  EXPECT_EQ(cache.stats().familyEvictions, 1);
}

TEST(ShardedCache, ConcurrentBatchMatchesSingleThreadedCompile) {
  // Concurrency differential: one generated program, 32 copies compiled
  // through the batch path at 8 workers over a sharded cache, must produce
  // results byte-identical to an isolated single-threaded compile — cache
  // sharing and single-flight collapsing must never change the artifact.
  testgen::ProgramGenerator gen;
  const testgen::GeneratedProgram p = gen.generate(3);  // compiles to a unit

  Compiler ref(p.block);
  ref.opts().innerProcs = 4;
  ref.parameters(p.paramValues);
  const CompileResult r0 = ref.compile();
  ASSERT_TRUE(r0.ok) << r0.firstError();
  ASSERT_NE(r0.unit(), nullptr);
  const std::string refArtifact = r0.artifact;
  ASSERT_FALSE(refArtifact.empty());

  PlanCache cache(64, 4);
  Compiler c(p.block);
  c.opts().innerProcs = 4;
  c.parameters(p.paramValues).cache(&cache).jobs(8);
  std::vector<ProgramBlock> blocks(32, p.block);
  const std::vector<CompileResult> results = c.compileBatch(std::move(blocks));
  ASSERT_EQ(results.size(), 32u);
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(results[i].ok) << results[i].firstError();
    EXPECT_EQ(results[i].artifact, refArtifact);
    EXPECT_EQ(results[i].search.subTile, r0.search.subTile);
    EXPECT_EQ(results[i].search.eval.cost, r0.search.eval.cost);  // bit-identical
    ASSERT_NE(results[i].unit(), nullptr);
  }
}

TEST(ShardedCache, ZipfianHammerCountersAreExact) {
  // Force multiple shards so the cross-shard paths run even on a
  // single-core box. Capacity comfortably exceeds the keyspace: no
  // eviction, so every counter total must come out exact.
  constexpr size_t kKeys = 96;
  constexpr int kThreads = 4;
  constexpr i64 kOpsPerThread = 500;
  PlanCache cache(256, 4);
  ASSERT_EQ(cache.shardCount(), 4u);

  // Zipf(s=0.99) inverse-CDF table over the keyspace.
  std::vector<double> cdf(kKeys);
  double sum = 0;
  for (size_t k = 0; k < kKeys; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), 0.99);
    cdf[k] = sum;
  }
  for (double& c : cdf) c /= sum;

  std::vector<std::unique_ptr<std::atomic<int>>> computes;
  for (size_t i = 0; i < kKeys; ++i) computes.push_back(std::make_unique<std::atomic<int>>(0));
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(0xbeefULL + static_cast<u64>(t));
      std::uniform_real_distribution<double> uni(0.0, 1.0);
      for (i64 i = 0; i < kOpsPerThread; ++i) {
        const size_t key = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) - cdf.begin());
        CompileResult r = cache.getOrCompute(keyAt(key), [&] {
          ++*computes[key];
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return syntheticResult(key);
        });
        if (!r.ok || r.artifact != syntheticResult(key).artifact) mismatch.store(true);
      }
    });
  for (std::thread& w : workers) w.join();

  ASSERT_FALSE(mismatch.load());
  i64 unique = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    EXPECT_LE(computes[i]->load(), 1) << "key " << i << " computed twice";
    unique += computes[i]->load();
  }
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, unique);
  EXPECT_EQ(s.hits + s.misses, static_cast<i64>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.entries, unique);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(static_cast<i64>(cache.size()), unique);
}

TEST(ShardedCache, FamilyTierRaceKeepsTheFirstWriterAndCountsExactly) {
  // Four threads race inserts and lookups over a few family keys, looking
  // up with the right digest and with a wrong one. No eviction: capacity
  // exceeds the keyspace.
  constexpr u64 kKeys = 6;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  PlanCache cache(256, 4);
  ASSERT_EQ(cache.shardCount(), 4u);
  const auto keyOf = [](u64 k) {
    FamilyKey key;
    key.block = 0x9e3779b97f4a7c15ULL * (k + 1);
    key.options = k;
    return key;
  };
  const auto rightDigest = [](u64 k) { return 1000 + k; };
  const auto wrongDigest = [](u64 k) { return 2000 + k; };

  struct Hit {
    u64 key;
    const FamilyPlan* plan;
  };
  std::vector<std::vector<Hit>> hits(kThreads);
  std::vector<i64> lookups(kThreads, 0);
  std::atomic<int> wrongDigestServed{0};
  std::atomic<int> foreignPlanServed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(0xfa51ULL + static_cast<u64>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const u64 k = rng() % kKeys;
        switch (rng() % 3) {
          case 0: {
            auto plan = std::make_shared<FamilyPlan>();
            plan->parametricReason = "key " + std::to_string(k);
            cache.insertFamily(keyOf(k), rightDigest(k), std::move(plan));
            break;
          }
          case 1: {
            ++lookups[t];
            std::shared_ptr<const FamilyPlan> plan = cache.lookupFamily(keyOf(k), rightDigest(k));
            if (plan == nullptr) break;
            if (plan->parametricReason != "key " + std::to_string(k))
              foreignPlanServed.fetch_add(1);
            hits[t].push_back({k, plan.get()});
            break;
          }
          default:
            ++lookups[t];
            if (cache.lookupFamily(keyOf(k), wrongDigest(k)) != nullptr)
              wrongDigestServed.fetch_add(1);
        }
      }
    });
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(wrongDigestServed.load(), 0);
  EXPECT_EQ(foreignPlanServed.load(), 0);
  // First writer wins: the plan stored now is the one every hit returned.
  std::vector<std::shared_ptr<const FamilyPlan>> stored(kKeys);
  for (u64 k = 0; k < kKeys; ++k) stored[k] = cache.lookupFamily(keyOf(k), rightDigest(k));
  size_t hitCount = 0;
  for (const std::vector<Hit>& threadHits : hits)
    for (const Hit& h : threadHits) {
      ++hitCount;
      ASSERT_NE(stored[h.key], nullptr);
      EXPECT_EQ(h.plan, stored[h.key].get()) << "key " << h.key;
    }
  EXPECT_GT(hitCount, 0u);

  i64 made = static_cast<i64>(kKeys);  // the post-join lookups above
  for (i64 n : lookups) made += n;
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.familyHits + s.familyMisses, made);
  EXPECT_EQ(s.familyEvictions, 0);
  EXPECT_EQ(s.hits + s.misses, 0);  // the result tier saw nothing
}

}  // namespace
}  // namespace emm
