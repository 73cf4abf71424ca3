// Service S4: cache-tier and daemon stress harness.
//
// The sharded PlanCache exists because at daemon traffic levels the cache
// mutex, not the pipeline, was the throughput ceiling. This harness
// measures exactly that claim, setbench-style, and guards the concurrency
// semantics the sharding must preserve:
//
//  1. warm-hit scaling — threads (1 .. max(8, 2x hardware)) hammer a warm
//     cache with uniform and Zipfian (s = 0.99) key mixes, against BOTH the
//     sharded cache and the single-mutex baseline (`shards = 1`, the exact
//     pre-sharding implementation). Reports throughput, p50/p99/p999
//     latency, hit rate, entry count and peak RSS per config.
//  2. single-flight hammer — threads race getOrCompute over a Zipfian
//     keyspace with a deliberately slow compute, in rounds that each start
//     on a fresh cache; asserts exactly ONE cold compute per unique key per
//     round, byte-identical artifacts on every path, and exact hit/miss
//     counter totals.
//  3. daemon stress — the same load shapes against a live service over its
//     real unix socket (an in-process ServiceServer by default, or any
//     external daemon via --connect=SOCK), mixing warm compile requests
//     with STATS probes, which never contend with replies. Before the load,
//     a fresh client asks for a new size of the warmed kernel family and
//     must be served from the daemon's family tier (or, on an external
//     daemon that saw the size before, from its result cache).
//
// Every measured config runs for at least 250 ms (--quick) or 1 s, and
// emits one machine-readable JSON line (`{"bench":"svc_stress",...}`) so
// changes can track the scaling curve the way the fig-style benches track
// the paper's plots.
//
// Exit status covers CORRECTNESS only (single-flight, byte-identity, the
// fresh-client family hit, clean daemon). Scaling is reported but only
// enforced under --assert-scaling (needs >= 8 hardware threads to be
// meaningful; CI boxes vary).
//
// Flags: --quick (CI-sized run), --threads=a,b,... (override the sweep),
//        --no-daemon, --connect=SOCK, --assert-scaling, --keys=N, --ops=N.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "service/server.h"
#include "support/cli.h"

using namespace emm;

namespace {

using Clock = std::chrono::steady_clock;

// ---- distributions ---------------------------------------------------------

/// Zipfian sampler over [0, n) with exponent s (defaults to the classic
/// 0.99), via an inverse-CDF table: rank k is drawn with probability
/// proportional to 1 / (k+1)^s. O(log n) per sample, deterministic.
class ZipfSampler {
public:
  ZipfSampler(size_t n, double s = 0.99) : cdf_(n) {
    double sum = 0;
    for (size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

private:
  std::vector<double> cdf_;
};

// ---- measurement helpers ---------------------------------------------------

using bench::RunResult;

/// How much load one measured config gets: every worker makes at least
/// `opsPerThread` calls and keeps going until `minTime` has passed, so the
/// throughput and tails rest on enough operations to resolve (a few
/// thousand warm hits alone take only milliseconds).
struct LoadSize {
  i64 opsPerThread = 0;
  std::chrono::milliseconds minTime{0};
};

/// Runs `threads` workers, worker t calling `op(t, rng, i)` for i = 0, 1, ...
/// as `size` asks; appends each op's latency (us) to `latUs` and returns the
/// wall time in seconds.
template <typename Op>
double timeLoad(int threads, LoadSize size, const Op& op, std::vector<double>& latUs) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  const auto start = Clock::now();
  const auto deadline = start + size.minTime;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(0x5eed5eedULL + static_cast<u64>(t));
      std::vector<double>& mine = lat[static_cast<size_t>(t)];
      mine.reserve(static_cast<size_t>(size.opsPerThread));
      for (i64 i = 0;; ++i) {
        const auto t0 = Clock::now();
        if (i >= size.opsPerThread && t0 >= deadline) break;
        op(t, rng, i);
        mine.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      }
    });
  for (std::thread& w : workers) w.join();
  for (const std::vector<double>& v : lat) latUs.insert(latUs.end(), v.begin(), v.end());
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// timeLoad's aggregate throughput and tails.
template <typename Op>
RunResult runLoad(int threads, LoadSize size, const Op& op) {
  std::vector<double> latUs;
  const double secs = timeLoad(threads, size, op, latUs);
  return bench::summarize(std::move(latUs), secs);
}

void jsonLine(const char* mode, size_t shards, const char* dist, int threads,
              const RunResult& r, double hitRate, i64 entries) {
  bench::jsonLine("svc_stress", mode, shards, dist, threads, r, hitRate, entries);
}

/// A tiny but clonable CompileResult whose artifact witnesses its key, so
/// every replay can be checked byte-for-byte.
CompileResult syntheticResult(size_t key) {
  CompileResult r;
  r.ok = true;
  r.input = DeepPtr<ProgramBlock>::make();
  r.artifact = "plan-artifact-" + std::to_string(key) + "-" +
               std::string(128, static_cast<char>('a' + key % 26));
  return r;
}

PlanKey keyAt(size_t i) {
  PlanKey k;
  k.block = 0x9e3779b97f4a7c15ULL * (static_cast<u64>(i) + 1);
  k.options = static_cast<u64>(i);
  return k;
}

// ---- phase 1: warm-hit scaling --------------------------------------------

struct Phase1Outcome {
  bool identical = true;
  /// Throughput at 1 thread and at `topThreads` (8, or the sweep maximum
  /// when the sweep stays below 8) per shard config, uniform mix.
  double sharded1 = 0, shardedTop = 0, baseline1 = 0, baselineTop = 0;
  int topThreads = 1;
};

void warmHitScaling(const std::vector<int>& threadSweep, size_t keys, LoadSize load,
                    size_t shardsOverride, Phase1Outcome& out) {
  for (int t : threadSweep)
    if (t <= 8) out.topThreads = std::max(out.topThreads, t);
  std::printf("\n-- warm-hit scaling: sharded vs single-mutex baseline --\n");
  std::printf("  %-9s %-8s %-8s %12s %10s %10s %10s\n", "cache", "dist", "threads",
              "ops/sec", "p50 us", "p99 us", "p999 us");
  for (const size_t shards : {shardsOverride, size_t(1)}) {
    PlanCache cache(4096, shards);
    std::vector<std::string> expected(keys);
    for (size_t i = 0; i < keys; ++i) {
      CompileResult r = syntheticResult(i);
      expected[i] = r.artifact;
      cache.insert(keyAt(i), r);
    }
    const char* label = shards == 1 ? "baseline" : "sharded";
    for (const char* dist : {"uniform", "zipf"}) {
      ZipfSampler zipf(keys);
      const bool useZipf = std::string(dist) == "zipf";
      for (int threads : threadSweep) {
        const PlanCache::Stats before = cache.stats();
        std::atomic<bool> mismatch{false};
        RunResult r = runLoad(threads, load, [&](int, std::mt19937_64& rng, i64) {
          const size_t i = useZipf ? zipf(rng)
                                   : std::uniform_int_distribution<size_t>(0, keys - 1)(rng);
          std::optional<CompileResult> hit = cache.lookup(keyAt(i));
          if (!hit || hit->artifact != expected[i]) mismatch.store(true);
        });
        const PlanCache::Stats after = cache.stats();
        const double denom = static_cast<double>((after.hits - before.hits) +
                                                 (after.misses - before.misses));
        const double hitRate =
            denom > 0 ? static_cast<double>(after.hits - before.hits) / denom : 0;
        if (mismatch.load()) out.identical = false;
        std::printf("  %-9s %-8s %-8d %12.0f %10.2f %10.2f %10.2f\n", label, dist, threads,
                    r.opsPerSec, r.p50us, r.p99us, r.p999us);
        jsonLine("mem", cache.shardCount(), dist, threads, r, hitRate, after.entries);
        if (useZipf) continue;  // scaling factors quoted on the uniform mix
        if (threads == 1) (shards == 1 ? out.baseline1 : out.sharded1) = r.opsPerSec;
        if (threads == out.topThreads)
          (shards == 1 ? out.baselineTop : out.shardedTop) = r.opsPerSec;
      }
    }
  }
}

// ---- phase 2: single-flight hammer ----------------------------------------

/// Rounds of `load.opsPerThread` calls per thread, each on a fresh cache
/// so every round starts on cold keys, repeated until `load.minTime` has
/// passed: the row measures cold-key contention however long it runs.
bool singleFlightHammer(int threads, size_t keys, LoadSize load) {
  std::printf("\n-- single-flight hammer: %d threads, Zipfian over %zu cold keys --\n",
              threads, keys);
  std::vector<std::string> expected(keys);
  for (size_t i = 0; i < keys; ++i) expected[i] = syntheticResult(i).artifact;
  ZipfSampler zipf(keys);
  std::atomic<bool> mismatch{false};
  std::vector<double> latUs;
  double secs = 0;
  i64 rounds = 0, uniqueComputed = 0, doubleComputed = 0, hits = 0, misses = 0, entries = 0;
  size_t shards = 0;
  bool exactCounts = true;
  const auto deadline = Clock::now() + load.minTime;
  do {
    PlanCache cache(4096, 0);
    std::vector<std::atomic<int>> computes(keys);
    const size_t before = latUs.size();
    secs += timeLoad(threads, {load.opsPerThread, {}}, [&](int, std::mt19937_64& rng, i64) {
      const size_t i = zipf(rng);
      CompileResult got = cache.getOrCompute(keyAt(i), [&] {
        computes[i].fetch_add(1);
        // Widen the race window: a broken latch would let two leaders in.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return syntheticResult(i);
      });
      if (!got.ok || got.artifact != expected[i]) mismatch.store(true);
    }, latUs);
    i64 unique = 0;
    for (size_t i = 0; i < keys; ++i) {
      if (computes[i].load() > 0) ++unique;
      if (computes[i].load() > 1) ++doubleComputed;
    }
    const PlanCache::Stats s = cache.stats();
    exactCounts = exactCounts && s.misses == unique && s.entries == unique &&
                  s.hits + s.misses == static_cast<i64>(latUs.size() - before);
    uniqueComputed += unique;
    hits += s.hits;
    misses += s.misses;
    entries = s.entries;
    shards = cache.shardCount();
    ++rounds;
  } while (Clock::now() < deadline);
  const RunResult r = bench::summarize(std::move(latUs), secs);
  std::printf("  %lld ops in %lld rounds, %lld cold computes, %lld computed twice\n",
              static_cast<long long>(r.ops), static_cast<long long>(rounds),
              static_cast<long long>(uniqueComputed), static_cast<long long>(doubleComputed));
  std::printf("  exactly one cold compute per key: %s\n", doubleComputed == 0 ? "yes" : "NO");
  std::printf("  artifacts byte-identical: %s\n", !mismatch.load() ? "yes" : "NO");
  std::printf("  counter totals exact (hits %lld + misses %lld == ops, entries == uniques): "
              "%s\n",
              static_cast<long long>(hits), static_cast<long long>(misses),
              exactCounts ? "yes" : "NO");
  jsonLine("hammer", shards, "zipf", threads, r,
           static_cast<double>(hits) / static_cast<double>(hits + misses), entries);
  return doubleComputed == 0 && !mismatch.load() && exactCounts;
}

// ---- phase 3: daemon stress ------------------------------------------------

svc::CompileRequest meRequest(const std::vector<i64>& sizes) {
  IntVec params;
  buildKernelByName("me", sizes, params);
  Compiler c;
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda").kernelName("me_kernel");
  svc::CompileRequest req;
  req.kernel = "me";
  req.sizes = sizes;
  req.options = c.opts();
  return req;
}

bool daemonStress(const std::string& connectTo, const std::vector<int>& threadSweep,
                  LoadSize load) {
  std::printf("\n-- daemon stress: warm compiles + STATS probes over the socket --\n");
  std::unique_ptr<svc::ServiceServer> server;
  std::string sock = connectTo;
  if (sock.empty()) {
    sock = "/tmp/emm_svc_stress_" + std::to_string(::getpid()) + ".sock";
    server = std::make_unique<svc::ServiceServer>(
        svc::ServiceServer::Options{sock, /*jobs=*/0, /*cacheDir=*/"",
                                    /*cacheCapacity=*/1024, /*cacheShards=*/0});
    server->start();
  }
  const std::vector<std::vector<i64>> sizes = {
      {256, 128, 16}, {512, 128, 16}, {1024, 128, 16}, {256, 256, 16}};
  std::string warmArtifact;
  {
    svc::ServiceClient warmup(sock);
    for (const std::vector<i64>& sz : sizes) {
      svc::WireCompileReply rep = warmup.compile(meRequest(sz));
      if (!rep.result.ok) {
        std::printf("  WARMUP FAILED: %s\n", rep.result.firstError().c_str());
        return false;
      }
      if (sz == sizes[0]) warmArtifact = rep.result.artifact;
    }
  }
  // A brand-new connection asking for a size this run has not sent: the
  // kernel FAMILY is warm, so it must be served from the family tier. An
  // external daemon (--connect) may have served that size on an earlier
  // run, in which case the result cache answers it instead.
  svc::ServiceClient fresh(sock);
  const svc::WireCompileReply freshReply = fresh.compile(meRequest({768, 128, 16}));
  const bool freshFamilyHit =
      freshReply.serverFamilyHit || (server == nullptr && freshReply.serverCacheHit);
  std::printf("  fresh client, new size: family hit: %s%s\n", freshFamilyHit ? "yes" : "NO",
              freshReply.serverCacheHit ? " (result-cache replay)" : "");
  std::atomic<bool> failed{false}, mismatch{false};
  for (int threads : threadSweep) {
    std::vector<std::unique_ptr<svc::ServiceClient>> clients;
    for (int t = 0; t < threads; ++t)
      clients.push_back(std::make_unique<svc::ServiceClient>(sock));
    RunResult r = runLoad(threads, load, [&](int t, std::mt19937_64&, i64 i) {
      svc::ServiceClient& client = *clients[static_cast<size_t>(t)];
      // One STATS probe per 8 compiles: the reply path and the counter
      // snapshot must not contend.
      if (i % 8 == 7) {
        client.stats();
        return;
      }
      const std::vector<i64>& sz = sizes[static_cast<size_t>(t + i) % sizes.size()];
      svc::WireCompileReply rep = client.compile(meRequest(sz));
      if (!rep.result.ok) failed.store(true);
      if (sz == sizes[0] && rep.result.artifact != warmArtifact) mismatch.store(true);
    });
    std::printf("  clients=%-3d %10.0f req/sec   p50 %8.0f us  p99 %8.0f us  p999 %8.0f us\n",
                threads, r.opsPerSec, r.p50us, r.p99us, r.p999us);
    jsonLine("daemon", 0, "rotate", threads, r, 1.0, 0);
  }
  bool clean = freshFamilyHit && !failed.load() && !mismatch.load();
  if (server != nullptr) {
    svc::WireStats s = server->stats();
    clean = clean && s.protocolErrors == 0 && s.compileErrors == 0;
    std::printf("  daemon served %lld requests (%lld compiles, %lld protocol errors)\n",
                static_cast<long long>(s.requests), static_cast<long long>(s.compiles),
                static_cast<long long>(s.protocolErrors));
    server->stop();
  }
  std::printf("  warm replies byte-identical, all served cleanly: %s\n", clean ? "yes" : "NO");
  return clean;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  const bool quick = args.flag("quick");
  const bool noDaemon = args.flag("no-daemon");
  const bool assertScaling = args.flag("assert-scaling");
  const std::string connectTo = args.str("connect");
  const size_t keys = static_cast<size_t>(args.integer("keys", quick ? 512 : 2048));
  const i64 ops = args.integer("ops", quick ? 4000 : 50000);
  const std::chrono::milliseconds minTime(quick ? 250 : 1000);
  // 0 = the library default (next pow2 of the hardware concurrency).
  const size_t shards = static_cast<size_t>(args.integer("shards", 0));
  std::vector<int> threadSweep;
  for (i64 t : args.intList("threads")) threadSweep.push_back(static_cast<int>(t));
  if (threadSweep.empty()) {
    const int hw = std::max(1u, std::thread::hardware_concurrency());
    for (int t = 1; t <= std::max(8, 2 * hw); t *= 2) threadSweep.push_back(t);
  }
  if (!args.validate("usage: bench_svc_stress [--quick] [--threads=a,b,...] [--keys=N] "
                     "[--ops=N] [--shards=N] [--no-daemon] [--connect=SOCK] "
                     "[--assert-scaling]\n"))
    return 2;

  bench::header("Service S4: sharded-cache + daemon stress",
                "ROADMAP contention-free cache tiers; setbench-style microbench");
  std::printf("   hardware threads: %u\n", std::thread::hardware_concurrency());

  Phase1Outcome p1;
  warmHitScaling(threadSweep, keys, {ops, minTime}, shards, p1);
  const double shardedScale = p1.sharded1 > 0 ? p1.shardedTop / p1.sharded1 : 0;
  const double baselineScale = p1.baseline1 > 0 ? p1.baselineTop / p1.baseline1 : 0;
  std::printf("\n  warm-hit scaling 1 -> %d threads (uniform): sharded %.2fx, baseline %.2fx\n",
              p1.topThreads, shardedScale, baselineScale);

  const int hammerThreads = std::min(threadSweep.back(), 16);
  const bool flightOk = singleFlightHammer(std::max(hammerThreads, 4), quick ? 128 : 512,
                                           {quick ? 500 : 4000, minTime});

  bool daemonOk = true;
  if (!noDaemon) {
    std::vector<int> daemonSweep = {1, std::min(4, threadSweep.back())};
    daemonOk = daemonStress(connectTo, daemonSweep, {quick ? 24 : 96, minTime});
  }

  bool ok = p1.identical && flightOk && daemonOk;
  std::printf("\n  artifacts byte-identical: %s\n", p1.identical ? "yes" : "NO");
  if (assertScaling) {
    const bool scales = shardedScale >= 4.0 && p1.topThreads >= 8;
    std::printf("  sharded warm-hit scaling >= 4x (1 -> 8 threads): %s\n",
                scales ? "yes" : "NO");
    ok = ok && scales;
  }
  return ok ? 0 : 1;
}
