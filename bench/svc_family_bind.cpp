// Family-tier runtime binding vs bind-and-emit: the warm-path price of one
// size served from a warmed family.
//
// The family tier stores ONE size-generic record per kernel family (runtime
// size arguments, guarded buffer geometry). Serving a new size from a
// warmed family is a pure lookup-and-bind: validate the guard predicates,
// re-certify the tile argmin plan-only, fill the argument struct — no AST
// rebuild, no emission. This harness measures that path against the full
// bind-and-emit pipeline at the same sizes and FAILS (exit 1) if
//
//   - the warm per-size cost is not >= 10x below bind-and-emit,
//   - the sweep invokes the emitter more than once for the family, or
//   - any bound artifact differs byte-for-byte from a per-size compile.
//
// Emits one machine-readable line per measured mode:
//   JSON {"bench":"svc_family_bind","mode":...,"ops_per_sec":...}
// diffed against bench/baselines/svc_family_bind.json by
// tools/diff_stress_baseline.py (soft gate; configs match on
// mode/shards/dist/threads).
//
// Each mode runs for at least 250 ms (--quick) or 1 s, like svc_stress.
// `bind` and `bind-and-emit` ask a never-seen size per op; `bind-repeat`
// re-binds warm sizes, the family's search memo certifying each without
// re-running the plan-only tile search.
//
// Flags: --quick (shorter runs, CI-friendly).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "driver/backend.h"
#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "kernels/me_pipeline.h"

using namespace emm;
using Clock = std::chrono::steady_clock;

namespace {

using bench::require;
using bench::RunResult;

void jsonLine(const char* mode, const RunResult& r) {
  bench::jsonLine("svc_family_bind", mode, 1, "rotate", 1, r, 1.0, 1);
}

/// The ME family at (ni, nj, w): same pipeline configuration as the Figure-4
/// sweep, so every size below shares one tile argmin and one artifact.
CompileResult compileMe(i64 ni, i64 nj, i64 w, PlanCache* cache) {
  Compiler c(buildMeBlock(ni, nj, w));
  c.parameters({ni, nj, w}).memoryLimitBytes(16 * 1024).backend("cuda");
  if (cache != nullptr) c.cache(cache);
  return c.compile();
}

/// Times calls of `oneCompile(i)`: at least `minOps`, and more until
/// `minTime` has passed.
template <typename Fn>
RunResult timeSweep(size_t minOps, std::chrono::milliseconds minTime, const Fn& oneCompile) {
  std::vector<double> lat;
  const auto start = Clock::now();
  const auto deadline = start + minTime;
  for (size_t i = 0; i < minOps || Clock::now() < deadline; ++i) {
    const auto t0 = Clock::now();
    oneCompile(i);
    lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return bench::summarize(std::move(lat),
                          std::chrono::duration<double>(Clock::now() - start).count());
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  const size_t bindOps = quick ? 40 : 120;
  const size_t emitOps = quick ? 6 : 12;
  const std::chrono::milliseconds minTime(quick ? 250 : 1000);

  bench::header("Service family-bind: warm lookup vs bind-and-emit",
                "runtime-size-bound codegen, one artifact per family");

  const i64 nj = 1024, w = 16;
  const std::vector<i64> checkNis = {256, 1024, 2048, 4096, 9216, 16384};

  // Per-size references: an isolated full pipeline at every check size, kept
  // for the byte-identity check below.
  std::vector<CompileResult> reference;
  for (i64 ni : checkNis) {
    reference.push_back(compileMe(ni, nj, w, nullptr));
    require(reference.back().ok, "reference compile failed");
  }

  // Warm the family: exactly one cold pipeline builds the size-generic
  // record; everything after is a bind.
  PlanCache cache;
  const std::uint64_t emitsBefore = emitterInvocations();
  CompileResult seed = compileMe(512, nj, w, &cache);
  require(seed.ok && !seed.familyHit, "seed compile must be the family's cold run");

  // Fidelity: each check size binds the family record byte-identically to
  // its isolated per-size compile (untimed; no tier stores a bind, so a
  // repeated size binds again — with its tile search memoized, which is
  // why the timed sweep below uses fresh sizes only).
  for (size_t i = 0; i < checkNis.size(); ++i) {
    CompileResult r = compileMe(checkNis[i], nj, w, &cache);
    require(r.ok && r.familyHit && r.artifactBound, "check size must bind the family record");
    require(r.artifact == reference[i].artifact, "bound artifact differs from per-size compile");
    require(r.search.subTile == reference[i].search.subTile, "bound tile differs");
  }

  // Warm path: every op binds a NEVER-SEEN size against the warmed family
  // (a repeated size binds the same way; fresh sizes rule out any replay).
  // The stride keeps the sweep inside the envelope where the record's tile
  // choice stays the argmin, and off the check sizes and the seed.
  RunResult bind = timeSweep(bindOps, minTime, [&](size_t i) {
    CompileResult r = compileMe(1536 + 1024 * static_cast<i64>(i), nj, w, &cache);
    require(r.ok && r.familyHit && r.artifactBound, "warm size must bind the family record");
  });

  // Repeat path: re-binds a fixed set of the sweep's sizes, so each op
  // certifies from the family's search memo. One untimed pass re-stores
  // any entry a later sweep size replaced in its slot.
  const i64 repeatSizes = std::min<i64>(64, bind.ops);
  auto rebind = [&](size_t i) {
    const i64 k = static_cast<i64>(i) % repeatSizes;
    CompileResult r = compileMe(1536 + 1024 * k, nj, w, &cache);
    require(r.ok && r.familyHit && r.artifactBound, "warm size must re-bind the family record");
  };
  for (i64 k = 0; k < repeatSizes; ++k) rebind(static_cast<size_t>(k));
  RunResult repeat = timeSweep(bindOps, minTime, rebind);
  const std::uint64_t sweepEmits = emitterInvocations() - emitsBefore;
  require(sweepEmits == 1, "warmed sweep must invoke the emitter exactly once");

  // Bind-and-emit: fresh sizes through the full pipeline, no cache.
  RunResult emit = timeSweep(emitOps, minTime, [&](size_t i) {
    require(compileMe(1536 + 1024 * static_cast<i64>(i), nj, w, nullptr).ok,
            "bind-and-emit compile failed");
  });

  std::printf("  %-14s %10s %10s %10s %10s\n", "mode", "ops/s", "p50-us", "p99-us", "ops");
  std::printf("  %-14s %10.0f %10.2f %10.2f %10lld\n", "bind", bind.opsPerSec, bind.p50us,
              bind.p99us, static_cast<long long>(bind.ops));
  std::printf("  %-14s %10.0f %10.2f %10.2f %10lld\n", "bind-repeat", repeat.opsPerSec,
              repeat.p50us, repeat.p99us, static_cast<long long>(repeat.ops));
  std::printf("  %-14s %10.0f %10.2f %10.2f %10lld\n", "bind-and-emit", emit.opsPerSec,
              emit.p50us, emit.p99us, static_cast<long long>(emit.ops));
  const double speedup = bind.p50us > 0 ? emit.p50us / bind.p50us : 0;
  std::printf("  warm bind is %.1fx cheaper per size (p50); "
              "%llu artifact emitted for %zu warm sizes\n",
              speedup, static_cast<unsigned long long>(sweepEmits),
              static_cast<size_t>(bind.ops) + checkNis.size());
  require(speedup >= 10.0, "warm bind must be >= 10x cheaper than bind-and-emit");

  jsonLine("bind", bind);
  jsonLine("bind-repeat", repeat);
  jsonLine("bind-and-emit", emit);
  return 0;
}
