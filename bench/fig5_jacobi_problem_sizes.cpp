// Figure 5: execution time of 1-D Jacobi for various problem sizes — GPU
// without scratchpad, GPU with scratchpad, CPU.
//
// Paper setup: T = 4096 time steps, time tile 32, problem sizes 8k..512k.
// Expected shape: scratchpad version ~10x faster than DRAM-only and ~15x
// faster than CPU.
//
// The second table compiles the jacobi block in SHARED-PLAN mode. Jacobi's
// band is pipeline-parallel, so there is no tile search to share — but the
// cell artifact is size-generic (runtime size arguments, guarded geometry),
// so the first size emits the family record and every further size binds it
// with zero emitter invocations. Jacobi's staged local-store extents are
// pinned to the SPACE dimension n by BufExtentEq guards (the whole rows live
// in the local store), so the family envelope spans the TIME dimension: the
// sweep fixes n and varies the time-step count. It FAILS (exit 1) on any
// per-size artifact mismatch against an isolated cold compile, a missing
// family hit, or more than one emission.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "driver/backend.h"
#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "kernels/jacobi_mapped.h"

using namespace emm;

namespace {

double millisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One-size jacobi compile: scratchpad-only flow (the Figure-1 pipeline the
/// paper applies to this kernel) rendered through the cell backend. The
/// artifact is size-generic, but its folded local-store extents pin n.
CompileResult compileJacobi(i64 n, i64 t, PlanCache* cache, double* ms) {
  Compiler c(buildJacobiBlock(n, t));
  c.parameters({n, t})
      .scratchpadOnly(true)
      .stageEverything(true)
      .memoryLimitBytes(16 * 1024)
      .backend("cell");
  if (cache != nullptr) c.cache(cache);
  const auto t0 = std::chrono::steady_clock::now();
  CompileResult r = c.compile();
  if (ms != nullptr) *ms = millisSince(t0);
  return r;
}

}  // namespace

int main() {
  bench::header("Figure 5: 1-D Jacobi execution time vs problem size",
                "Baskaran et al. PPoPP'08, Fig. 5");
  Machine m = Machine::geforce8800gtx();

  std::printf("  %-10s %14s %14s %14s %10s %10s\n", "size", "gpu-noSmem", "gpu-smem", "cpu",
              "smem-spdp", "cpu-spdp");
  std::vector<i64> sizes = {8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
                            512 << 10};
  for (i64 n : sizes) {
    JacobiConfig c;
    c.n = n;
    c.timeSteps = 4096;
    c.timeTile = 32;
    c.spaceTile = 256;
    c.numBlocks = 128;
    c.numThreads = 64;

    KernelModelJacobi with = jacobiMachineModel(c);
    c.useScratchpad = false;
    KernelModelJacobi without = jacobiMachineModel(c);

    SimResult rw = simulateLaunch(m, with.launch, with.perBlock);
    SimResult rwo = simulateLaunch(m, without.launch, without.perBlock);
    double cpu = simulateCpuMs(m, with.cpuOps, with.cpuMemElems);
    if (!rw.feasible || !rwo.feasible) {
      std::printf("  %-10s infeasible: %s%s\n", bench::sizeLabel(n).c_str(),
                  rw.infeasibleReason.c_str(), rwo.infeasibleReason.c_str());
      continue;
    }
    std::printf("  %-10s %14.1f %14.1f %14.1f %9.1fx %9.1fx\n", bench::sizeLabel(n).c_str(),
                rwo.milliseconds, rw.milliseconds, cpu, rwo.milliseconds / rw.milliseconds,
                cpu / rw.milliseconds);
  }
  std::printf("\n  paper reports: smem speedup ~10x over DRAM-only, ~15x over CPU\n");

  // ---- Shared-plan compilation sweep (size-generic family tier) ----------
  // Buffer geometry is a function of n alone, so the one emitted artifact
  // covers every time-step count; the sweep varies t at a fixed n that fits
  // the 16 KB local store.
  std::printf("\n  shared-plan compilation sweep: family tier on the no-search pipeline\n");
  std::printf("  (fixed n=2k, sweeping time steps: local-store geometry is n-bound)\n");
  std::printf("  %-10s %10s %10s %8s\n", "steps", "cold-ms", "warm-ms", "spdp");
  const i64 kSweepN = 2 << 10;
  std::vector<i64> steps = {512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10};
  PlanCache cache;
  double coldTotal = 0, warmTotal = 0;
  std::uint64_t warmEmits = 0;
  bool first = true;
  for (i64 t : steps) {
    double coldMs = 0, warmMs = 0;
    CompileResult cold = compileJacobi(kSweepN, t, nullptr, &coldMs);
    const std::uint64_t emitsBefore = emitterInvocations();
    CompileResult warm = compileJacobi(kSweepN, t, &cache, &warmMs);
    warmEmits += emitterInvocations() - emitsBefore;
    bench::require(cold.ok && warm.ok, "compile failed");
    bench::require(!cold.artifact.empty(), "scratchpad-only flow must emit an artifact");
    bench::require(warm.artifact == cold.artifact, "per-size artifact mismatch");
    bench::require(warm.familyHit == !first, first ? "first size must build the family"
                                            : "missing family hit");
    bench::require(warm.artifactBound == !first, first ? "first size must emit the record"
                                                : "warm size must bind, not re-emit");
    coldTotal += coldMs;
    warmTotal += warmMs;
    std::printf("  %-10s %10.2f %10.2f %7.1fx\n", bench::sizeLabel(t).c_str(), coldMs,
                warmMs, coldMs / warmMs);
    first = false;
  }
  PlanCache::Stats s = cache.stats();
  bench::require(s.familyMisses == 1, "sweep must perform exactly one cold pipeline run");
  bench::require(s.familyHits == static_cast<i64>(steps.size()) - 1, "family hit per warm size");
  bench::require(warmEmits == 1, "warm sweep must invoke the emitter exactly once per family");
  std::printf("  sweep totals: %.1f ms cold vs %.1f ms shared-plan; "
              "%lld family hits / %lld misses; %llu artifact emitted for %zu sizes\n",
              coldTotal, warmTotal, s.familyHits, s.familyMisses,
              static_cast<unsigned long long>(warmEmits), steps.size());
  return 0;
}
