// Figure 4: execution time of MPEG-4 Motion Estimation for various problem
// sizes — GPU without scratchpad, GPU with scratchpad, CPU.
//
// Paper setup: NVIDIA 8800 GTX, 32 thread blocks, 256 threads, W = 16,
// tile sizes (32, 16, 16, 16) from the Section-4.3 search. Expected shape:
// scratchpad version ~8x faster than DRAM-only; >100x faster than CPU.
//
// The second table exercises the compilation service in SHARED-PLAN mode:
// the whole size sweep is compiled with one kernel-family plan (problem
// sizes stay symbolic end-to-end), so exactly one cold pipeline runs and
// every further size is a bind-and-emit instantiation. The sweep FAILS
// (exit 1) on any per-size artifact/tile mismatch against an isolated cold
// compile or on a missing family hit — CI runs it as a smoke test.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "codegen/emit.h"
#include "driver/compiler.h"
#include "driver/plan_cache.h"
#include "kernels/me_pipeline.h"

using namespace emm;

namespace {

double millisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One-size ME compile through the unified pipeline (cuda backend folds the
/// problem sizes, so artifact bytes are size-specific).
CompileResult compileMe(i64 ni, i64 nj, i64 w, PlanCache* cache, double* ms) {
  Compiler c(buildMeBlock(ni, nj, w));
  c.parameters({ni, nj, w}).memoryLimitBytes(16 * 1024).backend("cuda");
  if (cache != nullptr) c.cache(cache);
  const auto t0 = std::chrono::steady_clock::now();
  CompileResult r = c.compile();
  if (ms != nullptr) *ms = millisSince(t0);
  return r;
}

}  // namespace

int main() {
  bench::header("Figure 4: Mpeg4 ME execution time vs problem size",
                "Baskaran et al. PPoPP'08, Fig. 4");
  Machine m = Machine::geforce8800gtx();

  std::printf("  %-10s %14s %14s %14s %10s %10s\n", "size", "gpu-noSmem", "gpu-smem", "cpu",
              "smem-spdp", "cpu-spdp");
  std::vector<i64> sizes = {256 << 10, 1 << 20, 2 << 20, 4 << 20, 9 << 20, 16 << 20, 64 << 20};
  for (i64 points : sizes) {
    MeConfig c;
    c.nj = 1024;
    c.ni = points / c.nj;
    c.w = 16;
    c.numBlocks = 32;
    c.numThreads = 256;
    c.subTile = {32, 16, 16, 16};

    KernelModel with = modelMe(c);
    c.useScratchpad = false;
    KernelModel without = modelMe(c);

    SimResult rw = simulateLaunch(m, with.launch, with.perBlock);
    SimResult rwo = simulateLaunch(m, without.launch, without.perBlock);
    double cpu = simulateCpuMs(m, with.cpuOps, with.cpuMemElems);
    if (!rw.feasible || !rwo.feasible) {
      std::printf("  %-10s infeasible: %s%s\n", bench::sizeLabel(points).c_str(),
                  rw.infeasibleReason.c_str(), rwo.infeasibleReason.c_str());
      continue;
    }
    std::printf("  %-10s %14.1f %14.1f %14.1f %9.1fx %9.1fx\n",
                bench::sizeLabel(points).c_str(), rwo.milliseconds, rw.milliseconds, cpu,
                rwo.milliseconds / rw.milliseconds, cpu / rw.milliseconds);
  }
  std::printf("\n  paper reports: smem speedup ~8x over DRAM-only, >100x over CPU\n");

  // ---- Shared-plan compilation sweep (size-generic family tier) ----------
  std::printf("\n  shared-plan compilation sweep: one family plan, per-size bind-and-emit\n");
  std::printf("  %-10s %10s %10s %8s  %s\n", "size", "cold-ms", "warm-ms", "spdp",
              "tile");
  PlanCache cache;
  double coldTotal = 0, warmTotal = 0;
  std::uint64_t warmEmits = 0;
  bool first = true;
  for (i64 points : sizes) {
    const i64 nj = 1024, ni = points / nj, w = 16;
    double coldMs = 0, warmMs = 0;
    CompileResult cold = compileMe(ni, nj, w, nullptr, &coldMs);
    const std::uint64_t emitsBefore = emitterInvocations();
    CompileResult warm = compileMe(ni, nj, w, &cache, &warmMs);
    warmEmits += emitterInvocations() - emitsBefore;
    bench::require(cold.ok && warm.ok, "compile failed");
    bench::require(warm.artifact == cold.artifact, "per-size artifact mismatch");
    bench::require(warm.search.subTile == cold.search.subTile, "chosen tile mismatch");
    bench::require(warm.familyHit == !first, first ? "first size must build the family"
                                            : "missing family hit");
    bench::require(warm.search.familyAdopted == !first, "family plan not adopted");
    bench::require(warm.artifactBound == !first, first ? "first size must emit the record"
                                                : "warm size must bind, not re-emit");
    coldTotal += coldMs;
    warmTotal += warmMs;
    std::string tile;
    for (i64 t : warm.search.subTile) tile += (tile.empty() ? "" : ",") + std::to_string(t);
    std::printf("  %-10s %10.2f %10.2f %7.1fx  (%s)\n", bench::sizeLabel(points).c_str(),
                coldMs, warmMs, coldMs / warmMs, tile.c_str());
    first = false;
  }
  PlanCache::Stats s = cache.stats();
  bench::require(s.familyMisses == 1, "sweep must perform exactly one cold pipeline run");
  bench::require(s.familyHits == static_cast<i64>(sizes.size()) - 1, "family hit per warm size");
  bench::require(warmEmits == 1, "warm sweep must invoke the emitter exactly once per family");
  std::printf("  sweep totals: %.1f ms cold vs %.1f ms shared-plan (%.1fx); "
              "%lld family hits / %lld misses; %llu artifact emitted for %zu sizes\n",
              coldTotal, warmTotal, coldTotal / warmTotal, s.familyHits, s.familyMisses,
              static_cast<unsigned long long>(warmEmits), sizes.size());
  return 0;
}
