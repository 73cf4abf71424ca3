// emmapc — command-line driver for the emmap toolchain.
//
// A thin shell over emm::Compiler: builds one or more of the built-in
// kernels, compiles them through the unified pipeline (batched over a
// thread pool when several are given), and prints the requested artifact.
//
// Usage:
//   emmapc --kernel=me|jacobi|jacobi2d|matmul|figure1[,more...]
//          [--size=N[,M[,K]]]          problem sizes (defaults per kernel);
//                                      entries may be named: --size=Ni=1024,W=16
//          [--warm="kernel:sizes[;..]"] precompile a kernel x size matrix into
//                                      --cache-dir (family plan built once)
//          [--tile=t0,t1,...]          sub-tile sizes (default: search)
//          [--mem=BYTES]               scratchpad limit (default 16384)
//          [--emit=c|cuda|cell|plan|stats]  artifact to print (default plan)
//          [--no-hoist]                disable Section-4.2 hoisting
//          [--machine=gpu|cell]        simulated target (default gpu)
//          [--jobs=N]                  pool workers for multi-kernel batches
//          [--cache=on|off]            process-wide plan cache (default off)
//          [--cache-dir=PATH]          persistent on-disk plan cache
//          [--verbose]                 print all pipeline diagnostics
//          [--help]                    full flag reference
//
// With a comma-separated --kernel list, the blocks are compiled as one
// batch over --jobs workers and one summary line is printed per kernel
// (--emit=stats adds per-kernel search/timing lines; artifacts and
// interpreter counters are printed for single-kernel runs only). Repeating
// a kernel with --cache=on --jobs=1 demonstrates a warm plan-cache hit in
// a single process; running twice with the same --cache-dir demonstrates a
// disk hit across processes (the second run skips the pipeline entirely
// and replays the stored plan).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "codegen/emit.h"
#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/plan_cache.h"
#include "gpusim/bank_conflicts.h"
#include "ir/interp.h"
#include "smem/buffer_layout.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "support/cli.h"

using namespace emm;

namespace {

constexpr const char* kUsage =
    "usage: emmapc --kernel=me|jacobi|jacobi2d|matmul|figure1[,more...] [--size=N,K=V,..]\n"
    "              [--tile=t0,t1,..] [--mem=BYTES] [--emit=c|cuda|cell|plan|stats]\n"
    "              [--no-hoist] [--machine=gpu|cell] [--jobs=N] [--cache=on|off]\n"
    "              [--cache-dir=PATH] [--warm=\"kernel:sizes[;...]\"] [--connect=SOCK]\n"
    "              [--verbose] [--help]\n";

constexpr const char* kHelp =
    "emmapc — command-line driver for the emmap toolchain.\n"
    "\n"
    "  --kernel=NAME[,NAME...]  built-in kernel(s) to compile (default me):\n"
    "                           me, jacobi, jacobi2d, matmul, figure1. A comma-\n"
    "                           separated list compiles as one batch over --jobs\n"
    "                           workers, one summary line per kernel.\n"
    "  --size=N[,M[,K]]         problem sizes; per-kernel defaults fill the rest.\n"
    "                           Entries may bind parameters by name (the block's\n"
    "                           parameter names): --size=Ni=1024,W=16 — positional\n"
    "                           and named entries mix freely\n"
    "  --warm=SPEC              precompile a kernel x size matrix into --cache-dir\n"
    "                           (required). SPEC = kernel:sizes[,sizes...][;kernel:...],\n"
    "                           each sizes = XxYxZ (e.g. me:256x128x16,512x128x16).\n"
    "                           The kernel-family plan is built once per kernel and\n"
    "                           every further size is a cheap family instantiation;\n"
    "                           per-size .emmplan and per-family .emmfam records\n"
    "                           land in the cache directory\n"
    "  --tile=t0,t1,...         explicit sub-tile sizes (default: the Section-4.3\n"
    "                           tile-size search under the --mem budget)\n"
    "  --mem=BYTES              scratchpad capacity in bytes (default 16384)\n"
    "  --emit=MODE              artifact to print (default plan):\n"
    "                           c | cuda | cell  rendered source for that backend\n"
    "                           plan             scratchpad plan summary\n"
    "                           stats            interpreter counters + timings\n"
    "  --no-hoist               disable Section-4.2 copy hoisting\n"
    "  --machine=gpu|cell       simulated target (default gpu); cell stages every\n"
    "                           reference through the local store\n"
    "  --jobs=N                 thread-pool workers for multi-kernel batches\n"
    "  --cache=on|off           process-wide in-memory plan cache (default off);\n"
    "                           hit/miss counters shown under --emit=stats\n"
    "  --cache-dir=PATH         persistent on-disk plan cache (created if absent):\n"
    "                           memory hit -> disk hit -> family hit -> cold\n"
    "                           compile; a second run with the same flags replays\n"
    "                           the stored plan without running the pipeline, and\n"
    "                           a run at a NEW size of a known kernel reuses the\n"
    "                           family plan (.emmfam) instead of re-analyzing.\n"
    "                           Disk counters are shown under --emit=stats.\n"
    "                           Format: docs/PLAN_FORMAT.md\n"
    "  --connect=SOCK           compile through a running emmapcd daemon on the\n"
    "                           given unix-domain socket instead of locally. The\n"
    "                           daemon's shared plan store acts as a third,\n"
    "                           networked cache tier: a fresh process whose kernel\n"
    "                           family the daemon has seen is served by the cheap\n"
    "                           bind-and-emit path. Each summary line carries the\n"
    "                           SERVER-side tier attribution (memory/disk/family/\n"
    "                           cold) plus server and round-trip times;\n"
    "                           --emit=stats adds the daemon's cache counters.\n"
    "                           Local --cache/--cache-dir tiers are not consulted;\n"
    "                           --warm and --connect are mutually exclusive\n"
    "  --verbose                print every pipeline diagnostic (notes included)\n"
    "  --help                   this text\n";

std::vector<std::string> splitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t at = s.find(sep, start);
    if (at == std::string::npos) at = s.size();
    if (at > start) out.push_back(s.substr(start, at - start));
    start = at + 1;
  }
  return out;
}

std::vector<std::string> splitList(const std::string& s) { return splitOn(s, ','); }

i64 parseSizeValue(const std::string& text) {
  try {
    size_t used = 0;
    i64 v = std::stoll(text, &used);
    EMM_REQUIRE(used == text.size() && v > 0, "bad size value '" + text + "'");
    return v;
  } catch (const std::logic_error&) {
    throw ApiError("bad size value '" + text + "'");
  }
}

/// Resolves --size entries for one kernel: positional values fill parameter
/// slots in order, NAME=V entries bind by the block's parameter names
/// (e.g. Ni=1024 for me), and per-kernel defaults fill the rest. Surplus
/// positional entries are ignored (historical behavior); unknown names are
/// an error.
std::vector<i64> resolveSizes(const std::string& kernel,
                              const std::vector<std::string>& entries) {
  // Parameter names and defaults are size-independent per kernel; build
  // each kernel's shape block once per process instead of once per
  // resolution (a --warm sweep resolves many sizes of the same kernel).
  struct KernelShape {
    std::vector<std::string> paramNames;
    IntVec defaults;
  };
  static std::map<std::string, KernelShape> shapes;
  auto it = shapes.find(kernel);
  if (it == shapes.end()) {
    KernelShape shape;
    shape.paramNames = buildKernelByName(kernel, {}, shape.defaults).paramNames;
    it = shapes.emplace(kernel, std::move(shape)).first;
  }
  const KernelShape& shape = it->second;
  std::vector<i64> sizes(shape.defaults.begin(), shape.defaults.end());
  size_t positional = 0;
  for (const std::string& entry : entries) {
    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      if (positional < sizes.size()) sizes[positional] = parseSizeValue(entry);
      ++positional;
      continue;
    }
    const std::string name = entry.substr(0, eq);
    size_t idx = 0;
    while (idx < shape.paramNames.size() && shape.paramNames[idx] != name) ++idx;
    if (idx == shape.paramNames.size()) {
      std::string known;
      for (const std::string& n : shape.paramNames) known += (known.empty() ? "" : ", ") + n;
      throw ApiError("kernel '" + kernel + "' has no size parameter '" + name +
                     "' (parameters: " + (known.empty() ? "none" : known) + ")");
    }
    sizes[idx] = parseSizeValue(entry.substr(eq + 1));
  }
  return sizes;
}

void printPartitions(const ProgramBlock& block, const DataPlan& plan) {
  for (const PartitionPlan& part : plan.partitions)
    std::printf("array %-6s : %s  [%s]\n", block.arrays[part.arrayId].name.c_str(),
                part.hasBuffer ? part.bufferName.c_str() : "(global)",
                part.orderReuse ? "order-of-magnitude reuse" : "constant reuse");
}

void printTiledPlan(const CompileResult& r, const IntVec& params) {
  const TiledKernel& kernel = *r.kernel;
  const ProgramBlock& block = *r.input;
  for (size_t p = 0; p < kernel.analysis.plan.partitions.size(); ++p) {
    const PartitionPlan& part = kernel.analysis.plan.partitions[p];
    std::printf("array %-6s : %s", block.arrays[part.arrayId].name.c_str(),
                part.hasBuffer ? part.bufferName.c_str() : "(global)");
    if (part.hasBuffer) {
      std::printf("  offset (");
      for (size_t d = 0; d < part.offset.size(); ++d)
        std::printf("%s%s", d ? ", " : "", part.offset[d].str().c_str());
      std::printf(")  size (");
      std::vector<std::pair<std::string, i64>> env;
      IntVec ext = params;
      ext.resize(kernel.analysis.tileBlock->paramNames.size(), 0);
      for (size_t j = 0; j < kernel.analysis.tileBlock->paramNames.size(); ++j)
        env.emplace_back(kernel.analysis.tileBlock->paramNames[j], ext[j]);
      for (size_t d = 0; d < part.sizeExpr.size(); ++d)
        std::printf("%s%lld", d ? " x " : "", part.sizeExpr[d].eval(env));
      std::printf(")  hoist level %d", kernel.analysis.hoistLevel[p]);
    }
    std::printf("  [%s]\n", part.orderReuse          ? "order-of-magnitude reuse"
                            : part.beneficial        ? "constant reuse"
                                                     : "no beneficial reuse");
  }
}

void printStats(const CompileResult& r, const IntVec& params) {
  ArrayStore store(r.input->arrays);
  store.fillAllPattern(1);
  IntVec ext = params;
  ext.resize(r.kernel->analysis.tileBlock->paramNames.size(), 0);
  MemTrace t = executeCodeUnit(*r.unit(), ext, store);
  std::printf("statement instances : %lld\n", t.stmtInstances);
  std::printf("global reads/writes : %lld / %lld\n", t.globalReads, t.globalWrites);
  std::printf("local reads/writes  : %lld / %lld\n", t.localReads, t.localWrites);
  std::printf("copies / syncs      : %lld / %lld\n", t.copyElements, t.syncs);
  std::printf("footprint per block : %lld elems\n", r.kernel->footprintPerBlock(params));
  if (r.bufferLayout.has_value()) {
    const BufferLayout& lo = *r.bufferLayout;
    i64 rawBytes = 0;
    for (const BufferLayoutEntry& e : lo.buffers) {
      i64 elems = e.extent.empty() ? 0 : 1;
      for (const SymPtr& s : e.extent) elems = mulChecked(elems, std::max<i64>(0, s->eval(ext)));
      rawBytes = addChecked(rawBytes, elems);
    }
    rawBytes = mulChecked(rawBytes, lo.elementBytes);
    BankConflictOptions bc;
    bc.banks = static_cast<int>(lo.bank.banks);
    bc.bankWidthBytes = lo.bank.widthBytes;
    bc.elementBytes = lo.elementBytes;
    const BankConflictStats cs = countBankConflicts(*r.unit(), ext, bc);
    std::printf("buffer layout       : %s%s%s\n",
                lo.padded ? "packed (conflict-padded rows)" : "unpadded",
                lo.note.empty() ? "" : " -- ", lo.note.c_str());
    std::printf("  padding overhead  : %lld bytes (%lld padded vs %lld raw)\n",
                lo.paddingBytes(ext), lo.totalBytes(ext), rawBytes);
    std::printf("  conflict estimate : %.1f%% of scratchpad access cycles serialized "
                "(%lld banks x %lld-byte words)\n",
                100.0 * cs.serializedFraction(), lo.bank.banks, lo.bank.widthBytes);
  }
  std::printf("pipeline timing     :");
  for (const PassTiming& pt : r.timings)
    if (pt.ran) std::printf(" %s %.2fms", pt.pass.c_str(), pt.millis);
  std::printf("\n");
}

/// Per-kernel configuration shared by the single and batch paths.
void configureForKernel(Compiler& compiler, const std::string& kernel,
                        const std::string& machine) {
  compiler.kernelName(kernel == "figure1" ? kernel : kernel + "_kernel");
  const bool fig1 = kernel == "figure1";
  // Figure-1-style block (no parallel mapping): block-level scratchpad only.
  compiler.scratchpadOnly(fig1)
      .stageEverything(machine == "cell" || fig1)  // Cell must stage everything
      .partition(fig1 ? PartitionMode::PerArrayUnion : PartitionMode::MaximalDisjoint);
}

int runBatch(Compiler& compiler, const std::vector<std::string>& kernels,
             const std::vector<std::string>& sizeEntries, const std::string& machine,
             const std::string& emit, bool verbose, bool cacheOn) {
  const std::uint64_t emitsBefore = emitterInvocations();
  std::vector<std::future<CompileResult>> futures;
  futures.reserve(kernels.size());
  for (const std::string& kernel : kernels) {
    IntVec params;
    ProgramBlock block = buildKernelByName(kernel, resolveSizes(kernel, sizeEntries), params);
    configureForKernel(compiler.parameters(params), kernel, machine);
    futures.push_back(compiler.compileAsync(std::move(block)));
  }
  int failures = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    CompileResult r = futures[i].get();
    for (const Diagnostic& d : r.diagnostics)
      if (verbose || d.severity == Severity::Error)
        std::fprintf(stderr, "[%s] %s\n", kernels[i].c_str(), d.str().c_str());
    std::string tile;
    for (i64 t : r.search.subTile) tile += (tile.empty() ? "" : ",") + std::to_string(t);
    std::printf("%-10s %-5s tile (%s)  artifact %zu bytes%s%s%s%s\n", kernels[i].c_str(),
                r.ok ? "ok" : "FAIL", tile.c_str(), r.artifact.size(),
                r.cacheHit ? "  [cache hit]" : "", r.diskHit ? "  [disk hit]" : "",
                r.familyHit ? "  [family hit]" : "", r.artifactBound ? "  [bound]" : "");
    if (emit == "stats") {
      // Runtime-bound results: the record's artifact served this size with
      // no emission; show the bind cost next to the pipeline timings it
      // replaced.
      if (r.artifactBound) {
        double bindMs = 0;
        for (const PassTiming& pt : r.timings)
          if (pt.pass == "bind") bindMs = pt.millis;
        std::printf("           bind %.3fms: %zu runtime args filled, no emission\n", bindMs,
                    r.boundArgs.size());
      }
      // Per-kernel summary stats (full interpreter counters need the
      // single-kernel path).
      std::printf("           tile search %d evaluations (%d memo hits)%s%s",
                  r.search.evaluations, r.search.memoHits,
                  r.search.parametric ? ", parametric" : "",
                  r.search.familyAdopted ? " (family plan)" : "");
      if (r.search.prunedBoxes > 0)
        std::printf(", %d boxes pruned", r.search.prunedBoxes);
      std::printf("; timings:");
      for (const PassTiming& pt : r.timings)
        if (pt.ran) std::printf(" %s %.2fms", pt.pass.c_str(), pt.millis);
      std::printf("%s\n", r.cacheHit ? " (cached run)" : "");
      // Size-symbolic fallback diagnostics: a family that degrades to
      // per-size compiles must be visible per kernel.
      if (!r.search.parametric && !r.search.parametricReason.empty())
        std::printf("           parametric fallback: %s\n",
                    r.search.parametricReason.c_str());
    }
    if (!r.ok) ++failures;
  }
  // One artifact per kernel family is the v4 contract: sizes served beyond
  // the emitted count came from cache replays or runtime-bound records.
  std::printf("emission   : %llu artifacts emitted / %zu sizes served\n",
              static_cast<unsigned long long>(emitterInvocations() - emitsBefore),
              kernels.size());
  if (cacheOn) {
    PlanCache::Stats s = PlanCache::global().stats();
    std::printf("plan cache : %lld hits / %lld misses / %lld entries\n", s.hits, s.misses,
                s.entries);
    std::printf("family tier: %lld hits / %lld misses / %lld families\n", s.familyHits,
                s.familyMisses, s.familyEntries);
  }
  if (compiler.diskPlanCache() != nullptr) {
    DiskPlanCache::Stats s = compiler.diskPlanCache()->stats();
    std::printf("disk cache : %lld hits / %lld misses / %lld rejects / %lld evictions; "
                "%lld entries (%lld bytes)\n",
                s.hits, s.misses, s.rejects, s.evictions, s.entries, s.bytes);
    std::printf("disk family: %lld hits / %lld misses / %lld rejects; %lld families "
                "(%lld bytes)\n",
                s.familyHits, s.familyMisses, s.familyRejects, s.familyEntries,
                s.familyBytes);
  }
  return failures == 0 ? 0 : 1;
}

/// --connect: route every compile through a running emmapcd daemon. The
/// compiler is used only as an options builder — the exact effective option
/// set (problem binding included) ships in the request, so daemon-side
/// results match what a local compile would have produced. Prints one
/// summary line per kernel with the SERVER-side tier attribution next to
/// the client-observed round trip.
int runConnect(const std::string& sock, const std::vector<std::string>& kernels,
               const std::vector<std::string>& sizeEntries, const std::string& machine,
               const std::string& emit, Compiler compiler, bool verbose) {
  svc::ServiceClient client(sock);
  const bool single = kernels.size() == 1;
  int failures = 0;
  for (const std::string& kernel : kernels) {
    std::vector<i64> sizes = resolveSizes(kernel, sizeEntries);
    IntVec params;
    buildKernelByName(kernel, sizes, params);  // validates; params for printing
    configureForKernel(compiler.parameters(params), kernel, machine);
    svc::CompileRequest req;
    req.kernel = kernel;
    req.sizes = sizes;
    req.options = compiler.opts();
    if (emit == "plan" || emit == "stats") req.skipPasses = {"codegen"};
    svc::WireCompileReply reply = client.compile(std::move(req));
    const CompileResult& r = reply.result;
    for (const Diagnostic& d : r.diagnostics)
      if (verbose || d.severity == Severity::Error)
        std::fprintf(stderr, "[%s] %s\n", kernel.c_str(), d.str().c_str());
    const char* tier = reply.serverCacheHit    ? "memory hit"
                       : reply.serverDiskHit   ? "disk hit"
                       : reply.serverFamilyHit ? "family hit"
                                               : "cold compile";
    std::printf("%-10s %-5s server %s %.2fms, round-trip %.2fms\n", kernel.c_str(),
                r.ok ? "ok" : "FAIL", tier, reply.serverMillis, reply.roundTripMillis);
    if (!r.ok) {
      ++failures;
      continue;
    }
    if (single && (emit == "c" || emit == "cuda" || emit == "cell")) {
      std::fputs(r.artifact.c_str(), stdout);
    } else if (single && emit == "plan") {
      if (r.kernel)
        printTiledPlan(r, params);
      else if (r.dataPlan() != nullptr)
        printPartitions(r.block(), *r.dataPlan());
    } else if (emit == "stats") {
      std::printf("           tile search %d evaluations (%d memo hits)%s%s\n",
                  r.search.evaluations, r.search.memoHits,
                  r.search.parametric ? ", parametric" : "",
                  r.search.familyAdopted ? " (family plan)" : "");
    }
  }
  if (emit == "stats") {
    // Client-observed attribution is on the per-kernel lines above; this
    // section is the SERVER's view of its shared store.
    svc::WireStats s = client.stats();
    std::printf("daemon      : %lld connections, %lld requests, %lld compiles "
                "(%lld errors, %lld protocol errors)\n",
                s.connections, s.requests, s.compiles, s.compileErrors, s.protocolErrors);
    std::printf("daemon bind : %lld requests served by the family fast path (record bound "
                "on the connection thread, no emission), %lld of them shipping the record\n",
                s.familyFastPath, s.familyRecordSends);
    std::printf("server mem  : %lld hits / %lld misses / %lld entries; family %lld hits / "
                "%lld misses / %lld families\n",
                s.memory.hits, s.memory.misses, s.memory.entries, s.memory.familyHits,
                s.memory.familyMisses, s.memory.familyEntries);
    if (s.haveDisk)
      std::printf("server disk : %lld hits / %lld misses; family %lld hits / %lld misses; "
                  "%lld entries (%lld bytes)\n",
                  s.disk.hits, s.disk.misses, s.disk.familyHits, s.disk.familyMisses,
                  s.disk.entries, s.disk.bytes);
  }
  return failures == 0 ? 0 : 1;
}

/// --warm: precompile a kernel x size matrix into the disk cache, one
/// pipeline run per kernel family plus a cheap instantiation per size.
int runWarm(Compiler& compiler, const std::string& spec, const std::string& machine,
            bool verbose) {
  if (compiler.diskPlanCache() == nullptr) {
    std::fprintf(stderr, "--warm needs --cache-dir to populate\n%s", kUsage);
    return 2;
  }
  // Family reuse inside the warming run itself needs the memory tier.
  compiler.cache(&PlanCache::global());
  const std::uint64_t emitsBefore = emitterInvocations();
  int failures = 0;
  i64 total = 0;
  for (const std::string& entry : splitOn(spec, ';')) {
    const size_t colon = entry.find(':');
    const std::string kernel = colon == std::string::npos ? entry : entry.substr(0, colon);
    std::vector<std::string> tuples =
        colon == std::string::npos ? std::vector<std::string>{}
                                   : splitList(entry.substr(colon + 1));
    if (tuples.empty()) tuples.push_back("");  // defaults-only warm
    for (const std::string& tuple : tuples) {
      std::vector<i64> sizes = resolveSizes(kernel, splitOn(tuple, 'x'));
      IntVec params;
      ProgramBlock block = buildKernelByName(kernel, sizes, params);
      configureForKernel(compiler.parameters(params), kernel, machine);
      CompileResult r = compiler.compile(std::move(block));
      for (const Diagnostic& d : r.diagnostics)
        if (verbose || d.severity == Severity::Error)
          std::fprintf(stderr, "[%s] %s\n", kernel.c_str(), d.str().c_str());
      std::string label;
      for (i64 v : sizes) label += (label.empty() ? "" : "x") + std::to_string(v);
      std::printf("warm %-10s %-18s %-5s%s%s%s%s\n", kernel.c_str(), label.c_str(),
                  r.ok ? "ok" : "FAIL", r.familyHit ? "  [family hit]" : "",
                  r.diskHit ? "  [disk hit]" : "", r.cacheHit ? "  [cache hit]" : "",
                  r.artifactBound ? "  [bound]" : "");
      if (!r.ok) ++failures;
      ++total;
    }
  }
  PlanCache::Stats ms = PlanCache::global().stats();
  DiskPlanCache::Stats ds = compiler.diskPlanCache()->stats();
  std::printf("warmed %lld entries: family tier %lld hits / %lld misses; disk %lld plans + "
              "%lld families (%lld bytes)\n",
              total, ms.familyHits, ms.familyMisses, ds.insertions + ds.hits,
              ds.familyEntries, ds.bytes + ds.familyBytes);
  // The headline of runtime-size-bound codegen: a kernel x size matrix is
  // one emitted artifact per family, every further size a record bind.
  std::printf("emission: %llu artifacts emitted / %lld sizes served\n",
              static_cast<unsigned long long>(emitterInvocations() - emitsBefore), total);
  return failures == 0 ? 0 : 1;
}

int run(cli::Args& args) {
  if (args.flag("help")) {
    std::fputs(kHelp, stdout);
    return 0;
  }
  const std::string kernelArg = args.str("kernel", "me");
  const std::string emit = args.str("emit", "plan");
  const std::string machine = args.str("machine", "gpu");
  const std::string cacheArg = args.str("cache", "off");
  const std::string cacheDir = args.str("cache-dir", "");
  const i64 jobsArg = args.integer("jobs", 1);
  const bool hoist = !args.flag("no-hoist");
  const bool verbose = args.flag("verbose");
  if (emit != "c" && emit != "cuda" && emit != "cell" && emit != "plan" && emit != "stats") {
    std::fprintf(stderr, "unknown --emit mode '%s'\n%s", emit.c_str(), kUsage);
    return 2;
  }
  if (cacheArg != "on" && cacheArg != "off") {
    std::fprintf(stderr, "unknown --cache mode '%s'\n%s", cacheArg.c_str(), kUsage);
    return 2;
  }
  const bool cacheOn = cacheArg == "on";
  const std::vector<std::string> kernels = splitList(kernelArg);
  if (kernels.empty()) {
    std::fprintf(stderr, "empty --kernel list\n%s", kUsage);
    return 2;
  }
  const std::vector<i64> tile = args.intList("tile");
  const std::vector<std::string> sizeEntries = splitList(args.str("size", ""));
  const std::string warmSpec = args.str("warm", "");
  const std::string connectSock = args.str("connect", "");
  if (!connectSock.empty() && !warmSpec.empty()) {
    std::fprintf(stderr, "--warm and --connect are mutually exclusive\n%s", kUsage);
    return 2;
  }

  Compiler compiler;
  compiler.memoryLimitBytes(args.integer("mem", 16 * 1024))
      .innerProcs(machine == "cell" ? 4 : 32)
      .hoistCopies(hoist)
      .tileSizes(tile)
      .backend(emit == "cuda" || emit == "cell" ? emit : "c")
      .jobs(static_cast<int>(jobsArg));
  if (cacheOn) compiler.cache(&PlanCache::global());
  if (!cacheDir.empty()) compiler.diskCache(cacheDir);
  if (!args.validate(kUsage)) return 2;

  // Warm runs always compile end-to-end (codegen included) so the cached
  // per-size plans can serve later emitting runs; plan/stats runs skip
  // codegen and rely on the family tier, whose key ignores codegen-only
  // differences.
  if (!warmSpec.empty()) return runWarm(compiler, warmSpec, machine, verbose);
  if (!connectSock.empty())
    return runConnect(connectSock, kernels, sizeEntries, machine, emit, compiler, verbose);
  if (emit == "plan" || emit == "stats") compiler.skipPass("codegen");

  if (kernels.size() > 1)
    return runBatch(compiler, kernels, sizeEntries, machine, emit, verbose, cacheOn);

  IntVec params;
  ProgramBlock block = buildKernelByName(kernels[0], resolveSizes(kernels[0], sizeEntries),
                                         params);
  configureForKernel(compiler.parameters(params), kernels[0], machine);
  CompileResult r = compiler.compile(std::move(block));
  // Warnings and errors always reach the user (e.g. an explicit --tile that
  // violates --mem); notes only under --verbose.
  for (const Diagnostic& d : r.diagnostics)
    if (verbose || d.severity != Severity::Note)
      std::fprintf(stderr, "%s\n", d.str().c_str());
  if (!r.ok) return 1;

  if (r.havePlan) {
    std::printf("// kernel %s, space loops:", kernels[0].c_str());
    for (int l : r.plan.spaceLoops) std::printf(" %d", l);
    std::printf(", inter-block sync: %s\n", r.plan.needsInterBlockSync ? "yes" : "no");
  }

  if (r.havePlan && r.plan.needsInterBlockSync) {
    // Stencil-style kernels: the band is pipeline-parallel, so (as in the
    // paper, which used the concurrent-start framework of [27] for Jacobi)
    // the generic Figure-3 tiler does not apply. Report the Section-3
    // analysis the driver fell back to.
    std::printf("// pipeline-parallel band: use the concurrent-start mapped kernels in\n"
                "// src/kernels (jacobi_mapped, jacobi2d_mapped); showing the Section-3\n"
                "// scratchpad analysis of the block:\n");
    printPartitions(r.block(), *r.blockPlan);
    return 0;
  }

  if (r.kernel && tile.empty()) {
    std::printf("// searched tile:");
    for (i64 t : r.search.subTile) std::printf(" %lld", t);
    std::printf("  (cost %.4g, footprint %lld elems, %d evaluations)\n", r.search.eval.cost,
                r.search.eval.footprint, r.search.evaluations);
  }
  if (r.artifactBound) {
    double bindMs = 0;
    for (const PassTiming& pt : r.timings)
      if (pt.pass == "bind") bindMs = pt.millis;
    std::printf("// bound family artifact: %zu runtime args filled in %.3fms, no emission\n",
                r.boundArgs.size(), bindMs);
  }

  if (emit == "c" || emit == "cuda" || emit == "cell") {
    std::fputs(r.artifact.c_str(), stdout);
  } else if (emit == "stats") {
    if (!r.kernel) {
      std::fprintf(stderr, "--emit=stats needs the tiled pipeline path\n");
      return 1;
    }
    printStats(r, params);
    std::printf("tile search         : %d evaluations (%d memo hits)\n", r.search.evaluations,
                r.search.memoHits);
    if (r.search.parametric)
      std::printf("parametric plan     : %s in %.2f ms; candidate evaluation %.2f ms total\n",
                  r.search.familyAdopted ? "adopted from the family tier" : "built",
                  r.search.planBuildMillis, r.search.evalMillis);
    else if (!r.search.parametricReason.empty())
      std::printf("parametric plan     : fallback (%s)\n", r.search.parametricReason.c_str());
    if (r.search.prunedBoxes > 0)
      std::printf("pruned boxes        : %d candidate boxes discarded by the footprint "
                  "interval\n",
                  r.search.prunedBoxes);
    if (cacheOn) {
      PlanCache::Stats s = PlanCache::global().stats();
      std::printf("plan cache          : %s; %lld hits / %lld misses / %lld entries\n",
                  r.cacheHit ? "hit" : "miss", s.hits, s.misses, s.entries);
      // r.familyHit says the compile was family-instantiated (from either
      // tier); the counters below are the MEMORY tier's — a fresh process
      // served from disk shows hit here with a memory-tier miss, and the
      // disk family counters further down carry the attribution.
      std::printf("family tier         : %s\n",
                  r.familyHit ? "hit (bind-and-emit run)" : "miss");
      std::printf("family cache (mem)  : %lld hits / %lld misses / %lld families\n",
                  s.familyHits, s.familyMisses, s.familyEntries);
    }
    if (compiler.diskPlanCache() != nullptr) {
      DiskPlanCache::Stats s = compiler.diskPlanCache()->stats();
      std::printf("disk cache          : %s; %lld hits / %lld misses / %lld rejects / "
                  "%lld evictions; %lld entries (%lld bytes)\n",
                  r.diskHit ? "hit (pipeline skipped)" : "miss", s.hits, s.misses, s.rejects,
                  s.evictions, s.entries, s.bytes);
    }
  } else if (emit == "plan") {
    if (r.kernel)
      printTiledPlan(r, params);
    else if (r.dataPlan() != nullptr)
      printPartitions(r.block(), *r.dataPlan());
  } else {
    std::fprintf(stderr, "unknown --emit mode '%s'\n%s", emit.c_str(), kUsage);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  try {
    return run(args);
  } catch (const ApiError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
