// Golden plan-format bytes: the serialized form of a fixed set of compile
// results must not change.
//
// Covered payloads: the four paper kernels at their default sizes, one ME and
// one matmul result served by the runtime binder at a second size, one
// .emmfam family payload (tile plan plus size-generic record), the request
// options of the four kernels, the first four generated programs of seed 1,
// the complete .emmplan file DiskPlanCache::insert writes for ME, and the six
// daemon wire payloads (an ME kernel request, the ME reply, a StatsReply with
// distinct counters, a drain ErrorReply, and the two BoundReplies of an ME
// bind: the one that carries the record and the lean one), and the
// `plan_search_<kernel>` rows: the binder's tile searches for ME and matmul
// over a fixed grid of sizes (see planSearchPayload). Each is recorded in
// tests/golden/plan_bytes.txt as its byte length and digestBytes value.
//
// The `results_seed<N>` rows (a test of their own) digest the compile results
// of generated programs 0-199 of seeds 1, 2 and 3 at the differential
// runner's default options, concatenated. They pin the transformation
// framework's outcomes on programs the built-ins do not reach: skew factors
// 1 to 4, a skew of two loops (seed 3, program 191) and the "no permutable
// outer band" fallback.
// Wall-clock values (PassTiming::millis, the tile search's
// planBuildMillis/evalMillis, and the "N ms" figures the tile-search note
// prints) are zeroed first; everything else in the payload is a
// deterministic function of the input.
//
// The file also records values derived from the schema rather than from a
// payload: the schema fingerprint (the `schema` row), the block and option
// cache keys of the four kernels (the `key_*` rows), their disk-tier file
// names (the `file_*` rows: .emmplan, then .emmfam) and their family
// collision digests (the `famdigest_*` rows: block, then options). They are checked by a
// separate test, because a change to the schema manifest or to the key walk
// changes them without changing any payload byte.
//
// A change that alters any serialized byte fails here. A deliberate format
// change regenerates the file:
//
//   EMM_UPDATE_GOLDEN=1 ./build/emmap_tests --gtest_filter='GoldenPlanBytes.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <sstream>

#include <unistd.h>

#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "service/protocol.h"
#include "driver/runtime_binder.h"
#include "support/field_codec.h"
#include "support/fingerprint.h"
#include "support/serialize.h"
#include "testgen/diff_runner.h"
#include "testgen/generator.h"

namespace emm {
namespace {

namespace fs = std::filesystem;

const char* const kGoldenFile = EMM_GOLDEN_DIR "/plan_bytes.txt";

/// The options a plain request for a built-in kernel carries.
CompileOptions builtinOptions(const std::string& kernel, const IntVec& params) {
  CompileOptions o;
  o.paramValues = params;
  o.kernelName = kernel + "_kernel";
  return o;
}

CompileResult compileBuiltin(const std::string& kernel, const std::vector<i64>& sizes,
                             PlanCache* cache) {
  IntVec params;
  Compiler c(buildKernelByName(kernel, sizes, params));
  c.options(builtinOptions(kernel, params));
  if (cache != nullptr) c.cache(cache);
  return c.compile();
}

void zeroTimings(CompileResult& r) {
  for (PassTiming& t : r.timings) t.millis = 0;
  r.search.planBuildMillis = 0;
  r.search.evalMillis = 0;
  static const std::regex millis("[0-9]+\\.[0-9]+ ms");
  for (Diagnostic& d : r.diagnostics) d.message = std::regex_replace(d.message, millis, "0 ms");
}

std::string resultBytes(CompileResult r) {
  zeroTimings(r);
  return serializeCompileResult(r);
}

std::string readBytes(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The digest of an empty skipped-pass list: the `passes` part of the plan
/// and family keys of a plain request.
u64 noSkippedPasses() {
  Hasher h;
  h.mix(std::vector<std::string>{});
  return h.digest();
}

PlanKey builtinPlanKey(const ProgramBlock& block, const CompileOptions& options) {
  return PlanKey{hashProgramBlock(block), hashCompileOptions(options), noSkippedPasses()};
}

/// Reads the raw FamilyPlan payload out of the one .emmfam file in `dir`,
/// stripping the disk-tier envelope (magic, version, schema fingerprint, key
/// echo, collision digests, length prefix and trailing checksum).
std::string familyPayload(const fs::path& dir) {
  std::string file;
  for (const fs::directory_entry& de : fs::directory_iterator(dir))
    if (de.path().extension() == ".emmfam") {
      EXPECT_TRUE(file.empty()) << "more than one .emmfam record";
      file = readBytes(de.path());
    }
  if (file.size() <= 8) return {};
  ByteReader header(std::string_view(file).substr(8));
  header.u32v();                              // format version
  for (int i = 0; i < 6; ++i) header.u64v();  // schema, key echo, digests
  const u64 len = header.u64v();
  if (len + 8 > header.remaining()) return {};
  return file.substr(8 + header.position(), len);
}

/// The binder's tile searches for `kernel` over `grid`, both solvers per
/// size: the family is warmed at the kernel's default size, each request is
/// certified (certifyBind), and the search it ran is read back from the
/// family's search memo, which keeps rejected outcomes too. The serialized
/// TileSearchResults (clocks zeroed) are concatenated; a size whose binding
/// throws stores no search and contributes "none".
std::string planSearchPayload(const std::string& kernel,
                              const std::vector<std::vector<i64>>& grid) {
  PlanCache cache;
  IntVec seedParams;
  Compiler seed(buildKernelByName(kernel, {}, seedParams));
  seed.options(builtinOptions(kernel, seedParams)).cache(&cache);
  EXPECT_TRUE(seed.compile().ok) << kernel;
  const std::shared_ptr<const FamilyPlan> family =
      seed.cachedFamily(buildKernelByName(kernel, {}, seedParams));
  EXPECT_TRUE(family != nullptr && family->haveRecord) << kernel;
  if (family == nullptr) return {};
  std::string out;
  for (const std::vector<i64>& sizes : grid) {
    for (TileSearchMode mode : {TileSearchMode::CoordinateDescent, TileSearchMode::Exhaustive}) {
      IntVec params;
      const ProgramBlock block = buildKernelByName(kernel, sizes, params);
      CompileOptions o = seed.opts();
      o.paramValues = params;
      o.searchMode = mode;
      certifyBind(*family, block, o, nullptr);
      const std::shared_ptr<const SearchMemo::Entry> entry =
          family->searchMemo.find(o.tileSearchOptions(), mode == TileSearchMode::Exhaustive);
      if (entry == nullptr) {
        out += "none";
        continue;
      }
      TileSearchResult result = entry->result;
      result.planBuildMillis = 0;
      result.evalMillis = 0;
      ByteWriter w;
      writeValue(w, result);
      out += w.take();
    }
  }
  return out;
}

/// The `plan_search_<kernel>` payloads. The grids cover sizes the record's
/// tile binds at, sizes where the argmin moves, sizes with no feasible tile
/// and (ME) a size whose footprint formulas overflow.
std::vector<std::pair<std::string, std::string>> planSearchPayloads() {
  std::vector<std::vector<i64>> me = {{2, 2, 2},        {8, 128, 16},
                                      {272, 128, 16},   {1040, 128, 16},
                                      {2048, 2048, 64}, {i64{1} << 40, i64{1} << 40, 16}};
  std::vector<std::vector<i64>> matmul = {{2, 2, 2},       {4, 4, 4},
                                          {448, 64, 64},   {160, 132, 144},
                                          {1024, 1024, 1024}, {4096, 64, 4096}};
  for (i64 k = 0; k < 18; ++k) {
    me.push_back({16 + 56 * k, 32 << (k % 3), 4 << (k % 4)});
    matmul.push_back({16 + 40 * k, 8 + 60 * ((k * 7) % 11), 32 + 24 * ((k * 5) % 9)});
  }
  return {{"plan_search_me", planSearchPayload("me", me)},
          {"plan_search_matmul", planSearchPayload("matmul", matmul)}};
}

/// Every golden payload, by name, in file order.
std::vector<std::pair<std::string, std::string>> goldenPayloads() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* kernel : {"me", "jacobi", "jacobi2d", "matmul"}) {
    CompileResult r = compileBuiltin(kernel, {}, nullptr);
    EXPECT_TRUE(r.ok) << kernel << ": " << r.firstError();
    out.emplace_back(kernel, resultBytes(std::move(r)));
  }

  // Bound results: the cold compile at the default size publishes the
  // family record; the second size is served by the binder.
  const std::vector<std::pair<std::string, std::vector<i64>>> bound = {
      {"me", {272, 128, 16}}, {"matmul", {160, 132, 144}}};
  for (const auto& [kernel, sizes] : bound) {
    PlanCache cache;
    EXPECT_TRUE(compileBuiltin(kernel, {}, &cache).ok);
    CompileResult r = compileBuiltin(kernel, sizes, &cache);
    EXPECT_TRUE(r.ok && r.artifactBound) << kernel << " was not served by the binder";
    out.emplace_back(kernel + "_bound", resultBytes(std::move(r)));
  }

  // The .emmfam payload of ME, with its record's timings zeroed.
  const fs::path dir =
      fs::temp_directory_path() / ("emm_golden_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    IntVec params;
    Compiler c(buildKernelByName("me", {}, params));
    c.options(builtinOptions("me", params)).diskCache(dir.string());
    EXPECT_TRUE(c.compile().ok);
  }
  const std::string payload = familyPayload(dir);
  fs::remove_all(dir);
  EXPECT_FALSE(payload.empty());
  if (!payload.empty()) {
    FamilyPlan plan = *deserializeFamilyPlan(payload);
    if (plan.record != nullptr) {
      CompileResult record = plan.record->clone();
      zeroTimings(record);
      plan.record = std::make_shared<const CompileResult>(std::move(record));
    }
    out.emplace_back("me_family", serializeFamilyPlan(plan));
  }

  for (const char* kernel : {"me", "jacobi", "jacobi2d", "matmul"}) {
    IntVec params;
    buildKernelByName(kernel, {}, params);
    out.emplace_back(std::string("options_") + kernel,
                     serializeCompileOptions(builtinOptions(kernel, params)));
  }
  testgen::GeneratorOptions gen;
  gen.seed = 1;
  for (u64 index = 0; index < 4; ++index)
    out.emplace_back("block_gen" + std::to_string(index),
                     serializeProgramBlock(testgen::ProgramGenerator(gen).generate(index).block));

  // The whole .emmplan file (envelope and payload) of a cold ME compile.
  IntVec meParams;
  const ProgramBlock meBlock = buildKernelByName("me", {}, meParams);
  const CompileOptions meOptions = builtinOptions("me", meParams);
  CompileResult me = compileBuiltin("me", {}, nullptr);
  zeroTimings(me);
  {
    fs::remove_all(dir);
    const PlanKey key = builtinPlanKey(meBlock, meOptions);
    DiskPlanCache disk(dir.string());
    disk.insert(key, meOptions, me);
    out.emplace_back("store_me", readBytes(dir / DiskPlanCache::entryFileName(key)));
    fs::remove_all(dir);
  }

  // The daemon wire payloads.
  svc::CompileRequest request;
  request.schemaFingerprint = serializeSchemaFingerprint();
  request.kernel = "me";
  request.sizes.assign(meParams.begin(), meParams.end());
  request.options = meOptions;
  out.emplace_back("wire_request_me", svc::encodeCompileRequest(request));
  out.emplace_back("wire_reply_me", svc::encodeCompileReply(me, 0));
  svc::WireStats stats;
  i64 next = 1;
  for (i64* counter : {&stats.connections, &stats.requests, &stats.compiles,
                       &stats.compileErrors, &stats.protocolErrors, &stats.familyFastPath,
                       &stats.familyRecordSends, &stats.memory.hits, &stats.memory.misses,
                       &stats.memory.entries, &stats.memory.evictions, &stats.memory.familyHits,
                       &stats.memory.familyMisses, &stats.memory.familyEntries,
                       &stats.memory.familyEvictions, &stats.disk.hits, &stats.disk.misses,
                       &stats.disk.rejects, &stats.disk.evictions, &stats.disk.insertions,
                       &stats.disk.entries, &stats.disk.bytes, &stats.disk.familyHits,
                       &stats.disk.familyMisses, &stats.disk.familyRejects,
                       &stats.disk.familyInsertions, &stats.disk.familyEntries,
                       &stats.disk.familyBytes})
    *counter = next++;
  stats.haveDisk = true;
  out.emplace_back("wire_stats", svc::encodeStatsReply(stats));
  out.emplace_back("wire_error", svc::encodeErrorReply({true, "server shutting down"}));
  {
    // The ME family bound at a second size, as the daemon ships it.
    PlanCache cache;
    EXPECT_TRUE(compileBuiltin("me", {}, &cache).ok);
    IntVec params;
    const ProgramBlock block = buildKernelByName("me", {272, 128, 16}, params);
    Compiler c(block);
    c.options(builtinOptions("me", params)).cache(&cache);
    std::optional<FamilyBind> bind = c.tryCertifyFamily(block);
    EXPECT_TRUE(bind.has_value()) << "me was not served by the binder";
    if (bind.has_value()) {
      CompileResult record = bind->record->clone();
      zeroTimings(record);
      svc::WireBoundReply reply;
      reply.hasRecord = true;
      reply.record = std::make_shared<const CompileResult>(std::move(record));
      reply.overlay = std::move(bind->overlay);
      reply.overlay.timing.millis = 0;
      if (reply.overlay.search.has_value()) {
        reply.overlay.search->planBuildMillis = 0;
        reply.overlay.search->evalMillis = 0;
      }
      out.emplace_back("wire_bound_reply_me_record", svc::encodeBoundReply(reply));
      reply.hasRecord = false;
      reply.record = nullptr;
      out.emplace_back("wire_bound_reply_me_lean", svc::encodeBoundReply(reply));
    }
  }
  for (auto& row : planSearchPayloads()) out.push_back(std::move(row));
  return out;
}

/// Generator seeds of the `results_seed<N>` rows, and programs per seed.
constexpr u64 kResultSeeds[] = {1, 2, 3};
constexpr u64 kResultPrograms = 200;

/// The serialized results (timings zeroed) of compiling programs
/// 0..kResultPrograms-1 of generator seed `seed` as the differential runner
/// does, concatenated in index order.
std::string generatedResults(u64 seed) {
  testgen::GeneratorOptions gen;
  gen.seed = seed;
  const testgen::ProgramGenerator generator(gen);
  const testgen::DiffOptions diff;
  std::string out;
  for (u64 index = 0; index < kResultPrograms; ++index) {
    const testgen::GeneratedProgram program = generator.generate(index);
    Compiler c(program.block);
    c.options(diff.baseOptions).parameters(program.paramValues);
    out += resultBytes(c.compile());
  }
  return out;
}

/// The `results_seed<N>` payloads, by name, in file order.
std::vector<std::pair<std::string, std::string>> generatedResultPayloads() {
  std::vector<std::pair<std::string, std::string>> out;
  for (u64 seed : kResultSeeds)
    out.emplace_back("results_seed" + std::to_string(seed), generatedResults(seed));
  return out;
}

std::string hex(u64 v) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(v));
  return text;
}

/// The schema- and key-derived rows, by name, in file order.
std::vector<std::pair<std::string, std::string>> goldenValues() {
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("schema", "schema " + hex(serializeSchemaFingerprint()));
  for (const char* kernel : {"me", "jacobi", "jacobi2d", "matmul"}) {
    IntVec params;
    const ProgramBlock block = buildKernelByName(kernel, {}, params);
    const std::string name = std::string("key_") + kernel;
    out.emplace_back(name, name + " " + hex(hashProgramBlock(block)) + " " +
                               hex(hashCompileOptions(builtinOptions(kernel, params))));
  }
  for (const char* kernel : {"me", "jacobi", "jacobi2d", "matmul"}) {
    IntVec params;
    const ProgramBlock block = buildKernelByName(kernel, {}, params);
    const CompileOptions options = builtinOptions(kernel, params);
    const ProgramBlock famBlock = familyCanonicalBlock(block);
    const CompileOptions famOptions = familyCanonicalOptions(options);
    const FamilyKey famKey{hashProgramBlock(famBlock), hashCompileOptions(famOptions),
                           noSkippedPasses()};
    const std::string file = std::string("file_") + kernel;
    out.emplace_back(file, file + " " +
                               DiskPlanCache::entryFileName(builtinPlanKey(block, options)) +
                               " " + DiskPlanCache::familyFileName(famKey));
    const std::string digest = std::string("famdigest_") + kernel;
    out.emplace_back(digest, digest + " " + hex(digestProgramBlock(famBlock)) + " " +
                                 hex(digestCompileOptions(famOptions)));
  }
  return out;
}

std::string goldenLine(const std::string& name, const std::string& bytes) {
  return name + " " + std::to_string(bytes.size()) + " " + hex(digestBytes(bytes));
}

/// The recorded rows, by name.
std::map<std::string, std::string> recordedLines() {
  std::ifstream f(kGoldenFile);
  EXPECT_TRUE(f.good()) << "missing " << kGoldenFile;
  std::map<std::string, std::string> recorded;
  for (std::string line; std::getline(f, line);) {
    if (line.empty() || line[0] == '#') continue;
    recorded[line.substr(0, line.find(' '))] = line;
  }
  return recorded;
}

TEST(GoldenPlanBytes, SerializedResultsMatchTheRecordedDigests) {
  const auto payloads = goldenPayloads();
  ASSERT_EQ(payloads.size(), 24u);

  if (std::getenv("EMM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(kGoldenFile);
    f << "# name byte-length digestBytes (see tests/golden_bytes_test.cpp)\n";
    for (const auto& [name, bytes] : payloads) f << goldenLine(name, bytes) << "\n";
    for (const auto& [name, bytes] : generatedResultPayloads())
      f << goldenLine(name, bytes) << "\n";
    f << "# schema fingerprint; key_<kernel> block-key options-key; file_<kernel> "
         ".emmplan .emmfam; famdigest_<kernel> block options\n";
    for (const auto& [name, line] : goldenValues()) f << line << "\n";
    GTEST_SKIP() << "rewrote " << kGoldenFile;
  }

  std::map<std::string, std::string> recorded = recordedLines();
  // A stale row (a payload renamed or dropped) fails here.
  EXPECT_EQ(recorded.size(),
            payloads.size() + std::size(kResultSeeds) + goldenValues().size());
  for (const auto& [name, bytes] : payloads) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(recorded.count(name)) << "no golden entry";
    EXPECT_EQ(goldenLine(name, bytes), recorded[name]);
  }
}

TEST(GoldenPlanBytes, GeneratedProgramResultsMatchTheRecordedDigests) {
  if (std::getenv("EMM_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "rewritten by SerializedResultsMatchTheRecordedDigests";
  std::map<std::string, std::string> recorded = recordedLines();
  for (const auto& [name, bytes] : generatedResultPayloads()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(recorded.count(name)) << "no golden entry";
    EXPECT_EQ(goldenLine(name, bytes), recorded[name]);
  }
}

TEST(GoldenPlanBytes, SchemaFingerprintAndCacheKeysMatchTheRecordedValues) {
  if (std::getenv("EMM_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "rewritten by SerializedResultsMatchTheRecordedDigests";
  std::map<std::string, std::string> recorded = recordedLines();
  for (const auto& [name, line] : goldenValues()) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(recorded.count(name)) << "no golden entry";
    EXPECT_EQ(line, recorded[name]);
  }
}

}  // namespace
}  // namespace emm
