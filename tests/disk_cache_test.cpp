// Tests for the on-disk plan cache: tiering through the Compiler (memory
// hit -> disk hit -> cold compile, with promotion), durability across
// Compiler instances (the cross-process scenario), and the failure policy —
// truncation, flipped magic bytes, stale format versions, and key
// collisions with differing options must all fall back to a clean cold
// compile, never crash or replay a wrong plan. Also covers LRU eviction
// under the byte cap and the PlanCache stats-snapshot coherence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include "driver/compiler.h"
#include "driver/disk_cache.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace fs = std::filesystem;

namespace emm {
namespace {

/// Fresh unique cache directory per test, removed on destruction.
struct TempCacheDir {
  fs::path path;
  TempCacheDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("emmplan_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

Compiler meCompiler() {
  Compiler c(buildMeBlock(64, 64, 8));
  c.parameters({64, 64, 8}).memoryLimitBytes(16 * 1024);
  return c;
}

/// The single .emmplan entry in `dir` (asserts there is exactly one).
fs::path soleEntry(const fs::path& dir) {
  fs::path found;
  int count = 0;
  for (const fs::directory_entry& de : fs::directory_iterator(dir))
    if (de.path().extension() == ".emmplan") {
      found = de.path();
      ++count;
    }
  EXPECT_EQ(count, 1);
  return found;
}

void corruptFile(const fs::path& path, size_t offset, unsigned char xorMask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  byte = static_cast<char>(byte ^ xorMask);
  f.write(&byte, 1);
}

// ---- Tiering. ----

TEST(DiskCache, SecondCompilerInstanceStartsWarm) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());

  Compiler first = meCompiler();
  first.diskCache(&disk);
  CompileResult cold = first.compile();
  ASSERT_TRUE(cold.ok) << cold.firstError();
  EXPECT_FALSE(cold.diskHit);
  EXPECT_EQ(disk.stats().insertions, 1);

  // A brand-new Compiler (standing in for a new process) replays the plan.
  Compiler second = meCompiler();
  second.diskCache(&disk);
  CompileResult warm = second.compile();
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.diskHit);
  EXPECT_FALSE(warm.cacheHit);
  EXPECT_EQ(warm.artifact, cold.artifact);
  EXPECT_EQ(warm.search.subTile, cold.search.subTile);
  EXPECT_EQ(warm.search.eval.cost, cold.search.eval.cost);
  EXPECT_EQ(disk.stats().hits, 1);
}

TEST(DiskCache, CompilerOwnsCacheCreatedFromPath) {
  TempCacheDir dir;
  Compiler c = meCompiler();
  c.diskCache(dir.str());
  ASSERT_NE(c.diskPlanCache(), nullptr);
  EXPECT_EQ(c.diskPlanCache()->directory(), dir.str());
  ASSERT_TRUE(c.compile().ok);
  EXPECT_TRUE(c.compile().diskHit);  // no memory tier attached
}

TEST(DiskCache, MemoryTierWinsOverDiskTier) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  PlanCache memory;
  Compiler c = meCompiler();
  c.cache(&memory).diskCache(&disk);

  CompileResult cold = c.compile();
  ASSERT_TRUE(cold.ok);
  CompileResult warm = c.compile();
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_FALSE(warm.diskHit);        // served from memory, disk untouched
  EXPECT_EQ(disk.stats().hits, 0);
}

TEST(DiskCache, DiskHitIsPromotedIntoTheMemoryTier) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  CompileResult cold;
  {
    Compiler seed = meCompiler();
    seed.diskCache(&disk);
    cold = seed.compile();
    ASSERT_TRUE(cold.ok);
  }
  PlanCache memory;
  Compiler c = meCompiler();
  c.cache(&memory).diskCache(&disk);

  CompileResult viaDisk = c.compile();
  EXPECT_TRUE(viaDisk.diskHit);
  EXPECT_EQ(memory.size(), 1u);  // promoted

  CompileResult viaMemory = c.compile();
  EXPECT_TRUE(viaMemory.cacheHit);
  EXPECT_FALSE(viaMemory.diskHit);
  EXPECT_EQ(disk.stats().hits, 1);  // disk consulted exactly once
  // Cold, disk-warm and memory-warm agree on the artifact bytes, the tile
  // and the cost bits.
  EXPECT_EQ(viaDisk.artifact, cold.artifact);
  EXPECT_EQ(viaMemory.artifact, cold.artifact);
  EXPECT_EQ(viaDisk.search.subTile, cold.search.subTile);
  EXPECT_EQ(viaMemory.search.subTile, cold.search.subTile);
  EXPECT_EQ(viaDisk.search.eval.cost, cold.search.eval.cost);
  EXPECT_EQ(viaMemory.search.eval.cost, cold.search.eval.cost);
}

TEST(DiskCache, DistinctOptionsGetDistinctEntries) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler a = meCompiler();
  a.diskCache(&disk);
  ASSERT_TRUE(a.compile().ok);

  Compiler b = meCompiler();
  b.memoryLimitBytes(8 * 1024).diskCache(&disk);
  CompileResult r = b.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.diskHit);  // different options hash -> different entry
  EXPECT_EQ(disk.stats().entries, 2);
}

TEST(DiskCache, FailedCompilesAreNotStored) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler c(buildMeBlock(64, 64, 8));
  c.parameters({64, 64, 8}).memoryLimitBytes(1).diskCache(&disk);  // infeasible
  CompileResult r = c.compile();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(disk.stats().entries, 0);
  EXPECT_EQ(disk.stats().insertions, 0);
}

// ---- Failure policy: corruption and version skew. ----

TEST(DiskCache, TruncatedEntryFallsBackToColdCompile) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler seed = meCompiler();
  seed.diskCache(&disk);
  CompileResult cold = seed.compile();
  ASSERT_TRUE(cold.ok);

  fs::path entry = soleEntry(dir.path);
  fs::resize_file(entry, fs::file_size(entry) / 2);

  Compiler c = meCompiler();
  c.diskCache(&disk);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.diskHit);
  EXPECT_EQ(r.artifact, cold.artifact);
  EXPECT_GE(disk.stats().rejects, 1);
}

TEST(DiskCache, FlippedMagicByteIsRejectedAndUnlinked) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler seed = meCompiler();
  seed.diskCache(&disk);
  CompileResult cold = seed.compile();
  ASSERT_TRUE(cold.ok);

  fs::path entry = soleEntry(dir.path);
  corruptFile(entry, 0, 0xFF);

  Compiler c = meCompiler();
  c.diskCache(&disk);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.diskHit);
  EXPECT_EQ(disk.stats().rejects, 1);
  // The bad per-size entry is unlinked; the request is served by binding
  // the on-disk family record (v4 embeds the size-generic artifact), so no
  // replacement .emmplan is written — the record already covers this size.
  EXPECT_EQ(disk.stats().entries, 0);
  EXPECT_TRUE(r.familyHit);
  EXPECT_TRUE(r.artifactBound);
  EXPECT_EQ(r.artifact, cold.artifact);
  EXPECT_TRUE(c.compile().familyHit);
}

TEST(DiskCache, FamilyRecordServesSizesWithNoPerSizeEntry) {
  // A fresh compiler with ONLY the .emmfam record on disk (every per-size
  // .emmplan removed) still answers in-envelope sizes byte-identically, by
  // deserializing the size-generic record and binding it — no pipeline run.
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler seed = meCompiler();
  seed.diskCache(&disk);
  CompileResult cold = seed.compile();
  ASSERT_TRUE(cold.ok);
  ASSERT_GE(disk.stats().familyEntries, 1);

  fs::remove(soleEntry(dir.path));

  Compiler c = meCompiler();
  c.diskCache(&disk);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.familyHit);
  EXPECT_TRUE(r.artifactBound);
  EXPECT_FALSE(r.diskHit);
  EXPECT_EQ(r.artifact, cold.artifact);
  EXPECT_EQ(r.search.subTile, cold.search.subTile);
  EXPECT_FALSE(r.boundArgs.empty());
  // Still no per-size entry: the record covers the whole envelope.
  EXPECT_EQ(disk.stats().entries, 0);
}

TEST(DiskCache, StaleFormatVersionIsRejected) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler seed = meCompiler();
  seed.diskCache(&disk);
  ASSERT_TRUE(seed.compile().ok);

  // Byte 8 is the low byte of the little-endian u32 format version.
  corruptFile(soleEntry(dir.path), 8, 0x7F);

  Compiler c = meCompiler();
  c.diskCache(&disk);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.diskHit);
  EXPECT_GE(disk.stats().rejects, 1);
}

TEST(DiskCache, SchemaFingerprintDriftIsRejected) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler seed = meCompiler();
  seed.diskCache(&disk);
  ASSERT_TRUE(seed.compile().ok);

  // Bytes 12..19 hold the schema fingerprint.
  corruptFile(soleEntry(dir.path), 12, 0x01);

  Compiler c = meCompiler();
  c.diskCache(&disk);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.diskHit);
  EXPECT_GE(disk.stats().rejects, 1);
}

TEST(DiskCache, PayloadBitFlipFailsTheChecksum) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());
  Compiler seed = meCompiler();
  seed.diskCache(&disk);
  ASSERT_TRUE(seed.compile().ok);

  fs::path entry = soleEntry(dir.path);
  corruptFile(entry, fs::file_size(entry) / 2, 0x10);  // middle of the payload

  Compiler c = meCompiler();
  c.diskCache(&disk);
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.diskHit);
  EXPECT_GE(disk.stats().rejects, 1);
}

TEST(DiskCache, KeyCollisionWithDifferingOptionsIsAMissNotAWrongPlan) {
  TempCacheDir dir;
  DiskPlanCache disk(dir.str());

  // Seed an entry compiled with options A.
  Compiler a = meCompiler();
  a.diskCache(&disk);
  CompileResult ra = a.compile();
  ASSERT_TRUE(ra.ok);
  fs::path entryA = soleEntry(dir.path);

  // Forge a 64-bit name collision: copy A's file to the entry name that
  // options B (different memory limit -> different key) would look up.
  Compiler b = meCompiler();
  b.memoryLimitBytes(8 * 1024);
  PlanKey keyB;
  keyB.block = hashProgramBlock(buildMeBlock(64, 64, 8));
  {
    CompileOptions optsB = b.opts();
    keyB.options = hashCompileOptions(optsB);
    Hasher h;
    h.mix(std::vector<std::string>{});  // no skipped passes
    keyB.passes = h.digest();
  }
  fs::copy_file(entryA, dir.path / DiskPlanCache::entryFileName(keyB));

  // B must detect the key-echo mismatch, reject, and cold-compile: its
  // tile choice under the tighter budget differs from A's cached one.
  b.diskCache(&disk);
  CompileResult rb = b.compile();
  ASSERT_TRUE(rb.ok);
  EXPECT_FALSE(rb.diskHit);
  EXPECT_GE(disk.stats().rejects, 1);
  EXPECT_LE(rb.search.eval.footprint, 8 * 1024 / 4);  // B's own plan, not A's
}

TEST(DiskCache, OrphanedTempFilesAreSweptOnOpen) {
  TempCacheDir dir;
  fs::create_directories(dir.path);
  const fs::path orphan = dir.path / "deadbeef.emmplan.tmp.123.0";
  const fs::path familyOrphan = dir.path / "deadbeef.emmfam.tmp.123.1";
  std::ofstream(orphan) << "half-written by a crashed process";
  std::ofstream(familyOrphan) << "half-written by a crashed process";
  ASSERT_TRUE(fs::exists(orphan));
  ASSERT_TRUE(fs::exists(familyOrphan));
  DiskPlanCache disk(dir.str());
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(fs::exists(familyOrphan));
  EXPECT_EQ(disk.stats().entries, 0);
  EXPECT_EQ(disk.stats().familyEntries, 0);
}

TEST(DiskCache, ZeroLengthEntriesAreSweptOnOpenAndIgnoredByStats) {
  TempCacheDir dir;
  fs::create_directories(dir.path);
  // A crash after rename but before the data blocks hit disk leaves a
  // zero-length entry; it can never decode, so the constructor reaps it.
  const fs::path empty = dir.path / "00000000deadbeef.emmplan";
  const fs::path emptyFam = dir.path / "00000000deadbeef.emmfam";
  std::ofstream(empty).flush();
  std::ofstream(emptyFam).flush();
  ASSERT_TRUE(fs::exists(empty));
  {
    DiskPlanCache disk(dir.str());
    EXPECT_FALSE(fs::exists(empty));
    EXPECT_FALSE(fs::exists(emptyFam));
    EXPECT_EQ(disk.stats().entries, 0);
    EXPECT_EQ(disk.stats().familyEntries, 0);
  }
  // Planted while the cache is live (simulating a crashed sibling process):
  // invisible to stats, and a real compile alongside it stays usable.
  Compiler warm = meCompiler();
  warm.diskCache(dir.str());
  ASSERT_TRUE(warm.compile().ok);
  std::ofstream(dir.path / "00000000feedface.emmplan").flush();
  DiskPlanCache::Stats s = warm.diskPlanCache()->stats();
  EXPECT_EQ(s.entries, 1);  // the planted empty file is not an entry
  Compiler again = meCompiler();
  again.diskCache(dir.str());
  EXPECT_TRUE(again.compile().diskHit);
}

// ---- Eviction. ----

TEST(DiskCache, LruEvictionKeepsTheCacheUnderTheByteCap) {
  // Two compiles of different families, each writing an .emmplan and an
  // .emmfam record; both kinds count against the one byte cap. The caps
  // below are derived from the records of earlier compiles, so every
  // compile must write the same bytes each time: a given tile skips the
  // search, whose note prints wall-clock milliseconds (a record would
  // shrink or grow by a byte as a time crosses a power of ten).
  const auto pinned = [] {
    Compiler c = meCompiler();
    c.tileSizes({32, 16, 8, 4});  // feasible under both scratchpad budgets
    return c;
  };
  const auto tighter = [&] {
    Compiler c = pinned();
    c.memoryLimitBytes(8 * 1024);
    return c;
  };
  TempCacheDir dir;
  i64 firstPlanBytes = 0;
  i64 allBytes = 0;
  {
    DiskPlanCache probe(dir.str());
    Compiler first = pinned();
    first.diskCache(&probe);
    ASSERT_TRUE(first.compile().ok);
    firstPlanBytes = probe.stats().bytes;
    Compiler second = tighter();
    second.diskCache(&probe);
    ASSERT_TRUE(second.compile().ok);
    const DiskPlanCache::Stats s = probe.stats();
    ASSERT_EQ(s.entries, 2);
    ASSERT_EQ(s.familyEntries, 2);
    allBytes = s.bytes + s.familyBytes;
    probe.clear();
  }
  ASSERT_GT(firstPlanBytes, 0);

  {
    // A cap just above one .emmplan: storing the plan evicts the family
    // record written before it, never the plan just written.
    DiskPlanCache disk(dir.str(), firstPlanBytes + 1);
    Compiler first = pinned();
    first.diskCache(&disk);
    ASSERT_TRUE(first.compile().ok);
    DiskPlanCache::Stats s = disk.stats();
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.entries, 1);
    EXPECT_EQ(s.familyEntries, 0);
    EXPECT_LE(s.bytes + s.familyBytes, disk.maxBytes());
    disk.clear();
  }

  // One byte below all four records: the second compile's last store
  // evicts one record of the first compile.
  DiskPlanCache disk(dir.str(), allBytes - 1);
  Compiler first = pinned();
  first.diskCache(&disk);
  ASSERT_TRUE(first.compile().ok);
  EXPECT_EQ(disk.stats().evictions, 0);
  Compiler second = tighter();
  second.diskCache(&disk);
  ASSERT_TRUE(second.compile().ok);

  DiskPlanCache::Stats s = disk.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries + s.familyEntries, 3);
  EXPECT_LE(s.bytes + s.familyBytes, disk.maxBytes());

  // The victim is the older compile's: the newer plan still replays, and
  // the first compile is still served from its surviving record (which of
  // its two records is older depends on the filesystem's mtime grain).
  EXPECT_TRUE(second.compile().diskHit);
  Compiler firstAgain = pinned();
  firstAgain.diskCache(&disk);
  const CompileResult again = firstAgain.compile();
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.diskHit || again.familyHit);
}

// ---- Stats coherence (in-memory tier). ----

TEST(PlanCacheStats, SnapshotStaysCoherentUnderConcurrentTraffic) {
  PlanCache cache(64);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  std::atomic<bool> stop{false};

  // A reader hammers stats() while writers look up and insert; every
  // snapshot must be internally consistent (no torn counter pairs).
  // Violations are recorded and asserted after join (gtest macros are not
  // thread-safe).
  std::atomic<bool> tornSnapshot{false};
  std::thread reader([&] {
    while (!stop.load()) {
      PlanCache::Stats s = cache.stats();
      // Entries only appear via insert after a miss, so at any coherent
      // instant 0 <= entries <= min(capacity, misses).
      if (s.hits < 0 || s.misses < 0 || s.entries < 0 || s.entries > 64 ||
          s.entries > s.misses)
        tornSnapshot.store(true);
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        PlanKey key;
        key.block = static_cast<u64>(t * kOpsPerThread + i);
        CompileResult r = cache.getOrCompute(key, [] {
          CompileResult fresh;
          fresh.ok = true;
          fresh.input = DeepPtr<ProgramBlock>::make();
          return fresh;
        });
        if (!r.ok) failures.fetch_add(1);
      }
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  stop.store(true);
  reader.join();
  EXPECT_FALSE(tornSnapshot.load());

  PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kOpsPerThread);
  EXPECT_EQ(s.misses, kThreads * kOpsPerThread);  // all keys distinct
}

}  // namespace
}  // namespace emm
