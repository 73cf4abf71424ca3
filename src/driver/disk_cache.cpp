#include "driver/disk_cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "driver/family_plan.h"
#include "support/diagnostics.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace fs = std::filesystem;

namespace emm {

namespace {

// 8-byte magic opening every .emmplan file. The trailing newline makes a
// text-mode transfer corruption visible immediately.
constexpr char kMagic[8] = {'E', 'M', 'M', 'P', 'L', 'A', 'N', '\n'};
// 8-byte magic of .emmfam kernel-family records (same envelope layout).
constexpr char kFamilyMagic[8] = {'E', 'M', 'M', 'F', 'A', 'M', 'P', '\n'};

constexpr size_t kHeaderBytes = 8    // magic
                                + 4  // format version
                                + 8  // schema fingerprint
                                + 24  // PlanKey echo
                                + 8   // block digest
                                + 8   // options digest
                                + 8;  // payload length

std::string hex16(u64 v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = digits[v & 0xF];
  return out;
}

bool readFile(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) return false;
  out = std::move(data);
  return true;
}

void removeQuietly(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

/// Why a present entry could not be used.
enum class Reject {
  None,
  Structural,  ///< corrupt/truncated/foreign-version file: safe to unlink
  Collision,   ///< valid file owned by a different (block, options): keep it
};

Reject validateAndExtract(const std::string& file, const char* magic, const PlanKey& key,
                          u64 blockDigest, u64 optionsDigest, std::string_view& payloadOut) {
  if (file.size() < kHeaderBytes) return Reject::Structural;
  if (std::memcmp(file.data(), magic, sizeof(kMagic)) != 0) return Reject::Structural;
  ByteReader r(std::string_view(file).substr(sizeof(kMagic)));
  try {
    if (r.u32v() != kPlanFormatVersion) return Reject::Structural;
    if (r.u64v() != serializeSchemaFingerprint()) return Reject::Structural;
    PlanKey echo;
    echo.block = r.u64v();
    echo.options = r.u64v();
    echo.passes = r.u64v();
    u64 fileBlockDigest = r.u64v();
    u64 fileOptionsDigest = r.u64v();
    u64 payloadLen = r.count();
    if (payloadLen + 8 > r.remaining()) return Reject::Structural;  // payload + checksum
    // The file name is derived from a 64-bit hash; the echo + digests are
    // what make a name collision a miss instead of a wrong plan.
    if (echo != key) return Reject::Collision;
    if (fileBlockDigest != blockDigest || fileOptionsDigest != optionsDigest)
      return Reject::Collision;
    std::string_view payload =
        std::string_view(file).substr(sizeof(kMagic) + r.position(), payloadLen);
    ByteReader tail(std::string_view(file).substr(sizeof(kMagic) + r.position() + payloadLen));
    if (tail.u64v() != digestBytes(payload)) return Reject::Structural;
    payloadOut = payload;
    return Reject::None;
  } catch (const SerializeError&) {
    return Reject::Structural;
  }
}

/// Serializes one cache-entry envelope (shared by .emmplan and .emmfam:
/// magic, format version, schema fingerprint, key echo, collision digests,
/// length-prefixed payload, checksum) and writes it to `path` via a unique
/// temp file in `dir` + atomic rename. Returns false when the directory is
/// unwritable (callers degrade silently).
bool writeEntryAtomically(const std::string& dir, const fs::path& path,
                          const std::string& fileName, const char* magic, u64 keyBlock,
                          u64 keyOptions, u64 keyPasses, u64 blockDigest, u64 optionsDigest,
                          const std::string& payload) {
  ByteWriter w;
  w.bytes(magic, sizeof(kMagic));
  w.u32v(kPlanFormatVersion);
  w.u64v(serializeSchemaFingerprint());
  w.u64v(keyBlock);
  w.u64v(keyOptions);
  w.u64v(keyPasses);
  w.u64v(blockDigest);
  w.u64v(optionsDigest);
  w.u64v(payload.size());
  w.bytes(payload.data(), payload.size());
  w.u64v(digestBytes(payload));

  // Unique temp name in the SAME directory (rename must not cross devices),
  // then an atomic rename: readers see the old entry or the new one, never
  // a torn write.
  static std::atomic<u64> tempCounter{0};
  const fs::path temp = fs::path(dir) / (fileName + ".tmp." + std::to_string(::getpid()) +
                                         "." + std::to_string(tempCounter.fetch_add(1)));
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return false;  // unwritable directory: degrade silently
    out.write(w.buffer().data(), static_cast<std::streamsize>(w.buffer().size()));
    out.flush();
    if (!out.good()) {
      out.close();
      removeQuietly(temp);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(temp, path, ec);
  if (ec) {
    removeQuietly(temp);
    return false;
  }
  return true;
}

}  // namespace

DiskPlanCache::DiskPlanCache(std::string dir, i64 maxBytes)
    : dir_(std::move(dir)), maxBytes_(maxBytes) {
  EMM_REQUIRE(!dir_.empty(), "DiskPlanCache needs a directory path");
  EMM_REQUIRE(maxBytes_ > 0, "DiskPlanCache byte cap must be positive");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  EMM_REQUIRE(fs::is_directory(dir_, ec),
              "cannot create plan-cache directory '" + dir_ + "': " + ec.message());
  // Sweep temp files orphaned by a crash between write and rename; they
  // are invisible to the byte cap (everything below filters on .emmplan).
  // Racing a live writer's temp is possible but harmless: its rename
  // fails and that one insert is lost, which insert() already tolerates.
  // Zero-length entries are reaped too: a crashing filesystem can truncate
  // a renamed file, and an empty envelope can never decode — without the
  // sweep it would sit in the directory rejecting its key forever.
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec)) continue;
    if (de.path().filename().string().find(".emmplan.tmp.") != std::string::npos) {
      removeQuietly(de.path());
      continue;
    }
    std::error_code sec;
    if ((de.path().extension() == ".emmplan" || de.path().extension() == ".emmfam") &&
        de.file_size(sec) == 0 && !sec)
      removeQuietly(de.path());
  }
}

std::string DiskPlanCache::entryFileName(const PlanKey& key) {
  return hex16(hashCombine(key.block, hashCombine(key.options, key.passes))) + ".emmplan";
}

std::string DiskPlanCache::familyFileName(const FamilyKey& key) {
  return hex16(hashCombine(key.block, hashCombine(key.options, key.passes))) + ".emmfam";
}

std::string DiskPlanCache::entryPath(const PlanKey& key) const {
  return (fs::path(dir_) / entryFileName(key)).string();
}

std::string DiskPlanCache::familyPath(const FamilyKey& key) const {
  return (fs::path(dir_) / familyFileName(key)).string();
}

std::optional<CompileResult> DiskPlanCache::lookup(const PlanKey& key, const ProgramBlock& block,
                                                   const CompileOptions& options) {
  const fs::path path = entryPath(key);
  std::string file;
  if (!readFile(path, file)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const u64 blockDigest = digestProgramBlock(block);
  const u64 optionsDigest = digestCompileOptions(options);
  std::string_view payload;
  Reject verdict = validateAndExtract(file, kMagic, key, blockDigest, optionsDigest, payload);
  if (verdict == Reject::None) {
    try {
      CompileResult result = deserializeCompileResult(payload);
      result.diskHit = true;
      hits_.fetch_add(1, std::memory_order_relaxed);
      // Refresh the LRU stamp so hot entries survive eviction.
      std::error_code ec;
      fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
      return result;
    } catch (const SerializeError&) {
      verdict = Reject::Structural;  // checksummed but unparseable: drop it
    }
  }
  if (verdict == Reject::Structural) removeQuietly(path);
  rejects_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void DiskPlanCache::insert(const PlanKey& key, const CompileOptions& options,
                           const CompileResult& result) {
  if (!result.ok || result.input == nullptr) return;
  const fs::path path = entryPath(key);
  if (!writeEntryAtomically(dir_, path, entryFileName(key), kMagic, key.block, key.options,
                            key.passes, digestProgramBlock(*result.input),
                            digestCompileOptions(options),
                            serializeCompileResult(result)))
    return;
  insertions_.fetch_add(1, std::memory_order_relaxed);
  // Only the eviction scan serializes; a concurrent stats() or lookup()
  // proceeds untouched.
  std::lock_guard<std::mutex> lock(evictMutex_);
  evictLocked(path);
}


std::shared_ptr<const FamilyPlan> DiskPlanCache::lookupFamily(const FamilyKey& key,
                                                              u64 blockDigest,
                                                              u64 optionsDigest) {
  const fs::path path = familyPath(key);
  std::string file;
  if (!readFile(path, file)) {
    familyMisses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Collision guards digest the CANONICAL family forms, so every member of
  // the family derives the same digests and foreign entries are misses.
  PlanKey echo;  // same wire shape as the per-size key echo
  echo.block = key.block;
  echo.options = key.options;
  echo.passes = key.passes;
  std::string_view payload;
  Reject verdict = validateAndExtract(file, kFamilyMagic, echo, blockDigest, optionsDigest,
                                      payload);
  if (verdict == Reject::None) {
    try {
      std::shared_ptr<const FamilyPlan> plan = deserializeFamilyPlan(payload);
      familyHits_.fetch_add(1, std::memory_order_relaxed);
      return plan;
    } catch (const SerializeError&) {
      verdict = Reject::Structural;  // checksummed but unparseable: drop it
    }
  }
  if (verdict == Reject::Structural) removeQuietly(path);
  familyRejects_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void DiskPlanCache::insertFamily(const FamilyKey& key, u64 blockDigest, u64 optionsDigest,
                                 const std::shared_ptr<const FamilyPlan>& plan) {
  if (plan == nullptr) return;
  if (!writeEntryAtomically(dir_, familyPath(key), familyFileName(key), kFamilyMagic,
                            key.block, key.options, key.passes, blockDigest, optionsDigest,
                            serializeFamilyPlan(*plan)))
    return;
  familyInsertions_.fetch_add(1, std::memory_order_relaxed);
}

void DiskPlanCache::evictLocked(const std::filesystem::path& justWritten) {
  struct Entry {
    fs::path path;
    i64 size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  i64 total = 0;
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec) || de.path().extension() != ".emmplan") continue;
    Entry e;
    e.path = de.path();
    std::error_code sec, tec;
    e.size = static_cast<i64>(de.file_size(sec));
    e.mtime = de.last_write_time(tec);
    // A concurrent evictor/clear in a shared directory can remove the file
    // mid-iteration; skip it rather than folding the error value (-1) into
    // the total.
    if (sec || tec) continue;
    // Zero-length garbage (see the constructor sweep) is reaped in passing,
    // never counted against the cap or as an eviction of a real entry.
    if (e.size == 0) {
      removeQuietly(e.path);
      continue;
    }
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= maxBytes_) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  // Oldest first, but never the entry just inserted — evicting it would
  // make an over-cap plan uncacheable forever. Matching by path, not by
  // newest mtime: on coarse-granularity filesystems the fresh file can tie
  // an older one and sort anywhere.
  for (size_t i = 0; i < entries.size() && total > maxBytes_; ++i) {
    if (entries[i].path == justWritten) continue;
    std::error_code rec;
    if (fs::remove(entries[i].path, rec)) {
      total -= entries[i].size;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void DiskPlanCache::clear() {
  std::lock_guard<std::mutex> lock(evictMutex_);
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec))
    if (de.is_regular_file(ec) &&
        (de.path().extension() == ".emmplan" || de.path().extension() == ".emmfam"))
      removeQuietly(de.path());
}

DiskPlanCache::Stats DiskPlanCache::stats() const {
  // Counters are atomics: the snapshot never blocks behind a concurrent
  // insert's eviction scan (or any disk write at all).
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejects = rejects_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.familyHits = familyHits_.load(std::memory_order_relaxed);
  s.familyMisses = familyMisses_.load(std::memory_order_relaxed);
  s.familyRejects = familyRejects_.load(std::memory_order_relaxed);
  s.familyInsertions = familyInsertions_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const bool plan = de.path().extension() == ".emmplan";
    const bool fam = de.path().extension() == ".emmfam";
    if (!plan && !fam) continue;
    std::error_code sec;
    i64 size = static_cast<i64>(de.file_size(sec));
    if (sec) continue;       // removed by a concurrent evictor: skip, not -1
    if (size == 0) continue;  // undecodable garbage, not an entry
    if (plan) {
      ++s.entries;
      s.bytes += size;
    } else {
      ++s.familyEntries;
      s.familyBytes += size;
    }
  }
  return s;
}

}  // namespace emm
