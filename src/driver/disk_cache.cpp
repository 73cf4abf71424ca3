#include "driver/disk_cache.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "driver/family_plan.h"
#include "support/diagnostics.h"
#include "support/fingerprint.h"
#include "support/serialize.h"

namespace fs = std::filesystem;

namespace emm {

/// A record kind: its 8-byte magic and its file suffix.
struct DiskPlanCache::Kind {
  char magic[8];
  const char* suffix;
};

namespace {

// The magic opening every record file. The trailing newline makes a
// text-mode transfer corruption visible immediately.
constexpr DiskPlanCache::Kind kPlanKind{{'E', 'M', 'M', 'P', 'L', 'A', 'N', '\n'}, ".emmplan"};
constexpr DiskPlanCache::Kind kFamilyKind{{'E', 'M', 'M', 'F', 'A', 'M', 'P', '\n'}, ".emmfam"};

constexpr size_t kHeaderBytes = 8    // magic
                                + 4  // format version
                                + 8  // schema fingerprint
                                + 24  // key echo
                                + 8   // block digest
                                + 8   // options digest
                                + 8;  // payload length

std::string hex16(u64 v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = digits[v & 0xF];
  return out;
}

/// The one file-name function: keyDigest in hex plus the kind's suffix.
template <class Key>
std::string fileName(const Key& key, const DiskPlanCache::Kind& kind) {
  return hex16(keyDigest(key)) + kind.suffix;
}

/// True for a record file of either kind (not a temp file).
bool isRecord(const fs::path& path) {
  return path.extension() == kPlanKind.suffix || path.extension() == kFamilyKind.suffix;
}

/// True for a temp file of either kind: "<record name>.tmp.<pid>.<n>"
/// (see writeAtomically).
bool isTempFile(const std::string& name) {
  const size_t tmp = name.find(".tmp.");
  return tmp != std::string::npos && isRecord(name.substr(0, tmp));
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

/// Why a present record could not be used.
enum class Reject {
  None,
  Structural,  ///< corrupt/truncated/foreign-version file: safe to unlink
  Collision,   ///< valid file owned by a different (block, options): keep it
};

template <class Key>
Reject validateAndExtract(const std::string& file, const char* magic, const Key& key,
                          u64 blockDigest, u64 optionsDigest, std::string_view& payloadOut) {
  if (file.size() < kHeaderBytes) return Reject::Structural;
  const size_t magicBytes = sizeof(DiskPlanCache::Kind::magic);
  if (std::memcmp(file.data(), magic, magicBytes) != 0) return Reject::Structural;
  ByteReader r(std::string_view(file).substr(magicBytes));
  try {
    if (r.u32v() != kPlanFormatVersion) return Reject::Structural;
    if (r.u64v() != serializeSchemaFingerprint()) return Reject::Structural;
    const Key echo{r.u64v(), r.u64v(), r.u64v()};  // braced: read in order
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
        std::string_view(file).substr(magicBytes + r.position(), payloadLen);
    ByteReader tail(std::string_view(file).substr(magicBytes + r.position() + payloadLen));
    if (tail.u64v() != digestBytes(payload)) return Reject::Structural;
    payloadOut = payload;
    return Reject::None;
  } catch (const SerializeError&) {
    return Reject::Structural;
  }
}

/// Serializes one record envelope (magic, format version, schema
/// fingerprint, key echo, collision digests, length-prefixed payload,
/// checksum) and writes it to `path` via a unique temp file next to it +
/// atomic rename. Returns false when the directory is unwritable (callers
/// degrade silently).
template <class Key>
bool writeAtomically(const fs::path& path, const char* magic, const Key& key, u64 blockDigest,
                     u64 optionsDigest, const std::string& payload) {
  ByteWriter w;
  w.bytes(magic, sizeof(DiskPlanCache::Kind::magic));
  w.u32v(kPlanFormatVersion);
  w.u64v(serializeSchemaFingerprint());
  w.u64v(key.block);
  w.u64v(key.options);
  w.u64v(key.passes);
  w.u64v(blockDigest);
  w.u64v(optionsDigest);
  w.u64v(payload.size());
  w.bytes(payload.data(), payload.size());
  w.u64v(digestBytes(payload));

  // Unique temp name in the SAME directory (rename must not cross devices),
  // then an atomic rename: readers see the old record or the new one, never
  // a torn write.
  static std::atomic<u64> tempCounter{0};
  const fs::path temp = path.string() + ".tmp." + std::to_string(::getpid()) + "." +
                        std::to_string(tempCounter.fetch_add(1));
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
    : dir_(std::move(dir)), maxBytes_(maxBytes), knownBytes_(maxBytes) {
  EMM_REQUIRE(!dir_.empty(), "DiskPlanCache needs a directory path");
  EMM_REQUIRE(maxBytes_ > 0, "DiskPlanCache byte cap must be positive");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  EMM_REQUIRE(fs::is_directory(dir_, ec),
              "cannot create plan-cache directory '" + dir_ + "': " + ec.message());
  // Sweep temp files of either kind orphaned by a crash between write and
  // rename; they are invisible to the byte cap (everything below filters on
  // the record suffixes). Racing a live writer's temp is possible but
  // harmless: its rename fails and that one store is lost, which store()
  // already tolerates. Zero-length records are reaped too: a crashing
  // filesystem can truncate a renamed file, and an empty envelope can never
  // decode — without the sweep it would sit in the directory rejecting its
  // key forever.
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec)) continue;
    if (isTempFile(de.path().filename().string())) {
      removeQuietly(de.path());
      continue;
    }
    std::error_code sec;
    if (isRecord(de.path()) && de.file_size(sec) == 0 && !sec) removeQuietly(de.path());
  }
}

std::string DiskPlanCache::entryFileName(const PlanKey& key) { return fileName(key, kPlanKind); }

std::string DiskPlanCache::familyFileName(const FamilyKey& key) {
  return fileName(key, kFamilyKind);
}

template <class Key, class Digests, class Decode>
auto DiskPlanCache::load(const Kind& kind, Counters& counters, const Key& key, Digests digests,
                         Decode decode) {
  using Value = decltype(decode(std::string_view()));
  const fs::path path = fs::path(dir_) / fileName(key, kind);
  std::string file;
  if (!readFile(path, file)) {
    counters.misses.fetch_add(1, std::memory_order_relaxed);
    return std::optional<Value>();
  }
  const auto [blockDigest, optionsDigest] = digests();
  std::string_view payload;
  Reject verdict =
      validateAndExtract(file, kind.magic, key, blockDigest, optionsDigest, payload);
  if (verdict == Reject::None) {
    try {
      std::optional<Value> value = decode(payload);
      counters.hits.fetch_add(1, std::memory_order_relaxed);
      // Refresh the LRU stamp so hot records survive eviction.
      std::error_code ec;
      fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
      return value;
    } catch (const SerializeError&) {
      verdict = Reject::Structural;  // checksummed but unparseable: drop it
    }
  }
  if (verdict == Reject::Structural) removeQuietly(path);
  counters.rejects.fetch_add(1, std::memory_order_relaxed);
  return std::optional<Value>();
}

template <class Key>
void DiskPlanCache::store(const Kind& kind, Counters& counters, const Key& key, u64 blockDigest,
                          u64 optionsDigest, const std::string& payload) {
  const fs::path path = fs::path(dir_) / fileName(key, kind);
  if (!writeAtomically(path, kind.magic, key, blockDigest, optionsDigest, payload)) return;
  counters.insertions.fetch_add(1, std::memory_order_relaxed);
  // Only the eviction scan serializes; a concurrent stats() or lookup()
  // proceeds untouched. The scan runs only when the bytes this instance
  // knows of could pass the cap (see knownBytes_).
  std::lock_guard<std::mutex> lock(evictMutex_);
  knownBytes_ += static_cast<i64>(kHeaderBytes + payload.size() + 8);
  if (knownBytes_ > maxBytes_) knownBytes_ = evictLocked(path);
}

std::optional<CompileResult> DiskPlanCache::lookup(const PlanKey& key, const ProgramBlock& block,
                                                   const CompileOptions& options) {
  return load(kPlanKind, plans_, key,
              [&] { return std::pair(digestProgramBlock(block), digestCompileOptions(options)); },
              [](std::string_view payload) {
                CompileResult result = deserializeCompileResult(payload);
                result.diskHit = true;
                return result;
              });
}

void DiskPlanCache::insert(const PlanKey& key, const CompileOptions& options,
                           const CompileResult& result) {
  if (!result.ok || result.input == nullptr) return;
  store(kPlanKind, plans_, key, digestProgramBlock(*result.input), digestCompileOptions(options),
        serializeCompileResult(result));
}

std::shared_ptr<const FamilyPlan> DiskPlanCache::lookupFamily(const FamilyKey& key,
                                                              u64 blockDigest,
                                                              u64 optionsDigest) {
  // Collision guards digest the CANONICAL family forms, so every member of
  // the family derives the same digests and foreign records are misses.
  return load(kFamilyKind, families_, key, [&] { return std::pair(blockDigest, optionsDigest); },
              deserializeFamilyPlan)
      .value_or(nullptr);
}

void DiskPlanCache::insertFamily(const FamilyKey& key, u64 blockDigest, u64 optionsDigest,
                                 const std::shared_ptr<const FamilyPlan>& plan) {
  if (plan == nullptr) return;
  store(kFamilyKind, families_, key, blockDigest, optionsDigest, serializeFamilyPlan(*plan));
}

i64 DiskPlanCache::evictLocked(const std::filesystem::path& justWritten) {
  struct Entry {
    fs::path path;
    i64 size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  i64 total = 0;
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec) || !isRecord(de.path())) continue;
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
    // never counted against the cap or as an eviction of a real record.
    if (e.size == 0) {
      removeQuietly(e.path);
      continue;
    }
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= maxBytes_) return total;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  // Oldest first, but never the record just written — evicting it would
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
  return total;
}

void DiskPlanCache::clear() {
  std::lock_guard<std::mutex> lock(evictMutex_);
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec))
    if (de.is_regular_file(ec) && isRecord(de.path())) removeQuietly(de.path());
  knownBytes_ = 0;
}

DiskPlanCache::Stats DiskPlanCache::stats() const {
  // Counters are atomics: the snapshot never blocks behind a concurrent
  // store's eviction scan (or any disk write at all).
  Stats s;
  s.hits = plans_.hits.load(std::memory_order_relaxed);
  s.misses = plans_.misses.load(std::memory_order_relaxed);
  s.rejects = plans_.rejects.load(std::memory_order_relaxed);
  s.insertions = plans_.insertions.load(std::memory_order_relaxed);
  s.familyHits = families_.hits.load(std::memory_order_relaxed);
  s.familyMisses = families_.misses.load(std::memory_order_relaxed);
  s.familyRejects = families_.rejects.load(std::memory_order_relaxed);
  s.familyInsertions = families_.insertions.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (const fs::directory_entry& de : fs::directory_iterator(dir_, ec)) {
    if (!de.is_regular_file(ec) || !isRecord(de.path())) continue;
    std::error_code sec;
    i64 size = static_cast<i64>(de.file_size(sec));
    if (sec) continue;       // removed by a concurrent evictor: skip, not -1
    if (size == 0) continue;  // undecodable garbage, not a record
    const bool plan = de.path().extension() == kPlanKind.suffix;
    ++(plan ? s.entries : s.familyEntries);
    (plan ? s.bytes : s.familyBytes) += size;
  }
  return s;
}

}  // namespace emm
