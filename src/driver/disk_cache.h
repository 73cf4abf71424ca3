// DiskPlanCache: the persistent second tier of the plan cache.
//
// The in-memory PlanCache makes repeated compiles within one process cheap,
// but every `emmapc` invocation and every service restart still starts
// cold. This cache persists finished plans to `<dir>/<fingerprint>.emmplan`
// files (format: support/serialize.h and docs/PLAN_FORMAT.md) so the stable
// structural fingerprints in support/fingerprint.h can replay them across
// processes.
//
// Tiering (wired in Compiler::compile): memory hit -> disk hit -> cold
// compile. A disk hit is deserialized, marked CompileResult::diskHit, and —
// because the single-flight leader's result is stored like any other ok
// result — promoted into the attached memory cache. A cold compile that
// succeeds is written back to disk.
//
// Failure policy: the disk tier NEVER fails a compile. Truncated files,
// flipped magic bytes, stale format versions, schema-fingerprint drift,
// checksum mismatches and malformed payloads are all rejected with a
// counted diagnostic and fall through to a cold compile; structurally
// broken files are unlinked so they stop costing a parse per lookup. The
// 64-bit cache key has no collision resistance, so the header also carries
// digests of the canonically serialized source block and option set; a
// colliding key whose digests disagree is treated as a miss (and the file
// — valid, just owned by someone else — is left in place).
//
// Two record kinds, one record path: per-size results (`.emmplan`) and
// size-generic kernel families (`.emmfam`) share the envelope, one load
// (read, validate, decode, refresh the mtime, count) and one store
// (write-then-rename, count, enforce the cap); each kind keeps its own
// counters.
//
// Durability: records are written to a temp file in the cache directory and
// atomically renamed into place, so readers never observe a half-written
// record. Eviction is LRU by file modification time (hits of either kind
// re-touch their record) under one byte cap over both kinds. A store scans
// the directory only when the bytes this instance knows of (the total at
// its last scan, plus its own stores since) pass the cap, so records
// another process wrote meanwhile count from this instance's next scan on.
//
// Thread-safe; one instance may be shared by every Compiler in the process
// (and the directory may be shared by many processes — rename keeps
// concurrent writers safe, last write wins). Counters are relaxed atomics,
// so stats() and the lookup hot path never block behind a concurrent
// insert's eviction scan; the only mutex serializes directory mutation
// (eviction and clear), which file writes and reads never need.
#pragma once

#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>

#include "driver/plan_cache.h"
#include "support/fields.h"

namespace emm {

class DiskPlanCache {
public:
  /// Counters since construction (this instance only; the directory may be
  /// older). `entries`/`bytes` reflect the directory at the time of the
  /// call.
  struct Stats {
    i64 hits = 0;
    i64 misses = 0;      ///< no entry file for the key
    i64 rejects = 0;     ///< entry present but unusable (corrupt/version/collision)
    i64 evictions = 0;   ///< entries removed by the LRU byte cap
    i64 insertions = 0;  ///< entries written
    i64 entries = 0;     ///< .emmplan files currently in the directory
    i64 bytes = 0;       ///< their total size
    // Family tier (.emmfam kernel-family records; under the same byte cap,
    // so `evictions` counts both kinds).
    i64 familyHits = 0;
    i64 familyMisses = 0;
    i64 familyRejects = 0;
    i64 familyInsertions = 0;
    i64 familyEntries = 0;  ///< .emmfam files currently in the directory
    i64 familyBytes = 0;

    static constexpr void fields(auto& v) {
      v.tag(kTagNone, "DiskPlanCacheStats");
      v("hits", &Stats::hits);
      v("misses", &Stats::misses);
      v("rejects", &Stats::rejects);
      v("evictions", &Stats::evictions);
      v("insertions", &Stats::insertions);
      v("entries", &Stats::entries);
      v("bytes", &Stats::bytes);
      v("familyHits", &Stats::familyHits);
      v("familyMisses", &Stats::familyMisses);
      v("familyRejects", &Stats::familyRejects);
      v("familyInsertions", &Stats::familyInsertions);
      v("familyEntries", &Stats::familyEntries);
      v("familyBytes", &Stats::familyBytes);
    }
  };

  /// Opens (and creates, including parents) the cache directory, sweeping
  /// orphaned temp files of both kinds. `maxBytes` caps the directory's
  /// total .emmplan plus .emmfam size; every store evicts least-recently-used
  /// records of either kind down to the cap. Throws ApiError when the
  /// directory cannot be created.
  explicit DiskPlanCache(std::string dir, i64 maxBytes = i64(256) * 1024 * 1024);

  const std::string& directory() const { return dir_; }
  i64 maxBytes() const { return maxBytes_; }

  /// Loads the entry for `key`, verifying the header (magic, version,
  /// schema fingerprint, key echo) and the collision-guard digests of
  /// `block`/`options` before deserializing the checksummed payload. On
  /// success the result has diskHit set and the entry's LRU stamp is
  /// refreshed. Any failure returns nullopt — never throws, never returns a
  /// wrong plan.
  std::optional<CompileResult> lookup(const PlanKey& key, const ProgramBlock& block,
                                      const CompileOptions& options);

  /// Persists `result` (which must own its input block — the digest is
  /// taken from it) under `key` with write-then-rename, then enforces the
  /// byte cap. Failures are swallowed: a read-only or full disk degrades
  /// the cache, not the compile.
  void insert(const PlanKey& key, const CompileOptions& options, const CompileResult& result);

  // ---- family tier (size-generic kernel-family plans) ------------------
  /// Loads the .emmfam record for `key`, verifying the header (magic,
  /// version, schema fingerprint, key echo) and the caller-supplied
  /// collision-guard digests (of the canonically serialized CANONICAL
  /// family block/options — the driver computes them once per compile)
  /// before deserializing the checksummed payload. A hit refreshes the
  /// record's LRU stamp. Any failure returns nullptr.
  std::shared_ptr<const FamilyPlan> lookupFamily(const FamilyKey& key, u64 blockDigest,
                                                 u64 optionsDigest);

  /// Persists a kernel-family plan under `key` with write-then-rename, then
  /// enforces the byte cap. Failures are swallowed like insert()'s.
  void insertFamily(const FamilyKey& key, u64 blockDigest, u64 optionsDigest,
                    const std::shared_ptr<const FamilyPlan>& plan);

  /// Removes every .emmplan and .emmfam entry in the directory (counters
  /// keep running).
  void clear();

  Stats stats() const;

  /// Record file names: 16 lowercase hex digits of keyDigest(key) plus the
  /// kind's suffix, ".emmplan" or ".emmfam".
  static std::string entryFileName(const PlanKey& key);
  static std::string familyFileName(const FamilyKey& key);

  /// A record kind: its magic and file suffix (defined in disk_cache.cpp).
  struct Kind;

private:
  /// One record kind's counters since construction (relaxed atomics).
  struct Counters {
    std::atomic<i64> hits{0};
    std::atomic<i64> misses{0};
    std::atomic<i64> rejects{0};
    std::atomic<i64> insertions{0};
  };

  /// The one read path: reads the record of `key`, validates its envelope
  /// against the key and the collision digests `digests()` yields (asked
  /// for only when a file exists), decodes the payload with `decode`,
  /// refreshes the LRU stamp and counts. Unlinks structurally broken
  /// records; never throws.
  template <class Key, class Digests, class Decode>
  auto load(const Kind& kind, Counters& counters, const Key& key, Digests digests,
            Decode decode);
  /// The one write path: writes the envelope with write-then-rename,
  /// counts, and enforces the byte cap.
  template <class Key>
  void store(const Kind& kind, Counters& counters, const Key& key, u64 blockDigest,
             u64 optionsDigest, const std::string& payload);
  /// Enforces the byte cap, never evicting `justWritten`, and returns the
  /// records' total size afterwards; requires evictMutex_.
  i64 evictLocked(const std::filesystem::path& justWritten);

  std::string dir_;
  i64 maxBytes_;
  /// Serializes eviction scans and clear() — directory mutation only.
  /// Lookups, inserts and stats() never take it: counters are atomics and
  /// file-level atomicity comes from write-temp-then-rename.
  mutable std::mutex evictMutex_;
  /// The record bytes this instance knows the directory holds: its total
  /// at the last eviction scan plus this instance's own stores since
  /// (starting at the cap, so the first store scans). It never under-counts
  /// what this instance wrote, so while it is within the cap a scan would
  /// evict nothing and store() skips it. Guarded by evictMutex_.
  i64 knownBytes_;
  Counters plans_;
  Counters families_;
  std::atomic<i64> evictions_{0};  ///< records of either kind
};

}  // namespace emm
