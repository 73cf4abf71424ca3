// Kernel-family plans: the size-generic tier of the compilation service.
//
// A kernel FAMILY is the set of program blocks that differ only in their
// problem sizes — same statements, domains (symbolic in the size
// parameters), accesses, schedules and array ranks, but different concrete
// array extents and CompileOptions::paramValues. Everything the pipeline
// computes BEFORE sizes are bound is family-invariant:
//
//   - dependences: computed from domains/accesses/schedules, which never
//     mention extents — identical polyhedra for every family member,
//   - the enabling transformation (skews) and the parallelism plan: derived
//     from those dependences; the transformed statements are shared and
//     only the array table differs per member,
//   - the ParametricTilePlan: since PR 5 its formulas keep the problem
//     sizes symbolic, so one plan evaluates candidates for every member via
//     ParametricTilePlan::bindSizes.
//
// A FamilyPlan bundles those products. The driver keys it on family
// fingerprints (extents and paramValues canonicalized away), stores it in
// the PlanCache's family tier (and on disk as a .emmfam record), and a
// per-size compile that finds one skips dependence analysis, the transform
// search and the symbolic plan build — the remaining work (candidate
// expression evaluation, tiling, scratchpad planning, codegen) is the cheap
// bind-and-emit step, reported as CompileResult::familyHit.
//
// Safety: the tile plan is revalidated against concrete probe evaluations
// at every size it is bound to (TileEvaluator::adoptFamilyPlan), and both
// cache tiers guard the 64-bit family keys with digests of the canonical
// family serializations, so a hash collision or an unsound family plan
// degrades to a cold compile instead of changing any result.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deps/dependence.h"
#include "driver/options.h"
#include "tilesearch/parametric_plan.h"
#include "transform/transform.h"

namespace emm {

struct CompileResult;

using u64 = std::uint64_t;

/// Family cache key: fingerprints of the size-canonicalized block and
/// option set plus the skipped-pass digest (family products depend on which
/// passes ran).
struct FamilyKey {
  u64 block = 0;    ///< hashProgramBlockFamily of the source
  u64 options = 0;  ///< hashCompileOptionsFamily of the effective options
  u64 passes = 0;   ///< digest of the sorted skipped-pass names

  auto operator<=>(const FamilyKey&) const = default;
};

/// Number of sets in a family's search memo (FamilyPlan::searchMemo).
inline constexpr size_t kSearchMemoSlots = 256;
/// Entries per set: two requests whose sizes share a set both stay.
inline constexpr size_t kSearchMemoWays = 2;

/// The plan-only tile searches the runtime binder has run against one
/// family plan, memoized per request: step 2 of certifyBind
/// (runtime_binder.h) re-runs the Section-4.3 search at every bind, and the
/// search is a pure function of the immutable tile plan, the requested
/// sizes, the search options and the solver. A set-associative table of
/// kSearchMemoSlots sets of kSearchMemoWays ways, indexed by the sizes; a
/// way holds one immutable Entry behind an atomic shared_ptr (the
/// primitive of the PlanCache snapshots), so concurrent binds read and
/// publish without a lock. A store fills an empty way of its set, or
/// replaces the ways in turn, oldest first.
///
/// Derived state: never serialized, and a copy starts empty. The table is
/// allocated by the first store, so a family that never binds costs one
/// pointer.
class SearchMemo {
public:
  /// One certified search. A hit needs the request's sizes (kept once, as
  /// options.paramValues), the full search options and the solver flag
  /// all equal, whatever the family key neutralizes. Infeasible and
  /// argmin-moved outcomes are stored too, so a repeated rejection is as
  /// exact as a repeated bind.
  struct Entry {
    TileSearchOptions options;
    bool exhaustive = false;
    TileSearchResult result;
  };

  SearchMemo() = default;
  SearchMemo(const SearchMemo&) noexcept {}
  SearchMemo& operator=(const SearchMemo&) noexcept;
  ~SearchMemo();

  /// The stored entry for exactly this request, or null.
  std::shared_ptr<const Entry> find(const TileSearchOptions& options, bool exhaustive) const;
  /// Stores `entry` in its set: a no-op when the set already holds the
  /// same request, otherwise into an empty way or over the oldest one.
  void store(std::shared_ptr<const Entry> entry) const;
  /// The set a request for `paramValues` maps to.
  static size_t slotOf(const IntVec& paramValues);

private:
  struct Set {
    std::atomic<std::shared_ptr<const Entry>> ways[kSearchMemoWays];
    std::atomic<unsigned> next{0};  ///< the way the next full-set store replaces
  };
  mutable std::atomic<Set*> table_{nullptr};
};

/// The family-invariant pipeline products (see file comment). The listed
/// members are immutable once published; shared by every per-size compile
/// of the family. The one mutable member is the binder's search memo,
/// which only caches what the listed members already determine.
struct FamilyPlan {
  // ---- deps tier ----
  bool haveDeps = false;
  Cow<std::vector<Dependence>> deps;

  // ---- transform tier ----
  /// Valid when the transform pass ran (not on scratchpad-only pipelines).
  bool haveTransform = false;
  /// The transformed block of the member that built the plan; statements,
  /// schedules and parameter names are family-invariant, the array table is
  /// swapped per member at instantiation.
  ProgramBlock transformedTemplate;
  ParallelismPlan plan;
  std::vector<std::pair<int, std::pair<int, i64>>> appliedSkews;

  // ---- tilesearch tier ----
  /// Size-generic symbolic plan, or null when the kernel family is not
  /// parametrically analyzable (or the pipeline path has no tile search).
  std::shared_ptr<const ParametricTilePlan> tilePlan;
  /// Why tilePlan is null — surfaced per kernel in `emmapc --emit=stats`
  /// batch output so a family that degrades to per-size compiles is
  /// visible ("" when tilePlan is set or the path has no search).
  std::string parametricReason;

  // ---- codegen tier (plan format v4) ----
  /// Size-generic compiled record: the full products of the member that
  /// built the family, stored when its artifact came out size-generic
  /// (ArtifactInfo::sizeGeneric). Further members are then served by
  /// RuntimeBinder::certifyBind — guard validation plus an argument
  /// fill against this ONE artifact, no pipeline run, no re-emission.
  bool haveRecord = false;
  /// Options the record was emitted under. The family key neutralizes the
  /// codegen-only fields (backend, kernel name, element type, bound count),
  /// so the binder re-checks them per request and falls back to
  /// bind-and-emit on mismatch.
  CompileOptions recordOptions;
  std::shared_ptr<const CompileResult> record;

  // ---- derived ----
  /// The runtime binder's certified plan-only searches against tilePlan.
  SearchMemo searchMemo;

  static constexpr void fields(auto& v) {
    v.tag(kTagFamilyPlan, "FamilyPlan");
    v("haveDeps", &FamilyPlan::haveDeps);
    v("deps", &FamilyPlan::deps);
    v("haveTransform", &FamilyPlan::haveTransform);
    v.when(&FamilyPlan::haveTransform, "transformedTemplate", &FamilyPlan::transformedTemplate);
    v("plan", &FamilyPlan::plan);
    v("appliedSkews", &FamilyPlan::appliedSkews);
    v.nullable("tilePlan", &FamilyPlan::tilePlan);
    v("parametricReason", &FamilyPlan::parametricReason);
    v("haveRecord", &FamilyPlan::haveRecord);
    v.when(&FamilyPlan::haveRecord, "recordOptions", &FamilyPlan::recordOptions);
    v.when(&FamilyPlan::haveRecord, "record", &FamilyPlan::record);
    v.skip("searchMemo", "derived: memoized plan-only searches");
  }
};

/// The block with its concrete problem sizes canonicalized away (array
/// extents zeroed, ranks kept): two family members map to the same
/// canonical block.
ProgramBlock familyCanonicalBlock(const ProgramBlock& block);

/// The option set with paramValues and the codegen-only fields (backend,
/// kernel name, element type, bound-parameter count) neutralized: none of
/// them reach the family products, so one family serves every emit target.
/// (A backend's semantic side effect — cell forcing stageEverything — is
/// applied by Compiler::effectiveOptions() before hashing and still
/// separates families.)
CompileOptions familyCanonicalOptions(const CompileOptions& options);

/// Family fingerprints: the structural hashes of the canonical forms.
/// (The driver canonicalizes once and hashes the forms directly; these
/// wrappers serve tests and external callers.)
u64 hashProgramBlockFamily(const ProgramBlock& block);
u64 hashCompileOptionsFamily(const CompileOptions& options);

}  // namespace emm
