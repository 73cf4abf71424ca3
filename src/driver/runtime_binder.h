// RuntimeBinder: serve a warmed kernel family at a new problem size with
// NO pipeline run and NO re-emission.
//
// A cold compile whose artifact came out size-generic (problem sizes are
// runtime kernel arguments, buffer geometry folded in as guarded
// closed-form expressions — see codegen/artifact_info.h) publishes its full
// result as the family RECORD (FamilyPlan::record). Serving a further
// member of the family then reduces to:
//
//   1. identity check — the codegen-only options the family key
//      neutralizes (backend, kernel name, element type, bound count) must
//      match the record's,
//   2. argmin re-certification — a plan-only re-run of the tile search at
//      the requested size must choose the record's tile again (feasibility
//      alone is not enough: the cost-model argmin can move with the size),
//   3. guard validation — every FamilyGuard of the record's ArtifactInfo
//      must hold at the requested size; a violation (pad decision or
//      packed-arena verdict would differ) rejects with a clean diagnostic
//      and the caller falls back to the bind-and-emit pipeline,
//   4. argument fill — each BindSlot is evaluated at the requested size
//      into CompileResult::boundArgs; the artifact text is returned
//      verbatim (byte-identical to what a per-size compile would emit).
//
// The whole bind is table evaluation plus one record clone, with no
// polyhedral work: binder.bind.us is about 114 us (median of two traced
// bench_suite daemon-warm runs on a loaded 4-core box). A whole warm
// compile() through the family tier, which stores no per-size copy of the
// bind, costs about 280 us p50 against 42-57 ms for bind-and-emit (median
// of six bench/svc_family_bind.cpp --quick runs on a shared, loaded 4-core
// box; the bench gates the ratio at 10x). That is what turns the daemon's
// family hit path into a lookup.
#pragma once

#include <optional>
#include <vector>

#include "driver/compiler.h"

namespace emm {

/// Publishes `result` as the size-generic record of `family` when its
/// artifact qualifies (ok + ArtifactInfo::sizeGeneric); no-op otherwise.
/// Called by the driver on a cold family compile before the plan is
/// inserted into the cache tiers.
void attachFamilyRecord(FamilyPlan& family, const CompileResult& result,
                        const CompileOptions& options);

/// Binds the family record to `request` (a member block carrying the
/// requested concrete sizes in its array table) at options.paramValues.
/// Returns the bound result — the record's products with the request's
/// array tables swapped in, boundArgs filled, and artifactBound/familyHit
/// set — or nullopt when the family has no record, the identity check
/// fails, the tile choice is infeasible at this size, or a guard rejects.
/// Every non-bind appends a note diagnostic to `diagnostics` (may be null)
/// explaining the fallback; guards never produce a wrong answer, only a
/// rejection.
std::optional<CompileResult> bindFamilyArtifact(const FamilyPlan& family,
                                                const ProgramBlock& request,
                                                const CompileOptions& options,
                                                std::vector<Diagnostic>* diagnostics);

}  // namespace emm
