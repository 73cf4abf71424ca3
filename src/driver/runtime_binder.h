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
//   2. argmin re-certification — the compile's tile search, re-run at the
//      requested size over a plan-only TileEvaluator (the family's tile
//      plan, no block; tilesearch/tile_evaluator.h), must choose the
//      record's tile again (feasibility alone is not enough: the cost-model
//      argmin can move with the size). Ladders, constraints, pruning and
//      solver are the compile's own, so the search is a pure function of
//      the tile plan, the sizes, the search options and the solver, and
//      the family plan memoizes its outcome per request
//      (FamilyPlan::searchMemo): a size bound or rejected before is
//      certified again without searching,
//   3. guard validation — every FamilyGuard of the record's ArtifactInfo
//      must hold at the requested size; a violation (pad decision or
//      packed-arena verdict would differ) rejects with a clean diagnostic
//      and the caller falls back to the bind-and-emit pipeline,
//   4. argument fill — each BindSlot is evaluated at the requested size
//      into the runtime arguments; the artifact text is served verbatim
//      (byte-identical to what a per-size compile would emit).
//
// The bind is split in two. certifyBind runs steps 1-4 against the
// immutable record and returns a BindOverlay — the re-search, the
// request's arrays, the arguments, one note and one timing — without
// copying the record. materializeBind copies the record's products, which
// shares their blocks, AST and tables (support/deep_ptr.h), and patches the
// copy with applyBindOverlay, the one code path that patches a record: it
// detaches only the three blocks whose array tables it writes. An
// in-process compile() does both at once; the daemon certifies on its
// connection thread and ships the overlay alone once the connection holds
// the record, and the client materializes against its copy
// (service/protocol.h, BoundReply). Either way the bound result is the
// same, byte for byte. A bind is table evaluation with no polyhedral work:
// step 2 at a never-seen size is the plan-only search over the family
// plan specialized to the requested sizes (tilesearch/parametric_plan.h),
// BM_PlanOnlySearch in bench/micro_compiler_ops.cpp (44 µs for ME,
// 31 µs for matmul on a shared 4-core x86 box), and a repeated size is a
// search-memo hit. Materializing then costs BM_MaterializeBind (about
// 2.6 µs for ME and 2.5 µs for matmul on the same box, freeing the
// result included). bench/svc_family_bind.cpp gates a warm compile()
// through the family tier at 10x under bind-and-emit.
#pragma once

#include <optional>
#include <vector>

#include "driver/compiler.h"

namespace emm {

/// True when `result` can be a family record: ok, with a code unit and a
/// non-empty artifact that ArtifactInfo marks size-generic.
bool qualifiesAsFamilyRecord(const CompileResult& result);

/// Publishes `result` as the size-generic record of `family` when it
/// qualifies (qualifiesAsFamilyRecord); no-op otherwise. Called by the
/// driver before the plan is inserted into the cache tiers: on a cold
/// family compile, and on the first codegen-running compile of a family
/// built without a record.
void attachFamilyRecord(FamilyPlan& family, const CompileResult& result,
                        const CompileOptions& options);

/// Certifies a bind of the family record to `request` (a member block
/// carrying the requested concrete sizes in its array table) at
/// options.paramValues, and returns the overlay that turns a copy of the
/// record into the bound result. Returns nullopt when the family has no
/// record, the identity check fails, the tile choice is infeasible or no
/// longer the argmin at this size, or a guard rejects. Every non-bind
/// appends a note diagnostic to `diagnostics` (may be null) explaining the
/// fallback; guards never produce a wrong answer, only a rejection. Safe
/// to call concurrently on one family: the only state it writes is the
/// family's search memo.
std::optional<BindOverlay> certifyBind(const FamilyPlan& family, const ProgramBlock& request,
                                       const CompileOptions& options,
                                       std::vector<Diagnostic>* diagnostics);

/// Patches `result` (a copy of a family record) into the bound result: the
/// overlay's search and array tables swapped in (the tiled block's too, when
/// its table has the request's shape), boundArgs filled, the one bind note
/// and timing in place of the record's, and familyHit/artifactBound set.
/// Each block written is detached from the record (mutBlock, mutTileBlock);
/// everything else stays shared.
void applyBindOverlay(CompileResult& result, BindOverlay overlay);

/// The bound result: a copy of `record`'s products patched by
/// applyBindOverlay.
CompileResult materializeBind(const CompileResult& record, BindOverlay overlay);

/// Same array table modulo extents (names and ranks): the record's blocks
/// can adopt an overlay's arrays by plain assignment.
bool sameArrayShape(const std::vector<ArrayDecl>& a, const std::vector<ArrayDecl>& b);

}  // namespace emm
