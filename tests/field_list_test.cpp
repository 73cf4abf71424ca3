// Field lists (support/fields.h) name every member of the structs they
// describe, and the schema manifest generated from them names every wire
// tag exactly once.
//
// The codec already refuses to compile a list that misses a member; the
// static_asserts below restate that for each public struct, so a forgotten
// member is reported against the struct's name.
#include <gtest/gtest.h>

#include <string>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "support/fields.h"
#include "support/serialize.h"

namespace emm {
namespace {

template <class T>
constexpr bool listsEveryMember() {
  return std::is_aggregate_v<T> && fieldListComplete<T>();
}

static_assert(listsEveryMember<DivExpr>());
static_assert(listsEveryMember<DimBounds>());
static_assert(listsEveryMember<Access>());
static_assert(listsEveryMember<Statement>());
static_assert(listsEveryMember<ArrayDecl>());
static_assert(listsEveryMember<ProgramBlock>());
static_assert(listsEveryMember<AffExpr>());
static_assert(listsEveryMember<BoundExpr>());
static_assert(listsEveryMember<AstNode>());
static_assert(listsEveryMember<LocalBuffer>());
static_assert(listsEveryMember<CodeUnit>());
static_assert(listsEveryMember<Dependence>());
static_assert(listsEveryMember<LoopDepSummary>());
static_assert(listsEveryMember<ParallelismPlan>());
static_assert(listsEveryMember<TileEvaluation::BufferTerm>());
static_assert(listsEveryMember<TileEvaluation>());
static_assert(listsEveryMember<TileSearchResult>());
static_assert(listsEveryMember<TileSearchOptions>());
static_assert(listsEveryMember<GeometryHint>());
static_assert(listsEveryMember<SmemOptions>());
static_assert(listsEveryMember<RefSummary>());
static_assert(listsEveryMember<PartitionPlan>());
static_assert(listsEveryMember<DataPlan>());
static_assert(listsEveryMember<TileAnalysis::Members>());
static_assert(listsEveryMember<TiledKernel::Members>());
static_assert(listsEveryMember<Diagnostic>());
static_assert(listsEveryMember<PassTiming>());
static_assert(listsEveryMember<BankDescriptor>());
static_assert(listsEveryMember<BufferLayoutEntry>());
static_assert(listsEveryMember<BufferLayout>());
static_assert(listsEveryMember<BindSlot>());
static_assert(listsEveryMember<FamilyGuard>());
static_assert(listsEveryMember<ArtifactInfo>());
static_assert(listsEveryMember<PipelineProducts::Members>());
static_assert(listsEveryMember<CompileResult>());
static_assert(listsEveryMember<CompileOptions>());
static_assert(listsEveryMember<FamilyPlan>());

// The comparison counts members; it is not vacuous. CompileResult's base
// counts as one member, listed as `products`.
static_assert(detail::memberCount<Dependence>() == 8);
static_assert(detail::memberCount<PipelineProducts::Members>() == 15);
static_assert(detail::memberCount<CompileResult>() == 9);

struct OneMemberUnlisted {
  int listed = 0;
  int forgotten = 0;

  static constexpr void fields(auto& v) {
    v.tag(kTagNone, "OneMemberUnlisted");
    v("listed", &OneMemberUnlisted::listed);
  }
};
static_assert(!fieldListComplete<OneMemberUnlisted>());

int occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (size_t at = text.find(needle); at != std::string::npos; at = text.find(needle, at + 1))
    ++n;
  return n;
}

TEST(FieldLists, EveryWireTagAppearsOnceInTheManifest) {
  const std::string& manifest = serializeSchemaManifest();
  for (int tag = kTagIntMat; tag <= kTagLastStruct; ++tag)
    EXPECT_EQ(occurrences(manifest, "@" + std::to_string(tag) + "{"), 1)
        << "tag " << tag << " in " << manifest;
}

TEST(FieldLists, TheSchemaFingerprintDigestsTheManifest) {
  EXPECT_EQ(serializeSchemaFingerprint(), digestBytes(serializeSchemaManifest()));
  // Skipped members are not on the wire, so they are not in the manifest.
  EXPECT_EQ(occurrences(serializeSchemaManifest(), "artifactBound"), 0);
  EXPECT_EQ(occurrences(serializeSchemaManifest(), "footprint:SymExpr"), 0);
}

}  // namespace
}  // namespace emm
