// Field lists: the one description of every struct the plan format carries.
//
// Each serialized struct lists its members once, in wire order, in a static
// member template:
//
//   static constexpr void fields(auto& v) {
//     v.tag(kTagDependence, "Dependence");
//     v("srcStmt", &Dependence::srcStmt);
//     ...
//   }
//
// Generic visitors walk the lists: the byte writer and reader
// (support/field_codec.h; the writer is also the cache-key hasher and the
// derived-answer settling walk) and the schema manifest
// (support/serialize.cpp). The plan format and the daemon's wire payloads
// are both encoded this way. List entries:
//
//   v.tag(tag, "Name")              first entry; kTagNone inlines the struct
//                                   untagged inside its owner
//   v("name", &T::m)                a field (types: support/field_codec.h)
//   v.nullable("name", &T::m)       a shared_ptr that may be null: a presence
//                                   byte, then the pointee
//   v.when(&T::flag, "name", &T::m) written iff the bool field `flag`
//                                   (listed earlier) is set
//   v.template base<B>("name")      the base-class subobject, as a nested B
//   v.backref("name", &T::m, &M::p) an optional M whose back-pointer `p`
//                                   names one of the products' own blocks
//   v.skip("name", "reason")        a member that is not serialized (a
//                                   transport flag, a back-pointer, or a
//                                   value derived from the listed ones)
//
// Every member is named, listed or skipped: the codec checks at compile
// time that an aggregate's member count equals its list (fieldListComplete
// below), so a member added to a struct but not to its list fails the build.
#pragma once

#include <cstddef>
#include <type_traits>

namespace emm {

/// One tag byte opens every tagged composite value on the wire; a reader
/// that lands on the wrong byte (truncation, bit flip, format drift) fails
/// on the tag instead of misparsing the following fields. The values are
/// part of the plan format and never change.
enum WireTag : unsigned char {
  kTagNone = 0x00,  ///< untagged struct, inlined in its owner
  kTagIntMat = 0x01,
  kTagPolyhedron,
  kTagDivExpr,
  kTagDimBounds,
  kTagExpr,
  kTagAccess,
  kTagStatement,
  kTagArrayDecl,
  kTagProgramBlock,
  kTagAffExpr,
  kTagBoundExpr,
  kTagAstNode,
  kTagLocalBuffer,
  kTagCodeUnit,
  kTagDependence,
  kTagLoopDepSummary,
  kTagParallelismPlan,
  kTagBufferTerm,
  kTagTileEvaluation,
  kTagTileSearchResult,
  kTagGeometryHint,
  kTagSmemOptions,
  kTagRefSummary,
  kTagPartitionPlan,
  kTagDataPlan,
  kTagTileAnalysis,
  kTagTiledKernel,
  kTagDiagnostic,
  kTagPassTiming,
  kTagPipelineProducts,
  kTagCompileResult,
  kTagCompileOptions,
  kTagSymExpr,
  kTagPairPredicate,
  kTagRefFormula,
  kTagComponentFormula,
  kTagArrayFormula,
  kTagGeometryRecord,
  kTagTileSearchOptions,
  kTagSizeBinding,
  kTagParametricPlan,
  kTagFamilyPlan,
  kTagBufferLayoutEntry,
  kTagBufferLayout,
  kTagBindSlot,
  kTagFamilyGuard,
  kTagArtifactInfo,
  kTagLastStruct = kTagArtifactInfo,
  kTagList = 0xA0,  ///< opens every list, before its element count
  // The daemon's wire payloads (service/protocol.h); never inside a plan.
  kTagCompileRequest = 0xA1,
  kTagCompileReply = 0xA2,
  kTagStatsReply = 0xA3,
  kTagErrorReply = 0xA4,
  kTagBoundReply = 0xA5,
  kTagBindOverlay = 0xA6,
};

// The max-value trait of the enums the wire carries: next to each such enum,
//   constexpr E enumMax(E) { return E::<last enumerator>; }
// Readers reject values outside [0, enumMax].

/// Counts a field list's entries, listed and skipped.
struct FieldCounter {
  int n = 0;
  constexpr void tag(unsigned char, const char*) {}
  template <class P>
  constexpr void operator()(const char*, P) { ++n; }
  template <class P>
  constexpr void nullable(const char*, P) { ++n; }
  template <class F, class P>
  constexpr void when(F, const char*, P) { ++n; }
  template <class B>
  constexpr void base(const char*) { ++n; }
  template <class P, class Q>
  constexpr void backref(const char*, P, Q) { ++n; }
  constexpr void skip(const char*, const char*) { ++n; }
};

/// The gateway visitors reach field lists through; a class whose list
/// names private members (or whose decoding needs its private default
/// constructor) befriends it.
struct FieldAccess {
  template <class T>
  static constexpr bool listed = requires(FieldCounter& c) { T::fields(c); };
  template <class T, class V>
  static constexpr void visit(V& v) {
    T::fields(v);
  }
  template <class T>
  static T make() {
    return T();
  }
};

template <class T>
concept HasFields = FieldAccess::listed<T>;

namespace detail {

/// Converts to anything; brace-initializing an aggregate with N of these
/// compiles iff N <= its number of direct members (a base counts as one).
struct AnyMember {
  template <class T>
  operator T() const;  // declared only: unevaluated use
};

template <class T, class... A>
constexpr int memberCount() {
  if constexpr (requires { T{A{}..., AnyMember{}}; })
    return memberCount<T, A..., AnyMember>();
  else
    return static_cast<int>(sizeof...(A));
}

}  // namespace detail

/// True when the field list of T names every member: for aggregates, the
/// member count equals the entries; other classes (private members, user
/// constructors) are not countable and pass.
template <class T>
constexpr bool fieldListComplete() {
  if constexpr (std::is_aggregate_v<T>) {
    FieldCounter c;
    FieldAccess::visit<T>(c);
    return detail::memberCount<T>() == c.n;
  } else {
    return true;
  }
}

}  // namespace emm
