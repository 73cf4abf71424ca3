// Size-generic artifact metadata: what a family record needs to serve a
// new problem size with NO re-emission.
//
// When an emitter produces size-generic text (problem sizes are runtime
// kernel arguments, buffer geometry is folded in as closed-form
// expressions), it also fills an ArtifactInfo describing (a) the runtime
// argument slots a binder must populate for a requested size and (b) the
// guard predicates under which the emitted text is valid. The RuntimeBinder
// (driver/runtime_binder.h) evaluates the guards against a requested size;
// inside the envelope it fills the slots and returns the cached artifact
// verbatim, outside it rejects cleanly and the full pipeline runs.
#pragma once

#include <string>
#include <vector>

#include "support/fields.h"
#include "sym/sym_expr.h"

namespace emm {

/// One runtime argument of a size-generic artifact, in kernel-signature
/// order. The binder computes each slot's value from the requested sizes.
struct BindSlot {
  enum class Kind : unsigned char {
    SizeParam = 0,    ///< value = requested size a (param index a)
    ArrayExtent = 1,  ///< value = extent b of array id a (global stride leg)
    Formula = 2,      ///< value = formula->eval([sizes..., 0...]) (fallback
                      ///< table for expressions not renderable inline)
  };
  std::string name;  ///< C identifier in the emitted signature
  Kind kind = Kind::SizeParam;
  int a = 0;        ///< param index / array id
  int b = 0;        ///< dimension (ArrayExtent only)
  SymPtr formula;   ///< Formula only

  static constexpr void fields(auto& v) {
    v.tag(kTagBindSlot, "BindSlot");
    v("name", &BindSlot::name);
    v("kind", &BindSlot::kind);
    v("a", &BindSlot::a);
    v("b", &BindSlot::b);
    v.nullable("formula", &BindSlot::formula);
  }
};
constexpr BindSlot::Kind enumMax(BindSlot::Kind) { return BindSlot::Kind::Formula; }

/// One validity predicate of a size-generic artifact. All symbolic guards
/// are evaluated over [requested sizes..., 0 for every further parameter];
/// layout formulas never mention tile origins, so the zeros are inert.
struct FamilyGuard {
  enum class Kind : unsigned char {
    SymLe = 0,        ///< lhs->eval(env) <= rhs->eval(env)
    SymEq = 1,        ///< lhs->eval(env) == rhs->eval(env)
    BufExtentEq = 2,  ///< unit.localBuffers[bufferIndex].paddedExtent(dim,
                      ///< requestEnv) == expected — pins an extent the
                      ///< emitter folded into the text as a constant
  };
  Kind kind = Kind::SymLe;
  SymPtr lhs;  ///< SymLe / SymEq
  SymPtr rhs;  ///< SymLe / SymEq
  int bufferIndex = 0;  ///< BufExtentEq
  int dim = 0;          ///< BufExtentEq
  i64 expected = 0;     ///< BufExtentEq
  std::string what;     ///< diagnostic text on rejection

  static constexpr void fields(auto& v) {
    v.tag(kTagFamilyGuard, "FamilyGuard");
    v("kind", &FamilyGuard::kind);
    v.nullable("lhs", &FamilyGuard::lhs);
    v.nullable("rhs", &FamilyGuard::rhs);
    v("bufferIndex", &FamilyGuard::bufferIndex);
    v("dim", &FamilyGuard::dim);
    v("expected", &FamilyGuard::expected);
    v("what", &FamilyGuard::what);
  }
};
constexpr FamilyGuard::Kind enumMax(FamilyGuard::Kind) { return FamilyGuard::Kind::BufExtentEq; }

/// Metadata a backend attaches to an emitted artifact. `sizeGeneric` false
/// means the text bakes in concrete sizes (warm path stays bind-and-emit
/// for this family); `note` records why.
struct ArtifactInfo {
  bool sizeGeneric = false;
  std::string note;
  std::vector<BindSlot> slots;
  std::vector<FamilyGuard> guards;

  static constexpr void fields(auto& v) {
    v.tag(kTagArtifactInfo, "ArtifactInfo");
    v("sizeGeneric", &ArtifactInfo::sizeGeneric);
    v("note", &ArtifactInfo::note);
    v("slots", &ArtifactInfo::slots);
    v("guards", &ArtifactInfo::guards);
  }
};

}  // namespace emm
