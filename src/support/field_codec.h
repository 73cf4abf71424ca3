// The generic field writer: encodes any value whose type has a field list
// (support/fields.h) into a byte sink.
//
// One walk serves every sink: ByteWriter (the plan format of
// support/serialize.cpp), the cache-key and collision-digest hashers of
// support/fingerprint.cpp, and the settling walk of settleDerivedAnswers,
// which discards the bytes.
// A sink provides u8, u64v, i64v, intv, boolean, f64 and str.
//
// Value encodings, all little-endian:
//   bool                  1 byte
//   int, i64, enums       8 bytes (enums as their underlying value)
//   double                8 bytes, the bit pattern
//   std::string           u64 length, then the bytes
//   std::vector<T>        kTagList, u64 count, the elements
//   std::pair<A, B>       A, then B
//   std::optional<T>,     presence byte, then T
//   DeepPtr<T>
//   std::shared_ptr<T>    T, never null (v.nullable adds a presence byte)
//   field-listed struct   its tag (unless kTagNone), then its fields
//   RebindOnCopy<M>       as M
// Hand-written, because their wire form is not a plain field list: IntMat,
// Polyhedron (its emptiness byte), the Expr and SymExpr trees (rebuilt
// through their factories on read), and AstNode children (non-null
// elements; the reader bounds their depth).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/ast.h"
#include "support/deep_ptr.h"
#include "support/fields.h"
#include "support/serialize.h"
#include "sym/sym_expr.h"

namespace emm {

/// What a sink receives where the plan format writes a Polyhedron's
/// emptiness byte: the derived isEmpty() answer (the plan format and the
/// settling walk), the syntactic Polyhedron::markedEmpty() mark (the
/// collision digests), or nothing (the cache keys). Only the first runs
/// the Fourier-Motzkin elimination behind isEmpty().
enum class EmptinessByte { Derived, Mark, None };
template <class Sink>
inline constexpr EmptinessByte kSinkEmptiness = EmptinessByte::Derived;

/// True when T is an instance of the class template Tmpl.
template <template <class...> class Tmpl, class T>
inline constexpr bool kIsA = false;
template <template <class...> class Tmpl, class... A>
inline constexpr bool kIsA<Tmpl, Tmpl<A...>> = true;

template <class S, class T>
void writeValue(S& s, const T& value);

template <class S>
void writeValue(S& s, const IntMat& m) {
  s.u8(kTagIntMat);
  s.intv(m.rows());
  s.intv(m.cols());
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) s.i64v(m.at(i, j));
}

template <class S>
void writeValue(S& s, const Polyhedron& p) {
  s.u8(kTagPolyhedron);
  s.intv(p.dim());
  s.intv(p.nparam());
  writeValue(s, p.equalities());
  writeValue(s, p.inequalities());
  // simplify() may have dropped the witness constraint after marking the
  // set empty, so emptiness is carried explicitly. isEmpty() answers from
  // the polyhedron's stored answer once settleDerivedAnswers has run.
  if constexpr (kSinkEmptiness<S> == EmptinessByte::Derived)
    s.boolean(p.isEmpty());
  else if constexpr (kSinkEmptiness<S> == EmptinessByte::Mark)
    s.boolean(p.markedEmpty());
}

template <class S>
void writeValue(S& s, const ExprPtr& e) {
  if (e == nullptr) throw SerializeError("null expression");
  s.u8(kTagExpr);
  s.i64v(static_cast<i64>(e->kind()));
  switch (e->kind()) {
    case Expr::Kind::Const:
      s.f64(e->constValue());
      break;
    case Expr::Kind::Load:
      s.intv(e->accessIndex());
      break;
    case Expr::Kind::Abs:
      writeValue(s, e->lhs());
      break;
    default:  // binary
      writeValue(s, e->lhs());
      writeValue(s, e->rhs());
      break;
  }
}

template <class S>
void writeValue(S& s, const SymPtr& e) {
  if (e == nullptr) throw SerializeError("null symbolic expression");
  s.u8(kTagSymExpr);
  s.i64v(static_cast<i64>(e->kind()));
  switch (e->kind()) {
    case SymExpr::Kind::Const:
      s.i64v(e->constValue());
      break;
    case SymExpr::Kind::Param:
      s.intv(e->paramIndex());
      s.str(e->paramName());
      break;
    default:
      writeValue(s, e->lhs());
      writeValue(s, e->rhs());
      break;
  }
}

template <class S>
void writeValue(S& s, const std::vector<AstPtr>& children) {
  s.u8(kTagList);
  s.u64v(children.size());
  for (const AstPtr& c : children) writeValue(s, *c);
}

/// Writes the fields of one `obj` as its field list names them.
template <class S, class T>
struct FieldWriter {
  S& s;
  const T& obj;

  void tag(unsigned char t, const char*) {
    if (t != kTagNone) s.u8(t);
  }
  template <class M>
  void operator()(const char*, M T::*m) {
    writeValue(s, obj.*m);
  }
  template <class M>
  void nullable(const char*, M T::*m) {
    s.boolean(obj.*m != nullptr);
    if (obj.*m != nullptr) writeValue(s, obj.*m);
  }
  template <class M>
  void when(bool T::*flag, const char*, M T::*m) {
    if (obj.*flag) writeValue(s, obj.*m);
  }
  template <class B>
  void base(const char*) {
    writeValue(s, static_cast<const B&>(obj));
  }
  template <class M, class P>
  void backref(const char*, std::optional<M> T::*m, P M::*pointer) {
    const std::optional<M>& value = obj.*m;
    s.boolean(value.has_value());
    if (!value) return;
    s.u8(static_cast<unsigned char>(obj.blockRef((*value).*pointer)));
    writeValue(s, *value);
  }
  void skip(const char*, const char*) {}
};

template <class S, class T>
void writeValue(S& s, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    s.boolean(value);
  } else if constexpr (std::is_same_v<T, int>) {
    s.intv(value);
  } else if constexpr (std::is_same_v<T, i64>) {
    s.i64v(value);
  } else if constexpr (std::is_same_v<T, double>) {
    s.f64(value);
  } else if constexpr (std::is_enum_v<T>) {
    s.i64v(static_cast<i64>(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    s.str(value);
  } else if constexpr (kIsA<std::vector, T>) {
    s.u8(kTagList);
    s.u64v(value.size());
    for (const auto& e : value) writeValue(s, e);
  } else if constexpr (kIsA<std::pair, T>) {
    writeValue(s, value.first);
    writeValue(s, value.second);
  } else if constexpr (kIsA<std::optional, T> || kIsA<DeepPtr, T>) {
    s.boolean(static_cast<bool>(value));
    if (value) writeValue(s, *value);
  } else if constexpr (kIsA<std::shared_ptr, T>) {
    if (value == nullptr) throw SerializeError("null shared value");
    writeValue(s, *value);
  } else if constexpr (kIsA<RebindOnCopy, T>) {
    writeValue(s, static_cast<const typename T::Members&>(value));
  } else {
    static_assert(HasFields<T>, "type has neither a field list nor a hand-written codec");
    static_assert(fieldListComplete<T>(),
                  "field list misses a member: list it, or skip it with a reason");
    FieldWriter<S, T> writer{s, value};
    FieldAccess::visit<T>(writer);
  }
}

}  // namespace emm
