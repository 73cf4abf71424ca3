// The field codec: the generic writer and reader of any value whose type
// has a field list (support/fields.h).
//
// One writer walk serves every sink: ByteWriter (the plan format of
// support/serialize.cpp and the daemon wire payloads of
// service/protocol.cpp), the cache-key and collision-digest hashers of
// support/fingerprint.cpp, and the settling walk of settleDerivedAnswers,
// which discards the bytes. A sink provides u8, u64v, i64v, intv, boolean,
// f64 and str. The reader is the writer's mirror over a ByteReader; it
// validates every tag, enum value and count (before allocating) and throws
// SerializeError on any malformation. encode()/decode() wrap the two.
//
// Value encodings, all little-endian:
//   bool                  1 byte
//   int, i64, u64, enums  8 bytes (enums as their underlying value)
//   double                8 bytes, the bit pattern
//   std::string           u64 length, then the bytes
//   std::vector<T>        kTagList, u64 count, the elements
//   std::pair<A, B>       A, then B
//   std::optional<T>,     presence byte, then T
//   DeepPtr<T>
//   std::shared_ptr<T>    T, never null (v.nullable adds a presence byte)
//   field-listed struct   its tag (unless kTagNone), then its fields
//   Cow<T>                as T
//   RebindOnCopy<M>       as M
// Hand-written, because their wire form is not a plain field list: IntMat,
// Polyhedron (its emptiness byte), the Expr and SymExpr trees (rebuilt
// through their factories on read), and AstNode children (non-null
// elements; the reader bounds their depth). Their readers, and the
// post-read hooks that validate decoded structs, live in
// support/serialize.cpp.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/ast.h"
#include "support/deep_ptr.h"
#include "support/diagnostics.h"
#include "support/fields.h"
#include "support/serialize.h"
#include "sym/sym_expr.h"

namespace emm {

struct BindSlot;
struct FamilyGuard;
struct FamilyPlan;
class ParametricTilePlan;

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
  } else if constexpr (std::is_same_v<T, u64>) {
    s.u64v(value);
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
  } else if constexpr (kIsA<Cow, T>) {
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

// ---- the reader --------------------------------------------------------------

inline void expectTag(ByteReader& r, unsigned char tag, const char* what) {
  unsigned char got = r.u8();
  if (got != tag)
    throw SerializeError(std::string("bad tag for ") + what + " (got " + std::to_string(got) +
                         ", want " + std::to_string(tag) + ")");
}

/// Reads an i64 and validates it names a value of an enum with
/// `maxValue + 1` consecutive members starting at 0.
template <typename E>
E readEnum(ByteReader& r, i64 maxValue, const char* what) {
  i64 v = r.i64v();
  if (v < 0 || v > maxValue)
    throw SerializeError(std::string("out-of-range ") + what + " value " + std::to_string(v));
  return static_cast<E>(v);
}

/// Reader state: the input plus the AST nesting depth of the current node.
struct Decoder {
  ByteReader& in;
  int astDepth = 0;
};

template <class T>
void readValue(Decoder& d, T& value);

// The hand-written readers.
void readValue(Decoder& d, IntMat& m);
void readValue(Decoder& d, Polyhedron& p);
void readValue(Decoder& d, ExprPtr& e);
void readValue(Decoder& d, SymPtr& e);
void readValue(Decoder& d, std::vector<AstPtr>& children);

// Post-read hooks: run after a struct's listed fields are read, so fields
// whose values depend on each other are validated and hostile bytes fail
// here instead of where the value is used. (Back-pointers are rebound by
// readValue.)
template <class T>
void finishDecode(T&) {}
void finishDecode(BindSlot& s);
void finishDecode(FamilyGuard& g);
void finishDecode(FamilyPlan& plan);
void finishDecode(ParametricTilePlan& plan);

/// Fewest wire bytes one element of type T can take: a list count is
/// checked against the remaining input with it before anything is allocated.
template <class T>
constexpr u64 minWireBytes() {
  if constexpr (std::is_same_v<T, bool>) return 1;
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T> || std::is_same_v<T, std::string>)
    return 8;
  return 1;  // a tag or presence byte
}

/// Reads the fields of one `obj` as its field list names them.
template <class T>
struct FieldReader {
  Decoder& d;
  T& obj;

  void tag(unsigned char t, const char* name) {
    if (t != kTagNone) expectTag(d.in, t, name);
  }
  template <class M>
  void operator()(const char*, M T::*m) {
    readValue(d, obj.*m);
  }
  template <class M>
  void nullable(const char*, M T::*m) {
    if (d.in.boolean()) readValue(d, obj.*m);
  }
  template <class M>
  void when(bool T::*flag, const char*, M T::*m) {
    if (obj.*flag) readValue(d, obj.*m);
  }
  template <class B>
  void base(const char*) {
    readValue(d, static_cast<B&>(obj));
  }
  template <class M, class P>
  void backref(const char*, std::optional<M> T::*m, P M::*pointer) {
    if (!d.in.boolean()) return;
    const unsigned char ref = d.in.u8();
    if (ref > static_cast<unsigned char>(T::BlockRef::Transformed))
      throw SerializeError("bad block back-reference " + std::to_string(ref));
    M& value = (obj.*m).emplace();
    readValue(d, value);
    value.*pointer = obj.blockAt(static_cast<typename T::BlockRef>(ref));
  }
  void skip(const char*, const char*) {}
};

template <class T>
void readValue(Decoder& d, T& value) {
  ByteReader& r = d.in;
  if constexpr (std::is_same_v<T, bool>) {
    value = r.boolean();
  } else if constexpr (std::is_same_v<T, int>) {
    value = r.intv();
  } else if constexpr (std::is_same_v<T, i64>) {
    value = r.i64v();
  } else if constexpr (std::is_same_v<T, u64>) {
    value = r.u64v();
  } else if constexpr (std::is_same_v<T, double>) {
    value = r.f64();
  } else if constexpr (std::is_enum_v<T>) {
    value = readEnum<T>(r, static_cast<i64>(enumMax(T{})), "enum");
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = r.str();
  } else if constexpr (kIsA<std::vector, T>) {
    using E = typename T::value_type;
    expectTag(r, kTagList, "list");
    const u64 n = r.count(minWireBytes<E>());
    value.clear();
    if constexpr (std::is_arithmetic_v<E>) value.reserve(n);
    for (u64 i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<E, bool>) {
        value.push_back(r.boolean());
      } else {
        value.emplace_back();
        readValue(d, value.back());
      }
    }
  } else if constexpr (kIsA<std::pair, T>) {
    readValue(d, value.first);
    readValue(d, value.second);
  } else if constexpr (kIsA<std::optional, T>) {
    if (r.boolean())
      readValue(d, value.emplace());
    else
      value.reset();
  } else if constexpr (kIsA<DeepPtr, T>) {
    value = nullptr;
    if (!r.boolean()) return;
    value = T::make();
    readValue(d, value.mut());
  } else if constexpr (kIsA<std::shared_ptr, T>) {
    using E = std::remove_const_t<typename T::element_type>;
    E decoded = FieldAccess::make<E>();
    readValue(d, decoded);
    value = std::make_shared<const E>(std::move(decoded));
  } else if constexpr (kIsA<Cow, T>) {
    value = typename T::element_type{};  // a fresh pointee, not a detached copy
    readValue(d, value.mut());
  } else if constexpr (kIsA<RebindOnCopy, T>) {
    readValue(d, static_cast<typename T::Members&>(value));
    value.rebindBlocks(value);  // a decoded value's back-pointers name its own blocks
  } else {
    FieldReader<T> reader{d, value};
    FieldAccess::visit<T>(reader);
    finishDecode(value);
  }
}

/// Runs `f`, reporting any ApiError it raises as a SerializeError naming
/// `what`: decoding rebuilds polyhedra, symbolic formulas and checked
/// arithmetic, real IR code whose preconditions hostile bytes can violate.
template <class F>
void rethrowAsSerializeError(const char* what, F&& f) {
  try {
    f();
  } catch (const ApiError& e) {
    throw SerializeError(std::string(what) + " decode failed: " + e.what());
  }
}

/// Decodes one complete value: trailing bytes are an error, and so is any
/// ApiError raised while rebuilding it.
template <class T>
T decode(std::string_view bytes, const char* what) {
  ByteReader r(bytes);
  Decoder d{r};
  T out = FieldAccess::make<T>();
  rethrowAsSerializeError(what, [&] {
    readValue(d, out);
    r.expectEnd();
  });
  return out;
}

template <class T>
std::string encode(const T& value) {
  ByteWriter w;
  writeValue(w, value);
  return w.take();
}

}  // namespace emm
