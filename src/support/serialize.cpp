#include "support/serialize.h"

#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/options.h"
#include "support/field_codec.h"
#include "support/fingerprint.h"

namespace emm {

namespace {

// Recursion guards for tree payloads. Legitimate plans are far shallower;
// a hostile file claiming deeper nesting is rejected before the stack is.
constexpr int kMaxExprDepth = 512;
constexpr int kMaxAstDepth = 4096;

// Structural sanity cap for dimension/shape fields. Nothing in this
// codebase approaches it; a corrupt shape larger than this is rejected
// before any EMM_CHECK (which would abort) can see it.
constexpr i64 kMaxShape = 1 << 20;

/// Validates a non-negative shape/dimension value against the sanity cap.
int checkShape(i64 v, const char* what) {
  if (v < 0 || v > kMaxShape)
    throw SerializeError(std::string("implausible ") + what + " " + std::to_string(v));
  return static_cast<int>(v);
}

int readShape(ByteReader& r, const char* what) { return checkShape(r.i64v(), what); }

// ---- hand-written readers ------------------------------------------------

ExprPtr readExpr(ByteReader& r, int depth) {
  if (depth > kMaxExprDepth) throw SerializeError("expression nesting too deep");
  expectTag(r, kTagExpr, "Expr");
  auto kind = readEnum<Expr::Kind>(r, static_cast<i64>(Expr::Kind::Max), "Expr kind");
  switch (kind) {
    case Expr::Kind::Const:
      return Expr::constant(r.f64());
    case Expr::Kind::Load:
      return Expr::load(r.intv());
    case Expr::Kind::Abs:
      return Expr::abs(readExpr(r, depth + 1));
    default: {
      ExprPtr a = readExpr(r, depth + 1);
      ExprPtr b = readExpr(r, depth + 1);
      switch (kind) {
        case Expr::Kind::Add:
          return Expr::add(std::move(a), std::move(b));
        case Expr::Kind::Sub:
          return Expr::sub(std::move(a), std::move(b));
        case Expr::Kind::Mul:
          return Expr::mul(std::move(a), std::move(b));
        case Expr::Kind::Div:
          return Expr::div(std::move(a), std::move(b));
        case Expr::Kind::Min:
          return Expr::min(std::move(a), std::move(b));
        default:
          return Expr::max(std::move(a), std::move(b));
      }
    }
  }
}

SymPtr readSymExpr(ByteReader& r, int depth) {
  if (depth > kMaxExprDepth) throw SerializeError("symbolic expression nesting too deep");
  expectTag(r, kTagSymExpr, "SymExpr");
  auto kind = readEnum<SymExpr::Kind>(r, static_cast<i64>(SymExpr::Kind::Max), "SymExpr kind");
  switch (kind) {
    case SymExpr::Kind::Const:
      return SymExpr::constant(r.i64v());
    case SymExpr::Kind::Param: {
      int idx = readShape(r, "SymExpr param index");
      return SymExpr::param(idx, r.str());
    }
    default: {
      SymPtr a = readSymExpr(r, depth + 1);
      SymPtr b = readSymExpr(r, depth + 1);
      // Every divisor a compiled plan produces is a positive constant
      // (compileDiv wraps DivExpr::den); anything else would only surface
      // as an eval-time checked-arithmetic abort, so reject it here.
      if ((kind == SymExpr::Kind::FloorDiv || kind == SymExpr::Kind::CeilDiv) &&
          (b->kind() != SymExpr::Kind::Const || b->constValue() <= 0))
        throw SerializeError("symbolic divisor must be a positive constant");
      // The factories fold constant operands with checked (aborting)
      // arithmetic; pre-validate so corrupt constants throw instead.
      if (a->kind() == SymExpr::Kind::Const && b->kind() == SymExpr::Kind::Const) {
        const i128 x = a->constValue();
        const i128 y = b->constValue();
        i128 folded = 0;
        if (kind == SymExpr::Kind::Add) folded = x + y;
        if (kind == SymExpr::Kind::Mul) folded = x * y;
        if (folded < static_cast<i128>(INT64_MIN) || folded > static_cast<i128>(INT64_MAX))
          throw SerializeError("symbolic constant overflow");
      }
      switch (kind) {
        case SymExpr::Kind::Add:
          return SymExpr::add(std::move(a), std::move(b));
        case SymExpr::Kind::Mul:
          return SymExpr::mul(std::move(a), std::move(b));
        case SymExpr::Kind::FloorDiv:
          return SymExpr::floorDiv(std::move(a), std::move(b));
        case SymExpr::Kind::CeilDiv:
          return SymExpr::ceilDiv(std::move(a), std::move(b));
        case SymExpr::Kind::Min:
          return SymExpr::min(std::move(a), std::move(b));
        default:
          return SymExpr::max(std::move(a), std::move(b));
      }
    }
  }
}

}  // namespace

// ---- hand-written readers (declared in support/field_codec.h) --------------

void readValue(Decoder& d, IntMat& m) {
  ByteReader& r = d.in;
  expectTag(r, kTagIntMat, "IntMat");
  int rows = readShape(r, "matrix rows");
  int cols = readShape(r, "matrix cols");
  u64 cells = static_cast<u64>(rows) * static_cast<u64>(cols);
  if (cells * 8 > r.remaining()) throw SerializeError("truncated matrix data");
  m = IntMat(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m.at(i, j) = r.i64v();
}

void readValue(Decoder& d, Polyhedron& p) {
  ByteReader& r = d.in;
  expectTag(r, kTagPolyhedron, "Polyhedron");
  int dim = readShape(r, "polyhedron dim");
  int nparam = readShape(r, "polyhedron nparam");
  IntMat eqs, ineqs;
  readValue(d, eqs);
  readValue(d, ineqs);
  bool empty = r.boolean();
  int cols = dim + nparam + 1;
  if ((eqs.rows() > 0 && eqs.cols() != cols) || (ineqs.rows() > 0 && ineqs.cols() != cols))
    throw SerializeError("polyhedron constraint width mismatch");
  p = Polyhedron(dim, nparam);
  for (int i = 0; i < eqs.rows(); ++i) p.addEquality(eqs.row(i));
  for (int i = 0; i < ineqs.rows(); ++i) p.addInequality(ineqs.row(i));
  // The byte is a claim, not an answer: the stored emptiness answer is
  // always derived from the constraints read, so hostile bytes cannot plant
  // a wrong one. A claimed-empty set that is not empty by the constraints
  // is made empty explicitly.
  if (empty && !p.isEmpty()) {
    // Original was marked empty by an integer-infeasibility test the
    // rational relaxation cannot reproduce; reinstate with 0 >= 1.
    IntVec contradiction(cols, 0);
    contradiction.back() = -1;
    p.addInequality(contradiction);
  }
}

void readValue(Decoder& d, ExprPtr& e) { e = readExpr(d.in, 0); }

void readValue(Decoder& d, SymPtr& e) { e = readSymExpr(d.in, 0); }

void readValue(Decoder& d, std::vector<AstPtr>& children) {
  expectTag(d.in, kTagList, "AST children");
  const u64 n = d.in.count();
  if (n > 0 && d.astDepth >= kMaxAstDepth) throw SerializeError("AST nesting too deep");
  ++d.astDepth;
  children.clear();
  for (u64 i = 0; i < n; ++i) {
    children.push_back(AstPtr::make());
    readValue(d, children.back().mut());
  }
  --d.astDepth;
}

// ---- post-read hooks (declared in support/field_codec.h) -------------------

void finishDecode(BindSlot& s) {
  // A Formula slot with no formula would make the binder's argument fill
  // reject every request; hostile bytes must surface here instead.
  if (s.kind == BindSlot::Kind::Formula && s.formula == nullptr)
    throw SerializeError("formula bind slot without a formula");
}

void finishDecode(FamilyGuard& g) {
  // Symbolic guards without both sides could never be evaluated; reject the
  // bytes rather than admit a guard the binder must treat as violated.
  if (g.kind != FamilyGuard::Kind::BufExtentEq && (g.lhs == nullptr || g.rhs == nullptr))
    throw SerializeError("symbolic family guard missing an operand");
}

void finishDecode(FamilyPlan& plan) {
  // Every bind clones the record; settle its answers once, here.
  if (plan.record != nullptr) settleDerivedAnswers(*plan.record);
}

/// A friend of ParametricTilePlan: structural validation of the decoded
/// formulas and symbol-table reconstruction.
void finishDecode(ParametricTilePlan& plan) {
  checkShape(plan.depth_, "plan depth");
  checkShape(plan.np_, "plan size-parameter count");
  if (plan.tilableDepth_ < 0 || plan.tilableDepth_ > plan.depth_)
    throw SerializeError("plan tilable depth out of range");
  for (const ParametricTilePlan::ArrayFormula& af : plan.arrays_) {
    checkShape(af.numRefs, "array reference count");
    for (const ParametricTilePlan::ComponentFormula& comp : af.comps) {
      if (comp.pairs.size() != comp.refs.size() * comp.refs.size())
        throw SerializeError("pair predicate count mismatch");
      if (comp.globalIdx.size() != comp.refs.size())
        throw SerializeError("component global index arity mismatch");
      // compileTables() indexes member 0's boxes, so every
      // component needs at least one reference and congruent shapes; ragged
      // or empty components would read out of bounds.
      if (comp.refs.empty()) throw SerializeError("empty component formula");
      for (const ParametricTilePlan::RefFormula& rf : comp.refs) {
        if (rf.ctxBox.size() != comp.refs[0].ctxBox.size() ||
            rf.rawBox.size() != comp.refs[0].rawBox.size())
          throw SerializeError("ragged reference box dimensions");
        if (rf.usesOrigin.size() != static_cast<size_t>(plan.depth_))
          throw SerializeError("reference origin-bit arity mismatch");
      }
    }
    if (af.refLoc.size() != static_cast<size_t>(af.numRefs))
      throw SerializeError("array reference location arity mismatch");
    for (const auto& [ci, li] : af.refLoc) {
      if (ci < 0 || static_cast<size_t>(ci) >= af.comps.size() || li < 0 ||
          static_cast<size_t>(li) >= af.comps[ci].refs.size())
        throw SerializeError("array reference location out of range");
    }
    // globalIdx must be the exact inverse of refLoc: evaluate() feeds it
    // into an unchecked union-find over numRefs members, so any other
    // value is memory-unsafe, not just wrong.
    for (size_t ci = 0; ci < af.comps.size(); ++ci) {
      const std::vector<int>& gidx = af.comps[ci].globalIdx;
      for (size_t li = 0; li < gidx.size(); ++li) {
        const int g = gidx[li];
        if (g < 0 || g >= af.numRefs ||
            af.refLoc[g] != std::make_pair(static_cast<int>(ci), static_cast<int>(li)))
          throw SerializeError("component global index inconsistent with refLoc");
      }
    }
  }
  // Symbol-table reconstruction. The checks inside run as EMM_REQUIRE
  // (ApiError); convert so hostile input stays a clean SerializeError for
  // the disk tier.
  rethrowAsSerializeError("parametric plan", [&] { plan.rebuildSymbols(); });
  if (static_cast<int>(plan.defaultBinding_.ext.size()) != plan.np_ + plan.depth_ ||
      static_cast<int>(plan.defaultBinding_.loopRange.size()) != plan.depth_)
    throw SerializeError("parametric plan binding arity mismatch");
  if (static_cast<int>(plan.analysis_.loopBounds.size()) != plan.depth_)
    throw SerializeError("parametric plan loop-bound arity mismatch");
  plan.compileTables();  // derived from the validated formulas
}

namespace {

/// A sink that keeps nothing: the settling walk only wants the derived
/// answers the writer computes on its way.
struct DiscardSink {
  void u8(unsigned char) {}
  void u64v(u64) {}
  void i64v(i64) {}
  void intv(int) {}
  void boolean(bool) {}
  void f64(double) {}
  void str(const std::string&) {}
};

// ---- the schema manifest ---------------------------------------------------
// Every serialized struct, field by field in wire order, generated from the
// field lists: "Name@tag{field:type,...};". Types read "[T]" for a list,
// "(A,B)" for a pair, "T?" for a value behind a presence byte, "enumN" for
// an enum whose largest value is N. serializeSchemaFingerprint() digests
// the text, so any change to a list retires stale .emmplan files.

class Manifest {
public:
  template <class T>
  std::string type();

  /// Records the entry of a type with a hand-written codec (once) and
  /// returns its name.
  std::string handWritten(const char* name, unsigned char tag, const std::string& fields) {
    if (handWritten_.insert(name).second)
      text += std::string(name) + "@" + std::to_string(tag) + "{" + fields + "};";
    return name;
  }

  std::map<const void*, std::string> names;  ///< per listed type
  std::string text = "emmplan-schema v4;";

private:
  std::set<std::string> handWritten_;
};

template <class T>
struct FieldManifest {
  Manifest& m;
  const void* key;
  std::string entry;
  std::vector<std::pair<bool T::*, const char*>> flags;  ///< for when()

  void tag(unsigned char t, const char* name) {
    m.names[key] = name;
    entry = std::string(name) + "@" + std::to_string(t) + "{";
  }
  void add(const char* name, const std::string& type) {
    if (entry.back() != '{') entry += ',';
    entry += std::string(name) + ":" + type;
  }
  template <class M>
  void operator()(const char* name, M T::*member) {
    if constexpr (std::is_same_v<M, bool>) flags.emplace_back(member, name);
    add(name, m.template type<M>());
  }
  template <class M>
  void nullable(const char* name, M T::*) {
    add(name, m.template type<M>() + "?");
  }
  template <class M>
  void when(bool T::*flag, const char* name, M T::*) {
    std::string cond;
    for (const auto& [f, flagName] : flags)
      if (f == flag) cond = flagName;
    add(name, m.template type<M>() + " if " + cond);
  }
  template <class B>
  void base(const char* name) {
    add(name, m.template type<B>());
  }
  template <class M, class P>
  void backref(const char* name, std::optional<M> T::*, P M::*) {
    add(name, "(blockRef:u8," + m.template type<M>() + ")?");
  }
  void skip(const char*, const char*) {}
};

template <class T>
std::string Manifest::type() {
  if constexpr (std::is_same_v<T, bool>) {
    return "bool";
  } else if constexpr (std::is_same_v<T, int>) {
    return "int";
  } else if constexpr (std::is_same_v<T, i64>) {
    return "i64";
  } else if constexpr (std::is_same_v<T, double>) {
    return "f64";
  } else if constexpr (std::is_enum_v<T>) {
    return "enum" + std::to_string(static_cast<i64>(enumMax(T{})));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "str";
  } else if constexpr (std::is_same_v<T, std::vector<AstPtr>>) {
    return "[" + type<AstNode>() + "]";
  } else if constexpr (kIsA<std::vector, T>) {
    return "[" + type<typename T::value_type>() + "]";
  } else if constexpr (kIsA<std::pair, T>) {
    return "(" + type<typename T::first_type>() + "," + type<typename T::second_type>() + ")";
  } else if constexpr (kIsA<std::optional, T>) {
    return type<typename T::value_type>() + "?";
  } else if constexpr (kIsA<DeepPtr, T>) {
    return type<typename T::element_type>() + "?";
  } else if constexpr (std::is_same_v<T, IntMat>) {
    return handWritten("IntMat", kTagIntMat, "rows:int,cols:int,entries:i64*rows*cols");
  } else if constexpr (std::is_same_v<T, Polyhedron>) {
    const std::string mat = type<IntMat>();
    return handWritten("Polyhedron", kTagPolyhedron,
                       "dim:int,nparam:int,eqs:" + mat + ",ineqs:" + mat + ",empty:bool");
  } else if constexpr (std::is_same_v<T, ExprPtr>) {
    return handWritten("Expr", kTagExpr,
                       "kind:enum" + std::to_string(static_cast<i64>(Expr::Kind::Max)) +
                           ",Const:f64|Load:int|Abs:Expr|lhs:Expr,rhs:Expr");
  } else if constexpr (std::is_same_v<T, SymPtr>) {
    return handWritten("SymExpr", kTagSymExpr,
                       "kind:enum" + std::to_string(static_cast<i64>(SymExpr::Kind::Max)) +
                           ",Const:i64|Param:int,str|lhs:SymExpr,rhs:SymExpr");
  } else if constexpr (kIsA<std::shared_ptr, T>) {
    return type<std::remove_const_t<typename T::element_type>>();
  } else if constexpr (kIsA<Cow, T>) {
    return type<typename T::element_type>();
  } else if constexpr (kIsA<RebindOnCopy, T>) {
    return type<typename T::Members>();
  } else {
    static const char key = 0;  // one per listed type
    if (auto it = names.find(&key); it != names.end()) return it->second;
    FieldManifest<T> v{*this, &key, {}, {}};
    FieldAccess::visit<T>(v);
    text += v.entry + "};";
    return names[&key];
  }
}

}  // namespace

// ---- public API ----------------------------------------------------------

u64 digestBytes(std::string_view bytes) {
  Hasher h;  // the one FNV-1a implementation, shared with the cache keys
  h.bytes(bytes.data(), bytes.size());
  return h.digest();
}

const std::string& serializeSchemaManifest() {
  static const std::string text = [] {
    Manifest m;
    m.type<CompileResult>();
    m.type<CompileOptions>();
    m.type<ProgramBlock>();
    m.type<FamilyPlan>();
    return m.text;
  }();
  return text;
}

u64 serializeSchemaFingerprint() {
  static const u64 fp = digestBytes(serializeSchemaManifest());
  return fp;
}

void ByteWriter::f64(double v) {
  u64 bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64v(bits);
}

void ByteWriter::str(const std::string& s) {
  u64v(s.size());
  buf_.append(s);
}

void ByteWriter::bytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void ByteReader::truncated(size_t n) const {
  throw SerializeError("truncated input (" + std::to_string(n) + " bytes wanted, " +
                       std::to_string(remaining()) + " left)");
}

int ByteReader::intv() {
  i64 v = i64v();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw SerializeError("int field out of range: " + std::to_string(v));
  return static_cast<int>(v);
}

bool ByteReader::boolean() {
  unsigned char v = u8();
  if (v > 1) throw SerializeError("bad boolean byte " + std::to_string(v));
  return v == 1;
}

double ByteReader::f64() {
  u64 bits = u64v();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  u64 n = count();
  const unsigned char* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

u64 ByteReader::count(u64 minBytesPerElement) {
  u64 n = u64v();
  if (minBytesPerElement > 0 && n > remaining() / minBytesPerElement)
    throw SerializeError("count " + std::to_string(n) + " exceeds remaining input");
  return n;
}

void ByteReader::expectEnd() const {
  if (!atEnd())
    throw SerializeError("trailing garbage: " + std::to_string(remaining()) + " bytes");
}

std::string serializeCompileResult(const CompileResult& result) { return encode(result); }

void settleDerivedAnswers(const CompileResult& result) {
  DiscardSink sink;
  writeValue(sink, result);
}

CompileResult deserializeCompileResult(std::string_view bytes) {
  return decode<CompileResult>(bytes, "compile result");
}

std::string serializeProgramBlock(const ProgramBlock& block) { return encode(block); }

ProgramBlock deserializeProgramBlock(std::string_view bytes) {
  ProgramBlock b = decode<ProgramBlock>(bytes, "program block");
  rethrowAsSerializeError("program block", [&] { b.validate(); });
  return b;
}

std::string serializeCompileOptions(const CompileOptions& o) { return encode(o); }

CompileOptions deserializeCompileOptions(std::string_view bytes) {
  return decode<CompileOptions>(bytes, "compile options");
}

std::string serializeFamilyPlan(const FamilyPlan& plan) { return encode(plan); }

std::shared_ptr<const FamilyPlan> deserializeFamilyPlan(std::string_view bytes) {
  return std::make_shared<const FamilyPlan>(decode<FamilyPlan>(bytes, "family plan"));
}

}  // namespace emm
