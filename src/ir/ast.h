// Loop AST for generated code.
//
// Code generation (the CLooG substitute, the data-movement generator and the
// multi-level tiler) produce this AST. It is both printable as C (for
// inspection and the worked examples) and executable by the interpreter in
// interp.h, which is how every codegen test validates *semantics* rather
// than text.
//
// Variables are referenced by name. An execution environment binds names to
// integer values; block parameters are pre-bound, loop iterators are bound
// by the enclosing For nodes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/program.h"
#include "support/deep_ptr.h"

namespace emm {

/// An affine expression over named variables with an optional positive
/// divisor: (sum coeff*var + const) / den, rounded per use (ceil in lower
/// bounds, floor in upper bounds, exact elsewhere).
struct AffExpr {
  std::vector<std::pair<std::string, i64>> terms;
  i64 cnst = 0;
  i64 den = 1;

  static AffExpr constant(i64 c);
  static AffExpr var(const std::string& name, i64 coeff = 1);

  AffExpr plus(i64 c) const;
  bool isConstant() const { return terms.empty(); }
  /// True if the expression mentions `name`.
  bool mentions(const std::string& name) const;

  /// Exact evaluation; aborts if den does not divide the numerator.
  i64 evalExact(const std::vector<std::pair<std::string, i64>>& env) const;
  i64 evalFloor(const std::vector<std::pair<std::string, i64>>& env) const;
  i64 evalCeil(const std::vector<std::pair<std::string, i64>>& env) const;

  std::string str(bool ceilMode = false) const;

  static constexpr void fields(auto& v) {
    v.tag(kTagAffExpr, "AffExpr");
    v("terms", &AffExpr::terms);
    v("cnst", &AffExpr::cnst);
    v("den", &AffExpr::den);
  }
};

/// max-of (for lower bounds) or min-of (for upper bounds) a list of AffExpr.
struct BoundExpr {
  std::vector<AffExpr> parts;
  bool isMax = true;  ///< true: lower bound (max/ceil); false: upper (min/floor)

  static BoundExpr single(AffExpr e, bool isMax);

  i64 eval(const std::vector<std::pair<std::string, i64>>& env) const;
  bool mentions(const std::string& name) const;
  std::string str() const;

  static constexpr void fields(auto& v) {
    v.tag(kTagBoundExpr, "BoundExpr");
    v("parts", &BoundExpr::parts);
    v("isMax", &BoundExpr::isMax);
  }
};

/// Execution flavor of a For node. Parallelism markers are semantic
/// annotations consumed by the machine mapper; the interpreter runs
/// everything sequentially (the framework guarantees this is equivalent).
enum class LoopKind { Sequential, BlockParallel, ThreadParallel };
constexpr LoopKind enumMax(LoopKind) { return LoopKind::ThreadParallel; }

struct AstNode;
/// Owning child pointer; a copy of a node shares its subtree until one
/// side writes it (support/deep_ptr.h).
using AstPtr = DeepPtr<AstNode>;

/// One node of generated code.
struct AstNode {
  enum class Kind {
    Block,    ///< sequence of children
    For,      ///< counted loop
    Guard,    ///< if (all guards >= 0) body
    Call,     ///< statement instance: args give original iterator values
    Copy,     ///< dst[dstIndex] = src[srcIndex] (one element)
    Sync,     ///< barrier among inner-level processes
    Comment,  ///< emitted verbatim
  };

  Kind kind = Kind::Block;

  // Block / For / Guard body
  std::vector<AstPtr> children;

  // For
  std::string iter;
  BoundExpr lb{{}, true};
  BoundExpr ub{{}, false};
  i64 step = 1;
  LoopKind loopKind = LoopKind::Sequential;

  // Guard: conjunction of affine expressions required to be >= 0
  std::vector<AffExpr> guards;

  // Call
  int stmtId = -1;
  std::vector<AffExpr> callArgs;

  // Copy
  int dstArray = -1;
  int srcArray = -1;
  std::vector<AffExpr> dstIndex;
  std::vector<AffExpr> srcIndex;

  // Comment
  std::string text;

  static AstPtr block();
  static AstPtr forLoop(std::string iter, BoundExpr lb, BoundExpr ub, i64 step = 1,
                        LoopKind kind = LoopKind::Sequential);
  static AstPtr guard(std::vector<AffExpr> guards);
  static AstPtr call(int stmtId, std::vector<AffExpr> args);
  static AstPtr copy(int dstArray, std::vector<AffExpr> dstIndex, int srcArray,
                     std::vector<AffExpr> srcIndex);
  static AstPtr sync();
  static AstPtr comment(std::string text);

  AstNode* addChild(AstPtr child);

  static constexpr void fields(auto& v) {
    v.tag(kTagAstNode, "AstNode");
    v("kind", &AstNode::kind);
    v("children", &AstNode::children);
    v("iter", &AstNode::iter);
    v("lb", &AstNode::lb);
    v("ub", &AstNode::ub);
    v("step", &AstNode::step);
    v("loopKind", &AstNode::loopKind);
    v("guards", &AstNode::guards);
    v("stmtId", &AstNode::stmtId);
    v("callArgs", &AstNode::callArgs);
    v("dstArray", &AstNode::dstArray);
    v("srcArray", &AstNode::srcArray);
    v("dstIndex", &AstNode::dstIndex);
    v("srcIndex", &AstNode::srcIndex);
    v("text", &AstNode::text);
  }
};

constexpr AstNode::Kind enumMax(AstNode::Kind) { return AstNode::Kind::Comment; }

/// A local (scratchpad) buffer: per-dimension lower/upper bounds as affine
/// expressions over block parameters. `sizeBounds` are the expressions valid
/// for allocation (they must not mention block-local parameters such as tile
/// origins); `offset` is the affine lower bound subtracted from global
/// indices (it may mention block-local parameters).
struct LocalBuffer {
  std::string name;
  int ndim = 0;
  std::vector<AffExpr> offset;       ///< one per dim; global index - offset = local index
  std::vector<BoundExpr> sizeExpr;   ///< one per dim; evaluates to extent
  /// Bank-conflict padding: extra elements allocated per dimension beyond
  /// the logical extent (src/smem/buffer_layout.h chooses them so the padded
  /// innermost pitch is coprime with the scratchpad bank count). Empty means
  /// no padding. Padding widens allocation strides only — logical indices
  /// and therefore semantics are unchanged, which is why the interpreter
  /// oracle certifies padded and unpadded units byte-identical.
  std::vector<i64> pad;

  /// Allocated extent of dimension d at `env`: logical extent plus padding.
  i64 paddedExtent(int d, const std::vector<std::pair<std::string, i64>>& env) const {
    i64 extent = sizeExpr[d].eval(env);
    if (d < static_cast<int>(pad.size())) extent = addChecked(extent, pad[d]);
    return extent;
  }

  static constexpr void fields(auto& v) {
    v.tag(kTagLocalBuffer, "LocalBuffer");
    v("name", &LocalBuffer::name);
    v("ndim", &LocalBuffer::ndim);
    v("offset", &LocalBuffer::offset);
    v("sizeExpr", &LocalBuffer::sizeExpr);
    v("pad", &LocalBuffer::pad);
  }
};

/// A compilable unit: AST plus the statement table it references (possibly
/// rewritten to target local buffers) and the local buffers themselves.
/// Array ids < numGlobalArrays refer to the source block's arrays; ids >=
/// that refer to localBuffers[id - numGlobalArrays].
struct CodeUnit {
  std::string name;
  const ProgramBlock* source = nullptr;
  Cow<std::vector<Statement>> statements;  ///< bodies for Call nodes (by stmtId)
  Cow<std::vector<LocalBuffer>> localBuffers;
  AstPtr root;

  int numGlobalArrays() const {
    return source == nullptr ? 0 : static_cast<int>(source->arrays.size());
  }

  static constexpr void fields(auto& v) {
    v.tag(kTagCodeUnit, "CodeUnit");
    v("name", &CodeUnit::name);
    v.skip("source", "back-pointer, rebound by the owner");
    v("statements", &CodeUnit::statements);
    v("localBuffers", &CodeUnit::localBuffers);
    v("root", &CodeUnit::root);
  }
};

}  // namespace emm
