// The emitter core shared by the c, cuda and cell targets (codegen/emit.h).
//
// Emitter owns everything the targets have in common: the bound
// environment, indentation, array naming, the AST node dispatch, the
// composition of a statement's access functions with its call arguments,
// the row-major linearization of global arrays (constant extents, or
// `<A>_n<q>` stride arguments in size-generic mode) and the size-parameter
// and stride bind slots. A target derives from it and supplies only what
// differs: the text around the body, the loop mapping, the rendering of an
// array reference and of a copy, and its EmitStyle.
#pragma once

#include <string>
#include <vector>

#include "codegen/emit.h"

namespace emm {

/// The per-target text choices of the shared node rendering.
struct EmitStyle {
  const char* commentOpen;   ///< "// " or "/* "
  const char* commentClose;  ///< "" or " */"
  const char* barrier;       ///< the statement a Sync node renders as
  bool parenGuards;          ///< "(g) >= 0" rather than "g >= 0"
  /// A call without a write access renders as "<comment>;" rather than
  /// nothing.
  bool renderNoWriteCalls;
  /// Global arrays are flat pointers indexed row-major (their strides are
  /// bind slots in size-generic mode) rather than multidimensional arrays.
  bool linearGlobals;
  int rootDepth;  ///< indentation of the unit's root
};

class Emitter {
public:
  /// Builds the bound environment from `options`; throws ApiError when the
  /// binding is shorter than options.numBoundParams.
  Emitter(const CodeUnit& unit, const CompileOptions& options, ArtifactInfo* info,
          const EmitStyle& style);
  virtual ~Emitter() = default;
  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  /// Renders the artifact and fills the ArtifactInfo, if any.
  std::string run();

protected:
  /// Everything before the root's walk, and everything after it.
  virtual void header() = 0;
  virtual void footer() = 0;
  virtual void emitFor(const AstNode& n, int depth) = 0;
  /// An array reference at a call site or in a plain copy.
  virtual std::string reference(int arrayId, const std::vector<AffExpr>& index) = 0;
  /// A Copy node; the default assigns reference(src) to reference(dst).
  virtual void emitCopy(const AstNode& n, int depth);
  /// Appends the target's own bind slots and guards to a size-generic
  /// artifact's info, after the size-parameter and stride slots.
  virtual void finishInfo(ArtifactInfo& info) { (void)info; }

  void emitNode(const AstNode& n, int depth);
  void emitChildren(const AstNode& n, int depth);
  /// Appends two spaces per depth level.
  void indent(int depth);
  /// Appends one indented line.
  void line(int depth, const std::string& text);
  /// "for (int <iter> = <init>; <iter> <= <ub>; <iter> += <increment>) {"
  /// plus `trailer`, the children one level deeper, and the closing brace.
  void intLoop(const AstNode& n, int depth, const std::string& init,
               const std::string& increment, const char* trailer = "");

  bool isLocal(int arrayId) const { return arrayId >= unit_.numGlobalArrays(); }
  const std::string& arrayName(int arrayId) const;
  /// "[e0][e1]..." over the index expressions.
  static std::string bracketIndex(const std::vector<AffExpr>& index);
  /// Row-major element offset of a global array reference:
  /// "(e0) * s1 * s2 + (e1) * s2 + (e2)".
  std::string linearIndex(int arrayId, const std::vector<std::string>& index) const;
  std::string linearIndex(int arrayId, const std::vector<AffExpr>& index) const;

  const CodeUnit& unit_;
  const CompileOptions& opts_;
  ArtifactInfo* info_;
  const EmitStyle style_;
  BoundEnv env_;
  /// Size-generic emission: starts as options.runtimeSizeArgs; a target
  /// that cannot honour it clears it before run().
  bool sizeGeneric_;
  /// The `<A>_n<q>` stride arguments of the global arrays, in signature
  /// order (size-generic linearGlobals targets only; filled by run()).
  std::vector<BindSlot> strides_;
  std::string out_;

private:
  void emitCall(const AstNode& n, int depth);
};

/// The cuda and cell targets (codegen/emit_cuda.cpp, codegen/emit_cell.cpp),
/// as emitArtifact dispatches to them.
std::string renderCuda(const CodeUnit& unit, const CompileOptions& options,
                       const BufferLayout* layout, ArtifactInfo* info);
std::string renderCell(const CodeUnit& unit, const CompileOptions& options, ArtifactInfo* info);

}  // namespace emm
