#include "testgen/planted_bug.h"

#include "driver/compiler.h"

namespace emm::testgen {

namespace {

struct SubtreeScan {
  bool hasCopy = false;
  bool hasCall = false;
};

SubtreeScan scan(const AstNode& node) {
  SubtreeScan s;
  if (node.kind == AstNode::Kind::Copy) s.hasCopy = true;
  if (node.kind == AstNode::Kind::Call) s.hasCall = true;
  for (const AstPtr& child : node.children) {
    const SubtreeScan c = scan(*child);
    s.hasCopy |= c.hasCopy;
    s.hasCall |= c.hasCall;
  }
  return s;
}

/// Pre-order search for the first For that only moves data (copies, no
/// calls); decrements its upper bound by exactly one iteration.
bool corruptFirstCopyLoop(AstNode& node) {
  if (node.kind == AstNode::Kind::For) {
    const SubtreeScan s = scan(node);
    if (s.hasCopy && !s.hasCall && !node.ub.parts.empty()) {
      for (AffExpr& part : node.ub.parts) part.cnst -= part.den;  // ub - 1
      return true;
    }
  }
  for (AstPtr& child : node.children)
    if (corruptFirstCopyLoop(child.mut())) return true;
  return false;
}

}  // namespace

void PlantedTilerBugPass::run(CompileState& state) {
  PassRegistry::standard().create("codegen")->run(state);
  corrupted_ = false;
  if (state.kernel.has_value()) corrupted_ = corruptFirstCopyLoop(state.kernel->unit.root.mut());
}

void plantTilerBug(Compiler& compiler) {
  compiler.replacePass("codegen", std::make_shared<PlantedTilerBugPass>());
}

}  // namespace emm::testgen
