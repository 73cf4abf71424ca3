#include "codegen/emit_cell.h"

#include <set>
#include <sstream>

namespace emm {

namespace {

/// What a subtree contains, for pipeline-stage classification.
struct SubtreeScan {
  bool hasCall = false;
  bool hasMoveIn = false;   ///< global -> local Copy
  bool hasMoveOut = false;  ///< local -> global Copy
};

void scanSubtree(const AstNode& n, int numGlobalArrays, SubtreeScan& s) {
  if (n.kind == AstNode::Kind::Call) s.hasCall = true;
  if (n.kind == AstNode::Kind::Copy) {
    const bool dstLocal = n.dstArray >= numGlobalArrays;
    const bool srcLocal = n.srcArray >= numGlobalArrays;
    if (dstLocal && !srcLocal) s.hasMoveIn = true;
    if (!dstLocal && srcLocal) s.hasMoveOut = true;
  }
  for (const AstPtr& c : n.children) scanSubtree(*c, numGlobalArrays, s);
}

/// A pure move-in stage: stages data into the local store and does nothing
/// else, so it can be hoisted into a prefetch slot.
bool isMoveInSubtree(const AstNode& n, int numGlobalArrays) {
  SubtreeScan s;
  scanSubtree(n, numGlobalArrays, s);
  return s.hasMoveIn && !s.hasCall && !s.hasMoveOut;
}

void renameVarInAff(AffExpr& e, const std::string& from, const std::string& to) {
  for (auto& [name, coeff] : e.terms)
    if (name == from) name = to;
}

/// Renames free occurrences of iterator `from` to `to` throughout the
/// subtree (used to retarget a move-in stage at the NEXT pipeline
/// iteration). Stops at a loop that rebinds the name.
void renameVar(AstNode& n, const std::string& from, const std::string& to) {
  for (AffExpr& p : n.lb.parts) renameVarInAff(p, from, to);
  for (AffExpr& p : n.ub.parts) renameVarInAff(p, from, to);
  for (AffExpr& g : n.guards) renameVarInAff(g, from, to);
  for (AffExpr& a : n.callArgs) renameVarInAff(a, from, to);
  for (AffExpr& e : n.dstIndex) renameVarInAff(e, from, to);
  for (AffExpr& e : n.srcIndex) renameVarInAff(e, from, to);
  if (n.kind == AstNode::Kind::For && n.iter == from) return;  // shadowed below
  for (const AstPtr& c : n.children) renameVar(*c, from, to);
}

class CellEmitter {
public:
  CellEmitter(const CodeUnit& unit, const CellEmitOptions& options, ArtifactInfo* info)
      : unit_(unit), opts_(options), info_(info) {
    EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
    int bound = opts_.numBoundParams < 0 ? static_cast<int>(opts_.paramValues.size())
                                         : opts_.numBoundParams;
    EMM_CHECK(static_cast<int>(opts_.paramValues.size()) >= bound,
              "parameter binding shorter than numBoundParams");
    for (int j = 0; j < bound; ++j)
      env_.emplace_back(unit.source->paramNames[j], opts_.paramValues[j]);
    if (opts_.doubleBuffer) planDoubleBuffer();
  }

  std::string emit() {
    std::ostringstream os;
    os << "// Generated by emmap (Baskaran et al. PPoPP'08 reproduction).\n";
    os << "// SPE kernel " << opts_.kernelName << " for block '" << unit_.source->name
       << "' (Cell-like target: all references staged through the local store).\n";
    if (!dbNote_.empty()) os << "// " << dbNote_ << "\n";
    os << "\n";

    // SPE signature: one effective address per global array + bound
    // parameters + the SPE's position in the gang.
    os << "void " << opts_.kernelName << "_spe(";
    for (size_t a = 0; a < unit_.source->arrays.size(); ++a)
      os << "uint64_t " << unit_.source->arrays[a].name << "_ea, ";
    for (size_t j = 0; j < env_.size(); ++j) os << "int " << env_[j].first << ", ";
    if (opts_.symbolicSizes) {
      // Global-array strides are runtime arguments in size-generic mode, so
      // DMA displacement math never bakes a problem size into the text.
      for (size_t a = 0; a < unit_.source->arrays.size(); ++a) {
        const ArrayDecl& d = unit_.source->arrays[a];
        for (int q = 1; q < d.ndim(); ++q)
          os << "long " << d.name << "_n" << q << ", ";
      }
    }
    os << "int spe_id, int num_spes) {\n";

    // Local-store buffers with folded extents. Pipelined buffers get a
    // leading rotation dimension: [0] and [1] alternate between the tile
    // being computed and the tile in flight.
    for (size_t i = 0; i < unit_.localBuffers.size(); ++i) {
      const LocalBuffer& b = unit_.localBuffers[i];
      const bool rotated = dbLoop_ != nullptr && rotatedLocal_.count(static_cast<int>(i)) > 0;
      os << "  static " << opts_.elementType << " " << b.name;
      if (rotated) os << "[2]";
      for (int d = 0; d < b.ndim; ++d) {
        i64 extent = b.paddedExtent(d, env_);
        EMM_CHECK(extent > 0, "buffer extent must fold to a positive constant for the SPE");
        os << "[" << extent << "]";
      }
      os << " __attribute__((aligned(128)));  // local store"
         << (rotated ? ", double-buffered" : "") << "\n";
    }
    os << "\n";
    if (unit_.root != nullptr) emitNode(*unit_.root, os, 1);
    os << "}\n\n";
    emitLaunchStub(os);
    if (info_ != nullptr) fillArtifactInfo();
    return os.str();
  }

private:
  void indent(std::ostringstream& os, int depth) {
    for (int i = 0; i < depth; ++i) os << "  ";
  }

  bool isLocal(int arrayId) const { return arrayId >= unit_.numGlobalArrays(); }

  std::string arrayName(int arrayId) const {
    int nglobal = unit_.numGlobalArrays();
    if (arrayId < nglobal) return unit_.source->arrays[arrayId].name;
    std::string name = unit_.localBuffers[arrayId - nglobal].name;
    // Inside the pipelined region a rotated buffer is addressed through the
    // current rotation selector.
    if (!dbSel_.empty() && rotatedLocal_.count(arrayId - nglobal) > 0)
      name += "[" + dbSel_ + "]";
    return name;
  }

  /// Trailing DMA-tag argument in the pipelined region ("" = classic 3-arg
  /// form with a global fence).
  std::string dmaTagArg() const { return dmaTag_.empty() ? "" : ", " + dmaTag_; }

  /// Flat element offset of a global array reference (row-major, declared
  /// extents), used as the DMA effective-address displacement.
  std::string flatOffsetText(int arrayId, const std::vector<std::string>& index) const {
    const ArrayDecl& d = unit_.source->arrays[arrayId];
    std::ostringstream os;
    for (int k = 0; k < d.ndim(); ++k) {
      if (k > 0) os << " + ";
      os << "(" << index[k] << ")";
      for (int q = k + 1; q < d.ndim(); ++q) {
        if (opts_.symbolicSizes)
          os << " * " << d.name << "_n" << q;
        else
          os << " * " << d.extents[q];
      }
    }
    return os.str();
  }

  std::string flatOffset(int arrayId, const std::vector<AffExpr>& index) const {
    std::vector<std::string> texts;
    for (const AffExpr& e : index) texts.push_back(e.str());
    return flatOffsetText(arrayId, texts);
  }

  /// True when the loop iterator advances `index` contiguously: it appears
  /// with coefficient 1 in the last (fastest-varying) dimension and nowhere
  /// else, so consecutive iterations touch consecutive elements.
  static bool rowContiguous(const std::vector<AffExpr>& index, const std::string& iter) {
    if (index.empty()) return false;
    for (size_t d = 0; d + 1 < index.size(); ++d)
      if (index[d].mentions(iter)) return false;
    const AffExpr& last = index.back();
    if (last.den != 1) return false;
    i64 coeff = 0;
    for (const auto& [name, c] : last.terms)
      if (name == iter) coeff = addChecked(coeff, c);
    return coeff == 1;
  }

  /// Renders `e` with the single unit-coefficient `iter` term replaced by
  /// `repl` (used to pin a row copy's start at the loop lower bound).
  static std::string substIter(const AffExpr& e, const std::string& iter,
                               const std::string& repl) {
    AffExpr stripped = e;
    std::erase_if(stripped.terms, [&](const auto& t) { return t.first == iter; });
    if (stripped.terms.empty() && stripped.cnst == 0) return "(" + repl + ")";
    return stripped.str() + " + (" + repl + ")";
  }

  std::string localIndex(const std::vector<AffExpr>& index) const {
    std::ostringstream os;
    for (const AffExpr& e : index) os << "[" << e.str() << "]";
    return os.str();
  }

  void emitNode(const AstNode& n, std::ostringstream& os, int depth) {
    switch (n.kind) {
      case AstNode::Kind::Block:
        for (const AstPtr& c : n.children) emitNode(*c, os, depth);
        break;
      case AstNode::Kind::For:
        emitFor(n, os, depth);
        break;
      case AstNode::Kind::Guard: {
        indent(os, depth);
        os << "if (";
        for (size_t i = 0; i < n.guards.size(); ++i)
          os << (i ? " && " : "") << "(" << n.guards[i].str() << ") >= 0";
        os << ") {\n";
        for (const AstPtr& c : n.children) emitNode(*c, os, depth + 1);
        indent(os, depth);
        os << "}\n";
        break;
      }
      case AstNode::Kind::Call:
        emitCall(n, os, depth);
        break;
      case AstNode::Kind::Copy:
        emitCopy(n, os, depth);
        break;
      case AstNode::Kind::Sync:
        indent(os, depth);
        os << "mfc_read_tag_status_all();  // DMA fence\n";
        break;
      case AstNode::Kind::Comment:
        indent(os, depth);
        os << "// " << n.text << "\n";
        break;
    }
  }

  void emitCopy(const AstNode& n, std::ostringstream& os, int depth) {
    indent(os, depth);
    const bool dstLocal = isLocal(n.dstArray);
    const bool srcLocal = isLocal(n.srcArray);
    if (dstLocal && !srcLocal) {
      // Move-in: global memory -> local store.
      os << "dma_get(&" << arrayName(n.dstArray) << localIndex(n.dstIndex) << ", "
         << arrayName(n.srcArray) << "_ea + sizeof(" << opts_.elementType << ") * ("
         << flatOffset(n.srcArray, n.srcIndex) << "), sizeof(" << opts_.elementType << ")"
         << dmaTagArg() << ");\n";
    } else if (!dstLocal && srcLocal) {
      // Move-out: local store -> global memory.
      os << "dma_put(&" << arrayName(n.srcArray) << localIndex(n.srcIndex) << ", "
         << arrayName(n.dstArray) << "_ea + sizeof(" << opts_.elementType << ") * ("
         << flatOffset(n.dstArray, n.dstIndex) << "), sizeof(" << opts_.elementType << ")"
         << dmaTagArg() << ");\n";
    } else {
      // Local-to-local (or staged global-to-global) copies stay plain.
      os << arrayName(n.dstArray) << localIndex(n.dstIndex) << " = " << arrayName(n.srcArray)
         << localIndex(n.srcIndex) << ";\n";
    }
  }

  /// Collapses an innermost unit-stride copy loop into one strided DMA
  /// transfer per row:
  ///   for (m = lb..ub) dma_get(&L[..][m - off], A_ea + sz*(.. + m), sz);
  /// becomes
  ///   dma_get(&L[..][lb - off], A_ea + sz*(.. + lb), sz * (ub - lb + 1));
  /// Returns false (caller emits the plain loop) unless the loop body is a
  /// single global<->local copy contiguous in the iterator on both sides.
  bool tryEmitCoalescedDma(const AstNode& loop, std::ostringstream& os, int depth) {
    if (loop.step != 1 || loop.children.size() != 1) return false;
    const AstNode& copy = *loop.children[0];
    if (copy.kind != AstNode::Kind::Copy) return false;
    const bool dstLocal = isLocal(copy.dstArray);
    const bool srcLocal = isLocal(copy.srcArray);
    if (dstLocal == srcLocal) return false;  // local<->local copies stay plain
    if (!rowContiguous(copy.dstIndex, loop.iter) || !rowContiguous(copy.srcIndex, loop.iter))
      return false;

    const std::string lb = loop.lb.str();
    const std::string ub = loop.ub.str();
    const std::string count = "(" + ub + ") - (" + lb + ") + 1";
    auto localStart = [&](const std::vector<AffExpr>& idx) {
      std::ostringstream s;
      for (size_t d = 0; d + 1 < idx.size(); ++d) s << "[" << idx[d].str() << "]";
      s << "[" << substIter(idx.back(), loop.iter, lb) << "]";
      return s.str();
    };
    auto globalStart = [&](int arrayId, const std::vector<AffExpr>& idx) {
      std::vector<std::string> texts;
      for (size_t d = 0; d + 1 < idx.size(); ++d) texts.push_back(idx[d].str());
      texts.push_back(substIter(idx.back(), loop.iter, lb));
      return flatOffsetText(arrayId, texts);
    };
    indent(os, depth);
    // The row can be empty at boundary tiles; guard like the loop would.
    os << "if ((" << ub << ") >= (" << lb << ")) ";
    if (dstLocal) {
      os << "dma_get(&" << arrayName(copy.dstArray) << localStart(copy.dstIndex) << ", "
         << arrayName(copy.srcArray) << "_ea + sizeof(" << opts_.elementType << ") * ("
         << globalStart(copy.srcArray, copy.srcIndex) << "), sizeof(" << opts_.elementType
         << ") * (" << count << ")" << dmaTagArg() << ");  // coalesced row\n";
    } else {
      os << "dma_put(&" << arrayName(copy.srcArray) << localStart(copy.srcIndex) << ", "
         << arrayName(copy.dstArray) << "_ea + sizeof(" << opts_.elementType << ") * ("
         << globalStart(copy.dstArray, copy.dstIndex) << "), sizeof(" << opts_.elementType
         << ") * (" << count << ")" << dmaTagArg() << ");  // coalesced row\n";
    }
    return true;
  }

  /// Picks the pipeline stage loop and checks the doubled footprint. Called
  /// from the constructor when options.doubleBuffer is set; on any failure
  /// dbLoop_ stays null and dbNote_ records why (emitted as a leading
  /// comment, synchronous schedule follows).
  void planDoubleBuffer() {
    if (unit_.root == nullptr) return;
    dbLoop_ = findPipelineLoop(*unit_.root);
    if (dbLoop_ == nullptr) {
      dbNote_ = "double-buffering requested, but no loop stages data ahead of compute; "
                "synchronous schedule emitted.";
      return;
    }
    const int nglobal = unit_.numGlobalArrays();
    for (const AstPtr& c : dbLoop_->children)
      if (isMoveInSubtree(*c, nglobal)) collectMoveInDsts(*c, nglobal);
    // Fit check: rotated buffers are allocated twice.
    i64 elems = 0;
    for (size_t i = 0; i < unit_.localBuffers.size(); ++i) {
      const LocalBuffer& b = unit_.localBuffers[i];
      i64 footprint = 1;
      for (int d = 0; d < b.ndim; ++d) footprint = mulChecked(footprint, b.paddedExtent(d, env_));
      if (rotatedLocal_.count(static_cast<int>(i)) > 0) footprint = mulChecked(footprint, 2);
      elems = addChecked(elems, footprint);
    }
    const i64 bytes = mulChecked(elems, opts_.elementBytes);
    if (rotatedLocal_.empty() || bytes > opts_.localStoreBudgetBytes) {
      if (!rotatedLocal_.empty())
        dbNote_ = "double-buffering requested, but the doubled footprint (" +
                  std::to_string(bytes) + " bytes) exceeds the " +
                  std::to_string(opts_.localStoreBudgetBytes) +
                  "-byte local store; synchronous schedule emitted.";
      else
        dbNote_ = "double-buffering requested, but the staged stage moves no data in; "
                  "synchronous schedule emitted.";
      dbLoop_ = nullptr;
      rotatedLocal_.clear();
    }
  }

  /// Deepest Sequential loop whose direct children hold both pure move-in
  /// stages and compute: the natural software-pipelining point, because its
  /// per-iteration DMA can overlap the previous iteration's compute.
  const AstNode* findPipelineLoop(const AstNode& n) const {
    const AstNode* deepest = nullptr;
    for (const AstPtr& c : n.children)
      if (const AstNode* inner = findPipelineLoop(*c)) deepest = inner;
    if (deepest != nullptr) return deepest;
    if (n.kind != AstNode::Kind::For || n.loopKind != LoopKind::Sequential) return nullptr;
    const int nglobal = unit_.numGlobalArrays();
    bool moveIn = false, call = false;
    for (const AstPtr& c : n.children) {
      if (isMoveInSubtree(*c, nglobal)) moveIn = true;
      SubtreeScan s;
      scanSubtree(*c, nglobal, s);
      call |= s.hasCall;
    }
    return moveIn && call ? &n : nullptr;
  }

  void collectMoveInDsts(const AstNode& n, int nglobal) {
    if (n.kind == AstNode::Kind::Copy && n.dstArray >= nglobal)
      rotatedLocal_.insert(n.dstArray - nglobal);
    for (const AstPtr& c : n.children) collectMoveInDsts(*c, nglobal);
  }

  /// Renders the pipeline loop: prologue prefetch of the first tile, then a
  /// steady state that waits on the current tile's tag, issues the NEXT
  /// tile's move-in on the opposite tag, computes, and flips the selector.
  /// Move-in data for iteration i is always requested one iteration early,
  /// so its DMA flight time overlaps iteration i-1's compute.
  void emitPipelinedFor(const AstNode& n, std::ostringstream& os, int depth) {
    const int nglobal = unit_.numGlobalArrays();
    const std::string next = n.iter + "_nxt";

    // Group a "// move-in ..." banner comment with the stage it announces.
    std::vector<bool> inPrefetch(n.children.size(), false);
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (!isMoveInSubtree(*n.children[i], nglobal)) continue;
      inPrefetch[i] = true;
      if (i > 0 && n.children[i - 1]->kind == AstNode::Kind::Comment) inPrefetch[i - 1] = true;
    }
    auto emitMoveIns = [&](const std::string& iterValue, int d) {
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (!inPrefetch[i]) continue;
        AstPtr copy = n.children[i];
        renameVar(*copy, n.iter, iterValue);
        emitNode(*copy, os, d);
      }
    };

    indent(os, depth);
    os << "int emm_db = 0;  // double-buffer selector\n";
    indent(os, depth);
    os << "{  // pipeline prologue: stage the first " << n.iter << " tile on tag 0\n";
    indent(os, depth + 1);
    os << "int " << n.iter << " = " << n.lb.str() << ";\n";
    dbSel_ = "emm_db";
    dmaTag_ = "emm_db";
    emitMoveIns(n.iter, depth + 1);
    dbSel_.clear();
    dmaTag_.clear();
    indent(os, depth);
    os << "}\n";

    indent(os, depth);
    os << "for (int " << n.iter << " = " << n.lb.str() << "; " << n.iter
       << " <= " << n.ub.str() << "; " << n.iter << " += " << n.step
       << ") {  // software-pipelined\n";
    indent(os, depth + 1);
    os << "mfc_write_tag_mask(1 << emm_db); mfc_read_tag_status_all();  // wait on this tile\n";
    indent(os, depth + 1);
    os << "{  // prefetch the next tile on the opposite tag\n";
    indent(os, depth + 2);
    os << "int " << next << " = " << n.iter << " + " << n.step << ";\n";
    indent(os, depth + 2);
    os << "if (" << next << " <= " << n.ub.str() << ") {\n";
    dbSel_ = "1 - emm_db";
    dmaTag_ = "1 - emm_db";
    emitMoveIns(next, depth + 3);
    dbSel_.clear();
    dmaTag_.clear();
    indent(os, depth + 2);
    os << "}\n";
    indent(os, depth + 1);
    os << "}\n";

    // The rest of the body in original order, computing on this tile's
    // buffer half. In-loop fences would stall the in-flight prefetch, so
    // they are elided: the per-tag wait above is the only synchronization.
    dbSel_ = "emm_db";
    dmaTag_ = "emm_db";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (inPrefetch[i]) continue;
      if (n.children[i]->kind == AstNode::Kind::Sync) {
        indent(os, depth + 1);
        os << "// DMA fence elided: per-tag wait covers this tile\n";
        continue;
      }
      emitNode(*n.children[i], os, depth + 1);
    }
    dbSel_.clear();
    dmaTag_.clear();
    indent(os, depth + 1);
    os << "emm_db = 1 - emm_db;  // rotate buffers\n";
    indent(os, depth);
    os << "}\n";
  }

  void emitFor(const AstNode& n, std::ostringstream& os, int depth) {
    if (&n == dbLoop_) {
      emitPipelinedFor(n, os, depth);
      return;
    }
    if (opts_.coalesceDma && n.loopKind == LoopKind::Sequential &&
        tryEmitCoalescedDma(n, os, depth))
      return;
    switch (n.loopKind) {
      case LoopKind::BlockParallel:
        indent(os, depth);
        if (blockDims_++ == 0) {
          // Outermost block-parallel loop: tiles are strided across the gang.
          os << "for (int " << n.iter << " = (" << n.lb.str() << ") + spe_id * " << n.step
             << "; " << n.iter << " <= " << n.ub.str() << "; " << n.iter << " += num_spes * "
             << n.step << ") {  // distributed across SPEs\n";
        } else {
          // Further block-parallel loops fold onto the same SPE.
          os << "for (int " << n.iter << " = " << n.lb.str() << "; " << n.iter
             << " <= " << n.ub.str() << "; " << n.iter << " += " << n.step
             << ") {  // block-parallel, folded onto this SPE\n";
        }
        break;
      case LoopKind::ThreadParallel:
        // The SPE is a single (SIMD) core: inner-level parallel loops run
        // sequentially on it.
        indent(os, depth);
        os << "for (int " << n.iter << " = " << n.lb.str() << "; " << n.iter
           << " <= " << n.ub.str() << "; " << n.iter << " += " << n.step
           << ") {  // SPE-sequential (SIMD lanes)\n";
        break;
      case LoopKind::Sequential:
        indent(os, depth);
        os << "for (int " << n.iter << " = " << n.lb.str() << "; " << n.iter
           << " <= " << n.ub.str() << "; " << n.iter << " += " << n.step << ") {\n";
        break;
    }
    for (const AstPtr& c : n.children) emitNode(*c, os, depth + 1);
    indent(os, depth);
    os << "}\n";
  }

  void emitCall(const AstNode& n, std::ostringstream& os, int depth) {
    const Statement& st = unit_.statements[n.stmtId];
    if (st.writeAccess < 0) return;
    // Compose each access function with the call arguments to index text.
    std::vector<std::string> accessText;
    for (const Access& acc : st.accesses) {
      std::vector<AffExpr> index;
      for (int r = 0; r < acc.fn.rows(); ++r) {
        AffExpr composed;
        composed.cnst = acc.fn.at(r, acc.fn.cols() - 1);
        for (int j = 0; j < st.dim(); ++j) {
          i64 c = acc.fn.at(r, j);
          if (c == 0) continue;
          const AffExpr& arg = n.callArgs[j];
          for (const auto& [name, coeff] : arg.terms)
            composed.terms.emplace_back(name, mulChecked(coeff, c));
          composed.cnst = addChecked(composed.cnst, mulChecked(arg.cnst, c));
        }
        for (int j = 0; j < st.domain.nparam(); ++j) {
          i64 c = acc.fn.at(r, st.dim() + j);
          if (c != 0) composed.terms.emplace_back(unit_.source->paramNames[j], c);
        }
        index.push_back(std::move(composed));
      }
      // On the Cell path every reference is staged, so computation may only
      // touch local-store buffers (the driver forces stageEverything; a
      // hand-built unit that bypasses staging is a user error).
      EMM_REQUIRE(isLocal(acc.arrayId), "cell backend requires fully staged references");
      accessText.push_back(arrayName(acc.arrayId) + localIndex(index));
    }
    indent(os, depth);
    os << accessText[st.writeAccess] << " = " << st.rhs->str(accessText) << ";  // " << st.name
       << "\n";
  }

  void emitLaunchStub(std::ostringstream& os) {
    os << "// PPU-side launch stub.\n";
    os << "// for (int spe = 0; spe < num_spes; ++spe)\n";
    os << "//   spe_create_thread(gang, &" << opts_.kernelName << "_spe, ";
    for (size_t a = 0; a < unit_.source->arrays.size(); ++a)
      os << unit_.source->arrays[a].name << "_ea, ";
    if (opts_.symbolicSizes) {
      // Argument names: values are filled per request by the RuntimeBinder.
      for (size_t j = 0; j < env_.size(); ++j) os << env_[j].first << ", ";
      for (size_t a = 0; a < unit_.source->arrays.size(); ++a) {
        const ArrayDecl& d = unit_.source->arrays[a];
        for (int q = 1; q < d.ndim(); ++q) os << d.name << "_n" << q << ", ";
      }
    } else {
      for (size_t j = 0; j < env_.size(); ++j) os << env_[j].second << ", ";
    }
    os << "spe, num_spes);\n";
  }

  /// Reports the bind slots (size params + global strides) and pins every
  /// folded local-store extent that depends on a bound size parameter with
  /// a BufExtentEq guard; inside that envelope the static declarations, the
  /// double-buffer fit verdict and therefore the whole text are invariant.
  void fillArtifactInfo() {
    info_->sizeGeneric = opts_.symbolicSizes;
    if (!opts_.symbolicSizes) return;
    info_->slots.clear();
    for (size_t j = 0; j < env_.size(); ++j) {
      BindSlot s;
      s.name = env_[j].first;
      s.kind = BindSlot::Kind::SizeParam;
      s.a = static_cast<int>(j);
      info_->slots.push_back(std::move(s));
    }
    for (size_t a = 0; a < unit_.source->arrays.size(); ++a) {
      const ArrayDecl& d = unit_.source->arrays[a];
      for (int q = 1; q < d.ndim(); ++q) {
        BindSlot s;
        s.name = d.name + "_n" + std::to_string(q);
        s.kind = BindSlot::Kind::ArrayExtent;
        s.a = static_cast<int>(a);
        s.b = q;
        info_->slots.push_back(std::move(s));
      }
    }
    for (size_t i = 0; i < unit_.localBuffers.size(); ++i) {
      const LocalBuffer& b = unit_.localBuffers[i];
      for (int d = 0; d < b.ndim; ++d) {
        bool dependsOnSize = false;
        for (const auto& [name, value] : env_) {
          (void)value;
          dependsOnSize |= b.sizeExpr[d].mentions(name);
        }
        if (!dependsOnSize) continue;
        FamilyGuard g;
        g.kind = FamilyGuard::Kind::BufExtentEq;
        g.bufferIndex = static_cast<int>(i);
        g.dim = d;
        g.expected = b.paddedExtent(d, env_);
        g.what = "local-store extent of " + b.name + " dim " + std::to_string(d) +
                 " folded at " + std::to_string(g.expected);
        info_->guards.push_back(std::move(g));
      }
    }
  }

  const CodeUnit& unit_;
  CellEmitOptions opts_;
  ArtifactInfo* info_ = nullptr;
  std::vector<std::pair<std::string, i64>> env_;
  int blockDims_ = 0;

  // Double-buffer pipeline state (planDoubleBuffer / emitPipelinedFor).
  const AstNode* dbLoop_ = nullptr;  ///< the software-pipelined loop, or null
  std::set<int> rotatedLocal_;       ///< local-buffer indices declared [2][...]
  std::string dbSel_;                ///< active rotation selector text
  std::string dmaTag_;               ///< active DMA tag text
  std::string dbNote_;               ///< fallback reason for the header comment
};

}  // namespace

std::string emitCell(const CodeUnit& unit, const CellEmitOptions& options) {
  return emitCell(unit, options, nullptr);
}

std::string emitCell(const CodeUnit& unit, const CellEmitOptions& options, ArtifactInfo* info) {
  CellEmitter emitter(unit, options, info);
  return emitter.emit();
}

}  // namespace emm
