// The cell target: an SPE kernel for the paper's second architecture class
// (Section 3's Cell discussion), whose explicitly managed 256 KB local
// stores mean compute cannot touch global memory at all. Every reference is
// staged through a local-store buffer (the driver forces
// CompileOptions::stageEverything for this target), local buffers become
// static arrays with extents folded at the bound environment, Copy nodes
// become dma_get/dma_put transfers against effective addresses (one strided
// transfer per contiguous row, one per element otherwise), Sync nodes
// become DMA-tag fences, and block-parallel loops are strided across SPEs.
//
// Size-generic emission makes the global-array strides runtime SPE
// arguments. Local-store arrays stay static (C forbids variable extents
// there), so every extent that depends on a bound size parameter is pinned
// by a BufExtentEq guard: inside the guarded envelope the folded
// declarations, the double-buffer fit verdict and the text are invariant.
//
// Under options.doubleBuffer the innermost move-in stage is
// double-buffered: the buffers staged there are declared twice, the steady
// state prefetches iteration i+1 on the opposite DMA tag while computing on
// iteration i, and in-loop fences become per-tag waits. The doubled
// footprint must fit options.memLimitBytes; otherwise the synchronous
// schedule is emitted and a leading comment says why.
#include <set>

#include "codegen/emitter.h"

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
  for (AstPtr& c : n.children) renameVar(c.mut(), from, to);
}

class CellEmitter : public Emitter {
public:
  CellEmitter(const CodeUnit& unit, const CompileOptions& options, ArtifactInfo* info)
      : Emitter(unit, options, info, kStyle) {
    EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
    if (opts_.doubleBuffer) planDoubleBuffer();
  }

private:
  static constexpr EmitStyle kStyle = {"// ", "", "mfc_read_tag_status_all();  // DMA fence",
                                       true, false, true, 1};

  void header() override {
    const std::vector<ArrayDecl>& arrays = unit_.source->arrays;
    out_ += "// Generated by emmap (Baskaran et al. PPoPP'08 reproduction).\n";
    out_ += "// SPE kernel " + opts_.kernelName + " for block '" + unit_.source->name +
            "' (Cell-like target: all references staged through the local store).\n";
    if (!dbNote_.empty()) out_ += "// " + dbNote_ + "\n";
    out_ += "\n";

    // SPE signature: one effective address per global array + bound
    // parameters + the SPE's position in the gang. In size-generic mode the
    // global-array strides are runtime arguments too, so DMA displacement
    // math never bakes a problem size into the text.
    out_ += "void " + opts_.kernelName + "_spe(";
    for (const ArrayDecl& d : arrays) out_ += "uint64_t " + d.name + "_ea, ";
    for (const auto& [name, value] : env_) out_ += "int " + name + ", ";
    for (const BindSlot& s : strides_) out_ += "long " + s.name + ", ";
    out_ += "int spe_id, int num_spes) {\n";

    // Local-store buffers with folded extents. Pipelined buffers get a
    // leading rotation dimension: [0] and [1] alternate between the tile
    // being computed and the tile in flight.
    for (size_t i = 0; i < unit_.localBuffers.size(); ++i) {
      const LocalBuffer& b = unit_.localBuffers[i];
      const bool rotated = dbLoop_ != nullptr && rotatedLocal_.count(static_cast<int>(i)) > 0;
      out_ += "  static " + opts_.elementType + " " + b.name;
      if (rotated) out_ += "[2]";
      for (int d = 0; d < b.ndim; ++d) {
        i64 extent = b.paddedExtent(d, env_);
        EMM_CHECK(extent > 0, "buffer extent must fold to a positive constant for the SPE");
        out_ += "[" + std::to_string(extent) + "]";
      }
      out_ += std::string(" __attribute__((aligned(128)));  // local store") +
              (rotated ? ", double-buffered" : "") + "\n";
    }
    out_ += "\n";
  }

  void footer() override {
    out_ += "}\n\n";
    out_ += "// PPU-side launch stub.\n";
    out_ += "// for (int spe = 0; spe < num_spes; ++spe)\n";
    out_ += "//   spe_create_thread(gang, &" + opts_.kernelName + "_spe, ";
    for (const ArrayDecl& d : unit_.source->arrays) out_ += d.name + "_ea, ";
    if (sizeGeneric_) {
      // Argument names: values are filled per request by the RuntimeBinder.
      for (const auto& [name, value] : env_) out_ += name + ", ";
      for (const BindSlot& s : strides_) out_ += s.name + ", ";
    } else {
      for (const auto& [name, value] : env_) out_ += std::to_string(value) + ", ";
    }
    out_ += "spe, num_spes);\n";
  }

  /// Pins every folded local-store extent that depends on a bound size
  /// parameter with a BufExtentEq guard; inside that envelope the static
  /// declarations, the double-buffer fit verdict and therefore the whole
  /// text are invariant.
  void finishInfo(ArtifactInfo& info) override {
    for (size_t i = 0; i < unit_.localBuffers.size(); ++i) {
      const LocalBuffer& b = unit_.localBuffers[i];
      for (int d = 0; d < b.ndim; ++d) {
        bool dependsOnSize = false;
        for (const auto& [name, value] : env_) dependsOnSize |= b.sizeExpr[d].mentions(name);
        if (!dependsOnSize) continue;
        FamilyGuard g;
        g.kind = FamilyGuard::Kind::BufExtentEq;
        g.bufferIndex = static_cast<int>(i);
        g.dim = d;
        g.expected = b.paddedExtent(d, env_);
        g.what = "local-store extent of " + b.name + " dim " + std::to_string(d) +
                 " folded at " + std::to_string(g.expected);
        info.guards.push_back(std::move(g));
      }
    }
  }

  /// The array's name; inside the pipelined region a rotated buffer is
  /// addressed through the current rotation selector.
  std::string bufferName(int arrayId) const {
    const int local = arrayId - unit_.numGlobalArrays();
    if (!dbSel_.empty() && local >= 0 && rotatedLocal_.count(local) > 0)
      return arrayName(arrayId) + "[" + dbSel_ + "]";
    return arrayName(arrayId);
  }

  /// On the Cell path every reference is staged, so computation may only
  /// touch local-store buffers (the driver forces stageEverything; a
  /// hand-built unit that bypasses staging is a user error).
  std::string reference(int arrayId, const std::vector<AffExpr>& index) override {
    EMM_REQUIRE(isLocal(arrayId), "cell backend requires fully staged references");
    return bufferName(arrayId) + bracketIndex(index);
  }

  /// Trailing DMA-tag argument in the pipelined region ("" = classic 3-arg
  /// form with a global fence).
  std::string dmaTagArg() const { return dmaTag_.empty() ? "" : ", " + dmaTag_; }

  /// "dma_get(&<local>, <A>_ea + sizeof(T) * (<offset>), sizeof(T)<size>"
  /// (or dma_put), with the trailing tag argument and ");".
  std::string dmaCall(const char* op, int localArray, const std::string& localIndex,
                      int globalArray, const std::string& offset, const std::string& size) const {
    const std::string elem = "sizeof(" + opts_.elementType + ")";
    return std::string(op) + "(&" + bufferName(localArray) + localIndex + ", " +
           arrayName(globalArray) + "_ea + " + elem + " * (" + offset + "), " + elem + size +
           dmaTagArg() + ");";
  }

  void emitCopy(const AstNode& n, int depth) override {
    const bool dstLocal = isLocal(n.dstArray);
    const bool srcLocal = isLocal(n.srcArray);
    if (dstLocal && !srcLocal) {
      // Move-in: global memory -> local store.
      line(depth, dmaCall("dma_get", n.dstArray, bracketIndex(n.dstIndex), n.srcArray,
                          linearIndex(n.srcArray, n.srcIndex), ""));
    } else if (!dstLocal && srcLocal) {
      // Move-out: local store -> global memory.
      line(depth, dmaCall("dma_put", n.srcArray, bracketIndex(n.srcIndex), n.dstArray,
                          linearIndex(n.dstArray, n.dstIndex), ""));
    } else {
      // Local-to-local (or staged global-to-global) copies stay plain.
      line(depth, bufferName(n.dstArray) + bracketIndex(n.dstIndex) + " = " +
                      bufferName(n.srcArray) + bracketIndex(n.srcIndex) + ";");
    }
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

  /// Collapses an innermost unit-stride copy loop into one strided DMA
  /// transfer per row:
  ///   for (m = lb..ub) dma_get(&L[..][m - off], A_ea + sz*(.. + m), sz);
  /// becomes
  ///   dma_get(&L[..][lb - off], A_ea + sz*(.. + lb), sz * (ub - lb + 1));
  /// Returns false (caller emits the plain loop, whose non-contiguous
  /// copies stay per-element transfers) unless the loop body is a single
  /// global<->local copy contiguous in the iterator on both sides.
  bool tryEmitCoalescedDma(const AstNode& loop, int depth) {
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
    const std::string count = " * ((" + ub + ") - (" + lb + ") + 1)";
    auto localStart = [&](const std::vector<AffExpr>& idx) {
      std::string s;
      for (size_t d = 0; d + 1 < idx.size(); ++d) s += "[" + idx[d].str() + "]";
      return s + "[" + substIter(idx.back(), loop.iter, lb) + "]";
    };
    auto globalStart = [&](int arrayId, const std::vector<AffExpr>& idx) {
      std::vector<std::string> texts;
      for (size_t d = 0; d + 1 < idx.size(); ++d) texts.push_back(idx[d].str());
      texts.push_back(substIter(idx.back(), loop.iter, lb));
      return linearIndex(arrayId, texts);
    };
    // The row can be empty at boundary tiles; guard like the loop would.
    const std::string guard = "if ((" + ub + ") >= (" + lb + ")) ";
    if (dstLocal)
      line(depth, guard + dmaCall("dma_get", copy.dstArray, localStart(copy.dstIndex),
                                  copy.srcArray, globalStart(copy.srcArray, copy.srcIndex),
                                  count) +
                      "  // coalesced row");
    else
      line(depth, guard + dmaCall("dma_put", copy.srcArray, localStart(copy.srcIndex),
                                  copy.dstArray, globalStart(copy.dstArray, copy.dstIndex),
                                  count) +
                      "  // coalesced row");
    return true;
  }

  /// Picks the pipeline stage loop and checks the doubled footprint against
  /// the local store (options.memLimitBytes). Called from the constructor
  /// when options.doubleBuffer is set; on any failure dbLoop_ stays null and
  /// dbNote_ records why (emitted as a leading comment, synchronous schedule
  /// follows).
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
    if (rotatedLocal_.empty() || bytes > opts_.memLimitBytes) {
      if (!rotatedLocal_.empty())
        dbNote_ = "double-buffering requested, but the doubled footprint (" +
                  std::to_string(bytes) + " bytes) exceeds the " +
                  std::to_string(opts_.memLimitBytes) +
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
  void emitPipelinedFor(const AstNode& n, int depth) {
    const int nglobal = unit_.numGlobalArrays();
    const std::string next = n.iter + "_nxt";
    const std::string step = std::to_string(n.step);

    // Group a "// move-in ..." banner comment with the stage it announces.
    std::vector<bool> inPrefetch(n.children.size(), false);
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (!isMoveInSubtree(*n.children[i], nglobal)) continue;
      inPrefetch[i] = true;
      if (i > 0 && n.children[i - 1]->kind == AstNode::Kind::Comment) inPrefetch[i - 1] = true;
    }
    auto emitMoveIns = [&](const std::string& iterValue, const char* selector, int d) {
      dbSel_ = dmaTag_ = selector;
      for (size_t i = 0; i < n.children.size(); ++i) {
        if (!inPrefetch[i]) continue;
        AstPtr copy = n.children[i];
        renameVar(copy.mut(), n.iter, iterValue);
        emitNode(*copy, d);
      }
      dbSel_.clear();
      dmaTag_.clear();
    };

    line(depth, "int emm_db = 0;  // double-buffer selector");
    line(depth, "{  // pipeline prologue: stage the first " + n.iter + " tile on tag 0");
    line(depth + 1, "int " + n.iter + " = " + n.lb.str() + ";");
    emitMoveIns(n.iter, "emm_db", depth + 1);
    line(depth, "}");

    line(depth, "for (int " + n.iter + " = " + n.lb.str() + "; " + n.iter + " <= " + n.ub.str() +
                    "; " + n.iter + " += " + step + ") {  // software-pipelined");
    line(depth + 1,
         "mfc_write_tag_mask(1 << emm_db); mfc_read_tag_status_all();  // wait on this tile");
    line(depth + 1, "{  // prefetch the next tile on the opposite tag");
    line(depth + 2, "int " + next + " = " + n.iter + " + " + step + ";");
    line(depth + 2, "if (" + next + " <= " + n.ub.str() + ") {");
    emitMoveIns(next, "1 - emm_db", depth + 3);
    line(depth + 2, "}");
    line(depth + 1, "}");

    // The rest of the body in original order, computing on this tile's
    // buffer half. In-loop fences would stall the in-flight prefetch, so
    // they are elided: the per-tag wait above is the only synchronization.
    dbSel_ = dmaTag_ = "emm_db";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (inPrefetch[i]) continue;
      if (n.children[i]->kind == AstNode::Kind::Sync)
        line(depth + 1, "// DMA fence elided: per-tag wait covers this tile");
      else
        emitNode(*n.children[i], depth + 1);
    }
    dbSel_.clear();
    dmaTag_.clear();
    line(depth + 1, "emm_db = 1 - emm_db;  // rotate buffers");
    line(depth, "}");
  }

  void emitFor(const AstNode& n, int depth) override {
    if (&n == dbLoop_) return emitPipelinedFor(n, depth);
    if (n.loopKind == LoopKind::Sequential && tryEmitCoalescedDma(n, depth)) return;
    const std::string step = std::to_string(n.step);
    switch (n.loopKind) {
      case LoopKind::BlockParallel:
        if (blockDims_++ == 0)
          // Outermost block-parallel loop: tiles are strided across the gang.
          intLoop(n, depth, "(" + n.lb.str() + ") + spe_id * " + step, "num_spes * " + step,
                  "  // distributed across SPEs");
        else
          // Further block-parallel loops fold onto the same SPE.
          intLoop(n, depth, n.lb.str(), step, "  // block-parallel, folded onto this SPE");
        break;
      case LoopKind::ThreadParallel:
        // The SPE is a single (SIMD) core: inner-level parallel loops run
        // sequentially on it.
        intLoop(n, depth, n.lb.str(), step, "  // SPE-sequential (SIMD lanes)");
        break;
      case LoopKind::Sequential:
        intLoop(n, depth, n.lb.str(), step);
        break;
    }
  }

  int blockDims_ = 0;

  // Double-buffer pipeline state (planDoubleBuffer / emitPipelinedFor).
  const AstNode* dbLoop_ = nullptr;  ///< the software-pipelined loop, or null
  std::set<int> rotatedLocal_;       ///< local-buffer indices declared [2][...]
  std::string dbSel_;                ///< active rotation selector text
  std::string dmaTag_;               ///< active DMA tag text
  std::string dbNote_;               ///< fallback reason for the header comment
};

}  // namespace

std::string renderCell(const CodeUnit& unit, const CompileOptions& options, ArtifactInfo* info) {
  return CellEmitter(unit, options, info).run();
}

}  // namespace emm
