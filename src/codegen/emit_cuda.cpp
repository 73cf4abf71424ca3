// The cuda target: a __global__ kernel whose __shared__ arrays are the
// planned scratchpad buffers, whose outer FORALL (block-parallel) loops are
// distributed over blockIdx, whose inner FORALL (thread-parallel) loops are
// strided over threadIdx, and whose Sync nodes become __syncthreads().
//
// Size-generic emission keeps problem sizes and global-array strides as
// runtime kernel arguments; the shared buffers then live in a dynamic
// `extern __shared__` arena addressed through the BufferLayout's closed-form
// offset and pitch expressions. Without a layout (packBuffers off) the
// shared extents fold to constants at the bound environment and the
// artifact is reported as size-baked.
#include <sstream>

#include "codegen/emitter.h"
#include "smem/buffer_layout.h"
#include "sym/sym_to_c.h"

namespace emm {

namespace {

class CudaEmitter : public Emitter {
public:
  CudaEmitter(const CodeUnit& unit, const CompileOptions& options, const BufferLayout* layout,
              ArtifactInfo* info)
      : Emitter(unit, options, info, kStyle), layout_(layout) {
    EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
    if (sizeGeneric_ && !unit_.localBuffers.empty() && layout_ == nullptr) {
      // No geometry formulas to fold in — the artifact must bake extents.
      sizeGeneric_ = false;
      if (info_ != nullptr)
        info_->note = "no buffer layout available; shared extents folded to constants";
    }
    if (sizeGeneric_)
      for (const auto& [name, value] : env_) symNames_.push_back(name);
  }

private:
  static constexpr EmitStyle kStyle = {"// ", "", "__syncthreads();", true, false, true, 1};

  void header() override {
    if (sizeGeneric_) prepareArena();
    const std::vector<ArrayDecl>& arrays = unit_.source->arrays;
    out_ += "// Generated by emmap (Baskaran et al. PPoPP'08 reproduction).\n";
    out_ += "// Kernel " + opts_.kernelName + " for block '" + unit_.source->name + "'.\n";
    if (sizeGeneric_)
      out_ += "// Size-generic: problem sizes, array strides and scratchpad\n"
              "// geometry are runtime arguments; one artifact serves the family.\n";
    out_ += "\n";

    // Kernel signature: one pointer per global array + bound parameters,
    // then (size-generic) global-array strides and bind-table slots.
    out_ += "__global__ void " + opts_.kernelName + "(";
    for (size_t a = 0; a < arrays.size(); ++a)
      out_ += opts_.elementType + "* __restrict__ " + arrays[a].name +
              (a + 1 < arrays.size() ? ", " : "");
    for (const auto& [name, value] : env_) out_ += ", int " + name;
    if (sizeGeneric_) {
      for (const BindSlot& s : strides_) out_ += ", long " + s.name;
      for (const BindSlot& s : formulaSlots_) out_ += ", long " + s.name;
    }
    out_ += ") {\n";

    if (sizeGeneric_) {
      if (!unit_.localBuffers.empty()) {
        out_ += "  extern __shared__ " + opts_.elementType + " emm_smem[];\n";
        for (const std::string& macro : macroLines_) out_ += macro;
      }
    } else {
      // Shared-memory buffers with folded extents.
      for (const LocalBuffer& b : unit_.localBuffers) {
        out_ += "  __shared__ " + opts_.elementType + " " + b.name;
        bool padded = false;
        for (int d = 0; d < b.ndim; ++d) {
          i64 extent = b.paddedExtent(d, env_);
          EMM_CHECK(extent > 0, "buffer extent must fold to a positive constant for CUDA");
          padded |= d < static_cast<int>(b.pad.size()) && b.pad[d] != 0;
          out_ += "[" + std::to_string(extent) + "]";
        }
        out_ += std::string(";") + (padded ? "  // bank-conflict padded" : "") + "\n";
      }
    }
    out_ += "\n";
  }

  void footer() override {
    out_ += "}\n";
    if (sizeGeneric_)
      for (const LocalBuffer& b : unit_.localBuffers) out_ += "#undef " + b.name + "\n";
    out_ += "\n";

    // Host-side launch stub.
    const std::vector<ArrayDecl>& arrays = unit_.source->arrays;
    const bool arena = sizeGeneric_ && !arenaElemsText_.empty();
    out_ += "// Host-side launch stub.\n";
    out_ += "// dim3 grid(<block tiles per space loop>);\n";
    out_ += "// dim3 threads(<inner-level processes, a multiple of the warp size>);\n";
    if (arena)
      out_ += "// size_t smem = sizeof(" + opts_.elementType + ") * (" + arenaElemsText_ + ");\n";
    out_ += "// " + opts_.kernelName + "<<<grid, threads" + (arena ? ", smem" : "") + ">>>(";
    for (size_t a = 0; a < arrays.size(); ++a)
      out_ += "d_" + arrays[a].name + (a + 1 < arrays.size() ? ", " : "");
    if (sizeGeneric_) {
      // Runtime binding: argument names, filled per request by the
      // RuntimeBinder from the family's bind slots.
      for (const auto& [name, value] : env_) out_ += ", " + name;
      for (const BindSlot& s : strides_) out_ += ", " + s.name;
      for (const BindSlot& s : formulaSlots_) out_ += ", " + s.name;
    } else {
      for (const auto& [name, value] : env_) out_ += ", " + std::to_string(value);
    }
    out_ += ");\n";
  }

  void finishInfo(ArtifactInfo& info) override {
    info.slots.insert(info.slots.end(), formulaSlots_.begin(), formulaSlots_.end());
  }

  /// Renders a layout formula inline, or routes it through the
  /// precomputed-at-bind fallback table when it is not renderable over the
  /// runtime size arguments.
  std::string renderOrSlot(const SymPtr& e) {
    if (auto text = symToC(e, symNames_)) return *text;
    BindSlot s;
    s.name = "emm_bind" + std::to_string(formulaSlots_.size());
    s.kind = BindSlot::Kind::Formula;
    s.formula = e;
    formulaSlots_.push_back(s);
    return s.name;
  }

  /// Builds the per-buffer arena access macros and the total arena size
  /// expression from the BufferLayout's closed forms.
  void prepareArena() {
    for (const LocalBuffer& b : unit_.localBuffers) {
      const BufferLayoutEntry* entry = nullptr;
      for (const BufferLayoutEntry& e : layout_->buffers)
        if (e.name == b.name) entry = &e;
      EMM_CHECK(entry != nullptr, "buffer layout missing entry for local buffer");
      // Pitch of dim d = product of padded extents of dims d+1..n-1; only
      // the innermost dimension carries conflict padding.
      std::vector<std::string> padded;
      for (int d = 0; d < b.ndim; ++d) {
        std::string text = renderOrSlot(entry->extent[d]);
        if (d == b.ndim - 1 && entry->rowPadElems != 0)
          text = "(" + text + " + " + std::to_string(entry->rowPadElems) + ")";
        padded.push_back(std::move(text));
      }
      std::ostringstream mac;
      mac << "#define " << b.name << "(";
      for (int d = 0; d < b.ndim; ++d) mac << (d ? ", " : "") << "i" << d;
      mac << ") emm_smem[(" << renderOrSlot(entry->offsetElems) << ")";
      for (int d = 0; d < b.ndim; ++d) {
        mac << " + (i" << d << ")";
        for (int q = d + 1; q < b.ndim; ++q) mac << " * (" << padded[q] << ")";
      }
      mac << "]\n";
      macroLines_.push_back(mac.str());
    }
    if (layout_ != nullptr && !unit_.localBuffers.empty())
      arenaElemsText_ = renderOrSlot(layout_->totalElems);
  }

  /// Global arrays are linearized; local buffers index multidimensionally
  /// (size-generic: through the arena access macro, which takes the same
  /// per-dimension index list).
  std::string reference(int arrayId, const std::vector<AffExpr>& index) override {
    if (!isLocal(arrayId)) return arrayName(arrayId) + "[" + linearIndex(arrayId, index) + "]";
    if (!sizeGeneric_) return arrayName(arrayId) + bracketIndex(index);
    std::string out = arrayName(arrayId) + "(";
    for (size_t k = 0; k < index.size(); ++k) out += (k ? ", " : "") + index[k].str();
    return out + ")";
  }

  void emitFor(const AstNode& n, int depth) override {
    const std::string step = std::to_string(n.step);
    switch (n.loopKind) {
      case LoopKind::BlockParallel: {
        // One grid dimension per block-parallel loop, outermost = x.
        const char* dims[] = {"blockIdx.x", "blockIdx.y", "blockIdx.z"};
        EMM_CHECK(blockDims_ < 3, "more than 3 block-parallel loops");
        line(depth, "int " + n.iter + " = (" + n.lb.str() + ") + " + dims[blockDims_++] +
                        " * " + step + ";");
        line(depth, "if (" + n.iter + " <= " + n.ub.str() + ") {");
        emitChildren(n, depth + 1);
        line(depth, "}");
        break;
      }
      case LoopKind::ThreadParallel: {
        const char* dims[] = {"threadIdx.x", "threadIdx.y"};
        const char* extents[] = {"blockDim.x", "blockDim.y"};
        EMM_CHECK(threadDims_ < 2, "more than 2 thread-parallel loops");
        int d = threadDims_++;
        // Grid-stride style: threads cooperatively cover the range.
        intLoop(n, depth, "(" + n.lb.str() + ") + " + dims[d] + " * " + step,
                std::string(extents[d]) + " * " + step);
        --threadDims_;
        break;
      }
      case LoopKind::Sequential:
        intLoop(n, depth, n.lb.str(), step);
        break;
    }
  }

  const BufferLayout* layout_;
  std::vector<std::string> symNames_;  ///< C names of the runtime size args
  std::vector<BindSlot> formulaSlots_;
  std::vector<std::string> macroLines_;
  std::string arenaElemsText_;
  int blockDims_ = 0;
  int threadDims_ = 0;
};

}  // namespace

std::string renderCuda(const CodeUnit& unit, const CompileOptions& options,
                       const BufferLayout* layout, ArtifactInfo* info) {
  return CudaEmitter(unit, options, layout, info).run();
}

}  // namespace emm
