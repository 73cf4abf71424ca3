#include "codegen/emitter.h"

#include <atomic>

#include "support/diagnostics.h"

namespace emm {

namespace {

/// Relaxed is enough: the benches read deltas after joining all work.
std::atomic<std::uint64_t> g_emitterInvocations{0};

const std::string& text(const std::string& s) { return s; }
std::string text(const AffExpr& e) { return e.str(); }

/// Row-major element offset of an index list over a global array.
template <class Index>
std::string linearize(const ArrayDecl& d, const std::vector<Index>& index, bool sizeGeneric) {
  std::string out;
  for (int k = 0; k < d.ndim(); ++k) {
    if (k > 0) out += " + ";
    out += "(";
    out += text(index[k]);
    out += ")";
    for (int q = k + 1; q < d.ndim(); ++q)
      out += sizeGeneric ? " * " + d.name + "_n" + std::to_string(q)
                         : " * " + std::to_string(d.extents[q]);
  }
  return out;
}

/// The c target: readable C in the presentation style of the paper's
/// Figure 1 / Figure 3. The text is already size-generic (sizes appear as
/// named parameters, local extents print their closed-form bound
/// expressions), so the only runtime slots are the size parameters.
class CEmitter : public Emitter {
public:
  CEmitter(const CodeUnit& unit, const CompileOptions& options, ArtifactInfo* info)
      : Emitter(unit, options, info, kStyle) {}

private:
  static constexpr EmitStyle kStyle = {"/* ", " */", "__syncthreads();", false, true, false, 0};

  void header() override {
    for (const LocalBuffer& b : unit_.localBuffers) {
      out_ += "/* local buffer */ double ";
      out_ += b.name;
      for (int d = 0; d < b.ndim; ++d) {
        out_ += "[" + b.sizeExpr[d].str();
        if (d < static_cast<int>(b.pad.size()) && b.pad[d] != 0)
          out_ += " + " + std::to_string(b.pad[d]);
        out_ += "]";
      }
      out_ += ";  /* offset:";
      for (int d = 0; d < b.ndim; ++d) out_ += " " + b.offset[d].str();
      out_ += " */\n";
    }
  }
  void footer() override {}

  void emitFor(const AstNode& n, int depth) override {
    indent(depth);
    if (n.loopKind == LoopKind::BlockParallel) out_ += "FORALL_BLOCKS ";
    if (n.loopKind == LoopKind::ThreadParallel) out_ += "FORALL_THREADS ";
    out_ += "for (" + n.iter + " = " + n.lb.str() + "; " + n.iter + " <= " + n.ub.str() + "; " +
            n.iter + (n.step == 1 ? "++" : " += " + std::to_string(n.step)) + ") {\n";
    emitChildren(n, depth + 1);
    line(depth, "}");
  }

  std::string reference(int arrayId, const std::vector<AffExpr>& index) override {
    return arrayName(arrayId) + bracketIndex(index);
  }
};

/// The codegen targets, in the order the unknown-target error lists them.
enum class Target { C, Cuda, Cell };
constexpr std::pair<const char*, Target> kTargets[] = {
    {"c", Target::C}, {"cuda", Target::Cuda}, {"cell", Target::Cell}};

Target targetOf(const std::string& name) {
  for (const auto& [targetName, target] : kTargets)
    if (name == targetName) return target;
  std::string known;
  for (const auto& [targetName, target] : kTargets)
    known += (known.empty() ? "" : ", ") + std::string(targetName);
  throw ApiError("unknown backend '" + name + "' (registered: " + known + ")");
}

}  // namespace

BoundEnv boundEnvironment(const ProgramBlock& source, const IntVec& values, int numBoundParams) {
  const size_t bound = numBoundParams < 0 ? values.size() : static_cast<size_t>(numBoundParams);
  BoundEnv env;
  for (size_t j = 0; j < bound && j < values.size() && j < source.paramNames.size(); ++j)
    env.emplace_back(source.paramNames[j], values[j]);
  return env;
}

Emitter::Emitter(const CodeUnit& unit, const CompileOptions& options, ArtifactInfo* info,
                 const EmitStyle& style)
    : unit_(unit),
      opts_(options),
      info_(info),
      style_(style),
      sizeGeneric_(options.runtimeSizeArgs) {
  if (unit.source == nullptr) return;
  EMM_REQUIRE(options.numBoundParams <= static_cast<int>(options.paramValues.size()),
              "parameter binding shorter than numBoundParams");
  env_ = boundEnvironment(*unit.source, options.paramValues, options.numBoundParams);
}

std::string Emitter::run() {
  if (sizeGeneric_ && style_.linearGlobals) {
    for (size_t a = 0; a < unit_.source->arrays.size(); ++a) {
      const ArrayDecl& d = unit_.source->arrays[a];
      for (int q = 1; q < d.ndim(); ++q) {
        BindSlot s;
        s.name = d.name + "_n" + std::to_string(q);
        s.kind = BindSlot::Kind::ArrayExtent;
        s.a = static_cast<int>(a);
        s.b = q;
        strides_.push_back(std::move(s));
      }
    }
  }
  header();
  if (unit_.root != nullptr) emitNode(*unit_.root, style_.rootDepth);
  footer();
  if (info_ != nullptr) {
    info_->sizeGeneric = sizeGeneric_;
    if (sizeGeneric_) {
      for (size_t j = 0; j < env_.size(); ++j) {
        BindSlot s;
        s.name = env_[j].first;
        s.kind = BindSlot::Kind::SizeParam;
        s.a = static_cast<int>(j);
        info_->slots.push_back(std::move(s));
      }
      info_->slots.insert(info_->slots.end(), strides_.begin(), strides_.end());
      finishInfo(*info_);
    }
  }
  // Caches and family records keep the artifact: drop the append slack.
  out_.shrink_to_fit();
  return std::move(out_);
}

void Emitter::indent(int depth) { out_.append(2 * static_cast<size_t>(depth), ' '); }

void Emitter::line(int depth, const std::string& text) {
  indent(depth);
  out_ += text;
  out_ += '\n';
}

void Emitter::emitChildren(const AstNode& n, int depth) {
  for (const AstPtr& c : n.children) emitNode(*c, depth);
}

void Emitter::intLoop(const AstNode& n, int depth, const std::string& init,
                      const std::string& increment, const char* trailer) {
  indent(depth);
  out_ += "for (int " + n.iter + " = " + init + "; " + n.iter + " <= " + n.ub.str() + "; " +
          n.iter + " += " + increment + ") {" + trailer + "\n";
  emitChildren(n, depth + 1);
  line(depth, "}");
}

void Emitter::emitNode(const AstNode& n, int depth) {
  switch (n.kind) {
    case AstNode::Kind::Block:
      emitChildren(n, depth);
      break;
    case AstNode::Kind::For:
      emitFor(n, depth);
      break;
    case AstNode::Kind::Guard: {
      indent(depth);
      out_ += "if (";
      for (size_t i = 0; i < n.guards.size(); ++i) {
        if (i > 0) out_ += " && ";
        out_ += style_.parenGuards ? "(" + n.guards[i].str() + ")" : n.guards[i].str();
        out_ += " >= 0";
      }
      out_ += ") {\n";
      emitChildren(n, depth + 1);
      line(depth, "}");
      break;
    }
    case AstNode::Kind::Call:
      emitCall(n, depth);
      break;
    case AstNode::Kind::Copy:
      emitCopy(n, depth);
      break;
    case AstNode::Kind::Sync:
      line(depth, style_.barrier);
      break;
    case AstNode::Kind::Comment:
      line(depth, style_.commentOpen + n.text + style_.commentClose);
      break;
  }
}

void Emitter::emitCopy(const AstNode& n, int depth) {
  line(depth, reference(n.dstArray, n.dstIndex) + " = " + reference(n.srcArray, n.srcIndex) +
                  ";");
}

void Emitter::emitCall(const AstNode& n, int depth) {
  EMM_CHECK(n.stmtId >= 0 && n.stmtId < static_cast<int>(unit_.statements.size()),
            "call references unknown statement");
  const Statement& st = unit_.statements[n.stmtId];
  const std::string comment = style_.commentOpen + st.name + style_.commentClose;
  if (st.writeAccess < 0) {
    if (style_.renderNoWriteCalls) line(depth, comment + ";");
    return;
  }
  // Compose each access function, a row over (iterators, parameters, 1),
  // with the call arguments to print real indices.
  std::vector<std::string> accessText;
  for (const Access& acc : st.accesses) {
    std::vector<AffExpr> index(acc.fn.rows());
    for (int r = 0; r < acc.fn.rows(); ++r) {
      AffExpr& composed = index[r];
      composed.cnst = acc.fn.at(r, acc.fn.cols() - 1);
      for (int j = 0; j < st.dim(); ++j) {
        i64 c = acc.fn.at(r, j);
        if (c == 0) continue;
        const AffExpr& arg = n.callArgs[j];
        EMM_CHECK(arg.den == 1, "divided expression in call argument");
        for (const auto& [name, coeff] : arg.terms)
          composed.terms.emplace_back(name, mulChecked(coeff, c));
        composed.cnst = addChecked(composed.cnst, mulChecked(arg.cnst, c));
      }
      for (int j = 0; j < st.domain.nparam(); ++j) {
        i64 c = acc.fn.at(r, st.dim() + j);
        if (c != 0) composed.terms.emplace_back(unit_.source->paramNames[j], c);
      }
    }
    accessText.push_back(reference(acc.arrayId, index));
  }
  line(depth, accessText[st.writeAccess] + " = " + st.rhs->str(accessText) + ";  " + comment);
}

const std::string& Emitter::arrayName(int arrayId) const {
  const int nglobal = unit_.numGlobalArrays();
  if (arrayId < nglobal) return unit_.source->arrays[arrayId].name;
  EMM_CHECK(arrayId - nglobal < static_cast<int>(unit_.localBuffers.size()),
            "array id out of range");
  return unit_.localBuffers[arrayId - nglobal].name;
}

std::string Emitter::bracketIndex(const std::vector<AffExpr>& index) {
  std::string out;
  for (const AffExpr& e : index) out += "[" + e.str() + "]";
  return out;
}

std::string Emitter::linearIndex(int arrayId, const std::vector<std::string>& index) const {
  return linearize(unit_.source->arrays[arrayId], index, sizeGeneric_);
}

std::string Emitter::linearIndex(int arrayId, const std::vector<AffExpr>& index) const {
  return linearize(unit_.source->arrays[arrayId], index, sizeGeneric_);
}

std::string emitArtifact(const CodeUnit& unit, const CompileOptions& options,
                         const BufferLayout* layout, ArtifactInfo* info) {
  const Target target = targetOf(options.backendName);
  g_emitterInvocations.fetch_add(1, std::memory_order_relaxed);
  switch (target) {
    case Target::C:
      return CEmitter(unit, options, info).run();
    case Target::Cuda:
      return renderCuda(unit, options, layout, info);
    case Target::Cell:
      return renderCell(unit, options, info);
  }
  return {};
}

void requireEmitTarget(const std::string& target) { targetOf(target); }

std::string emitC(const CodeUnit& unit) { return emitArtifact(unit, CompileOptions{}, nullptr, nullptr); }

std::uint64_t emitterInvocations() { return g_emitterInvocations.load(std::memory_order_relaxed); }

}  // namespace emm
