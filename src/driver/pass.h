// Pass interface and registry for the compiler pipeline.
//
// Each stage of the paper's flow (dependence analysis, transformation,
// tile-size search, multi-level tiling, scratchpad planning, code
// generation) is wrapped as a named Pass over a shared CompileState. The
// PassRegistry holds the standard pipeline order; emm::Compiler instantiates
// it and lets callers skip or replace individual passes, which is how tests
// pin stages and how ablations switch variants without re-wiring the flow.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/artifact_info.h"
#include "driver/diagnostic.h"
#include "driver/family_plan.h"
#include "driver/options.h"
#include "smem/buffer_layout.h"
#include "support/deep_ptr.h"
#include "tiling/multilevel.h"

namespace emm {

/// The members of PipelineProducts (below). A field added here goes on the
/// field list at the end of the struct (support/fields.h), which drives
/// serialization, the disk and wire formats, the cache keys and the schema
/// manifest; the build fails until it is listed or skipped with a reason.
struct PipelineProductsMembers {
  /// The block as given to the Compiler.
  DeepPtr<ProgramBlock> input;
  /// After the transform pass: possibly shifted/skewed. block() returns
  /// this when present, else the input.
  DeepPtr<ProgramBlock> transformed;

  Cow<std::vector<Dependence>> deps;
  bool haveDeps = false;

  ParallelismPlan plan;
  bool havePlan = false;
  std::vector<std::pair<int, std::pair<int, i64>>> appliedSkews;

  /// Tile-size search outcome; when options.subTile was given explicitly the
  /// search pass still fills eval/terms by evaluating it (for diagnostics).
  TileSearchResult search;

  /// Buffer-geometry hints instantiated from the parametric tile plan at the
  /// chosen tile sizes; the tiling pass threads them into the Section-3
  /// planner so buffer bounds are adopted instead of re-derived. Empty when
  /// the search ran on the concrete path.
  Cow<std::vector<GeometryHint>> geometryHints;

  /// Full tiled kernel (Figure-3 structure); absent on the scratchpad-only
  /// and pipeline-parallel fallback paths.
  std::optional<TiledKernel> kernel;
  /// Block-level scratchpad unit (Figure-1 flow); alternative to `kernel`.
  std::optional<CodeUnit> scratchpadUnit;
  /// Section-3 analysis of the (untiled) block, filled on paths where
  /// `kernel` is absent; the tiled path exposes kernel->analysis.plan.
  std::optional<DataPlan> blockPlan;

  /// Packed banked layout of the unit's local buffers (smem pass output):
  /// conflict pads, symbolic offsets and the padded-footprint formula.
  /// Absent when the path produced no unit or packing is disabled. Rides
  /// through serialization so warm/family tiers serve packed layouts.
  std::optional<BufferLayout> bufferLayout;

  /// Size-generic verdict, bind slots and guard predicates of the emitted
  /// artifact (codegen pass output; see codegen/artifact_info.h). When
  /// sizeGeneric, the family tier serves new sizes by RuntimeBinder lookup
  /// instead of re-running the emitter.
  std::optional<ArtifactInfo> artifactInfo;

  /// Rendered target source (codegen pass output).
  std::string artifact;

  /// The block the pipeline has ended on so far.
  const ProgramBlock& block() const { return transformed ? *transformed : *input; }
  /// The executable unit produced, or nullptr.
  const CodeUnit* unit() const {
    if (kernel) return &kernel->unit;
    if (scratchpadUnit) return &*scratchpadUnit;
    return nullptr;
  }
  /// The scratchpad plan in effect, or nullptr.
  const DataPlan* dataPlan() const {
    if (kernel) return &kernel->analysis.plan;
    if (blockPlan) return &*blockPlan;
    return nullptr;
  }

  /// Which of this object's own blocks a back-pointer names; the wire form
  /// of CodeUnit::source and DataPlan::block.
  enum class BlockRef : unsigned char { None = 0, Input = 1, Transformed = 2 };
  BlockRef blockRef(const ProgramBlock* block) const;
  const ProgramBlock* blockAt(BlockRef ref) const;

  /// Called on a copy: repoints the back-pointers of scratchpadUnit and
  /// blockPlan, which still name `original`'s blocks, at this object's own.
  /// A pointer to a block `original` does not own becomes null. (The
  /// kernel's own copy rebinds the kernel's.)
  void rebindBlocks(const PipelineProductsMembers& original);
  /// The same for back-pointers that name the blocks at `oldInput` and
  /// `oldTransformed`, where this object's blocks were before a detach.
  void rebindBlocks(const ProgramBlock* oldInput, const ProgramBlock* oldTransformed);
  /// Write access to the block `ref` names (Input or Transformed): detaches
  /// it from the copies sharing it (DeepPtr::mut), which moves it, and
  /// rebinds the back-pointers that named it.
  ProgramBlock& mutBlock(BlockRef ref);

  static constexpr void fields(auto& v) {
    v.tag(kTagPipelineProducts, "PipelineProducts");
    v("input", &PipelineProductsMembers::input);
    v("transformed", &PipelineProductsMembers::transformed);
    v("deps", &PipelineProductsMembers::deps);
    v("haveDeps", &PipelineProductsMembers::haveDeps);
    v("plan", &PipelineProductsMembers::plan);
    v("havePlan", &PipelineProductsMembers::havePlan);
    v("appliedSkews", &PipelineProductsMembers::appliedSkews);
    v("search", &PipelineProductsMembers::search);
    v("geometryHints", &PipelineProductsMembers::geometryHints);
    v("kernel", &PipelineProductsMembers::kernel);
    v.backref("scratchpadUnit", &PipelineProductsMembers::scratchpadUnit, &CodeUnit::source);
    v.backref("blockPlan", &PipelineProductsMembers::blockPlan, &DataPlan::block);
    v("bufferLayout", &PipelineProductsMembers::bufferLayout);
    v("artifactInfo", &PipelineProductsMembers::artifactInfo);
    v("artifact", &PipelineProductsMembers::artifact);
  }
};

/// Everything the pipeline produces. The working CompileState and the final
/// CompileResult both embed this struct; Compiler::compile() moves it
/// wholesale. Program blocks live behind DeepPtr, so the CodeUnit::source
/// and DataPlan::block back-pointers into them survive moves. A copy
/// shares the blocks, the AST and the tables behind Cow until one side
/// writes them (support/deep_ptr.h), and its back-pointers name its own
/// blocks: a writer detaches a block through mutBlock or mutTileBlock,
/// which rebind them.
using PipelineProducts = RebindOnCopy<PipelineProductsMembers>;

/// Mutable state threaded through the pipeline: the accumulated products
/// plus the option set and the diagnostics channel.
struct CompileState : PipelineProducts {
  CompileOptions options;

  /// Family-tier input, set by the driver on a family hit: the
  /// size-generic products of this kernel family (family_plan.h). Passes
  /// adopt what applies to their stage and mark familyUsed.
  std::shared_ptr<const FamilyPlan> familyIn;
  /// Allocated by the driver on a family miss; passes publish the
  /// family-invariant products they computed, and the driver stores the
  /// result in the family tier after a successful run.
  std::shared_ptr<FamilyPlan> familyOut;
  /// True when any pass served its stage from familyIn (drives
  /// CompileResult::familyHit and the family-tier counters).
  bool familyUsed = false;

  std::vector<Diagnostic> diagnostics;
  bool failed = false;  ///< an error diagnostic was recorded

  /// Named sub-stage timings a pass wants surfaced next to its own entry in
  /// CompileResult::timings (e.g. "tilesearch.plan" vs "tilesearch.eval").
  /// The driver drains this after every pass.
  std::vector<std::pair<std::string, double>> subTimings;

  const ProgramBlock& currentBlock() const { return block(); }

  void note(const std::string& stage, const std::string& message);
  void warn(const std::string& stage, const std::string& message);
  void error(const std::string& stage, const std::string& message);  ///< sets failed
};

/// One pipeline stage. Implementations read and extend CompileState; they
/// report through state.note/warn/error. Throwing ApiError from run() aborts
/// the pipeline with an error diagnostic attributed to this pass.
class Pass {
public:
  explicit Pass(std::string name) : name_(std::move(name)) {}
  virtual ~Pass() = default;
  const std::string& name() const { return name_; }
  virtual void run(CompileState& state) = 0;

private:
  std::string name_;
};

using PassPtr = std::unique_ptr<Pass>;

/// Ordered, named pass factories. The standard() registry holds the paper's
/// flow; custom registries can be assembled for experiments.
class PassRegistry {
public:
  using Factory = std::function<PassPtr()>;

  /// Appends a pass to the pipeline order. Throws ApiError on duplicates.
  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Instantiates one pass. Throws ApiError for unknown names.
  PassPtr create(const std::string& name) const;
  const std::vector<std::string>& order() const { return order_; }

  /// The standard pipeline: deps, transform, tilesearch, tiling, smem,
  /// codegen.
  static const PassRegistry& standard();

private:
  std::vector<std::string> order_;
  std::vector<Factory> factories_;
};

}  // namespace emm
