// ParametricTilePlan: the Section-3 cost model built once, symbolically.
//
// The concrete tile-size search instantiates the full Section-3 analysis
// (data-space images, overlap partitioning, buffer geometry, volume bounds)
// per candidate vector. This class runs that analysis a single time with the
// tile sizes T1..Tk as symbolic parameters (analyzeTileSymbolic) and
// compiles everything the Section-4.3 objective needs into closed-form
// pieces over T — and, since PR 5, over the PROBLEM SIZES as well: the
// original block parameters (N, W, ...) and the tile origins stay symbolic
// in every compiled formula, so one plan serves the whole kernel FAMILY and
// a new problem size costs one bindSizes() call instead of a rebuild.
//
// Formula symbols are indexed [sizes (np), origins (depth), tiles (depth)]:
//
//   - per reference: the per-dimension [lo, hi] bounding-box bound formulas
//     of its data space (SymExpr trees over sizes, origins and T), once with
//     the analysis context applied (buffer geometry) and once raw (volume
//     bounds), plus the per-loop origin-dependence bits that drive
//     Section-4.2 hoisting,
//   - per reference pair: the OVERLAP PREDICATE — the region of the full
//     (sizes, origins, tiles) parameter space in which the two data spaces
//     intersect, obtained by projecting their symbolic intersection onto
//     those parameters. Overlap grows monotonically with tile sizes, so the
//     symbolic components (overlap for SOME T >= 1) are the coarsest
//     structure; the concrete structure at a given binding is the
//     refinement induced by the predicates that hold, recovered at
//     evaluation time with a tiny union-find. This is what makes stencil
//     kernels exact: at T_l = 1 a shifted window pair (A[i-1], A[i+1])
//     separates into distinct partitions, and the plan reproduces the split
//     without re-running any polyhedral analysis.
//
// evaluate() is then pure table evaluation and reproduces the concrete
// evaluator's TileEvaluation field by field (including bit-identical cost
// doubles: the floating-point combination is the same expression in the
// same order, and partition naming follows the same discovery order).
// Construction and decode compile the formulas into flat tables (Tables,
// never serialized): one hash-consed op table over [sizes, origins, tiles]
// holding every box bound and every component footprint, and the overlap
// predicates as coefficient rows. An overflow or a non-positive divisor is
// kept as the op's poison and raised, with the error the tree evaluation
// would raise, only when evaluate() reads that op.
//
// The binding part. Everything fixed once a size is bound is settled once
// per binding, in the caller's Scratch, over the fold box: each tile size
// in [1, loop range], the only candidates a search evaluates.
//   - The ops that read no tile symbol run, and each predicate row sums
//     its binding terms.
//   - Predicate rows are folded: a row whose value over the box (affine in
//     the tiles, so its extremes are box corners) fits in i64 and keeps one
//     verdict is decided, so a per-candidate overflow error is never folded
//     away. A predicate whose rows are all decided is Always or Never.
//   - Each tile-reading op the box bounds need is specialized: an op that
//     stays an affine function of the tiles over the box, without leaving
//     i64 anywhere in its subtree, becomes its value at the unit tile plus
//     one term per tile it reads; the rest are stepped per candidate.
// Per candidate, evaluate() then computes only the box bounds whose tiles
// changed since the last candidate, checks the predicates left live, looks
// up the partition structure of that outcome (groups, members, volume
// sub-groups, hoist levels, naming; built once per outcome and memoized in
// the scratch), and sums footprints and costs. footprintInterval() reads
// the binding's values of the ops that read no tile. A tile outside the
// fold box (a caller's own candidate) is evaluated with every row and op,
// unspecialized. The tests in tests/parametric_fold_test.cpp hold all of
// this to a per-candidate evaluation of the formula trees.
//
// Construction throws ApiError when the block cannot be analyzed
// parametrically (e.g. a reference without order-of-magnitude reuse makes
// the Algorithm-1 benefit verdict tile-dependent); the TileEvaluator
// catches this (and validates the plan against concrete probe evaluations)
// and falls back to the per-candidate path with a diagnostic.
//
// Instances are immutable after construction and safe to share across
// threads and compiles: the driver's family tier (driver/family_plan.h)
// stores one per kernel family and every per-size compile evaluates through
// its own SizeBinding; the runtime binder searches a family plan at a new
// size through a plan-only TileEvaluator (tile_evaluator.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sym/sym_expr.h"
#include "tilesearch/tilesearch.h"
#include "tiling/multilevel.h"

namespace emm {

class ParametricTilePlan {
public:
  /// Everything evaluation derives from one concrete problem size
  /// (tiling/multilevel.h): SizeBinding::ext binds the leading formula
  /// symbols [sizes, origins].
  using SizeBinding = emm::SizeBinding;

  /// Runs the symbolic Section-3 analysis and compiles the cost-model
  /// formulas. `loopRange` holds the shared per-loop iteration ranges the
  /// evaluator already computed at options.paramValues (the default
  /// binding); `tileSample` (one size per loop) seeds the sample binding
  /// exactly like concrete sizes would. Throws ApiError when the block is
  /// not parametrically analyzable.
  ParametricTilePlan(const ProgramBlock& block, const ParallelismPlan& plan,
                     const TileSearchOptions& options, const SmemOptions& smemBase,
                     const std::vector<i64>& loopRange, const std::vector<i64>& tileSample,
                     int tilableDepth);

  /// Binds a concrete problem size to the plan's loop bounds
  /// (bindLoopBounds). Throws ApiError on arity mismatch. The binding is a
  /// plain value; one plan may serve many bindings concurrently.
  SizeBinding bindSizes(const IntVec& sizes) const;

  /// The binding of the problem size the plan was constructed at.
  const SizeBinding& defaultBinding() const { return defaultBinding_; }

  /// Working storage for evaluate(), footprintInterval() and
  /// coarsestStructureAt(), reused across calls so that a search allocates
  /// only the evaluations it keeps. It keeps the binding part (see the file
  /// comment) for the last size binding it saw, so a search at one binding
  /// settles it once, and the partition structures of the last plan it
  /// served. One per thread: a plan is shared, its scratch is not. A
  /// destroyed scratch leaves its storage to the next one its thread
  /// creates.
  struct Scratch {
    Scratch();
    ~Scratch();
    struct Buffers;  ///< defined and used by the plan alone
    std::unique_ptr<Buffers> buffers;
  };

  /// Evaluation of one candidate at one size binding. The caller
  /// (TileEvaluator) has already applied the cheap range/volume
  /// constraints; this evaluates footprint feasibility and the Section-4.3
  /// objective.
  TileEvaluation evaluate(const SizeBinding& binding, const std::vector<i64>& subTile) const;
  /// The same evaluation in caller-owned scratch. The per-buffer terms are
  /// filled in only when `withTerms`: no solver decision reads them, so a
  /// search fills them in just for the evaluation it returns.
  TileEvaluation evaluate(const SizeBinding& binding, const std::vector<i64>& subTile,
                          Scratch& scratch, bool withTerms) const;
  /// The same, written over `out` (a memo entry keeps its string storage).
  void evaluate(const SizeBinding& binding, const std::vector<i64>& subTile, Scratch& scratch,
                bool withTerms, TileEvaluation& out) const;
  /// Evaluation at the construction-time size binding.
  TileEvaluation evaluate(const std::vector<i64>& subTile) const {
    return evaluate(defaultBinding_, subTile);
  }

  /// Instantiates the parametric buffer geometry at concrete tile sizes:
  /// the hints let smem::planBufferGeometry adopt the precomputed bounds
  /// (after a cheap validity check) instead of re-deriving them. Hints are
  /// keyed on exact reference sets, so at tile sizes where the partition
  /// structure refines past the symbolic one they simply do not match and
  /// geometry is derived as usual. Hint expressions keep the problem sizes
  /// and origins symbolic (by name), so they are valid for every family
  /// member.
  std::vector<GeometryHint> instantiateGeometry(const std::vector<i64>& subTile) const;

  /// Interval enclosure of the total scratchpad footprint over a tile-size
  /// box (one interval per loop) at a size binding: the footprint ops of
  /// the symbolic (coarsest-structure) components run in interval
  /// arithmetic.
  SymInterval footprintInterval(const SizeBinding& binding,
                                const std::vector<SymInterval>& tileBox, Scratch& scratch) const;
  SymInterval footprintInterval(const std::vector<SymInterval>& tileBox) const {
    Scratch scratch;
    return footprintInterval(defaultBinding_, tileBox, scratch);
  }

  /// True when every reference pair of every symbolic component overlaps at
  /// `tiles` under `binding` — the partition structure is the coarsest one,
  /// and (since overlap grows with tile sizes) stays coarsest for every
  /// larger tile vector. When this holds at the minimum corner of a tile
  /// box, footprintInterval() over that box encloses the TRUE footprint of
  /// every candidate in it, which is what makes box pruning sound.
  bool coarsestStructureAt(const SizeBinding& binding, const std::vector<i64>& tiles,
                           Scratch& scratch) const;

  /// Number of tiled loops (= tile symbols T1..Tk the plan is over).
  int depth() const { return depth_; }
  /// Loops [0, tilableDepth()) may be tiled below their full extent
  /// (transform.h, reductionTilableDepth): the verdict of the compile that
  /// built the plan, carried so a plan-only search needs no dependences.
  int tilableDepth() const { return tilableDepth_; }
  /// Number of original block parameters (problem-size symbols).
  int sizeParams() const { return np_; }
  /// The underlying symbolic analysis (tile block, partitions, ...).
  const TileAnalysis& analysis() const { return analysis_; }

private:
  /// Per-dimension [lo, hi] bound formulas of one polyhedron's box.
  using Box = std::vector<std::pair<SymPtr, SymPtr>>;

  /// Overlap predicate of one reference pair over the full parameter space.
  struct PairPredicate {
    bool always = false;  ///< overlap for every binding and T >= 1
    bool never = false;   ///< empty intersection everywhere
    Polyhedron cond;      ///< otherwise: dim = np + 2*depth vars, no params

    static constexpr void fields(auto& v) {
      v.tag(kTagPairPredicate, "PairPredicate");
      v("always", &PairPredicate::always);
      v("never", &PairPredicate::never);
      v("cond", &PairPredicate::cond);
    }
  };

  struct RefFormula {
    std::pair<int, int> key;  ///< (stmt, access)
    bool isWrite = false;
    /// Rank-based order-of-magnitude reuse (Algorithm 1's first test); per
    /// reference and independent of every symbol, so it is captured at
    /// construction. A group with any such member is beneficial outright.
    bool orderReuse = false;
    Box ctxBox;  ///< bounds under the analysis context (buffer geometry)
    Box rawBox;  ///< raw bounds (Section-3.1.3 volume estimation)
    std::vector<bool> usesOrigin;  ///< per loop: Section-4.2 dependence bits

    static constexpr void fields(auto& v) {
      v.tag(kTagRefFormula, "RefFormula");
      v("key", &RefFormula::key);
      v("isWrite", &RefFormula::isWrite);
      v("orderReuse", &RefFormula::orderReuse);
      v("ctxBox", &RefFormula::ctxBox);
      v("rawBox", &RefFormula::rawBox);
      v("usesOrigin", &RefFormula::usesOrigin);
    }
  };

  /// One symbolic (coarsest) overlap component of one array.
  struct ComponentFormula {
    std::vector<RefFormula> refs;
    /// Predicates for ref pairs (i, j), i < j, indexed i * nrefs + j.
    std::vector<PairPredicate> pairs;
    int hoistLevel = 0;  ///< of the merged structure (validated vs analysis_)
    /// Per local ref: its per-array discovery index (see ArrayFormula).
    std::vector<int> globalIdx;
    /// Derived, not serialized (compileTables): where the component's
    /// entries start in the plan's Tables.
    int boxBase = 0;   ///< Tables::boxOps of its refs (see boxOp)
    int predBase = 0;  ///< Tables::preds of ref pair (i, j) at predBase + i * nrefs + j
    /// Tables op of the component's footprint, the product over dimensions
    /// of its bounding-box extent under the analysis context.
    int footprintOp = 0;

    static constexpr void fields(auto& v) {
      v.tag(kTagComponentFormula, "ComponentFormula");
      v("refs", &ComponentFormula::refs);
      v("pairs", &ComponentFormula::pairs);
      v("hoistLevel", &ComponentFormula::hoistLevel);
      v("globalIdx", &ComponentFormula::globalIdx);
      v.skip("boxBase", "derived by compileTables");
      v.skip("predBase", "derived by compileTables");
      v.skip("footprintOp", "derived by compileTables");
    }

    /// Tables::boxOps index of local ref `m`'s dimension-`d` bound: the
    /// context box (raw = false) or the raw box, its lower or upper end.
    int boxOp(int m, int d, bool raw, bool upper) const {
      const int ctxDims = static_cast<int>(refs[0].ctxBox.size());
      const int stride = 2 * (ctxDims + static_cast<int>(refs[0].rawBox.size()));
      return boxBase + m * stride + 2 * (raw ? ctxDims + d : d) + (upper ? 1 : 0);
    }
  };

  struct ArrayFormula {
    int arrayId = -1;
    std::string arrayName;
    std::vector<ComponentFormula> comps;  ///< ordered by lowest reference
    int numRefs = 0;
    /// Per per-array reference index (ascending (stmt, access) discovery
    /// order): its (component, local index) location. Refinement groups
    /// are formed over these indices so partition discovery order — and
    /// with it buffer naming and the cost summation order — matches the
    /// concrete analysis even when symbolic components interleave by
    /// reference index.
    std::vector<std::pair<int, int>> refLoc;

    static constexpr void fields(auto& v) {
      v.tag(kTagArrayFormula, "ArrayFormula");
      v("arrayId", &ArrayFormula::arrayId);
      v("arrayName", &ArrayFormula::arrayName);
      v("comps", &ArrayFormula::comps);
      v("numRefs", &ArrayFormula::numRefs);
      v("refLoc", &ArrayFormula::refLoc);
    }
  };

  /// Geometry record of one symbolic partition, for instantiateGeometry():
  /// the per-dimension buffer-bound candidate pools, derived once over the
  /// symbolic spaces and verified against every reference for ALL tile
  /// sizes. Expressions may mention the tile symbols, the origins and the
  /// problem sizes.
  struct GeometryRecord {
    int arrayId = -1;
    std::vector<std::pair<int, int>> refKeys;  ///< sorted (stmt, access)
    std::vector<std::vector<AffExpr>> lower;   ///< per dim, pool order
    std::vector<std::vector<AffExpr>> upper;

    static constexpr void fields(auto& v) {
      v.tag(kTagGeometryRecord, "GeometryRecord");
      v("arrayId", &GeometryRecord::arrayId);
      v("refKeys", &GeometryRecord::refKeys);
      v("lower", &GeometryRecord::lower);
      v("upper", &GeometryRecord::upper);
    }
  };

  /// The compiled formulas (compileTables), derived and never serialized.
  struct Tables {
    /// One node of the hash-consed formula DAG over [sizes, origins, tiles]:
    /// its operands are earlier ops.
    struct Op {
      SymExpr::Kind kind = SymExpr::Kind::Const;
      int a = 0, b = 0;  ///< operand ops
      i64 c = 0;         ///< Const: the value; Param: the symbol index
    };
    /// Topologically ordered; ops [0, bindingOps) read no tile symbol.
    std::vector<Op> ops;
    int bindingOps = 0;
    /// Per op: the tile symbols it reads, bit min(l, 63) for loop l. An op
    /// whose symbols did not change since its last run keeps its value.
    std::vector<std::uint64_t> tileMask;
    /// Per tile bit: the interval ops that read it, in table order; what a
    /// change of that one tile range reruns.
    std::vector<std::vector<int>> intervalOpsOf;
    /// The tile ops the box bounds read, in table order: what the binding
    /// part specializes, and what evaluate() steps for a tile outside the
    /// fold box.
    std::vector<int> candidateOps;
    /// The ops the component footprints read, in table order; the first
    /// intervalBindingOps of them read no tile symbol.
    std::vector<int> intervalOps;
    int intervalBindingOps = 0;
    /// Per component, per local ref, per dimension: the op of each box
    /// bound (ComponentFormula::boxOp).
    std::vector<int> boxOps;

    /// One overlap predicate: Always, Never, or the rows [row, row + eqs)
    /// (== 0) and [row + eqs, rowEnd) (>= 0) of `rows`.
    struct Pred {
      enum class Kind : std::uint8_t { Always, Never, Rows } kind = Kind::Never;
      int row = 0, eqs = 0, rowEnd = 0;
      int bit = -1;  ///< Rows: its bit in its array's predicate outcome
    };
    std::vector<Pred> preds;
    /// The Rows predicates of array a, in evaluation order (component, then
    /// pair): rowPreds[arrayPreds[a], arrayPreds[a + 1]).
    std::vector<int> rowPreds;
    std::vector<int> arrayPreds;
    /// Coefficient rows of width np + 2 * depth + 1: [sizes, origins,
    /// tiles, constant].
    std::vector<i64> rows;
    /// Distinct per compiled table set: Scratch keys its binding part on it.
    std::uint64_t id = 0;
  };

  struct Structure;     ///< one array's partitions at one predicate outcome
  class TableBuilder;   ///< appends hash-consed ops to Tables
  class TableRun;       ///< the tables at one binding, in one scratch

  ParametricTilePlan() = default;  ///< deserialization only

  /// Rebuilds the symbol table (one SymExpr parameter per size/origin/tile)
  /// from analysis_; used by the constructor and the deserializer.
  void rebuildSymbols();
  /// Compiles the box formulas, the component footprints and the pair
  /// predicates into tables_; used by the constructor and the deserializer.
  /// Throws ApiError on formulas that do not fit the symbol space.
  void compileTables();

  /// The partition structure of `af` at the predicate outcome `key`
  /// (Structure::key), refined with `s`'s union-finds.
  Structure buildStructure(const ArrayFormula& af, const std::vector<std::uint64_t>& key,
                           Scratch::Buffers& s) const;

  SymPtr compileDiv(const DivExpr& e, bool ceil) const;
  Box compileBox(const Polyhedron& space) const;
  PairPredicate compilePredicate(const Polyhedron& a, const Polyhedron& b) const;
  AffExpr substituteTiles(const AffExpr& e, const std::vector<i64>& tiles) const;

  int depth_ = 0;
  int np_ = 0;  ///< original block parameters (problem sizes)
  int tilableDepth_ = 0;
  TileSearchOptions options_;
  /// One SymExpr parameter per formula symbol: [sizes, origins, tiles].
  std::vector<SymPtr> symParams_;
  TileAnalysis analysis_;
  SizeBinding defaultBinding_;  ///< binding at options_.paramValues
  std::vector<ArrayFormula> arrays_;  ///< arrays with references, in order
  std::vector<GeometryRecord> geometry_;
  bool hoist_ = true;

  /// Algorithm-1 fallback verdict, compiled: groups without order-of-
  /// magnitude reuse are buffered only when the capped constant-reuse
  /// fraction exceeds the threshold. Construction rejects such references
  /// unless their data spaces are axis-aligned boxes, where the rawBox
  /// point count is exact and the verdict reduces to expression evaluation.
  double benefitDelta_ = 0.0;
  i64 volumeCap_ = 0;
  bool onlyBeneficial_ = false;
  Tables tables_;

  /// The plan format's field list (support/fields.h); symParams_ is rebuilt
  /// from the decoded analysis, and finishDecode (support/serialize.cpp)
  /// validates the decoded formulas before the plan is used.
  static constexpr void fields(auto& v) {
    v.tag(kTagParametricPlan, "ParametricTilePlan");
    v("depth_", &ParametricTilePlan::depth_);
    v("np_", &ParametricTilePlan::np_);
    v("tilableDepth_", &ParametricTilePlan::tilableDepth_);
    v("options_", &ParametricTilePlan::options_);
    v.skip("symParams_", "derived by rebuildSymbols");
    v("analysis_", &ParametricTilePlan::analysis_);
    v("defaultBinding_", &ParametricTilePlan::defaultBinding_);
    v("arrays_", &ParametricTilePlan::arrays_);
    v("geometry_", &ParametricTilePlan::geometry_);
    v("hoist_", &ParametricTilePlan::hoist_);
    v("benefitDelta_", &ParametricTilePlan::benefitDelta_);
    v("volumeCap_", &ParametricTilePlan::volumeCap_);
    v("onlyBeneficial_", &ParametricTilePlan::onlyBeneficial_);
    v.skip("tables_", "derived by compileTables");
  }

  friend struct FieldAccess;
  friend void finishDecode(ParametricTilePlan& plan);
  /// The per-candidate reference evaluation of tests/parametric_fold_test.cpp.
  friend struct ParametricPlanOracle;
};

}  // namespace emm
