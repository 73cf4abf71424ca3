#include "tilesearch/parametric_plan.h"

#include <algorithm>
#include <atomic>
#include <numeric>

namespace emm {

namespace {

/// True when every constraint involves at most one set variable: the
/// integer hull is then the product of the per-dimension ranges, so the
/// bounding-box point count IS the exact point count countPoints measures.
bool isAxisAlignedBox(const Polyhedron& p) {
  auto rowOk = [&](const IntVec& row) {
    int nonzero = 0;
    for (int j = 0; j < p.dim(); ++j)
      if (row[j] != 0) ++nonzero;
    return nonzero <= 1;
  };
  for (int r = 0; r < p.equalities().rows(); ++r)
    if (!rowOk(p.equalities().row(r))) return false;
  for (int r = 0; r < p.inequalities().rows(); ++r)
    if (!rowOk(p.inequalities().row(r))) return false;
  return true;
}

}  // namespace

ParametricTilePlan::ParametricTilePlan(const ProgramBlock& block, const ParallelismPlan& plan,
                                       const TileSearchOptions& options,
                                       const SmemOptions& smemBase,
                                       const std::vector<i64>& loopRange,
                                       const std::vector<i64>& tileSample)
    : depth_(static_cast<int>(loopRange.size())),
      np_(block.nparam()),
      options_(options),
      hoist_(options.hoistCopies) {
  EMM_REQUIRE(depth_ > 0, "parametric tile plan needs at least one common loop");
  EMM_REQUIRE(static_cast<int>(options.paramValues.size()) == block.nparam(),
              "paramValues arity mismatch");
  analysis_ = analyzeTileSymbolic(block, plan, tileSample, smemBase, options.hoistCopies);
  benefitDelta_ = smemBase.delta;
  volumeCap_ = smemBase.volumeCap;
  onlyBeneficial_ = smemBase.onlyBeneficial;

  // The Algorithm-1 benefit verdict: references with rank-based
  // order-of-magnitude reuse pass outright (per reference, independent of
  // every symbol). For the fallback constant-reuse test the verdict DOES
  // depend on the tile and problem sizes, so evaluate() recomputes it per
  // binding — which is exact only when the sampled point counts reduce to
  // bounding-box products, i.e. when every such data space is an
  // axis-aligned box. (With unconditional buffers — stageEverything — the
  // verdict is irrelevant.)
  if (onlyBeneficial_) {
    for (const PartitionPlan& p : analysis_.plan.partitions)
      for (const RefSummary& r : p.refs)
        EMM_REQUIRE(r.hasOrderReuse() || isAxisAlignedBox(r.dataSpace),
                    "non-rectangular reference of array " +
                        analysis_.tileBlock->arrays[p.arrayId].name +
                        " lacks order-of-magnitude reuse; the benefit verdict is not "
                        "compilable to closed form");
  }
  // Partitions judged non-beneficial at the sample carry no buffer; every
  // other partition must be buffered for the footprint formulas to stand.
  for (const PartitionPlan& p : analysis_.plan.partitions)
    EMM_REQUIRE(p.hasBuffer || (onlyBeneficial_ && !p.beneficial),
                "parametric plan requires every allocated partition buffered");

  rebuildSymbols();

  // Default binding: the problem size the plan was built at. Cross-checked
  // against the evaluator's shared loop ranges — the two derivations
  // (rectangularLoopBounds vs the analysis' loopBounds) must agree.
  defaultBinding_ = bindSizes(options.paramValues);
  EMM_CHECK(defaultBinding_.loopRange == loopRange,
            "parametric plan loop ranges disagree with the evaluator's");

  // ---- Compile per-array, per-component reference formulas. ----
  const std::optional<Polyhedron>& ctx = analysis_.plan.options.paramContext;
  for (size_t p = 0; p < analysis_.plan.partitions.size(); ++p) {
    const PartitionPlan& part = analysis_.plan.partitions[p];
    if (arrays_.empty() || arrays_.back().arrayId != part.arrayId) {
      ArrayFormula af;
      af.arrayId = part.arrayId;
      af.arrayName = analysis_.tileBlock->arrays[part.arrayId].name;
      arrays_.push_back(std::move(af));
    }
    ComponentFormula comp;
    for (const RefSummary& r : part.refs) {
      RefFormula rf;
      rf.key = {r.stmt, r.access};
      rf.isWrite = r.isWrite;
      rf.orderReuse = r.hasOrderReuse();
      rf.ctxBox = compileBox(spaceWithContext(r.dataSpace, ctx));
      rf.rawBox = compileBox(r.dataSpace);
      for (int l = 0; l < depth_; ++l)
        rf.usesOrigin.push_back(dataSpaceDependsOn(r.dataSpace, np_ + l));
      comp.refs.push_back(std::move(rf));
    }
    const int n = static_cast<int>(comp.refs.size());
    comp.pairs.resize(static_cast<size_t>(n) * n);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        comp.pairs[static_cast<size_t>(i) * n + j] =
            compilePredicate(part.refs[i].dataSpace, part.refs[j].dataSpace);
    comp.hoistLevel = analysis_.hoistLevel[p];
    if (hoist_ && part.hasBuffer) {
      // The per-reference origin bits must reproduce the partition's hoist
      // level, or refined partitions could hoist differently than the
      // concrete analysis would; bail to the fallback when they cannot.
      // (A partition unbuffered at the sample has no concrete level to
      // check against; the evaluator's probe validation covers it.)
      int level = 0;
      for (int l = 0; l < depth_; ++l)
        for (const RefFormula& rf : comp.refs)
          if (rf.usesOrigin[l]) level = l + 1;
      EMM_REQUIRE(level == comp.hoistLevel,
                  "hoist level of array " + arrays_.back().arrayName +
                      " is not derivable per reference");
    }
    arrays_.back().comps.push_back(std::move(comp));

    // Geometry candidate pools: the same per-reference derivation the
    // concrete planner performs, run once over the symbolic spaces; only
    // candidates valid against every reference for ALL tile sizes survive.
    GeometryRecord g;
    g.arrayId = part.arrayId;
    for (const RefSummary& r : part.refs) g.refKeys.emplace_back(r.stmt, r.access);
    std::sort(g.refKeys.begin(), g.refKeys.end());
    const std::vector<std::string>& extNames = analysis_.tileBlock->paramNames;
    const int ndim = analysis_.tileBlock->arrays[part.arrayId].ndim();
    g.lower.resize(ndim);
    g.upper.resize(ndim);
    auto push = [](std::vector<AffExpr>& list, const AffExpr& e) {
      for (const AffExpr& x : list)
        if (x.str() == e.str()) return;
      list.push_back(e);
    };
    for (int d = 0; d < ndim; ++d) {
      std::vector<AffExpr> lowers, uppers;
      for (const RefSummary& r : part.refs) {
        Polyhedron ctxSpace = spaceWithContext(r.dataSpace, ctx);
        DimBounds b = ctxSpace.paramBounds(d);
        for (const DivExpr& e : b.lower)
          if (auto a = divToAffine(e, extNames)) push(lowers, *a);
        for (const DivExpr& e : b.upper)
          if (auto a = divToAffine(e, extNames)) push(uppers, *a);
      }
      auto validForAll = [&](const AffExpr& e, bool lower) {
        for (const RefSummary& r : part.refs)
          if (!boundIsValidForSpace(r.dataSpace, ctx, d, e, extNames, lower)) return false;
        return true;
      };
      for (const AffExpr& e : lowers)
        if (validForAll(e, true)) g.lower[d].push_back(e);
      for (const AffExpr& e : uppers)
        if (validForAll(e, false)) g.upper[d].push_back(e);
    }
    geometry_.push_back(std::move(g));
  }

  // Per-array reference indexing: analyzeBlock discovers an array's
  // references in ascending (stmt, access) order, and partition discovery
  // order at any tile size follows the lowest such index. Symbolic
  // components can interleave on it, so refinement groups must be formed
  // over these indices, not component by component.
  for (ArrayFormula& af : arrays_) {
    std::vector<std::pair<std::pair<int, int>, std::pair<int, int>>> keyed;
    for (size_t ci = 0; ci < af.comps.size(); ++ci) {
      af.comps[ci].globalIdx.resize(af.comps[ci].refs.size());
      for (size_t li = 0; li < af.comps[ci].refs.size(); ++li)
        keyed.push_back({af.comps[ci].refs[li].key,
                         {static_cast<int>(ci), static_cast<int>(li)}});
    }
    std::sort(keyed.begin(), keyed.end());
    af.numRefs = static_cast<int>(keyed.size());
    af.refLoc.resize(keyed.size());
    for (size_t g = 0; g < keyed.size(); ++g) {
      af.refLoc[g] = keyed[g].second;
      af.comps[keyed[g].second.first].globalIdx[keyed[g].second.second] = static_cast<int>(g);
    }
  }
  compileTables();
}

void ParametricTilePlan::rebuildSymbols() {
  EMM_REQUIRE(analysis_.tileBlock != nullptr, "parametric plan needs a tile block");
  const std::vector<std::string>& names = analysis_.tileBlock->paramNames;
  EMM_REQUIRE(static_cast<int>(names.size()) == np_ + 2 * depth_,
              "tile-block parameter arity mismatch");
  symParams_.clear();
  for (int j = 0; j < np_ + 2 * depth_; ++j) symParams_.push_back(SymExpr::param(j, names[j]));
}

ParametricTilePlan::SizeBinding ParametricTilePlan::bindSizes(const IntVec& sizes) const {
  EMM_REQUIRE(static_cast<int>(sizes.size()) == np_,
              "bindSizes: expected " + std::to_string(np_) + " problem sizes, got " +
                  std::to_string(sizes.size()));
  return bindLoopBounds(analysis_.loopBounds, sizes);
}

SymPtr ParametricTilePlan::compileDiv(const DivExpr& e, bool ceil) const {
  const size_t nsym = static_cast<size_t>(np_) + 2 * static_cast<size_t>(depth_);
  EMM_CHECK(e.coeffs.size() == nsym + 1, "parametric bound arity mismatch");
  std::vector<std::pair<i64, SymPtr>> terms;
  for (size_t j = 0; j < nsym; ++j) terms.emplace_back(e.coeffs[j], symParams_[j]);
  SymPtr num = SymExpr::affine(e.coeffs.back(), terms);
  SymPtr den = SymExpr::constant(e.den);
  return ceil ? SymExpr::ceilDiv(std::move(num), std::move(den))
              : SymExpr::floorDiv(std::move(num), std::move(den));
}

ParametricTilePlan::Box ParametricTilePlan::compileBox(const Polyhedron& space) const {
  Box box;
  for (int d = 0; d < space.dim(); ++d) {
    DimBounds b = space.paramBounds(d);
    EMM_REQUIRE(!b.lower.empty() && !b.upper.empty(),
                "unbounded data-space dimension in parametric analysis");
    SymPtr lo = compileDiv(b.lower[0], /*ceil=*/true);
    for (size_t q = 1; q < b.lower.size(); ++q)
      lo = SymExpr::max(std::move(lo), compileDiv(b.lower[q], true));
    SymPtr hi = compileDiv(b.upper[0], /*ceil=*/false);
    for (size_t q = 1; q < b.upper.size(); ++q)
      hi = SymExpr::min(std::move(hi), compileDiv(b.upper[q], false));
    box.emplace_back(std::move(lo), std::move(hi));
  }
  return box;
}

ParametricTilePlan::PairPredicate ParametricTilePlan::compilePredicate(const Polyhedron& a,
                                                                       const Polyhedron& b) const {
  // Project the symbolic intersection onto the full parameter space
  // (sizes, origins, tiles): the pair overlaps at a concrete binding
  // exactly when the binding satisfies the projection (Fourier-Motzkin is
  // exact for the rational feasibility test the concrete overlap check
  // performs). Only the data-space dimensions are eliminated; keeping the
  // problem sizes as predicate variables is what makes the predicate valid
  // for every member of the kernel family.
  Polyhedron inter = Polyhedron::intersect(a, b);
  Polyhedron q = inter.paramsAsVars();
  const int keep = np_ + 2 * depth_;
  const int drop = q.dim() - keep;
  EMM_CHECK(drop >= 0, "predicate projection shape mismatch");
  for (int i = 0; i < drop; ++i) q = q.eliminated(0);
  q.simplify();
  PairPredicate p;
  if (q.isEmpty()) {
    p.never = true;
    return p;
  }
  if (q.numConstraints() == 0) {
    p.always = true;
    return p;
  }
  p.cond = std::move(q);
  return p;
}

// ---- compiled tables ---------------------------------------------------------

namespace {

using Kind = SymExpr::Kind;

/// Why an op has no value. Each code raises exactly what the tree
/// evaluation (SymExpr::eval / evalInterval) raises at the same node.
enum Poison : std::uint8_t {
  kSound = 0,
  kOverflow,                    ///< checked i64 arithmetic overflowed
  kNonPositiveDivisor,          ///< eval: divisor <= 0
  kPossiblyNonPositiveDivisor,  ///< evalInterval: divisor interval reaches <= 0
  kEmptyParameter,              ///< evalInterval: a tile range with lo > hi
};

[[noreturn]] void raise(std::uint8_t poison) {
  switch (poison) {
    case kOverflow:
      throw ApiError("int64 overflow in exact arithmetic");
    case kNonPositiveDivisor:
      checkFailed(__FILE__, __LINE__, "d > 0", "symbolic division by a non-positive divisor");
    case kPossiblyNonPositiveDivisor:
      checkFailed(__FILE__, __LINE__, "y.lo > 0",
                  "symbolic division by a possibly non-positive divisor");
    default:
      checkFailed(__FILE__, __LINE__, "lo <= hi", "empty parameter interval");
  }
}

/// Union-find over `n` members in storage reused across calls; mirrors
/// poly/overlapComponents: groups are reported ordered by lowest member,
/// members ascending.
struct Grouper {
  std::vector<int> parent;
  std::vector<int> label;    ///< per member (and per root): its group
  std::vector<int> start;    ///< group g is members[start[g], start[g + 1])
  std::vector<int> members;
  std::vector<int> cursor;
  bool united = false;       ///< whether any unite() ran since reset()

  void reset(int n) {
    parent.resize(n);
    std::iota(parent.begin(), parent.end(), 0);
    united = false;
  }
  int find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(int a, int b) {
    parent[find(a)] = find(b);
    united = true;
  }
  /// Forms the groups into start/members; returns how many there are.
  int group() {
    const int n = static_cast<int>(parent.size());
    if (!united) {  // every member alone, in order
      start.resize(n + 1);
      std::iota(start.begin(), start.end(), 0);
      members.resize(n);
      std::iota(members.begin(), members.end(), 0);
      return n;
    }
    label.assign(n, -1);
    int count = 0;
    for (int i = 0; i < n; ++i) {
      const int root = find(i);
      if (label[root] < 0) label[root] = count++;
      label[i] = label[root];
    }
    start.assign(count + 1, 0);
    for (int i = 0; i < n; ++i) ++start[label[i] + 1];
    for (int g = 0; g < count; ++g) start[g + 1] += start[g];
    cursor.assign(start.begin(), start.end() - 1);
    members.resize(n);
    for (int i = 0; i < n; ++i) members[cursor[label[i]]++] = i;
    return count;
  }
};

}  // namespace

/// Converts formula trees into hash-consed Tables ops, node by node (no
/// folding, so an op evaluates exactly like its node): a node already
/// converted, or one of the same shape, is not added twice. Both lookups
/// are open-addressing tables of op indices, so converting a node
/// allocates nothing beyond its op.
class ParametricTilePlan::TableBuilder {
public:
  /// The converted nodes must outlive the builder.
  TableBuilder(Tables& tables, int nsym) : t_(tables), nsym_(nsym) {}

  int of(const SymPtr& e) {
    EMM_REQUIRE(e != nullptr, "null symbolic formula");
    size_t slot = nodeSlot(e.get());
    if (nodes_[slot].first == e.get()) return nodes_[slot].second;
    int op = 0;
    switch (e->kind()) {
      case Kind::Const:
        op = intern({Kind::Const, 0, 0, e->constValue()});
        break;
      case Kind::Param:
        EMM_REQUIRE(e->paramIndex() < nsym_, "formula symbol out of range");
        op = intern({Kind::Param, 0, 0, e->paramIndex()});
        break;
      default: {
        const int a = of(e->lhs());
        const int b = of(e->rhs());
        op = intern({e->kind(), a, b, 0});
        break;
      }
    }
    if (2 * (++nodeCount_ + 1) > nodes_.size()) {  // grow, rehash
      std::vector<std::pair<const SymExpr*, int>> old(2 * nodes_.size(), {nullptr, 0});
      old.swap(nodes_);
      for (const auto& entry : old)
        if (entry.first != nullptr) nodes_[nodeSlot(entry.first)] = entry;
    }
    nodes_[nodeSlot(e.get())] = {e.get(), op};
    return op;
  }

private:
  static size_t mix(std::uint64_t h) {
    return static_cast<size_t>((h * 0x9E3779B97F4A7C15ULL) >> 17);
  }
  /// The slot holding `node`, or the free slot it belongs in.
  size_t nodeSlot(const SymExpr* node) const {
    const size_t mask = nodes_.size() - 1;
    size_t s = mix(reinterpret_cast<std::uintptr_t>(node)) & mask;
    while (nodes_[s].first != nullptr && nodes_[s].first != node) s = (s + 1) & mask;
    return s;
  }
  static size_t shapeHash(const Tables::Op& o) {
    std::uint64_t h = static_cast<std::uint64_t>(o.kind);
    for (std::uint64_t x : {static_cast<std::uint64_t>(o.a), static_cast<std::uint64_t>(o.b),
                            static_cast<std::uint64_t>(o.c)})
      h = (h ^ x) * 0x100000001b3ULL;
    return mix(h);
  }
  /// The op of shape `o`, appended when new.
  int intern(const Tables::Op& o) {
    const size_t mask = shapes_.size() - 1;
    size_t s = shapeHash(o) & mask;
    for (; shapes_[s] >= 0; s = (s + 1) & mask) {
      const Tables::Op& x = t_.ops[shapes_[s]];
      if (x.kind == o.kind && x.a == o.a && x.b == o.b && x.c == o.c) return shapes_[s];
    }
    const int op = static_cast<int>(t_.ops.size());
    t_.ops.push_back(o);
    shapes_[s] = op;
    if (2 * t_.ops.size() > shapes_.size()) {  // grow, rehash
      shapes_.assign(2 * shapes_.size(), -1);
      for (int i = 0; i <= op; ++i) {
        size_t r = shapeHash(t_.ops[i]) & (shapes_.size() - 1);
        while (shapes_[r] >= 0) r = (r + 1) & (shapes_.size() - 1);
        shapes_[r] = i;
      }
    }
    return op;
  }

  Tables& t_;
  int nsym_;
  size_t nodeCount_ = 0;
  std::vector<std::pair<const SymExpr*, int>> nodes_ =
      std::vector<std::pair<const SymExpr*, int>>(256, {nullptr, 0});
  std::vector<int> shapes_ = std::vector<int>(256, -1);  ///< op index, -1 = free
};

void ParametricTilePlan::compileTables() {
  const int nsym = np_ + 2 * depth_;
  Tables t;
  std::vector<SymPtr> footprints;  ///< alive while `build` knows their nodes
  TableBuilder build(t, nsym);
  for (ArrayFormula& af : arrays_) {
    for (ComponentFormula& comp : af.comps) {
      comp.boxBase = static_cast<int>(t.boxOps.size());
      for (const RefFormula& rf : comp.refs) {
        for (const Box* box : {&rf.ctxBox, &rf.rawBox}) {
          for (const auto& [lo, hi] : *box) {
            t.boxOps.push_back(build.of(lo));
            t.boxOps.push_back(build.of(hi));
          }
        }
      }
      // Footprint: per dimension, the extent of the bounding box of the
      // refs' context boxes, max(0, max(hi) - min(lo) + 1); the product.
      SymPtr fp = SymExpr::constant(1);
      for (size_t d = 0; d < comp.refs[0].ctxBox.size(); ++d) {
        SymPtr lo = comp.refs[0].ctxBox[d].first;
        SymPtr hi = comp.refs[0].ctxBox[d].second;
        for (size_t m = 1; m < comp.refs.size(); ++m) {
          lo = SymExpr::min(std::move(lo), comp.refs[m].ctxBox[d].first);
          hi = SymExpr::max(std::move(hi), comp.refs[m].ctxBox[d].second);
        }
        SymPtr extent = SymExpr::add(SymExpr::sub(std::move(hi), std::move(lo)),
                                     SymExpr::constant(1));
        fp = SymExpr::mul(std::move(fp), SymExpr::max(SymExpr::constant(0), std::move(extent)));
      }
      comp.footprintOp = build.of(fp);
      footprints.push_back(std::move(fp));

      comp.predBase = static_cast<int>(t.preds.size());
      const size_t n = comp.refs.size();
      for (size_t k = 0; k < comp.pairs.size(); ++k) {
        const PairPredicate& p = comp.pairs[k];
        Tables::Pred q;  // Never: also the unused slots i >= j
        if (k / n < k % n) {
          if (p.always) {
            q.kind = Tables::Pred::Kind::Always;
          } else if (!p.never && !p.cond.markedEmpty()) {
            EMM_REQUIRE(p.cond.dim() == nsym && p.cond.nparam() == 0,
                        "pair predicate shape mismatch");
            q.kind = Tables::Pred::Kind::Rows;
            q.row = static_cast<int>(t.rows.size()) / (nsym + 1);
            q.eqs = p.cond.equalities().rows();
            for (const IntMat* m : {&p.cond.equalities(), &p.cond.inequalities()})
              for (int r = 0; r < m->rows(); ++r)
                for (int j = 0; j <= nsym; ++j) t.rows.push_back(m->at(r, j));
            q.rowEnd = static_cast<int>(t.rows.size()) / (nsym + 1);
          }
        }
        t.preds.push_back(q);
      }
    }
  }

  // Binding ops first: an op reads a tile symbol when it is one or any
  // operand does. Both halves keep their order, so the table stays
  // topological.
  const int nops = static_cast<int>(t.ops.size());
  std::vector<char> readsTile(nops, 0);
  for (int i = 0; i < nops; ++i) {
    const Tables::Op& o = t.ops[i];
    if (o.kind == Kind::Param)
      readsTile[i] = o.c >= np_ + depth_;
    else if (o.kind != Kind::Const)
      readsTile[i] = readsTile[o.a] || readsTile[o.b];
  }
  std::vector<int> order(nops);
  std::iota(order.begin(), order.end(), 0);
  std::stable_partition(order.begin(), order.end(), [&](int i) { return !readsTile[i]; });
  std::vector<int> renumber(nops);
  for (int i = 0; i < nops; ++i) renumber[order[i]] = i;
  std::vector<Tables::Op> ops(nops);
  for (int i = 0; i < nops; ++i) {
    ops[i] = t.ops[order[i]];
    if (ops[i].kind != Kind::Const && ops[i].kind != Kind::Param) {
      ops[i].a = renumber[ops[i].a];
      ops[i].b = renumber[ops[i].b];
    }
  }
  t.ops = std::move(ops);
  t.bindingOps = static_cast<int>(std::count(readsTile.begin(), readsTile.end(), 0));
  for (int& op : t.boxOps) op = renumber[op];

  // The ops footprintInterval() evaluates: everything a footprint reads.
  std::vector<char> reached(nops, 0);
  for (ArrayFormula& af : arrays_) {
    for (ComponentFormula& comp : af.comps) {
      comp.footprintOp = renumber[comp.footprintOp];
      reached[comp.footprintOp] = 1;
    }
  }
  for (int i = nops - 1; i >= 0; --i) {
    const Tables::Op& o = t.ops[i];
    if (reached[i] && o.kind != Kind::Const && o.kind != Kind::Param)
      reached[o.a] = reached[o.b] = 1;
  }
  for (int i = 0; i < nops; ++i)
    if (reached[i]) t.intervalOps.push_back(i);

  static std::atomic<std::uint64_t> nextId{1};
  t.id = nextId.fetch_add(1, std::memory_order_relaxed);
  tables_ = std::move(t);
}

/// One partition live at the evaluated tile sizes.
struct ParametricTilePlan::LiveGroup {
  const ArrayFormula* array = nullptr;
  const ComponentFormula* comp = nullptr;
  int partition = 0;     ///< naming index, as the concrete partitioner assigns
  size_t begin = 0;      ///< members: local ref indices within comp, in
  size_t end = 0;        ///< Scratch::members[begin, end)
  int hoistLevel = 0;
};

struct ParametricTilePlan::Scratch::Buffers {
  std::uint64_t tablesId = 0;  ///< Tables::id the binding part below is for
  IntVec full;                 ///< [sizes, origins, tiles]
  std::vector<i64> value;      ///< per op
  std::vector<std::uint8_t> poison;
  std::vector<i128> rowBase;          ///< per row: constant + binding terms
  std::vector<std::uint8_t> overlap;  ///< per predicate, at the candidate
  std::vector<SymInterval> interval;  ///< per op, in footprintInterval()
  std::vector<std::uint8_t> intervalPoison;
  Grouper refs;   ///< partition refinement of one array
  Grouper sides;  ///< volume grouping of one group's reads or writes
  std::vector<LiveGroup> groups;
  std::vector<int> members;
  std::vector<int> side;
  std::vector<i64> lens;
};

ParametricTilePlan::Scratch::Scratch() : buffers(std::make_unique<Buffers>()) {}
ParametricTilePlan::Scratch::~Scratch() = default;

/// The tables evaluated at one size binding in one scratch.
class ParametricTilePlan::TableRun {
public:
  /// Computes the binding part unless the scratch holds it already.
  TableRun(const ParametricTilePlan& plan, const SizeBinding& binding, Scratch& scratch)
      : t_(plan.tables_),
        s_(*scratch.buffers),
        nfix_(plan.np_ + plan.depth_),
        nsym_(nfix_ + plan.depth_) {
    if (s_.tablesId == t_.id && std::equal(binding.ext.begin(), binding.ext.end(), s_.full.begin()))
      return;
    s_.tablesId = t_.id;
    s_.full.assign(binding.ext.begin(), binding.ext.end());
    s_.full.resize(nsym_);
    s_.value.resize(t_.ops.size());
    s_.poison.resize(t_.ops.size());
    s_.overlap.resize(t_.preds.size());
    run(0, t_.bindingOps);
    const size_t nrows = t_.rows.size() / (nsym_ + 1);
    s_.rowBase.resize(nrows);
    for (size_t r = 0; r < nrows; ++r) {
      const i64* row = &t_.rows[r * (nsym_ + 1)];
      i128 acc = row[nsym_];
      for (int j = 0; j < nfix_; ++j) acc += static_cast<i128>(row[j]) * s_.full[j];
      s_.rowBase[r] = acc;
    }
  }

  /// Binds the tile symbols; with `ops`, also runs the ops that read them.
  void candidate(const std::vector<i64>& tile, bool ops) {
    std::copy(tile.begin(), tile.end(), s_.full.begin() + nfix_);
    if (ops) run(t_.bindingOps, static_cast<int>(t_.ops.size()));
  }

  /// The value of op `op`, raising its poison.
  i64 value(int op) const {
    if (s_.poison[op] != kSound) raise(s_.poison[op]);
    return s_.value[op];
  }
  /// A bound of local ref `m` of `comp` (ComponentFormula::boxOp).
  i64 box(const ComponentFormula& comp, int m, int d, bool raw, bool upper) const {
    return value(t_.boxOps[comp.boxOp(m, d, raw, upper)]);
  }

  /// Whether predicate `pred` holds at the candidate. A row is its
  /// pre-summed binding part plus its tile terms, checked like
  /// Polyhedron::contains checks it.
  bool overlaps(int pred) const {
    const Tables::Pred& p = t_.preds[pred];
    if (p.kind != Tables::Pred::Kind::Rows) return p.kind == Tables::Pred::Kind::Always;
    for (int r = p.row; r < p.rowEnd; ++r) {
      const i64* row = &t_.rows[static_cast<size_t>(r) * (nsym_ + 1)];
      i128 acc = s_.rowBase[r];
      for (int j = nfix_; j < nsym_; ++j) acc += static_cast<i128>(row[j]) * s_.full[j];
      const i64 v = narrow(acc);
      if (r < p.row + p.eqs ? v != 0 : v < 0) return false;
    }
    return true;
  }

private:
  /// Evaluates ops [begin, end) as SymExpr::eval would, keeping each
  /// failure as the op's poison: operands are read in the tree's order, so
  /// an op carries the first failure the tree walk would meet.
  void run(int begin, int end) {
    const Tables::Op* ops = t_.ops.data();
    i64* v = s_.value.data();
    std::uint8_t* p = s_.poison.data();
    const i64* full = s_.full.data();
    for (int i = begin; i < end; ++i) {
      const Tables::Op& o = ops[i];
      i64 r = 0;
      std::uint8_t bad = kSound;
      switch (o.kind) {
        case Kind::Const:
          r = o.c;
          break;
        case Kind::Param:
          r = full[o.c];
          break;
        case Kind::Add:
          bad = p[o.a] != kSound ? p[o.a] : p[o.b];
          if (bad == kSound && __builtin_add_overflow(v[o.a], v[o.b], &r)) bad = kOverflow;
          break;
        case Kind::Mul:
          bad = p[o.a] != kSound ? p[o.a] : p[o.b];
          if (bad == kSound && __builtin_mul_overflow(v[o.a], v[o.b], &r)) bad = kOverflow;
          break;
        case Kind::FloorDiv:
        case Kind::CeilDiv:
          // The divisor is evaluated and checked before the numerator.
          bad = p[o.b];
          if (bad == kSound && v[o.b] <= 0) bad = kNonPositiveDivisor;
          if (bad == kSound) bad = p[o.a];
          if (bad == kSound)
            r = o.kind == Kind::FloorDiv ? floorDiv(v[o.a], v[o.b]) : ceilDiv(v[o.a], v[o.b]);
          break;
        case Kind::Min:
          bad = p[o.a] != kSound ? p[o.a] : p[o.b];
          r = std::min(v[o.a], v[o.b]);
          break;
        case Kind::Max:
          bad = p[o.a] != kSound ? p[o.a] : p[o.b];
          r = std::max(v[o.a], v[o.b]);
          break;
      }
      v[i] = r;
      p[i] = bad;
    }
  }

  const Tables& t_;
  Scratch::Buffers& s_;
  int nfix_;  ///< binding symbols [sizes, origins]
  int nsym_;  ///< all symbols, tiles last
};

// ---- evaluation ----------------------------------------------------------------

TileEvaluation ParametricTilePlan::evaluate(const SizeBinding& binding,
                                            const std::vector<i64>& subTile) const {
  Scratch scratch;
  return evaluate(binding, subTile, scratch, /*withTerms=*/true);
}

TileEvaluation ParametricTilePlan::evaluate(const SizeBinding& binding,
                                            const std::vector<i64>& subTile, Scratch& scratch,
                                            bool withTerms) const {
  EMM_REQUIRE(static_cast<int>(subTile.size()) == depth_, "subTile arity mismatch");
  EMM_REQUIRE(static_cast<int>(binding.ext.size()) == np_ + depth_,
              "size binding arity mismatch");
  Scratch::Buffers& s = *scratch.buffers;
  TableRun run(*this, binding, scratch);
  run.candidate(subTile, /*ops=*/true);
  TileEvaluation ev;

  // ---- Recover the partition structure at these tile sizes. ----
  // Overlap grows with the tile, so the symbolic components are the
  // coarsest structure; evaluating the pairwise predicates refines them to
  // exactly what the concrete analysis would partition.
  s.groups.clear();
  s.members.clear();
  int partitionCounter = 0;
  i64 footprint = 0;
  for (const ArrayFormula& af : arrays_) {
    // Refine over the array's whole reference set (overlap edges only ever
    // connect refs of one symbolic component): groups then come out in the
    // lowest-discovery-index order the concrete partitioner uses, even
    // when symbolic components interleave by reference index. Every pair's
    // answer is kept for the volume grouping below.
    Grouper& grouper = s.refs;
    grouper.reset(af.numRefs);
    for (const ComponentFormula& comp : af.comps) {
      const int n = static_cast<int>(comp.refs.size());
      for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
          const int pred = comp.predBase + i * n + j;
          s.overlap[pred] = run.overlaps(pred);
          if (s.overlap[pred]) grouper.unite(comp.globalIdx[i], comp.globalIdx[j]);
        }
    }
    const int ngroups = grouper.group();
    for (int gi = 0; gi < ngroups; ++gi) {
      LiveGroup g;
      g.array = &af;
      const ComponentFormula& comp =
          af.comps[af.refLoc[grouper.members[grouper.start[gi]]].first];
      g.comp = &comp;
      g.begin = s.members.size();
      for (int k = grouper.start[gi]; k < grouper.start[gi + 1]; ++k)
        s.members.push_back(af.refLoc[grouper.members[k]].second);
      g.end = s.members.size();
      const auto membersBegin = s.members.begin() + static_cast<std::ptrdiff_t>(g.begin);
      const auto membersEnd = s.members.end();

      // Algorithm-1 benefit verdict, mirroring analyzeBlock: order-of-
      // magnitude reuse passes outright; otherwise the capped constant-
      // reuse fraction must clear the threshold. Box point counts are
      // exact here (construction rejected non-box spaces) and capped per
      // space exactly like countPoints.
      bool beneficial = std::any_of(membersBegin, membersEnd,
                                    [&](int m) { return comp.refs[m].orderReuse; });
      if (!beneficial) {
        // min(true count, cap), exactly like countPoints. An empty
        // dimension zeroes the count even when earlier factors passed cap.
        auto cappedProduct = [&](const std::vector<i64>& lens) -> i64 {
          for (i64 len : lens)
            if (len <= 0) return 0;
          i128 n = 1;
          for (i64 len : lens) {
            n *= len;
            if (n >= volumeCap_) return volumeCap_;
          }
          return narrow(n);
        };
        const int rawDims = static_cast<int>(comp.refs[0].rawBox.size());
        auto boxCount = [&](int m) -> i64 {
          s.lens.clear();
          for (int d = 0; d < rawDims; ++d) {
            const i64 lo = run.box(comp, m, d, true, false);
            const i64 hi = run.box(comp, m, d, true, true);
            s.lens.push_back(addChecked(subChecked(hi, lo), 1));
          }
          return cappedProduct(s.lens);
        };
        auto interCount = [&](int a, int b) -> i64 {
          s.lens.clear();
          for (int d = 0; d < rawDims; ++d) {
            const i64 lo =
                std::max(run.box(comp, a, d, true, false), run.box(comp, b, d, true, false));
            const i64 hi =
                std::min(run.box(comp, a, d, true, true), run.box(comp, b, d, true, true));
            s.lens.push_back(addChecked(subChecked(hi, lo), 1));
          }
          return cappedProduct(s.lens);
        };
        i64 total = 0;
        for (auto m = membersBegin; m != membersEnd; ++m) total = addChecked(total, boxCount(*m));
        double frac = 0.0;
        if (total != 0) {
          i64 overlap = 0;
          for (auto i = membersBegin; i != membersEnd; ++i)
            for (auto j = i + 1; j != membersEnd; ++j)
              overlap = addChecked(overlap, interCount(*i, *j));
          frac = static_cast<double>(overlap) / static_cast<double>(total);
        }
        beneficial = frac > benefitDelta_;
      }
      if (!beneficial && onlyBeneficial_) {
        // Not allocated: no buffer, no cost term — but the concrete
        // partitioner still consumes a naming index for it.
        ++partitionCounter;
        s.members.resize(g.begin);
        continue;
      }

      g.partition = partitionCounter++;
      g.hoistLevel = depth_;
      if (hoist_) {
        g.hoistLevel = 0;
        for (int l = 0; l < depth_; ++l)
          for (auto m = membersBegin; m != membersEnd; ++m)
            if (comp.refs[*m].usesOrigin[l]) g.hoistLevel = l + 1;
      }
      // Buffer footprint: per-dimension bounding box of the group under
      // the analysis context (the optimum the geometry planner derives).
      i64 fp = 1;
      for (int d = 0; d < static_cast<int>(comp.refs[0].ctxBox.size()); ++d) {
        i64 lo = INT64_MAX, hi = INT64_MIN;
        for (auto m = membersBegin; m != membersEnd; ++m) {
          lo = std::min(lo, run.box(comp, *m, d, false, false));
          hi = std::max(hi, run.box(comp, *m, d, false, true));
        }
        fp = mulChecked(fp, std::max<i64>(0, addChecked(subChecked(hi, lo), 1)));
      }
      footprint = addChecked(footprint, fp);
      s.groups.push_back(g);
    }
  }

  // Constraint (2): footprint <= Mup.
  ev.footprint = footprint;
  if (footprint > options_.memLimitElems) {
    ev.reason = "scratchpad footprint exceeds limit";
    return ev;
  }

  // ---- Section-4.3 objective, mirroring the concrete evaluator exactly
  // (field order and floating-point expression shapes). ----
  auto volumeOf = [&](const LiveGroup& g, bool writes) {
    // Section-3.1.3: group the (read resp. write) spaces into maximal
    // non-overlapping subsets, sum their bounding-box sizes.
    const ComponentFormula& comp = *g.comp;
    s.side.clear();
    for (size_t k = g.begin; k < g.end; ++k)
      if (comp.refs[s.members[k]].isWrite == writes) s.side.push_back(s.members[k]);
    const std::vector<int>& side = s.side;
    const int n = static_cast<int>(comp.refs.size());
    Grouper& grouper = s.sides;
    grouper.reset(static_cast<int>(side.size()));
    for (size_t i = 0; i < side.size(); ++i)
      for (size_t j = i + 1; j < side.size(); ++j) {
        int a = std::min(side[i], side[j]), b = std::max(side[i], side[j]);
        if (s.overlap[comp.predBase + a * n + b])
          grouper.unite(static_cast<int>(i), static_cast<int>(j));
      }
    i64 total = 0;
    const int nsub = grouper.group();
    for (int gi = 0; gi < nsub; ++gi) {
      const int* sub = grouper.members.data() + grouper.start[gi];
      const int* subEnd = grouper.members.data() + grouper.start[gi + 1];
      i64 vol = 1;
      for (int d = 0; d < static_cast<int>(comp.refs[0].rawBox.size()); ++d) {
        i64 lo = INT64_MAX, hi = INT64_MIN;
        for (const int* m = sub; m != subEnd; ++m) {
          lo = std::min(lo, run.box(comp, side[*m], d, true, false));
          hi = std::max(hi, run.box(comp, side[*m], d, true, true));
        }
        if (hi < lo) {
          vol = 0;
          break;
        }
        vol = mulChecked(vol, addChecked(subChecked(hi, lo), 1));
      }
      total = addChecked(total, vol);
    }
    return total;
  };

  double P = static_cast<double>(options_.innerProcs);
  double cost = 0;
  if (withTerms) ev.terms.reserve(s.groups.size());
  for (const LiveGroup& g : s.groups) {
    i64 occ = 1;
    for (int l = 0; l < g.hoistLevel; ++l)
      occ = mulChecked(occ, ceilDiv(binding.loopRange[l], subTile[l]));
    i64 vin = volumeOf(g, /*writes=*/false);
    i64 vout = volumeOf(g, /*writes=*/true);
    double termIn = bufferCostTerm(occ, vin, P, options_.syncCost, options_.transferCost);
    double termOut = bufferCostTerm(occ, vout, P, options_.syncCost, options_.transferCost);
    cost += termIn + termOut;
    if (withTerms)
      ev.terms.push_back({"L" + g.array->arrayName + std::to_string(g.partition), occ, vin, vout,
                          g.hoistLevel});
  }
  ev.feasible = true;
  ev.cost = cost;
  return ev;
}

SymInterval ParametricTilePlan::footprintInterval(const SizeBinding& binding,
                                                  const std::vector<SymInterval>& tileBox,
                                                  Scratch& scratch) const {
  EMM_REQUIRE(static_cast<int>(tileBox.size()) == depth_, "tile box arity mismatch");
  EMM_REQUIRE(static_cast<int>(binding.ext.size()) == np_ + depth_,
              "size binding arity mismatch");
  // The footprint ops in interval arithmetic, as SymExpr::evalInterval
  // would run them: sizes and origins are point intervals at the binding,
  // the tile symbols range over the box. Failures are kept as poison, like
  // in evaluate().
  Scratch::Buffers& s = *scratch.buffers;
  s.interval.resize(tables_.ops.size());
  s.intervalPoison.resize(tables_.ops.size());
  SymInterval* v = s.interval.data();
  std::uint8_t* p = s.intervalPoison.data();
  const int nfix = np_ + depth_;
  for (int i : tables_.intervalOps) {
    const Tables::Op& o = tables_.ops[i];
    SymInterval r;
    std::uint8_t bad = kSound;
    if (o.kind == Kind::Const) {
      r = {o.c, o.c};
    } else if (o.kind == Kind::Param) {
      r = o.c < nfix ? SymInterval{binding.ext[o.c], binding.ext[o.c]} : tileBox[o.c - nfix];
      if (r.lo > r.hi) bad = kEmptyParameter;
    } else {
      const SymInterval x = v[o.a], y = v[o.b];
      bad = p[o.a] != kSound ? p[o.a] : p[o.b];
      switch (o.kind) {
        case Kind::Add:
          if (bad == kSound && (__builtin_add_overflow(x.lo, y.lo, &r.lo) ||
                                __builtin_add_overflow(x.hi, y.hi, &r.hi)))
            bad = kOverflow;
          break;
        case Kind::Mul: {
          i64 c[4];
          if (bad == kSound && (__builtin_mul_overflow(x.lo, y.lo, &c[0]) ||
                                __builtin_mul_overflow(x.lo, y.hi, &c[1]) ||
                                __builtin_mul_overflow(x.hi, y.lo, &c[2]) ||
                                __builtin_mul_overflow(x.hi, y.hi, &c[3])))
            bad = kOverflow;
          if (bad == kSound) r = {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
          break;
        }
        case Kind::FloorDiv:
        case Kind::CeilDiv: {
          if (bad == kSound && y.lo <= 0) bad = kPossiblyNonPositiveDivisor;
          if (bad != kSound) break;
          // Monotone in each argument separately: the extremes lie at the
          // four corners.
          auto div = o.kind == Kind::FloorDiv ? floorDiv : ceilDiv;
          const i64 c[4] = {div(x.lo, y.lo), div(x.lo, y.hi), div(x.hi, y.lo), div(x.hi, y.hi)};
          r = {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
          break;
        }
        case Kind::Min:
          r = {std::min(x.lo, y.lo), std::min(x.hi, y.hi)};
          break;
        default:  // Max
          r = {std::max(x.lo, y.lo), std::max(x.hi, y.hi)};
          break;
      }
    }
    v[i] = r;
    p[i] = bad;
  }
  // Enclosure of the symbolic (coarsest-structure) footprint: the sum of
  // the component footprint intervals.
  SymInterval total{0, 0};
  for (const ArrayFormula& af : arrays_) {
    for (const ComponentFormula& comp : af.comps) {
      if (p[comp.footprintOp] != kSound) raise(p[comp.footprintOp]);
      const SymInterval fi = v[comp.footprintOp];
      total.lo = addChecked(total.lo, fi.lo);
      total.hi = addChecked(total.hi, fi.hi);
    }
  }
  return total;
}

bool ParametricTilePlan::coarsestStructureAt(const SizeBinding& binding,
                                             const std::vector<i64>& tiles,
                                             Scratch& scratch) const {
  EMM_REQUIRE(static_cast<int>(tiles.size()) == depth_, "subTile arity mismatch");
  EMM_REQUIRE(static_cast<int>(binding.ext.size()) == np_ + depth_,
              "size binding arity mismatch");
  TableRun run(*this, binding, scratch);
  run.candidate(tiles, /*ops=*/false);
  for (const ArrayFormula& af : arrays_) {
    for (const ComponentFormula& comp : af.comps) {
      const int n = static_cast<int>(comp.refs.size());
      for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
          if (!run.overlaps(comp.predBase + i * n + j)) return false;
    }
  }
  return true;
}

// ---- geometry ----------------------------------------------------------------

AffExpr ParametricTilePlan::substituteTiles(const AffExpr& e, const std::vector<i64>& tiles) const {
  AffExpr out;
  out.den = e.den;
  i128 cnst = e.cnst;
  for (const auto& [name, coeff] : e.terms) {
    auto it = std::find(analysis_.tileParams.begin(), analysis_.tileParams.end(), name);
    if (it != analysis_.tileParams.end())
      cnst += static_cast<i128>(coeff) * tiles[it - analysis_.tileParams.begin()];
    else
      out.terms.emplace_back(name, coeff);
  }
  out.cnst = narrow(cnst);
  return out;
}

std::vector<GeometryHint> ParametricTilePlan::instantiateGeometry(
    const std::vector<i64>& subTile) const {
  EMM_REQUIRE(static_cast<int>(subTile.size()) == depth_, "subTile arity mismatch");
  std::vector<GeometryHint> hints;
  for (const GeometryRecord& g : geometry_) {
    GeometryHint h;
    h.arrayId = g.arrayId;
    h.refs = g.refKeys;
    h.lower.resize(g.lower.size());
    h.upper.resize(g.upper.size());
    for (size_t d = 0; d < g.lower.size(); ++d) {
      for (const AffExpr& e : g.lower[d]) h.lower[d].push_back(substituteTiles(e, subTile));
      for (const AffExpr& e : g.upper[d]) h.upper[d].push_back(substituteTiles(e, subTile));
    }
    hints.push_back(std::move(h));
  }
  return hints;
}

}  // namespace emm
