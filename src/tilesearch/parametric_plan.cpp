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
                                       const std::vector<i64>& tileSample, int tilableDepth)
    : depth_(static_cast<int>(loopRange.size())),
      np_(block.nparam()),
      tilableDepth_(tilableDepth),
      options_(options),
      hoist_(options.hoistCopies) {
  EMM_REQUIRE(depth_ > 0, "parametric tile plan needs at least one common loop");
  EMM_REQUIRE(tilableDepth_ >= 0 && tilableDepth_ <= depth_, "tilable depth out of range");
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
  return bindLoopBounds(*analysis_.loopBounds, sizes);
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

/// Element-wise equality of two short runs, compared inline: a library
/// memcmp call costs more than the handful of values it compares here.
bool sameValues(const i64* a, const i64* b, size_t n) {
  for (size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return false;
  return true;
}
bool sameWords(const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

/// The Tables::tileMask bit of loop `l`: loops past 63 share the last bit,
/// which only makes more ops look changed.
std::uint64_t tileBit(int l) { return std::uint64_t{1} << std::min(l, 63); }

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
  t.arrayPreds.push_back(0);
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
            q.bit = static_cast<int>(t.rowPreds.size()) - t.arrayPreds.back();
            t.rowPreds.push_back(static_cast<int>(t.preds.size()));
          }
        }
        t.preds.push_back(q);
      }
    }
    t.arrayPreds.push_back(static_cast<int>(t.rowPreds.size()));
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
  t.tileMask.assign(nops, 0);
  for (int i = t.bindingOps; i < nops; ++i) {
    const Tables::Op& o = t.ops[i];
    if (o.kind == Kind::Param)
      t.tileMask[i] = tileBit(static_cast<int>(o.c) - np_ - depth_);
    else if (o.kind != Kind::Const)
      t.tileMask[i] = t.tileMask[o.a] | t.tileMask[o.b];
  }
  for (int& op : t.boxOps) op = renumber[op];

  // The ops that `roots` read, in table order.
  auto closure = [&](const std::vector<int>& roots) {
    std::vector<char> reached(nops, 0);
    for (int op : roots) reached[op] = 1;
    for (int i = nops - 1; i >= 0; --i) {
      const Tables::Op& o = t.ops[i];
      if (reached[i] && o.kind != Kind::Const && o.kind != Kind::Param)
        reached[o.a] = reached[o.b] = 1;
    }
    std::vector<int> out;
    for (int i = 0; i < nops; ++i)
      if (reached[i]) out.push_back(i);
    return out;
  };
  // evaluate() reads the box bounds: per candidate it runs their tile ops.
  for (int op : closure(t.boxOps))
    if (op >= t.bindingOps) t.candidateOps.push_back(op);
  // footprintInterval() reads the component footprints.
  std::vector<int> footprintOps;
  for (ArrayFormula& af : arrays_) {
    for (ComponentFormula& comp : af.comps) {
      comp.footprintOp = renumber[comp.footprintOp];
      footprintOps.push_back(comp.footprintOp);
    }
  }
  t.intervalOps = closure(footprintOps);
  t.intervalBindingOps = static_cast<int>(
      std::lower_bound(t.intervalOps.begin(), t.intervalOps.end(), t.bindingOps) -
      t.intervalOps.begin());
  t.intervalOpsOf.assign(static_cast<size_t>(std::min(depth_, 64)), {});
  for (size_t b = 0; b < t.intervalOpsOf.size(); ++b) {
    for (size_t k = static_cast<size_t>(t.intervalBindingOps); k < t.intervalOps.size(); ++k)
      if ((t.tileMask[t.intervalOps[k]] >> b) & 1) t.intervalOpsOf[b].push_back(t.intervalOps[k]);
  }

  static std::atomic<std::uint64_t> nextId{1};
  t.id = nextId.fetch_add(1, std::memory_order_relaxed);
  tables_ = std::move(t);
}

/// One array's partition structure at one outcome of its Rows predicates:
/// everything the refinement derives from which reference pairs overlap.
/// Groups come out in the concrete partitioner's discovery order.
struct ParametricTilePlan::Structure {
  std::vector<std::uint64_t> key;  ///< the outcome: bit Pred::bit per Rows predicate
  struct Group {
    int comp = 0;  ///< its symbolic component in the array (indices, not
                   ///< pointers: a copy of a plan shares its tables' id)
    int rawDims = 0;
    int begin = 0, end = 0;  ///< members[begin, end): local ref indices
    int hoistLevel = 0;
    bool orderReuse = false;  ///< a member has order-of-magnitude reuse
    /// The footprint's box-bound ops start at boxOps[footprint]: per
    /// context dimension, per member, its lower then its upper bound.
    int footprint = 0;
    /// Volume sub-groups (Section 3.1.3) of the reads, then of the writes:
    /// the reads' are k in [sides[0], sides[1]), the writes' [sides[1],
    /// sides[2]). Sub-group k has subSize[k] members; its raw box-bound ops
    /// start at boxOps[subOps[k]], laid out like the footprint's.
    int sides[3] = {0, 0, 0};
  };
  std::vector<Group> groups;
  std::vector<int> members;
  std::vector<int> boxOps;  ///< Tables ops, in the order evaluate() reads them
  std::vector<int> subOps;
  std::vector<int> subSize;
};

namespace {

/// Fold verdicts of one predicate at a binding (Scratch::Buffers::verdict).
enum Verdict : std::uint8_t { kAlways = 0, kNever, kLive };

}  // namespace

struct ParametricTilePlan::Scratch::Buffers {
  std::uint64_t tablesId = 0;  ///< Tables::id everything below is for
  // ---- the binding part (TableRun), for the binding in `full` ----
  IntVec full;                 ///< [sizes, origins, tiles]
  std::vector<i64> range;      ///< per loop: the fold box is [1, range]
  std::vector<i64> value;      ///< per op
  std::vector<std::uint8_t> poison;
  std::vector<i128> rowBase;   ///< per row: constant + binding terms
  /// Per predicate: its verdict over the fold box; a live one checks rows
  /// liveRows[live[p].first, live[p].second) per candidate.
  std::vector<std::uint8_t> verdict;
  std::vector<std::pair<int, int>> live;
  std::vector<int> liveRows;
  /// The candidate ops evaluate() needs at this binding: the box bounds
  /// and the operands of those that are stepped, in table order, and per
  /// tile bit the ones that read it. An op affine in the tile over the fold
  /// box is its value at the unit tile plus terms (loop, coefficient).
  struct Form {
    i64 atUnit = 0;
    int begin = 0, end = 0;  ///< formTerms[begin, end)
  };
  std::vector<int> needed;
  std::vector<std::vector<int>> neededOf;
  std::vector<int> formOf;  ///< per op: its Form, or -1 when it is stepped
  std::vector<Form> forms;
  std::vector<std::pair<int, i64>> formTerms;
  std::vector<i128> unitValue, coef;  ///< per op (coef: per op, per loop), while specializing
  std::vector<std::uint8_t> affine, used;
  bool intervalsBound = false;  ///< interval[] holds the binding ops' intervals
  // ---- per candidate ----
  bool inBox = false;           ///< the tile lies in the fold box
  std::vector<i64> opsTile;     ///< the tile the candidate ops ran at, if any
  std::vector<SymInterval> opsBox;  ///< the box the interval ops ran over, if any
  std::vector<std::uint64_t> key;
  std::vector<SymInterval> interval;  ///< per op, in footprintInterval()
  std::vector<std::uint8_t> intervalPoison;
  std::vector<i64> occ;  ///< per hoist level: the tiling-loop trip-count product
  struct LiveGroup {
    const Structure::Group* group = nullptr;
    const Structure* structure = nullptr;
    int partition = 0;  ///< naming index, as the concrete partitioner assigns
    int array = 0;
  };
  std::vector<LiveGroup> groups;
  std::vector<i64> lens;
  // ---- the structure memo: per array, its structures by outcome ----
  std::vector<std::vector<Structure>> structures;
  Grouper refs;   ///< partition refinement of one array
  Grouper sides;  ///< volume grouping of one group's reads or writes
  std::vector<int> side;
};

namespace {

/// Buffers of destroyed scratches, per thread: a search starts in warm,
/// already-sized storage instead of allocating its own, and a scratch that
/// last served the same plan keeps its structures.
constexpr size_t kPooledBuffers = 4;
thread_local std::vector<std::unique_ptr<ParametricTilePlan::Scratch::Buffers>> pooledBuffers;

}  // namespace

ParametricTilePlan::Scratch::Scratch() {
  if (pooledBuffers.empty()) {
    buffers = std::make_unique<Buffers>();
  } else {
    buffers = std::move(pooledBuffers.back());
    pooledBuffers.pop_back();
  }
}

ParametricTilePlan::Scratch::~Scratch() {
  if (buffers != nullptr && pooledBuffers.size() < kPooledBuffers)
    pooledBuffers.push_back(std::move(buffers));
}

/// The tables evaluated at one size binding in one scratch.
class ParametricTilePlan::TableRun {
public:
  /// Computes the binding part unless the scratch holds it already.
  TableRun(const ParametricTilePlan& plan, const SizeBinding& binding, Scratch& scratch)
      : plan_(plan),
        t_(plan.tables_),
        s_(*scratch.buffers),
        nfix_(plan.np_ + plan.depth_),
        nsym_(nfix_ + plan.depth_) {
    EMM_REQUIRE(static_cast<int>(binding.ext.size()) == nfix_ &&
                    static_cast<int>(binding.loopRange.size()) == plan.depth_,
                "size binding arity mismatch");
    if (s_.tablesId != t_.id) {
      s_.tablesId = t_.id;
      s_.structures.assign(plan.arrays_.size(), {});
      s_.full.clear();
    } else if (sameValues(binding.ext.data(), s_.full.data(), binding.ext.size()) &&
               std::equal(binding.loopRange.begin(), binding.loopRange.end(),
                          s_.range.begin(), [](i64 r, i64 box) {
                            return std::max<i64>(r, 1) == box;
                          })) {
      return;
    }
    s_.full.assign(binding.ext.begin(), binding.ext.end());
    s_.full.resize(nsym_);
    s_.range.resize(plan.depth_);
    for (int l = 0; l < plan.depth_; ++l) s_.range[l] = std::max<i64>(binding.loopRange[l], 1);
    s_.value.resize(t_.ops.size());
    s_.poison.resize(t_.ops.size());
    s_.interval.resize(t_.ops.size());
    s_.intervalPoison.resize(t_.ops.size());
    s_.intervalsBound = false;
    s_.opsTile.clear();
    s_.opsBox.clear();
    run(0, t_.bindingOps);
    const size_t nrows = t_.rows.size() / (nsym_ + 1);
    s_.rowBase.resize(nrows);
    for (size_t r = 0; r < nrows; ++r) {
      const i64* row = &t_.rows[r * (nsym_ + 1)];
      i128 acc = row[nsym_];
      for (int j = 0; j < nfix_; ++j) acc += static_cast<i128>(row[j]) * s_.full[j];
      s_.rowBase[r] = acc;
    }
    fold();
    specialize();
  }

  /// Binds the tile symbols; with `ops`, also runs the candidate ops that
  /// read a tile symbol changed since their last run.
  void candidate(const std::vector<i64>& tile, bool ops) {
    s_.inBox = true;
    for (size_t l = 0; l < tile.size(); ++l) {
      s_.full[nfix_ + l] = tile[l];
      s_.inBox = s_.inBox && tile[l] >= 1 && tile[l] <= s_.range[l];
    }
    if (!ops) return;
    const Tables::Op* table = t_.ops.data();
    if (!s_.inBox) {  // the forms hold only in the fold box: step everything
      for (int i : t_.candidateOps) step(table[i], i);
      s_.opsTile = tile;
      return;
    }
    std::uint64_t changed = 0;
    if (s_.opsTile.empty()) {
      changed = ~std::uint64_t{0};
      s_.opsTile = tile;
    }
    for (size_t l = 0; l < tile.size(); ++l) {
      if (s_.opsTile[l] != tile[l]) {
        changed |= tileBit(static_cast<int>(l));
        s_.opsTile[l] = tile[l];
      }
    }
    if (changed == 0) return;
    auto run = [&](int i) {
      const int f = s_.formOf[i];
      if (f < 0) return step(table[i], i);
      const Scratch::Buffers::Form& form = s_.forms[f];
      i128 v = form.atUnit;
      for (int k = form.begin; k < form.end; ++k) {
        const auto& [l, c] = s_.formTerms[k];
        v += static_cast<i128>(c) * (tile[l] - 1);
      }
      s_.value[i] = static_cast<i64>(v);
      s_.poison[i] = kSound;
    };
    if ((changed & (changed - 1)) == 0) {  // one tile symbol changed
      for (int i : s_.neededOf[__builtin_ctzll(changed)]) run(i);
    } else {
      for (int i : s_.needed)
        if ((t_.tileMask[i] & changed) != 0) run(i);
    }
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

  /// Whether predicate `pred` holds at the candidate. In the fold box it
  /// reads the binding's verdict and checks only the rows left live;
  /// outside it, every row.
  bool overlaps(int pred) const {
    const Tables::Pred& p = t_.preds[pred];
    if (p.kind != Tables::Pred::Kind::Rows) return p.kind == Tables::Pred::Kind::Always;
    if (!s_.inBox) {
      for (int r = p.row; r < p.rowEnd; ++r)
        if (!rowHolds(r, r < p.row + p.eqs)) return false;
      return true;
    }
    if (s_.verdict[pred] != kLive) return s_.verdict[pred] == kAlways;
    for (int k = s_.live[pred].first; k < s_.live[pred].second; ++k) {
      const int r = s_.liveRows[k];
      if (!rowHolds(r, r < p.row + p.eqs)) return false;
    }
    return true;
  }

  /// The partition structure of array `a` at the candidate: its Rows
  /// predicates are checked in evaluation order, and the structure of that
  /// outcome is built on its first use.
  const Structure& structure(int a) {
    const int first = t_.arrayPreds[a], last = t_.arrayPreds[a + 1];
    const size_t words = static_cast<size_t>(last - first + 63) / 64;
    s_.key.assign(words, 0);
    for (int k = first; k < last; ++k)
      if (overlaps(t_.rowPreds[k])) s_.key[(k - first) / 64] |= std::uint64_t{1} << ((k - first) % 64);
    std::vector<Structure>& memo = s_.structures[a];
    if (first == last && !memo.empty()) return memo.front();
    for (const Structure& st : memo)
      if (sameWords(st.key, s_.key)) return st;
    memo.push_back(plan_.buildStructure(plan_.arrays_[a], s_.key, s_));
    return memo.back();
  }

  /// Interval of op `i` in footprintInterval(), its operands done: as
  /// SymExpr::evalInterval runs the node, the tile symbols over `tileBox`.
  void intervalStep(int i, const std::vector<SymInterval>& tileBox) {
    const Tables::Op& o = t_.ops[i];
    SymInterval* v = s_.interval.data();
    std::uint8_t* p = s_.intervalPoison.data();
    SymInterval r;
    std::uint8_t bad = kSound;
    if (o.kind == Kind::Const) {
      r = {o.c, o.c};
    } else if (o.kind == Kind::Param) {
      r = o.c < nfix_ ? SymInterval{s_.full[o.c], s_.full[o.c]} : tileBox[o.c - nfix_];
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
          if (bad == kSound && x.lo >= 0 && y.lo >= 0) {
            // Non-negative factors: the corner products are ordered, and
            // the largest overflows whenever any of them does.
            if (__builtin_mul_overflow(x.hi, y.hi, &r.hi))
              bad = kOverflow;
            else
              r.lo = x.lo * y.lo;
            break;
          }
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
          // four corners; over one positive divisor, at the numerator's ends.
          auto div = o.kind == Kind::FloorDiv ? floorDiv : ceilDiv;
          if (y.lo == y.hi) {
            r = {div(x.lo, y.lo), div(x.hi, y.lo)};
            break;
          }
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

  /// The intervals of the footprint ops that read no tile symbol: the
  /// binding's values as point intervals, which is what interval
  /// arithmetic over point operands computes. An op the point run
  /// poisoned runs as an interval op, so it keeps the interval error.
  void bindIntervals(const std::vector<SymInterval>& tileBox) {
    if (s_.intervalsBound) return;
    for (int k = 0; k < t_.intervalBindingOps; ++k) {
      const int i = t_.intervalOps[k];
      if (s_.poison[i] != kSound) {
        intervalStep(i, tileBox);
      } else {
        s_.interval[i] = {s_.value[i], s_.value[i]};
        s_.intervalPoison[i] = kSound;
      }
    }
    s_.intervalsBound = true;
  }

  /// Runs the footprint ops that read a tile symbol whose range changed
  /// since their last run; bindIntervals must have run.
  void tileIntervals(const std::vector<SymInterval>& tileBox) {
    std::uint64_t changed = 0;
    if (s_.opsBox.empty()) {
      changed = ~std::uint64_t{0};
      s_.opsBox = tileBox;
    }
    for (size_t l = 0; l < tileBox.size(); ++l) {
      if (s_.opsBox[l].lo != tileBox[l].lo || s_.opsBox[l].hi != tileBox[l].hi) {
        changed |= tileBit(static_cast<int>(l));
        s_.opsBox[l] = tileBox[l];
      }
    }
    if (changed == 0) return;
    if ((changed & (changed - 1)) == 0) {  // one tile range changed
      for (int i : t_.intervalOpsOf[__builtin_ctzll(changed)]) intervalStep(i, tileBox);
    } else {
      for (size_t k = static_cast<size_t>(t_.intervalBindingOps); k < t_.intervalOps.size(); ++k)
        if ((t_.tileMask[t_.intervalOps[k]] & changed) != 0)
          intervalStep(t_.intervalOps[k], tileBox);
    }
  }

private:
  /// Row `r` at the candidate: its pre-summed binding part plus its tile
  /// terms, checked like Polyhedron::contains checks it.
  bool rowHolds(int r, bool eq) const {
    const i64* row = &t_.rows[static_cast<size_t>(r) * (nsym_ + 1)];
    i128 acc = s_.rowBase[r];
    for (int j = nfix_; j < nsym_; ++j) acc += static_cast<i128>(row[j]) * s_.full[j];
    const i64 v = narrow(acc);
    return eq ? v == 0 : v >= 0;
  }

  /// Decides at the binding every predicate row whose verdict is the same
  /// for each tile in the fold box. A row's value is affine in the tile, so
  /// its extremes lie at the box corners; it is decided only when both fit
  /// in i64, so that no candidate's overflow error is folded away. A
  /// predicate is Never at its first row false over the box when no row
  /// before it can overflow, Always when every row is true over the box,
  /// and otherwise keeps its undecided rows in order.
  void fold() {
    s_.verdict.assign(t_.preds.size(), kLive);
    s_.live.assign(t_.preds.size(), {0, 0});
    s_.liveRows.clear();
    for (int pred : t_.rowPreds) {
      const Tables::Pred& p = t_.preds[pred];
      const int begin = static_cast<int>(s_.liveRows.size());
      bool mayOverflow = false, never = false;
      for (int r = p.row; r < p.rowEnd; ++r) {
        const i64* row = &t_.rows[static_cast<size_t>(r) * (nsym_ + 1)];
        i128 lo = s_.rowBase[r], hi = lo;
        for (int j = nfix_; j < nsym_; ++j) {
          const i128 atOne = row[j], atRange = static_cast<i128>(row[j]) * s_.range[j - nfix_];
          lo += std::min(atOne, atRange);
          hi += std::max(atOne, atRange);
        }
        const bool fits = lo >= INT64_MIN && hi <= INT64_MAX;
        const bool eq = r < p.row + p.eqs;
        if (fits && (eq ? lo == 0 && hi == 0 : lo >= 0)) continue;  // true throughout
        const bool isFalse = fits && (eq ? lo > 0 || hi < 0 : hi < 0);
        if (isFalse && !mayOverflow) {
          never = true;
          break;
        }
        s_.liveRows.push_back(r);
        mayOverflow = mayOverflow || !fits;
        if (isFalse) break;  // later rows are never reached
      }
      const int end = static_cast<int>(s_.liveRows.size());
      if (never) {
        s_.verdict[pred] = kNever;
        s_.liveRows.resize(begin);
      } else if (begin == end) {
        s_.verdict[pred] = kAlways;
      } else {
        s_.live[pred] = {begin, end};
      }
    }
  }

  /// Settles, at this binding, each candidate op that is an affine function
  /// of the tile symbols throughout the fold box: its value at the unit
  /// tile and its coefficients, when it and every op it reads stay in i64
  /// over the box, so that no candidate's step could overflow or poison. A
  /// division qualifies when its divisor is a positive constant dividing
  /// every coefficient, a min or max when one side bounds the other over
  /// the box. Everything else is stepped per candidate. Only the ops the
  /// box bounds read, directly or through a stepped op, run at all.
  void specialize() {
    const int depth = nsym_ - nfix_;
    const size_t nops = t_.ops.size();
    s_.unitValue.assign(nops, 0);
    s_.coef.assign(nops * static_cast<size_t>(depth), 0);
    s_.formOf.assign(nops, -1);
    std::vector<std::uint8_t>& affine = s_.affine;
    affine.assign(nops, 0);
    // An operand's form: a sound binding op is a constant.
    auto known = [&](int j) { return j < t_.bindingOps ? s_.poison[j] == kSound : affine[j] != 0; };
    auto unit = [&](int j) -> i128 { return j < t_.bindingOps ? s_.value[j] : s_.unitValue[j]; };
    auto coefOf = [&](int j, int l) -> i128 {
      return j < t_.bindingOps ? 0 : s_.coef[static_cast<size_t>(j) * depth + l];
    };
    auto isConstant = [&](int j) {
      for (int l = 0; l < depth; ++l)
        if (coefOf(j, l) != 0) return false;
      return true;
    };
    // The form's range over the box, or false when it leaves i64 (or the
    // range computation itself would overflow).
    auto range = [&](i128 at, const i128* c, i128& lo, i128& hi) {
      lo = hi = at;
      for (int l = 0; l < depth; ++l) {
        i128 term;
        if (__builtin_mul_overflow(c[l], static_cast<i128>(s_.range[l] - 1), &term)) return false;
        if (__builtin_add_overflow(lo, std::min<i128>(term, 0), &lo) ||
            __builtin_add_overflow(hi, std::max<i128>(term, 0), &hi))
          return false;
      }
      return true;
    };
    auto fitsI64 = [](i128 v) { return v >= INT64_MIN && v <= INT64_MAX; };
    std::vector<i128> diff(static_cast<size_t>(depth));
    for (int i : t_.candidateOps) {
      const Tables::Op& o = t_.ops[i];
      i128* c = &s_.coef[static_cast<size_t>(i) * depth];
      i128 at = 0;
      bool ok = true;
      switch (o.kind) {
        case Kind::Param:
          c[o.c - nfix_] = 1;
          at = 1;
          break;
        case Kind::Add:
          ok = known(o.a) && known(o.b);
          at = unit(o.a) + unit(o.b);
          for (int l = 0; ok && l < depth; ++l) c[l] = coefOf(o.a, l) + coefOf(o.b, l);
          break;
        case Kind::Mul: {
          ok = known(o.a) && known(o.b) && (isConstant(o.a) || isConstant(o.b));
          if (!ok) break;
          const int var = isConstant(o.a) ? o.b : o.a;
          const i128 k = unit(var == o.a ? o.b : o.a);
          at = unit(var) * k;
          for (int l = 0; l < depth; ++l) c[l] = coefOf(var, l) * k;
          break;
        }
        case Kind::FloorDiv:
        case Kind::CeilDiv: {
          ok = known(o.a) && known(o.b) && isConstant(o.b) && unit(o.b) > 0;
          const i128 d = ok ? unit(o.b) : 1;
          for (int l = 0; ok && l < depth; ++l) ok = coefOf(o.a, l) % d == 0;
          if (!ok) break;
          const i64 num = static_cast<i64>(unit(o.a)), den = static_cast<i64>(d);
          at = o.kind == Kind::FloorDiv ? floorDiv(num, den) : ceilDiv(num, den);
          for (int l = 0; l < depth; ++l) c[l] = coefOf(o.a, l) / d;
          break;
        }
        case Kind::Min:
        case Kind::Max: {
          ok = known(o.a) && known(o.b);
          if (!ok) break;
          for (int l = 0; l < depth; ++l) diff[l] = coefOf(o.a, l) - coefOf(o.b, l);
          i128 lo, hi;
          ok = range(unit(o.a) - unit(o.b), diff.data(), lo, hi) && (hi <= 0 || lo >= 0);
          if (!ok) break;
          const bool aBelow = hi <= 0;  // a <= b throughout the box
          const int pick = (o.kind == Kind::Min) == aBelow ? o.a : o.b;
          at = unit(pick);
          for (int l = 0; l < depth; ++l) c[l] = coefOf(pick, l);
          break;
        }
        default:  // Const never reads a tile symbol
          ok = false;
          break;
      }
      i128 lo, hi;
      ok = ok && fitsI64(at) && range(at, c, lo, hi) && fitsI64(lo) && fitsI64(hi);
      for (int l = 0; ok && l < depth; ++l) ok = fitsI64(c[l]);
      affine[i] = ok;
      s_.unitValue[i] = at;
    }
    // The ops to run: the box bounds, and what stepped ones read.
    std::vector<std::uint8_t>& use = s_.used;
    use.assign(nops, 0);
    for (int op : t_.boxOps) use[op] = 1;
    for (auto it = t_.candidateOps.rbegin(); it != t_.candidateOps.rend(); ++it) {
      const Tables::Op& o = t_.ops[*it];
      if (use[*it] && !affine[*it] && o.kind != Kind::Param && o.kind != Kind::Const)
        use[o.a] = use[o.b] = 1;
    }
    s_.needed.clear();
    s_.forms.clear();
    s_.formTerms.clear();
    s_.neededOf.assign(static_cast<size_t>(std::min(depth, 64)), {});
    for (int i : t_.candidateOps) {
      if (!use[i]) continue;
      s_.needed.push_back(i);
      for (size_t b = 0; b < s_.neededOf.size(); ++b)
        if ((t_.tileMask[i] >> b) & 1) s_.neededOf[b].push_back(i);
      if (!affine[i]) continue;
      s_.formOf[i] = static_cast<int>(s_.forms.size());
      Scratch::Buffers::Form form{static_cast<i64>(s_.unitValue[i]),
                                  static_cast<int>(s_.formTerms.size()), 0};
      for (int l = 0; l < depth; ++l)
        if (const i128 cl = s_.coef[static_cast<size_t>(i) * depth + l]; cl != 0)
          s_.formTerms.emplace_back(l, static_cast<i64>(cl));
      form.end = static_cast<int>(s_.formTerms.size());
      s_.forms.push_back(form);
    }
  }

  /// Evaluates ops [begin, end) as SymExpr::eval would (step).
  void run(int begin, int end) {
    const Tables::Op* table = t_.ops.data();
    for (int i = begin; i < end; ++i) step(table[i], i);
  }

  /// Evaluates op `i` as SymExpr::eval would, keeping a failure as the
  /// op's poison: operands are read in the tree's order, so an op carries
  /// the first failure the tree walk would meet.
  void step(const Tables::Op& o, int i) {
    i64* v = s_.value.data();
    std::uint8_t* p = s_.poison.data();
    i64 r = 0;
    std::uint8_t bad = kSound;
    switch (o.kind) {
      case Kind::Const:
        r = o.c;
        break;
      case Kind::Param:
        r = s_.full[o.c];
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

  const ParametricTilePlan& plan_;
  const Tables& t_;
  Scratch::Buffers& s_;
  int nfix_;  ///< binding symbols [sizes, origins]
  int nsym_;  ///< all symbols, tiles last
};

ParametricTilePlan::Structure ParametricTilePlan::buildStructure(
    const ArrayFormula& af, const std::vector<std::uint64_t>& key, Scratch::Buffers& s) const {
  Structure st;
  st.key = key;
  auto overlap = [&](int pred) {
    const Tables::Pred& p = tables_.preds[pred];
    if (p.kind != Tables::Pred::Kind::Rows) return p.kind == Tables::Pred::Kind::Always;
    return ((key[p.bit / 64] >> (p.bit % 64)) & 1) != 0;
  };
  // Refine over the array's whole reference set (overlap edges only ever
  // connect refs of one symbolic component): groups then come out in the
  // lowest-discovery-index order the concrete partitioner uses, even when
  // symbolic components interleave by reference index.
  Grouper& grouper = s.refs;
  grouper.reset(af.numRefs);
  for (const ComponentFormula& comp : af.comps) {
    const int n = static_cast<int>(comp.refs.size());
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (overlap(comp.predBase + i * n + j)) grouper.unite(comp.globalIdx[i], comp.globalIdx[j]);
  }
  const int ngroups = grouper.group();
  for (int gi = 0; gi < ngroups; ++gi) {
    Structure::Group g;
    g.comp = af.refLoc[grouper.members[grouper.start[gi]]].first;
    const ComponentFormula& comp = af.comps[g.comp];
    g.rawDims = static_cast<int>(comp.refs[0].rawBox.size());
    g.begin = static_cast<int>(st.members.size());
    for (int k = grouper.start[gi]; k < grouper.start[gi + 1]; ++k)
      st.members.push_back(af.refLoc[grouper.members[k]].second);
    g.end = static_cast<int>(st.members.size());
    g.hoistLevel = depth_;
    if (hoist_) g.hoistLevel = 0;
    for (int k = g.begin; k < g.end; ++k) {
      const RefFormula& rf = comp.refs[st.members[k]];
      g.orderReuse = g.orderReuse || rf.orderReuse;
      for (int l = 0; hoist_ && l < depth_; ++l)
        if (rf.usesOrigin[l]) g.hoistLevel = std::max(g.hoistLevel, l + 1);
    }
    g.footprint = static_cast<int>(st.boxOps.size());
    for (int d = 0; d < static_cast<int>(comp.refs[0].ctxBox.size()); ++d)
      for (int k = g.begin; k < g.end; ++k)
        for (bool upper : {false, true})
          st.boxOps.push_back(tables_.boxOps[comp.boxOp(st.members[k], d, false, upper)]);
    // Section-3.1.3 volume grouping: the group's reads, then its writes,
    // split into maximal non-overlapping subsets.
    const int n = static_cast<int>(comp.refs.size());
    for (int w = 0; w < 2; ++w) {
      g.sides[w] = static_cast<int>(st.subSize.size());
      s.side.clear();
      for (int k = g.begin; k < g.end; ++k)
        if (comp.refs[st.members[k]].isWrite == (w == 1)) s.side.push_back(st.members[k]);
      Grouper& sub = s.sides;
      sub.reset(static_cast<int>(s.side.size()));
      for (size_t i = 0; i < s.side.size(); ++i)
        for (size_t j = i + 1; j < s.side.size(); ++j) {
          const int a = std::min(s.side[i], s.side[j]), b = std::max(s.side[i], s.side[j]);
          if (overlap(comp.predBase + a * n + b))
            sub.unite(static_cast<int>(i), static_cast<int>(j));
        }
      const int nsub = sub.group();
      for (int k = 0; k < nsub; ++k) {
        st.subOps.push_back(static_cast<int>(st.boxOps.size()));
        st.subSize.push_back(sub.start[k + 1] - sub.start[k]);
        for (int d = 0; d < static_cast<int>(comp.refs[0].rawBox.size()); ++d)
          for (int m = sub.start[k]; m < sub.start[k + 1]; ++m)
            for (bool upper : {false, true})
              st.boxOps.push_back(
                  tables_.boxOps[comp.boxOp(s.side[sub.members[m]], d, true, upper)]);
      }
    }
    g.sides[2] = static_cast<int>(st.subSize.size());
    st.groups.push_back(g);
  }
  return st;
}

// ---- evaluation ----------------------------------------------------------------

TileEvaluation ParametricTilePlan::evaluate(const SizeBinding& binding,
                                            const std::vector<i64>& subTile) const {
  Scratch scratch;
  return evaluate(binding, subTile, scratch, /*withTerms=*/true);
}

TileEvaluation ParametricTilePlan::evaluate(const SizeBinding& binding,
                                            const std::vector<i64>& subTile, Scratch& scratch,
                                            bool withTerms) const {
  TileEvaluation ev;
  evaluate(binding, subTile, scratch, withTerms, ev);
  return ev;
}

void ParametricTilePlan::evaluate(const SizeBinding& binding, const std::vector<i64>& subTile,
                                  Scratch& scratch, bool withTerms, TileEvaluation& ev) const {
  EMM_REQUIRE(static_cast<int>(subTile.size()) == depth_, "subTile arity mismatch");
  Scratch::Buffers& s = *scratch.buffers;
  TableRun run(*this, binding, scratch);
  run.candidate(subTile, /*ops=*/true);
  ev.feasible = false;
  ev.reason.clear();
  ev.cost = 0;
  ev.footprint = 0;
  ev.terms.clear();

  // ---- The partition structure at these tile sizes. ----
  // Overlap grows with the tile, so the symbolic components are the
  // coarsest structure; the pairwise predicates that hold refine them to
  // exactly what the concrete analysis would partition. Each outcome's
  // structure is built once (TableRun::structure).
  s.groups.clear();
  int partitionCounter = 0, maxHoist = 0;
  i64 footprint = 0;
  for (int a = 0; a < static_cast<int>(arrays_.size()); ++a) {
    const Structure& st = run.structure(a);
    for (const Structure::Group& g : st.groups) {
      const ComponentFormula& comp = arrays_[a].comps[g.comp];
      const int* membersBegin = st.members.data() + g.begin;
      const int* membersEnd = st.members.data() + g.end;

      // Algorithm-1 benefit verdict, mirroring analyzeBlock: order-of-
      // magnitude reuse passes outright; otherwise the capped constant-
      // reuse fraction must clear the threshold. Box point counts are
      // exact here (construction rejected non-box spaces) and capped per
      // space exactly like countPoints.
      bool beneficial = g.orderReuse;
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
        for (const int* m = membersBegin; m != membersEnd; ++m)
          total = addChecked(total, boxCount(*m));
        double frac = 0.0;
        if (total != 0) {
          i64 overlap = 0;
          for (const int* i = membersBegin; i != membersEnd; ++i)
            for (const int* j = i + 1; j != membersEnd; ++j)
              overlap = addChecked(overlap, interCount(*i, *j));
          frac = static_cast<double>(overlap) / static_cast<double>(total);
        }
        beneficial = frac > benefitDelta_;
      }
      // Not allocated: no buffer, no cost term — but the concrete
      // partitioner still consumes a naming index for it.
      const int partition = partitionCounter++;
      if (!beneficial && onlyBeneficial_) continue;

      // Buffer footprint: per-dimension bounding box of the group under
      // the analysis context (the optimum the geometry planner derives).
      i64 fp = 1;
      const int* op = st.boxOps.data() + g.footprint;
      for (int d = 0; d < static_cast<int>(comp.refs[0].ctxBox.size()); ++d) {
        i64 lo = INT64_MAX, hi = INT64_MIN;
        for (int m = g.begin; m < g.end; ++m, op += 2) {
          lo = std::min(lo, run.value(op[0]));
          hi = std::max(hi, run.value(op[1]));
        }
        fp = mulChecked(fp, std::max<i64>(0, addChecked(subChecked(hi, lo), 1)));
      }
      footprint = addChecked(footprint, fp);
      maxHoist = std::max(maxHoist, g.hoistLevel);
      s.groups.push_back({&g, &st, partition, a});
    }
  }

  // Constraint (2): footprint <= Mup.
  ev.footprint = footprint;
  if (footprint > options_.memLimitElems) {
    ev.reason = "scratchpad footprint exceeds limit";
    return;
  }

  // ---- Section-4.3 objective, mirroring the concrete evaluator exactly
  // (field order and floating-point expression shapes). ----
  auto volumeOf = [&](const Scratch::Buffers::LiveGroup& live, bool writes) {
    // Section-3.1.3: the sum of the bounding-box sizes of the (read resp.
    // write) volume sub-groups.
    const Structure::Group& g = *live.group;
    const Structure& st = *live.structure;
    const int rawDims = g.rawDims;
    i64 total = 0;
    for (int k = g.sides[writes ? 1 : 0]; k < g.sides[writes ? 2 : 1]; ++k) {
      const int* op = st.boxOps.data() + st.subOps[k];
      i64 vol = 1;
      for (int d = 0; d < rawDims; ++d, op += 2 * st.subSize[k]) {
        i64 lo = INT64_MAX, hi = INT64_MIN;
        for (int m = 0; m < st.subSize[k]; ++m) {
          lo = std::min(lo, run.value(op[2 * m]));
          hi = std::max(hi, run.value(op[2 * m + 1]));
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

  // Occurrences: the product of the tiling-loop trip counts above a
  // buffer's placement level (the r_k of Section 4.3), per level up to the
  // deepest placement. The levels whose product fits are [0, fits].
  s.occ.resize(static_cast<size_t>(maxHoist) + 1);
  s.occ[0] = 1;
  int fits = maxHoist;
  for (int l = 0; l < maxHoist; ++l) {
    if (__builtin_mul_overflow(s.occ[l], ceilDiv(binding.loopRange[l], subTile[l]),
                               &s.occ[l + 1])) {
      fits = l;
      break;
    }
  }
  double P = static_cast<double>(options_.innerProcs);
  double cost = 0;
  if (withTerms) ev.terms.reserve(s.groups.size());
  for (const Scratch::Buffers::LiveGroup& live : s.groups) {
    const int hoistLevel = live.group->hoistLevel;
    i64 occ = 1;
    if (hoistLevel <= fits)
      occ = s.occ[hoistLevel];
    else  // raises the overflow of the running product
      for (int l = 0; l < hoistLevel; ++l)
        occ = mulChecked(occ, ceilDiv(binding.loopRange[l], subTile[l]));
    i64 vin = volumeOf(live, /*writes=*/false);
    i64 vout = volumeOf(live, /*writes=*/true);
    double termIn = bufferCostTerm(occ, vin, P, options_.syncCost, options_.transferCost);
    double termOut = bufferCostTerm(occ, vout, P, options_.syncCost, options_.transferCost);
    cost += termIn + termOut;
    if (withTerms)
      ev.terms.push_back({"L" + arrays_[live.array].arrayName + std::to_string(live.partition),
                          occ, vin, vout, hoistLevel});
  }
  ev.feasible = true;
  ev.cost = cost;
}

SymInterval ParametricTilePlan::footprintInterval(const SizeBinding& binding,
                                                  const std::vector<SymInterval>& tileBox,
                                                  Scratch& scratch) const {
  EMM_REQUIRE(static_cast<int>(tileBox.size()) == depth_, "tile box arity mismatch");
  // The footprint ops in interval arithmetic, as SymExpr::evalInterval
  // would run them: sizes and origins are point intervals at the binding,
  // the tile symbols range over the box. The ops that read no tile symbol
  // are the binding's values; failures are kept as poison, like in
  // evaluate().
  TableRun run(*this, binding, scratch);
  run.bindIntervals(tileBox);
  run.tileIntervals(tileBox);
  // Enclosure of the symbolic (coarsest-structure) footprint: the sum of
  // the component footprint intervals.
  const Scratch::Buffers& s = *scratch.buffers;
  SymInterval total{0, 0};
  for (const ArrayFormula& af : arrays_) {
    for (const ComponentFormula& comp : af.comps) {
      if (s.intervalPoison[comp.footprintOp] != kSound) raise(s.intervalPoison[comp.footprintOp]);
      const SymInterval fi = s.interval[comp.footprintOp];
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
