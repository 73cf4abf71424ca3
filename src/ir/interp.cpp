#include "ir/interp.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

namespace emm {

MemTrace& MemTrace::operator+=(const MemTrace& o) {
  globalReads = addChecked(globalReads, o.globalReads);
  globalWrites = addChecked(globalWrites, o.globalWrites);
  localReads = addChecked(localReads, o.localReads);
  localWrites = addChecked(localWrites, o.localWrites);
  syncs = addChecked(syncs, o.syncs);
  stmtInstances = addChecked(stmtInstances, o.stmtInstances);
  copyElements = addChecked(copyElements, o.copyElements);
  arithOps = addChecked(arithOps, o.arithOps);
  return *this;
}

std::string MemTrace::str() const {
  std::ostringstream os;
  os << "global " << globalReads << "r/" << globalWrites << "w, local " << localReads << "r/"
     << localWrites << "w, syncs " << syncs << ", instances " << stmtInstances << ", copies "
     << copyElements << ", arith " << arithOps;
  return os.str();
}

namespace {

using Env = std::vector<std::pair<std::string, i64>>;

Env bindParams(const CodeUnit& unit, const IntVec& params) {
  EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
  EMM_CHECK(static_cast<int>(params.size()) == unit.source->nparam(),
            "parameter arity mismatch");
  Env env;
  for (int j = 0; j < unit.source->nparam(); ++j)
    env.emplace_back(unit.source->paramNames[j], params[j]);
  return env;
}

// ---- The count plan: pruned bounds and iterator dependence per loop. ----

/// a - b, with like terms combined and zero terms dropped. Both have den 1.
AffExpr minus(const AffExpr& a, const AffExpr& b) {
  std::map<std::string, i64> coeff;
  for (const auto& [name, c] : a.terms) coeff[name] = addChecked(coeff[name], c);
  for (const auto& [name, c] : b.terms) coeff[name] = subChecked(coeff[name], c);
  AffExpr d = AffExpr::constant(subChecked(a.cnst, b.cnst));
  for (const auto& [name, c] : coeff)
    if (c != 0) d.terms.emplace_back(name, c);
  return d;
}

/// A bound whose variables are resolved to their slots in the environment,
/// which the loop nest fixes: the parameters, then one slot per enclosing
/// loop, the innermost binding of a name winning. Evaluates as
/// BoundExpr::eval does, without looking names up.
class SlotBound {
public:
  SlotBound(const BoundExpr& b, const std::vector<std::string>& scope)
      : isMax_(b.isMax), valid_(!b.parts.empty()) {
    for (const AffExpr& e : b.parts) {
      Part& p = parts_.emplace_back(Part{{}, e.cnst, e.den});
      for (const auto& [name, c] : e.terms) {
        const auto it = std::find(scope.rbegin(), scope.rend(), name);
        valid_ = valid_ && it != scope.rend();
        p.terms.emplace_back(static_cast<int>(scope.rend() - it) - 1, c);
      }
    }
  }

  i64 eval(const Env& env) const {
    EMM_CHECK(valid_, "empty bound or unbound variable in AST evaluation");
    i64 best = part(parts_[0], env);
    for (size_t i = 1; i < parts_.size(); ++i)
      best = isMax_ ? std::max(best, part(parts_[i], env)) : std::min(best, part(parts_[i], env));
    return best;
  }

private:
  struct Part {
    std::vector<std::pair<int, i64>> terms;  ///< (slot, coefficient)
    i64 cnst, den;
  };

  i64 part(const Part& p, const Env& env) const {
    i128 num = p.cnst;
    for (const auto& [slot, c] : p.terms) num += static_cast<i128>(c) * env[slot].second;
    if (p.den == 1) return narrow(num);
    return isMax_ ? ceilDiv(narrow(num), p.den) : floorDiv(narrow(num), p.den);
  }

  std::vector<Part> parts_;
  bool isMax_;
  bool valid_;  ///< every part's variables are bound, and there is a part
};

/// What counting needs of one AST node, in a tree parallel to the AST.
struct CountNode {
  /// For a For node: the bounds without parts the context implies.
  std::optional<SlotBound> lb, ub;
  bool bodyVaries = true;  ///< For: the body's counts depend on the iterator
  std::vector<CountNode> children;
};

/// Builds the CountNode tree of a unit. A fact is an affine expression
/// (den 1) that is >= 0 wherever it is in scope: x - L and U - x for each
/// part L, U of an enclosing loop x's bounds, and each enclosing guard. A
/// bound part is dropped when a fact shows another part is always at least
/// as tight. One fact per comparison suffices for the tiled units: ME's
/// p0 = t0 .. min(Ni-1, t0, o0+31) sits inside t0 <= min(Ni-1, o0+31) and
/// becomes t0 .. t0.
class CountPlanner {
public:
  explicit CountPlanner(const CodeUnit& unit) : scope_(unit.source->paramNames) {}

  /// The count tree of `n` under `facts`; `vars` receives the variables the
  /// counts of `n` depend on.
  CountNode plan(const AstNode& n, const std::vector<AffExpr>& facts,
                 std::set<std::string>& vars) {
    CountNode out;
    switch (n.kind) {
      case AstNode::Kind::Block:
        for (const AstPtr& c : n.children) out.children.push_back(plan(*c, facts, vars));
        break;
      case AstNode::Kind::Guard: {
        std::vector<AffExpr> inner = facts;
        for (const AffExpr& g : n.guards) {
          for (const auto& [name, c] : g.terms)
            if (c != 0) vars.insert(name);
          AffExpr numerator = g;  // floor(g / den) >= 0 iff g >= 0
          numerator.den = 1;
          inner.push_back(std::move(numerator));
        }
        for (const AstPtr& c : n.children) out.children.push_back(plan(*c, inner, vars));
        break;
      }
      case AstNode::Kind::For: {
        const BoundExpr lb = prune(n.lb, facts), ub = prune(n.ub, facts);
        std::vector<AffExpr> inner;
        for (const AffExpr& f : facts)
          if (!f.mentions(n.iter)) inner.push_back(f);
        const AffExpr x = AffExpr::var(n.iter);
        for (const AffExpr& p : n.lb.parts)
          if (p.den == 1 && !p.mentions(n.iter)) inner.push_back(minus(x, p));
        for (const AffExpr& p : n.ub.parts)
          if (p.den == 1 && !p.mentions(n.iter)) inner.push_back(minus(p, x));
        out.lb.emplace(lb, scope_);
        out.ub.emplace(ub, scope_);
        scope_.push_back(n.iter);
        std::set<std::string> body;
        for (const AstPtr& c : n.children) out.children.push_back(plan(*c, inner, body));
        scope_.pop_back();
        out.bodyVaries = body.erase(n.iter) > 0;
        vars.merge(body);
        // The trip count depends on what ub - lb mentions; when the body
        // varies with the iterator, on where the range starts too.
        const bool affineTrip = lb.parts.size() == 1 && ub.parts.size() == 1 &&
                                lb.parts[0].den == 1 && ub.parts[0].den == 1;
        if (affineTrip && !out.bodyVaries) {
          for (const auto& [name, c] : minus(ub.parts[0], lb.parts[0]).terms)
            vars.insert(name);
        } else {
          addVars(lb, vars);
          addVars(ub, vars);
        }
        break;
      }
      case AstNode::Kind::Call:
      case AstNode::Kind::Copy:
      case AstNode::Kind::Sync:
      case AstNode::Kind::Comment:
        break;
    }
    return out;
  }

private:
  static bool implied(const AffExpr& e, const std::vector<AffExpr>& facts) {
    if (e.isConstant()) return e.cnst >= 0;
    return std::any_of(facts.begin(), facts.end(), [&](const AffExpr& f) {
      const AffExpr slack = minus(e, f);
      return slack.isConstant() && slack.cnst >= 0;
    });
  }

  static BoundExpr prune(const BoundExpr& b, const std::vector<AffExpr>& facts) {
    const size_t n = b.parts.size();
    std::vector<bool> dropped(n, false);
    for (size_t i = 0; i < n; ++i) {
      if (b.parts[i].den != 1) continue;
      for (size_t j = 0; j < n && !dropped[i]; ++j) {
        if (j == i || dropped[j] || b.parts[j].den != 1) continue;
        // Part i is redundant when part j is never looser than it.
        dropped[i] = implied(b.isMax ? minus(b.parts[j], b.parts[i])
                                     : minus(b.parts[i], b.parts[j]),
                             facts);
      }
    }
    BoundExpr out{{}, b.isMax};
    for (size_t i = 0; i < n; ++i)
      if (!dropped[i]) out.parts.push_back(b.parts[i]);
    return out;
  }

  static void addVars(const BoundExpr& b, std::set<std::string>& vars) {
    for (const AffExpr& p : b.parts)
      for (const auto& [name, c] : p.terms)
        if (c != 0) vars.insert(name);
  }

  std::vector<std::string> scope_;  ///< the environment's names, slot by slot
};

// ---- Execution and counting. ----

/// A local scratchpad buffer instantiated at concrete parameter values.
/// Bounds checks use the LOGICAL extents; flattening strides by the padded
/// (allocated) extents, exactly as the emitted array declarations do.
struct LocalInstance {
  std::vector<i64> extents;        ///< logical, for the bounds check
  std::vector<i64> paddedExtents;  ///< allocated, the flattening strides
  std::vector<double> data;

  size_t flatten(const IntVec& index, const std::string& name) const {
    EMM_CHECK(index.size() == extents.size(), "local index arity mismatch");
    size_t flat = 0;
    for (size_t k = 0; k < extents.size(); ++k) {
      EMM_CHECK(index[k] >= 0 && index[k] < extents[k],
                "local buffer '" + name + "' index out of bounds in dim " + std::to_string(k) +
                    ": " + std::to_string(index[k]) + " not in [0," +
                    std::to_string(extents[k]) + ")");
      flat = flat * static_cast<size_t>(paddedExtents[k]) + static_cast<size_t>(index[k]);
    }
    return flat;
  }
};

/// Executes a unit against `globals`, or counts it when `globals` is null.
/// Both walk the same dispatch and charge every event through tally(); the
/// count skips index arithmetic and data, reads its loop bounds from the
/// CountNode tree, and runs a loop whose body does not vary with its
/// iterator once, at a weight multiplied by its trip count.
class Interp {
public:
  Interp(const CodeUnit& unit, const IntVec& params, ArrayStore* globals)
      : unit_(unit), globals_(globals), env_(bindParams(unit, params)) {
    if (counting()) {
      std::set<std::string> vars;
      if (unit.root != nullptr) plan_ = CountPlanner(unit).plan(*unit.root, {}, vars);
      return;
    }
    for (const LocalBuffer& b : unit_.localBuffers) {
      LocalInstance li;
      for (int d = 0; d < b.ndim; ++d) {
        i64 extent = b.sizeExpr[d].eval(env_);
        EMM_CHECK(extent >= 0, "negative local buffer extent for " + b.name);
        li.extents.push_back(extent);
        li.paddedExtents.push_back(b.paddedExtent(d, env_));
      }
      i64 n = 1;
      for (i64 e : li.paddedExtents) n = mulChecked(n, e);
      li.data.assign(static_cast<size_t>(n), 0.0);
      locals_.push_back(std::move(li));
    }
  }

  MemTrace run() {
    if (unit_.root != nullptr) exec(*unit_.root, counting() ? &plan_ : nullptr);
    return trace_;
  }

private:
  bool counting() const { return globals_ == nullptr; }

  /// Adds one event, or `weight_` of them inside loops run once for many.
  void tally(i64& counter) const { counter = addChecked(counter, weight_); }

  void account(int arrayId, bool write) {
    const bool local = arrayId >= unit_.numGlobalArrays();
    tally(local ? (write ? trace_.localWrites : trace_.localReads)
                : (write ? trace_.globalWrites : trace_.globalReads));
  }

  double read(int arrayId, const IntVec& index) {
    account(arrayId, false);
    if (counting()) return 0.0;
    const int nglobal = unit_.numGlobalArrays();
    if (arrayId < nglobal) return globals_->get(arrayId, index);
    LocalInstance& li = locals_[arrayId - nglobal];
    return li.data[li.flatten(index, unit_.localBuffers[arrayId - nglobal].name)];
  }

  void write(int arrayId, const IntVec& index, double v) {
    account(arrayId, true);
    if (counting()) return;
    const int nglobal = unit_.numGlobalArrays();
    if (arrayId < nglobal) {
      globals_->set(arrayId, index, v);
      return;
    }
    LocalInstance& li = locals_[arrayId - nglobal];
    li.data[li.flatten(index, unit_.localBuffers[arrayId - nglobal].name)] = v;
  }

  /// The array index of `acc` at an instance; empty when counting.
  IntVec index(const Access& acc, const IntVec& iterAndParams) const {
    if (counting()) return {};
    IntVec hom = iterAndParams;
    hom.push_back(1);
    return acc.fn.apply(hom);
  }

  IntVec index(const std::vector<AffExpr>& exprs) const {
    IntVec out;
    if (counting()) return out;
    for (const AffExpr& e : exprs) out.push_back(e.evalExact(env_));
    return out;
  }

  double evalExpr(const Expr& e, const Statement& st, const IntVec& iterAndParams) {
    if (e.kind() == Expr::Kind::Const) return e.constValue();
    if (e.kind() == Expr::Kind::Load) {
      const Access& acc = st.accesses[e.accessIndex()];
      return read(acc.arrayId, index(acc, iterAndParams));
    }
    tally(trace_.arithOps);
    const double l = evalExpr(*e.lhs(), st, iterAndParams);
    if (e.kind() == Expr::Kind::Abs) return std::fabs(l);
    const double r = evalExpr(*e.rhs(), st, iterAndParams);
    switch (e.kind()) {
      case Expr::Kind::Min:
        return std::min(l, r);
      case Expr::Kind::Max:
        return std::max(l, r);
      case Expr::Kind::Add:
        return l + r;
      case Expr::Kind::Sub:
        return l - r;
      case Expr::Kind::Mul:
        return l * r;
      case Expr::Kind::Div:
        return l / r;
      default:
        break;
    }
    EMM_CHECK(false, "unreachable expression kind");
  }

  /// Runs the children of `n`; `cn` is its CountNode when counting.
  void children(const AstNode& n, const CountNode* cn) {
    for (size_t i = 0; i < n.children.size(); ++i)
      exec(*n.children[i], cn != nullptr ? &cn->children[i] : nullptr);
  }

  void loop(const AstNode& n, const CountNode* cn) {
    const i64 lo = cn != nullptr ? cn->lb->eval(env_) : n.lb.eval(env_);
    const i64 hi = cn != nullptr ? cn->ub->eval(env_) : n.ub.eval(env_);
    env_.emplace_back(n.iter, lo);
    const i64 trips = lo <= hi ? subChecked(hi, lo) / n.step + 1 : 0;
    if (cn != nullptr && !cn->bodyVaries && trips > 1) {
      // Every iteration counts alike: run the first, for all of them.
      const i64 outer = std::exchange(weight_, mulChecked(weight_, trips));
      children(n, cn);
      weight_ = outer;
    } else {
      for (i64 v = lo; v <= hi; v += n.step) {
        env_.back().second = v;
        children(n, cn);
      }
    }
    env_.pop_back();
  }

  void exec(const AstNode& n, const CountNode* cn) {
    switch (n.kind) {
      case AstNode::Kind::Block:
        children(n, cn);
        break;
      case AstNode::Kind::For:
        loop(n, cn);
        break;
      case AstNode::Kind::Guard: {
        for (const AffExpr& g : n.guards)
          if (g.evalFloor(env_) < 0) return;
        children(n, cn);
        break;
      }
      case AstNode::Kind::Call: {
        const Statement& st = unit_.statements[n.stmtId];
        EMM_CHECK(static_cast<int>(n.callArgs.size()) == st.dim(),
                  "call arity mismatch for " + st.name);
        tally(trace_.stmtInstances);
        if (st.writeAccess < 0) return;
        IntVec iterAndParams;
        if (!counting()) {
          iterAndParams.reserve(st.dim() + st.domain.nparam());
          for (const AffExpr& a : n.callArgs) iterAndParams.push_back(a.evalExact(env_));
          // Parameters are looked up by name with the innermost binding
          // winning: tile-origin parameters are rebound by sub-tile loops.
          for (int j = 0; j < st.domain.nparam(); ++j) {
            const std::string& pname = unit_.source->paramNames[j];
            iterAndParams.push_back(AffExpr::var(pname).evalExact(env_));
          }
        }
        const double v = evalExpr(*st.rhs, st, iterAndParams);
        const Access& w = st.accesses[st.writeAccess];
        write(w.arrayId, index(w, iterAndParams), v);
        break;
      }
      case AstNode::Kind::Copy: {
        const IntVec dst = index(n.dstIndex);
        const IntVec src = index(n.srcIndex);
        write(n.dstArray, dst, read(n.srcArray, src));
        tally(trace_.copyElements);
        break;
      }
      case AstNode::Kind::Sync:
        tally(trace_.syncs);
        break;
      case AstNode::Kind::Comment:
        break;
    }
  }

  const CodeUnit& unit_;
  ArrayStore* globals_;
  Env env_;
  CountNode plan_;  ///< the root's count tree, when counting
  std::vector<LocalInstance> locals_;
  MemTrace trace_;
  i64 weight_ = 1;
};

}  // namespace

MemTrace executeCodeUnit(const CodeUnit& unit, const IntVec& paramValues, ArrayStore& globals) {
  return Interp(unit, paramValues, &globals).run();
}

MemTrace countCodeUnit(const CodeUnit& unit, const IntVec& paramValues) {
  return Interp(unit, paramValues, nullptr).run();
}

i64 scratchpadFootprint(const CodeUnit& unit, const IntVec& paramValues) {
  const Env env = bindParams(unit, paramValues);
  i64 total = 0;
  for (const LocalBuffer& b : unit.localBuffers) {
    i64 n = 1;
    for (int d = 0; d < b.ndim; ++d) n = mulChecked(n, b.paddedExtent(d, env));
    total = addChecked(total, n);
  }
  return total;
}

}  // namespace emm
