#include "ir/interp.h"

#include <algorithm>
#include <array>
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

/// Lanes that access the scratchpad together: the G80's half-warp.
constexpr int kHalfWarp = 16;

Env bindParams(const CodeUnit& unit, const IntVec& params) {
  EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
  EMM_CHECK(static_cast<int>(params.size()) == unit.source->nparam(),
            "parameter arity mismatch");
  Env env;
  for (int j = 0; j < unit.source->nparam(); ++j)
    env.emplace_back(unit.source->paramNames[j], params[j]);
  return env;
}

i64 tripCount(i64 lo, i64 hi, i64 step) { return lo <= hi ? subChecked(hi, lo) / step + 1 : 0; }

IntVec evalIndex(const std::vector<AffExpr>& exprs, const Env& env) {
  IntVec out;
  for (const AffExpr& e : exprs) out.push_back(e.evalExact(env));
  return out;
}

/// The array index of `acc` at a point of its statement (iterators, then
/// parameters).
IntVec accessIndex(const Access& acc, const IntVec& iterAndParams) {
  IntVec hom = iterAndParams;
  hom.push_back(1);
  return acc.fn.apply(hom);
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
/// becomes t0 .. t0. For the lane count, guards inside the outermost
/// ThreadParallel loop give no facts: lane 0 drives the trip counts there
/// even where a guard has masked it off.
class CountPlanner {
public:
  CountPlanner(const CodeUnit& unit, bool lanes)
      : scope_(unit.source->paramNames), lanes_(lanes) {}

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
          if (inWarp_) continue;
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
        const bool warp = lanes_ && !inWarp_ && n.loopKind == LoopKind::ThreadParallel;
        inWarp_ = inWarp_ || warp;
        std::set<std::string> body;
        for (const AstPtr& c : n.children) out.children.push_back(plan(*c, inner, body));
        inWarp_ = inWarp_ && !warp;
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
  bool lanes_;                      ///< planning for the lane count
  bool inWarp_ = false;             ///< inside the outermost ThreadParallel loop
};

// ---- Execution and counting. ----

/// A local scratchpad buffer instantiated at concrete parameter values.
/// Bounds checks use the LOGICAL extents; flattening strides by the padded
/// (allocated) extents, exactly as the emitted array declarations do.
struct LocalInstance {
  std::vector<i64> extents;        ///< logical, for the bounds check
  std::vector<i64> paddedExtents;  ///< allocated, the flattening strides
  std::vector<double> data;
  i64 base = 0;  ///< lane count: the buffer's offset in the banked arena, elements

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
///
/// Given a bank model, the count is a lane count: one lane down to the
/// outermost ThreadParallel loop, kHalfWarp lanes in lockstep inside it, and
/// each scratchpad access charged its bank cycles. The collapse carries
/// over: a shift that moves every lane alike moves every lane's address
/// alike, which only permutes the banks, so the cycles depend on the masks
/// and the lanes' relative offsets alone (docs/ARCHITECTURE.md).
class Interp {
public:
  Interp(const CodeUnit& unit, const IntVec& params, ArrayStore* globals,
         const BankDescriptor* bank = nullptr, i64 elementBytes = 0)
      : unit_(unit), globals_(globals), bank_(bank), env_(bindParams(unit, params)) {
    if (counting()) {
      std::set<std::string> vars;
      if (unit.root != nullptr)
        plan_ = CountPlanner(unit, bank != nullptr).plan(*unit.root, {}, vars);
      if (bank == nullptr) return;
      wordsPerElem_ = std::max<i64>(1, elementBytes / std::max<i64>(1, bank->widthBytes));
    }
    // The lane count's arena: buffers back to back, each at a bank-row
    // multiple, as the packing planner places them.
    const i64 row = bank != nullptr ? std::max<i64>(1, bank->banks) : 1;
    i64 arena = 0;
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
      if (counting()) {
        li.base = arena;
        const i64 end = addChecked(arena, b.ndim > 0 ? n : 0);
        arena = mulChecked(row, (end + row - 1) / row);
      } else {
        li.data.assign(static_cast<size_t>(n), 0.0);
      }
      locals_.push_back(std::move(li));
    }
  }

  MemTrace run() {
    if (unit_.root != nullptr) exec(*unit_.root, counting() ? &plan_ : nullptr);
    return trace_;
  }

  const BankConflictStats& conflicts() const { return conflicts_; }

private:
  bool counting() const { return globals_ == nullptr; }

  /// Adds one event, or `weight_` of them inside loops run once for many.
  void tally(i64& counter) const { counter = addChecked(counter, weight_); }
  void tally(i64& counter, i64 events) const {
    counter = addChecked(counter, mulChecked(weight_, events));
  }

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
    return counting() ? IntVec{} : accessIndex(acc, iterAndParams);
  }

  IntVec index(const std::vector<AffExpr>& exprs) const {
    return counting() ? IntVec{} : evalIndex(exprs, env_);
  }

  /// The (iterators, parameters) point of call `n` in `env`. Parameters are
  /// looked up by name with the innermost binding winning: tile-origin
  /// parameters are rebound by sub-tile loops.
  IntVec callPoint(const AstNode& n, const Statement& st, const Env& env) const {
    IntVec point;
    point.reserve(st.dim() + st.domain.nparam());
    for (const AffExpr& a : n.callArgs) point.push_back(a.evalExact(env));
    for (int j = 0; j < st.domain.nparam(); ++j)
      point.push_back(AffExpr::var(unit_.source->paramNames[j]).evalExact(env));
    return point;
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
    const i64 trips = tripCount(lo, hi, n.step);
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

  bool active(int lane) const { return (mask_ >> lane & 1) != 0; }

  // The lane count's steps stay out of line: inlined into exec(), they
  // doubled its size and slowed countCodeUnit.

  /// A loop of the lane count. The outermost ThreadParallel loop deals
  /// kHalfWarp consecutive iterations to the lanes and advances by whole
  /// warps. A loop inside it binds each lane's own lower bound plus the
  /// shared offset, which carries the lane identity through point loops
  /// like `for (p0 = t0; p0 <= t0; ...)`. Lane 0 drives the trip count, and
  /// a lane past its own upper bound is masked off. When the body's counts
  /// do not vary with the iterator, the iterations that mask no lane off run
  /// once, at the weight of all of them.
  [[gnu::noinline]] void laneLoop(const AstNode& n, const CountNode& cn) {
    const bool warp = lanes_.empty();
    if (warp) {
      lanes_.assign(kHalfWarp, env_);
      mask_ = (1u << kHalfWarp) - 1;
    }
    const unsigned outer = mask_;
    const i64 stride = warp ? mulChecked(n.step, kHalfWarp) : n.step;
    std::array<i64, kHalfWarp> lo{}, hi{};
    for (int l = 0; l < kHalfWarp; ++l) {
      lo[l] = cn.lb->eval(lanes_[l]) + (warp ? l * n.step : 0);
      hi[l] = cn.ub->eval(lanes_[l]);
    }
    const i64 trips = tripCount(lo[0], hi[0], stride);
    i64 unmasked = trips;
    for (int l = 0; l < kHalfWarp; ++l)
      if (active(l)) unmasked = std::min(unmasked, tripCount(lo[l], hi[l], stride));
    for (Env& e : lanes_) e.emplace_back(n.iter, 0);
    auto iteration = [&](i64 k) {
      mask_ = 0;
      for (int l = 0; l < kHalfWarp; ++l) {
        lanes_[l].back().second = lo[l] + k * stride;
        if (lanes_[l].back().second <= hi[l]) mask_ |= 1u << l;
      }
      mask_ &= outer;
      if (mask_ != 0) children(n, &cn);
    };
    i64 k = 0;
    if (!cn.bodyVaries && unmasked > 1) {
      const i64 weight = std::exchange(weight_, mulChecked(weight_, unmasked));
      iteration(0);
      weight_ = weight;
      k = unmasked;
    }
    for (; k < trips; ++k) iteration(k);
    mask_ = outer;
    if (warp)
      lanes_.clear();
    else
      for (Env& e : lanes_) e.pop_back();
  }

  /// A guard inside the warp masks the lanes that fail it.
  [[gnu::noinline]] void laneGuard(const AstNode& n, const CountNode* cn) {
    const unsigned outer = mask_;
    for (int l = 0; l < kHalfWarp; ++l)
      if (active(l) && std::any_of(n.guards.begin(), n.guards.end(), [&](const AffExpr& g) {
            return g.evalFloor(lanes_[l]) < 0;
          }))
        mask_ &= ~(1u << l);
    if (mask_ != 0) children(n, cn);
    mask_ = outer;
  }

  /// Charges one access of array `arrayId` across the active lanes, when it
  /// is a scratchpad buffer; `index(l)` is lane l's index. The access costs
  /// the most distinct addresses any one bank serves: lanes on one address
  /// broadcast, the G80 half-warp rule.
  template <typename IndexFn>
  [[gnu::noinline]] void laneAccess(int arrayId, IndexFn&& index) {
    const int local = arrayId - unit_.numGlobalArrays();
    if (local < 0) return;
    const LocalInstance& li = locals_[local];
    std::array<i64, kHalfWarp> addr{};
    int n = 0;
    for (int l = 0; l < kHalfWarp; ++l) {
      if (!active(l)) continue;
      const size_t flat = li.flatten(index(l), unit_.localBuffers[local].name);
      addr[n++] = mulChecked(addChecked(li.base, static_cast<i64>(flat)), wordsPerElem_);
    }
    i64 cycles = 1;
    if (bank_->banks > 1) {
      std::sort(addr.begin(), addr.begin() + n);
      const auto end = std::unique(addr.begin(), addr.begin() + n);
      for (auto a = addr.begin(); a != end; ++a)
        cycles = std::max<i64>(cycles, std::count_if(addr.begin(), end, [&](i64 b) {
                                 return b % bank_->banks == *a % bank_->banks;
                               }));
    }
    tally(conflicts_.warpAccesses);
    tally(conflicts_.bankCycles, cycles);
    if (cycles > 1) tally(conflicts_.conflictedAccesses);
  }

  /// Charges each scratchpad access of call `n` across the active lanes.
  [[gnu::noinline]] void laneCall(const AstNode& n, const Statement& st) {
    if (st.writeAccess < 0) return;
    std::array<IntVec, kHalfWarp> point;
    for (int l = 0; l < kHalfWarp; ++l)
      if (active(l)) point[l] = callPoint(n, st, lanes_[l]);
    for (const Access& acc : st.accesses)
      laneAccess(acc.arrayId, [&](int l) { return accessIndex(acc, point[l]); });
  }

  void exec(const AstNode& n, const CountNode* cn) {
    switch (n.kind) {
      case AstNode::Kind::Block:
        children(n, cn);
        break;
      case AstNode::Kind::For:
        if (bank_ != nullptr && (!lanes_.empty() || n.loopKind == LoopKind::ThreadParallel))
          laneLoop(n, *cn);
        else
          loop(n, cn);
        break;
      case AstNode::Kind::Guard: {
        if (!lanes_.empty()) {
          laneGuard(n, cn);
          break;
        }
        for (const AffExpr& g : n.guards)
          if (g.evalFloor(env_) < 0) return;
        children(n, cn);
        break;
      }
      case AstNode::Kind::Call: {
        const Statement& st = unit_.statements[n.stmtId];
        EMM_CHECK(static_cast<int>(n.callArgs.size()) == st.dim(),
                  "call arity mismatch for " + st.name);
        if (!lanes_.empty()) {
          laneCall(n, st);
          break;
        }
        tally(trace_.stmtInstances);
        if (st.writeAccess < 0) return;
        const IntVec iterAndParams = counting() ? IntVec{} : callPoint(n, st, env_);
        const double v = evalExpr(*st.rhs, st, iterAndParams);
        const Access& w = st.accesses[st.writeAccess];
        write(w.arrayId, index(w, iterAndParams), v);
        break;
      }
      case AstNode::Kind::Copy: {
        if (!lanes_.empty()) {
          laneAccess(n.srcArray, [&](int l) { return evalIndex(n.srcIndex, lanes_[l]); });
          laneAccess(n.dstArray, [&](int l) { return evalIndex(n.dstIndex, lanes_[l]); });
          break;
        }
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
  const BankDescriptor* bank_;  ///< the lane count's bank model, else null
  Env env_;
  CountNode plan_;  ///< the root's count tree, when counting
  std::vector<LocalInstance> locals_;
  MemTrace trace_;
  i64 weight_ = 1;

  i64 wordsPerElem_ = 1;    ///< bank words per buffer element
  std::vector<Env> lanes_;  ///< inside the warp: each lane's environment
  unsigned mask_ = 0;       ///< inside the warp: the active lanes, one bit each
  BankConflictStats conflicts_;
};

}  // namespace

MemTrace executeCodeUnit(const CodeUnit& unit, const IntVec& paramValues, ArrayStore& globals) {
  return Interp(unit, paramValues, &globals).run();
}

MemTrace countCodeUnit(const CodeUnit& unit, const IntVec& paramValues) {
  return Interp(unit, paramValues, nullptr).run();
}

BankConflictStats countBankConflicts(const CodeUnit& unit, const IntVec& paramValues,
                                     const BankDescriptor& bank, i64 elementBytes) {
  Interp lanes(unit, paramValues, nullptr, &bank, elementBytes);
  lanes.run();
  return lanes.conflicts();
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
