#include "ir/ast.h"

#include <algorithm>
#include <sstream>

namespace emm {

namespace {

i64 lookup(const std::vector<std::pair<std::string, i64>>& env, const std::string& name) {
  for (auto it = env.rbegin(); it != env.rend(); ++it)
    if (it->first == name) return it->second;
  EMM_CHECK(false, "unbound variable '" + name + "' in AST evaluation");
}

i128 numerator(const AffExpr& e, const std::vector<std::pair<std::string, i64>>& env) {
  i128 acc = e.cnst;
  for (const auto& [name, coeff] : e.terms) acc += static_cast<i128>(coeff) * lookup(env, name);
  return acc;
}

}  // namespace

AffExpr AffExpr::constant(i64 c) {
  AffExpr e;
  e.cnst = c;
  return e;
}

AffExpr AffExpr::var(const std::string& name, i64 coeff) {
  AffExpr e;
  if (coeff != 0) e.terms.emplace_back(name, coeff);
  return e;
}

AffExpr AffExpr::plus(i64 c) const {
  AffExpr e = *this;
  EMM_CHECK(e.den == 1, "plus() on divided expression");
  e.cnst = addChecked(e.cnst, c);
  return e;
}

bool AffExpr::mentions(const std::string& name) const {
  return std::any_of(terms.begin(), terms.end(),
                     [&](const auto& t) { return t.first == name && t.second != 0; });
}

i64 AffExpr::evalExact(const std::vector<std::pair<std::string, i64>>& env) const {
  i128 num = numerator(*this, env);
  EMM_CHECK(num % den == 0, "non-exact division in AST expression");
  return narrow(num / den);
}

i64 AffExpr::evalFloor(const std::vector<std::pair<std::string, i64>>& env) const {
  return floorDiv(narrow(numerator(*this, env)), den);
}

i64 AffExpr::evalCeil(const std::vector<std::pair<std::string, i64>>& env) const {
  return ceilDiv(narrow(numerator(*this, env)), den);
}

std::string AffExpr::str(bool ceilMode) const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, coeff] : terms) {
    if (coeff == 0) continue;
    if (first) {
      if (coeff == -1)
        os << "-";
      else if (coeff != 1)
        os << coeff << "*";
    } else {
      os << (coeff > 0 ? " + " : " - ");
      i64 a = coeff > 0 ? coeff : -coeff;
      if (a != 1) os << a << "*";
    }
    os << name;
    first = false;
  }
  if (first) {
    os << cnst;
  } else if (cnst != 0) {
    os << (cnst > 0 ? " + " : " - ") << (cnst > 0 ? cnst : -cnst);
  }
  std::string body = os.str();
  if (den != 1) {
    return std::string(ceilMode ? "ceild(" : "floord(") + body + ", " + std::to_string(den) + ")";
  }
  return body;
}

BoundExpr BoundExpr::single(AffExpr e, bool isMaxBound) {
  BoundExpr b;
  b.parts.push_back(std::move(e));
  b.isMax = isMaxBound;
  return b;
}

i64 BoundExpr::eval(const std::vector<std::pair<std::string, i64>>& env) const {
  EMM_CHECK(!parts.empty(), "empty bound expression");
  i64 best = isMax ? parts[0].evalCeil(env) : parts[0].evalFloor(env);
  for (size_t i = 1; i < parts.size(); ++i) {
    i64 v = isMax ? parts[i].evalCeil(env) : parts[i].evalFloor(env);
    best = isMax ? std::max(best, v) : std::min(best, v);
  }
  return best;
}

bool BoundExpr::mentions(const std::string& name) const {
  return std::any_of(parts.begin(), parts.end(),
                     [&](const AffExpr& e) { return e.mentions(name); });
}

std::string BoundExpr::str() const {
  EMM_CHECK(!parts.empty(), "empty bound expression");
  if (parts.size() == 1) return parts[0].str(isMax);
  std::ostringstream os;
  os << (isMax ? "max(" : "min(");
  for (size_t i = 0; i < parts.size(); ++i) os << (i ? ", " : "") << parts[i].str(isMax);
  os << ")";
  return os.str();
}

AstPtr AstNode::block() {
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::Block;
  return ptr;
}

AstPtr AstNode::forLoop(std::string iter, BoundExpr lb, BoundExpr ub, i64 step, LoopKind kind) {
  EMM_CHECK(step > 0, "loop step must be positive");
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::For;
  n.iter = std::move(iter);
  n.lb = std::move(lb);
  n.ub = std::move(ub);
  n.step = step;
  n.loopKind = kind;
  return ptr;
}

AstPtr AstNode::guard(std::vector<AffExpr> guards) {
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::Guard;
  n.guards = std::move(guards);
  return ptr;
}

AstPtr AstNode::call(int stmtId, std::vector<AffExpr> args) {
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::Call;
  n.stmtId = stmtId;
  n.callArgs = std::move(args);
  return ptr;
}

AstPtr AstNode::copy(int dstArray, std::vector<AffExpr> dstIndex, int srcArray,
                     std::vector<AffExpr> srcIndex) {
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::Copy;
  n.dstArray = dstArray;
  n.dstIndex = std::move(dstIndex);
  n.srcArray = srcArray;
  n.srcIndex = std::move(srcIndex);
  return ptr;
}

AstPtr AstNode::sync() {
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::Sync;
  return ptr;
}

AstPtr AstNode::comment(std::string text) {
  AstPtr ptr = AstPtr::make();
  AstNode& n = ptr.mut();
  n.kind = Kind::Comment;
  n.text = std::move(text);
  return ptr;
}

AstNode* AstNode::addChild(AstPtr child) {
  EMM_CHECK(kind == Kind::Block || kind == Kind::For || kind == Kind::Guard,
            "node kind cannot have children");
  children.push_back(std::move(child));
  return &children.back().mut();
}

}  // namespace emm
