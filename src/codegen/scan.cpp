#include "codegen/scan.h"

#include <algorithm>

namespace emm {

BoundExpr toBoundExpr(const std::vector<DivExpr>& parts, bool isLower,
                      const std::vector<std::string>& prefixNames,
                      const std::vector<std::string>& paramNames) {
  BoundExpr b;
  b.isMax = isLower;
  for (const DivExpr& d : parts) {
    AffExpr e;
    EMM_CHECK(d.coeffs.size() == prefixNames.size() + paramNames.size() + 1,
              "bound coefficient arity mismatch");
    size_t idx = 0;
    for (const std::string& n : prefixNames) {
      if (d.coeffs[idx] != 0) e.terms.emplace_back(n, d.coeffs[idx]);
      ++idx;
    }
    for (const std::string& n : paramNames) {
      if (d.coeffs[idx] != 0) e.terms.emplace_back(n, d.coeffs[idx]);
      ++idx;
    }
    e.cnst = d.coeffs[idx];
    e.den = d.den;
    b.parts.push_back(std::move(e));
  }
  return b;
}

AstPtr scanPolyhedron(const Polyhedron& p, const std::vector<std::string>& iterNames,
                      const std::vector<std::string>& paramNames, const BodyMaker& makeBody) {
  EMM_REQUIRE(static_cast<int>(iterNames.size()) == p.dim(), "iterator name arity mismatch");
  EMM_REQUIRE(static_cast<int>(paramNames.size()) == p.nparam(), "parameter name arity mismatch");
  AstPtr root = AstNode::block();
  Polyhedron work = p;
  if (!work.simplify() || work.isEmpty()) return root;

  // Projection chain: proj[k] constrains variables 0..k.
  std::vector<Polyhedron> proj(p.dim());
  for (int k = 0; k < p.dim(); ++k) proj[k] = work.projectedOnto(k + 1);

  AstNode* parent = &root.mut();
  for (int k = 0; k < p.dim(); ++k) {
    DimBounds b = proj[k].loopBounds(k);
    std::vector<std::string> prefix(iterNames.begin(), iterNames.begin() + k);
    AstPtr loop = AstNode::forLoop(iterNames[k], toBoundExpr(b.lower, true, prefix, paramNames),
                                   toBoundExpr(b.upper, false, prefix, paramNames));
    parent = parent->addChild(std::move(loop));
  }
  parent->addChild(makeBody(iterNames));
  return root;
}

AstPtr scanUnion(const PolySet& pieces, const std::vector<std::string>& iterNames,
                 const std::vector<std::string>& paramNames, const BodyMaker& makeBody) {
  AstPtr root = AstNode::block();
  for (const Polyhedron& piece : makeDisjoint(pieces)) {
    AstPtr sub = scanPolyhedron(piece, iterNames, paramNames, makeBody);
    if (!sub->children.empty()) root.mut().addChild(std::move(sub));
  }
  return root;
}

namespace {

/// Recursive generation from 2d+1 interleaved schedules.
///
/// `timeLevel` alternates: even levels are static positions, odd levels are
/// loops. `active` lists statement ids still alive at this level.
struct ScheduleGen {
  const ProgramBlock& block;
  std::string iterPrefix;
  std::vector<std::vector<Polyhedron>> proj;  // [stmt][depth] domain projections

  void generate(AstNode* parent, const std::vector<int>& active, int loopDepth) {
    // Static level: partition by schedule position, in increasing order.
    std::vector<std::pair<i64, int>> order;
    for (int s : active) {
      const Statement& st = block.statements[s];
      int row = 2 * loopDepth;
      EMM_CHECK(row < st.schedule.rows(), "schedule too shallow");
      // Static rows must be constant.
      for (int j = 0; j < st.schedule.cols() - 1; ++j)
        EMM_CHECK(st.schedule.at(row, j) == 0, "static schedule row is not constant");
      order.emplace_back(st.schedule.at(row, st.schedule.cols() - 1), s);
    }
    std::stable_sort(order.begin(), order.end());

    size_t i = 0;
    while (i < order.size()) {
      size_t j = i;
      while (j < order.size() && order[j].first == order[i].first) ++j;
      std::vector<int> group;
      for (size_t k = i; k < j; ++k) group.push_back(order[k].second);
      generateGroup(parent, group, loopDepth);
      i = j;
    }
  }

  void generateGroup(AstNode* parent, const std::vector<int>& group, int loopDepth) {
    // Statements whose schedule ends at this level have no more loops.
    std::vector<int> withLoop, done;
    for (int s : group) {
      const Statement& st = block.statements[s];
      if (st.dim() > loopDepth)
        withLoop.push_back(s);
      else
        done.push_back(s);
    }
    for (int s : done) parent->addChild(makeCall(s));
    if (withLoop.empty()) return;

    // Verify the loop row is the expected iterator (canonical form).
    for (int s : withLoop) {
      const Statement& st = block.statements[s];
      int row = 2 * loopDepth + 1;
      EMM_CHECK(row < st.schedule.rows(), "schedule too shallow for loop level");
      for (int j = 0; j < st.schedule.cols() - 1; ++j)
        EMM_CHECK(st.schedule.at(row, j) == (j == loopDepth ? 1 : 0),
                  "schedule loop row is not the canonical iterator");
    }

    std::string iter = iterPrefix + std::to_string(loopDepth);
    // Union bounds across the group; per-statement guards restore exactness.
    BoundExpr lb{{}, true}, ub{{}, false};
    bool identicalBounds = true;
    std::vector<DimBounds> perStmt;
    std::vector<std::string> prefix;
    for (int d = 0; d < loopDepth; ++d) prefix.push_back(iterPrefix + std::to_string(d));
    for (int s : withLoop) {
      DimBounds b = proj[s][loopDepth].loopBounds(loopDepth);
      perStmt.push_back(b);
    }
    // Loop range: min of lower bounds, max of upper bounds. Representable
    // only as single parts each; otherwise fall back to per-statement loops
    // in sequence (valid only when the group is a single statement).
    // For identical bounds (the common case) use them directly.
    for (size_t s = 1; s < perStmt.size(); ++s) {
      if (perStmt[s].lower.size() != perStmt[0].lower.size() ||
          perStmt[s].upper.size() != perStmt[0].upper.size()) {
        identicalBounds = false;
        break;
      }
      for (size_t q = 0; q < perStmt[s].lower.size() && identicalBounds; ++q)
        identicalBounds = perStmt[s].lower[q].coeffs == perStmt[0].lower[q].coeffs &&
                          perStmt[s].lower[q].den == perStmt[0].lower[q].den;
      for (size_t q = 0; q < perStmt[s].upper.size() && identicalBounds; ++q)
        identicalBounds = perStmt[s].upper[q].coeffs == perStmt[0].upper[q].coeffs &&
                          perStmt[s].upper[q].den == perStmt[0].upper[q].den;
    }
    EMM_REQUIRE(identicalBounds,
                "generateFromSchedules: statements sharing a loop must have identical "
                "projected bounds at that loop (canonical interleaved form)");
    const std::vector<std::string>& paramNames = block.paramNames;
    lb = toBoundExpr(perStmt[0].lower, true, prefix, paramNames);
    ub = toBoundExpr(perStmt[0].upper, false, prefix, paramNames);

    AstNode* loop = parent->addChild(AstNode::forLoop(iter, lb, ub));
    generate(loop, withLoop, loopDepth + 1);
  }

  AstPtr makeCall(int stmtId) const {
    const Statement& st = block.statements[stmtId];
    std::vector<AffExpr> args;
    for (int d = 0; d < st.dim(); ++d) args.push_back(AffExpr::var(iterPrefix + std::to_string(d)));
    return AstNode::call(stmtId, std::move(args));
  }
};

}  // namespace

AstPtr generateFromSchedules(const ProgramBlock& block, const std::string& iterPrefix) {
  block.validate();
  ScheduleGen gen{block, iterPrefix, {}};
  gen.proj.resize(block.statements.size());
  // proj[s][k] constrains variables 0..k, so loopBounds(k) at depth k only
  // references outer iterators and parameters.
  for (size_t s = 0; s < block.statements.size(); ++s) {
    const Statement& st = block.statements[s];
    std::vector<Polyhedron> chain(st.dim());
    Polyhedron work = st.domain;
    work.simplify();
    for (int k = 0; k < st.dim(); ++k) chain[k] = work.projectedOnto(k + 1);
    gen.proj[s] = std::move(chain);
  }
  AstPtr root = AstNode::block();
  std::vector<int> all;
  for (size_t s = 0; s < block.statements.size(); ++s) all.push_back(static_cast<int>(s));
  gen.generate(&root.mut(), all, 0);
  return root;
}

}  // namespace emm
