// Tests for the program IR, reference executor, AST, emitter, interpreter.
#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "ir/interp.h"
#include "kernels/blocks.h"

namespace emm {
namespace {

TEST(Expr, ConstructionAndPrint) {
  ExprPtr e = Expr::add(Expr::load(0), Expr::mul(Expr::constant(2), Expr::load(1)));
  EXPECT_EQ(e->str({"A[i]", "B[i]"}), "(A[i] + (2 * B[i]))");
  EXPECT_EQ(Expr::abs(Expr::load(0))->str({"x"}), "fabs(x)");
}

TEST(ArrayStore, GetSetAndBoundsCheck) {
  ArrayStore store({{"A", {4, 5}}});
  store.set(0, {1, 2}, 42.0);
  EXPECT_EQ(store.get(0, {1, 2}), 42.0);
  EXPECT_EQ(store.get(0, {0, 0}), 0.0);
  EXPECT_DEATH(store.get(0, {4, 0}), "out of bounds");
}

TEST(ArrayStore, FillPatternDeterministic) {
  ArrayStore a({{"A", {100}}}), b({{"A", {100}}});
  a.fillPattern(0, 7);
  b.fillPattern(0, 7);
  EXPECT_EQ(ArrayStore::maxAbsDiff(a, b), 0.0);
  b.fillPattern(0, 8);
  EXPECT_GT(ArrayStore::maxAbsDiff(a, b), 0.0);
}

TEST(ReferenceExec, SimpleCopyBlock) {
  // S: B[i] = A[i] for i in [0, 9].
  ProgramBlock block;
  block.name = "copy";
  block.arrays = {{"A", {10}}, {"B", {10}}};
  Statement s;
  s.name = "S";
  s.domain = Polyhedron(1, 0);
  s.domain.addRange(0, 0, 9);
  Access w;
  w.arrayId = 1;
  w.isWrite = true;
  w.fn = IntMat{{1, 0}};
  Access r;
  r.arrayId = 0;
  r.isWrite = false;
  r.fn = IntMat{{1, 0}};
  s.accesses = {w, r};
  s.writeAccess = 0;
  s.rhs = Expr::load(1);
  s.schedule = ProgramBlock::interleavedSchedule(1, 0, {0, 0});
  block.statements.push_back(std::move(s));

  ArrayStore store(block.arrays);
  store.fillPattern(0, 3);
  executeReference(block, {}, store);
  for (i64 i = 0; i < 10; ++i) EXPECT_EQ(store.get(1, {i}), store.get(0, {i}));
}

TEST(ReferenceExec, ScheduleOrderMatters) {
  // Two statements write the same cell; the one scheduled later wins.
  ProgramBlock block;
  block.name = "order";
  block.arrays = {{"A", {1}}};
  for (int v = 0; v < 2; ++v) {
    Statement s;
    s.name = "S" + std::to_string(v);
    s.domain = Polyhedron(0, 0);
    Access w;
    w.arrayId = 0;
    w.isWrite = true;
    w.fn = IntMat(1, 1);  // A[0]
    s.accesses = {w};
    s.writeAccess = 0;
    s.rhs = Expr::constant(v + 1);
    s.schedule = IntMat(1, 1);
    s.schedule.at(0, 0) = v == 0 ? 5 : 3;  // S1 runs first (3 < 5)
    block.statements.push_back(std::move(s));
  }
  ArrayStore store(block.arrays);
  executeReference(block, {}, store);
  EXPECT_EQ(store.get(0, {0}), 1.0);  // S0 (time 5) wrote last
}

TEST(ReferenceExec, JacobiMatchesDirectReference) {
  const i64 n = 20, t = 5;
  ProgramBlock block = buildJacobiBlock(n, t);
  ArrayStore store(block.arrays);
  store.fillPattern(0, 11);
  std::vector<double> a = store.raw(0), b = store.raw(1);
  executeReference(block, {n, t}, store);
  referenceJacobi(a, b, n, t);
  for (i64 i = 0; i < n; ++i) EXPECT_NEAR(store.get(0, {i}), a[i], 1e-9) << "i=" << i;
}

TEST(ReferenceExec, MeMatchesDirectReference) {
  const i64 ni = 6, nj = 5, w = 3;
  ProgramBlock block = buildMeBlock(ni, nj, w);
  ArrayStore store(block.arrays);
  store.fillAllPattern(5);
  std::vector<double> cur = store.raw(0), ref = store.raw(1), out = store.raw(2);
  executeReference(block, {ni, nj, w}, store);
  referenceMe(cur, ref, out, ni, nj, w);
  for (i64 i = 0; i < ni; ++i)
    for (i64 j = 0; j < nj; ++j) EXPECT_NEAR(store.get(2, {i, j}), out[i * nj + j], 1e-9);
}

TEST(ReferenceExec, MatmulMatchesDirectReference) {
  const i64 n = 4, m = 5, k = 3;
  ProgramBlock block = buildMatmulBlock(n, m, k);
  ArrayStore store(block.arrays);
  store.fillAllPattern(2);
  std::vector<double> a = store.raw(0), b = store.raw(1), c = store.raw(2);
  executeReference(block, {n, m, k}, store);
  referenceMatmul(a, b, c, n, m, k);
  for (i64 i = 0; i < n; ++i)
    for (i64 j = 0; j < m; ++j) EXPECT_NEAR(store.get(2, {i, j}), c[i * m + j], 1e-9);
}

TEST(AffExprAst, EvalAndPrint) {
  AffExpr e = AffExpr::var("i", 2);
  e.terms.emplace_back("j", -1);
  e.cnst = 5;
  std::vector<std::pair<std::string, i64>> env{{"i", 3}, {"j", 4}};
  EXPECT_EQ(e.evalExact(env), 7);
  EXPECT_EQ(e.str(), "2*i - j + 5");
  AffExpr d = e;
  d.den = 2;
  EXPECT_EQ(d.evalFloor(env), 3);
  EXPECT_EQ(d.evalCeil(env), 4);
  EXPECT_EQ(d.str(false), "floord(2*i - j + 5, 2)");
}

TEST(AffExprAst, ShadowedBindingUsesInnermost) {
  AffExpr e = AffExpr::var("i");
  std::vector<std::pair<std::string, i64>> env{{"i", 1}, {"i", 9}};
  EXPECT_EQ(e.evalExact(env), 9);
}

TEST(BoundExprAst, MaxMinEval) {
  BoundExpr lb{{AffExpr::constant(3), AffExpr::var("n")}, true};
  std::vector<std::pair<std::string, i64>> env{{"n", 7}};
  EXPECT_EQ(lb.eval(env), 7);
  BoundExpr ub{{AffExpr::constant(10), AffExpr::var("n")}, false};
  EXPECT_EQ(ub.eval(env), 7);
  EXPECT_EQ(ub.str(), "min(10, n)");
}

/// Executes `unit` and holds the count view to the run: countCodeUnit must
/// return the executed trace on every field.
MemTrace executeAndCount(const CodeUnit& unit, const IntVec& params, ArrayStore& store) {
  const MemTrace executed = executeCodeUnit(unit, params, store);
  const MemTrace counted = countCodeUnit(unit, params);
  EXPECT_EQ(counted, executed) << "counted " << counted.str() << " vs executed "
                               << executed.str();
  return executed;
}

TEST(Interp, ForLoopWithCopies) {
  // Unit: for i in [0, 7]: B[i] = A[i], on global arrays only.
  ProgramBlock block;
  block.name = "g";
  block.arrays = {{"A", {8}}, {"B", {8}}};
  CodeUnit unit;
  unit.source = &block;
  unit.root = AstNode::block();
  AstNode* loop = unit.root.mut().addChild(AstNode::forLoop(
      "i", BoundExpr::single(AffExpr::constant(0), true),
      BoundExpr::single(AffExpr::constant(7), false)));
  loop->addChild(AstNode::copy(1, {AffExpr::var("i")}, 0, {AffExpr::var("i")}));

  ArrayStore store(block.arrays);
  store.fillPattern(0, 1);
  MemTrace trace = executeAndCount(unit, {}, store);
  EXPECT_EQ(trace.globalReads, 8);
  EXPECT_EQ(trace.globalWrites, 8);
  EXPECT_EQ(trace.copyElements, 8);
  for (i64 i = 0; i < 8; ++i) EXPECT_EQ(store.get(1, {i}), store.get(0, {i}));
}

TEST(Interp, LocalBufferRoundTrip) {
  // move A into L (shifted by 2), then out to B.
  ProgramBlock block;
  block.name = "l";
  block.paramNames = {};
  block.arrays = {{"A", {8}}, {"B", {8}}};
  CodeUnit unit;
  unit.source = &block;
  LocalBuffer buf;
  buf.name = "L";
  buf.ndim = 1;
  buf.offset = {AffExpr::constant(2)};
  buf.sizeExpr = {BoundExpr::single(AffExpr::constant(4), false)};
  unit.localBuffers.mut().push_back(buf);

  unit.root = AstNode::block();
  AstNode* in = unit.root.mut().addChild(AstNode::forLoop(
      "i", BoundExpr::single(AffExpr::constant(2), true),
      BoundExpr::single(AffExpr::constant(5), false)));
  in->addChild(AstNode::copy(2, {AffExpr::var("i").plus(-2)}, 0, {AffExpr::var("i")}));
  AstNode* out = unit.root.mut().addChild(AstNode::forLoop(
      "i", BoundExpr::single(AffExpr::constant(2), true),
      BoundExpr::single(AffExpr::constant(5), false)));
  out->addChild(AstNode::copy(1, {AffExpr::var("i")}, 2, {AffExpr::var("i").plus(-2)}));

  ArrayStore store(block.arrays);
  store.fillPattern(0, 9);
  MemTrace trace = executeAndCount(unit, {}, store);
  EXPECT_EQ(trace.globalReads, 4);
  EXPECT_EQ(trace.globalWrites, 4);
  EXPECT_EQ(trace.localReads, 4);
  EXPECT_EQ(trace.localWrites, 4);
  for (i64 i = 2; i <= 5; ++i) EXPECT_EQ(store.get(1, {i}), store.get(0, {i}));
  EXPECT_EQ(scratchpadFootprint(unit, {}), 4);
}

TEST(Interp, GuardSkipsBody) {
  ProgramBlock block;
  block.name = "g";
  block.arrays = {{"A", {4}}, {"B", {4}}};
  CodeUnit unit;
  unit.source = &block;
  unit.root = AstNode::block();
  AstNode* loop = unit.root.mut().addChild(AstNode::forLoop(
      "i", BoundExpr::single(AffExpr::constant(0), true),
      BoundExpr::single(AffExpr::constant(3), false)));
  // Guard i - 2 >= 0: only i in {2, 3} copy.
  AstNode* g = loop->addChild(AstNode::guard({AffExpr::var("i").plus(-2)}));
  g->addChild(AstNode::copy(1, {AffExpr::var("i")}, 0, {AffExpr::var("i")}));
  // An empty range: for j in [i + 1, i] runs nothing.
  AstNode* empty = loop->addChild(AstNode::forLoop(
      "j", BoundExpr::single(AffExpr::var("i").plus(1), true),
      BoundExpr::single(AffExpr::var("i"), false)));
  empty->addChild(AstNode::copy(1, {AffExpr::var("j")}, 0, {AffExpr::var("j")}));
  ArrayStore store(block.arrays);
  MemTrace trace = executeAndCount(unit, {}, store);
  EXPECT_EQ(trace.copyElements, 2);
}

TEST(Interp, SyncCounting) {
  ProgramBlock block;
  block.name = "s";
  CodeUnit unit;
  unit.source = &block;
  unit.root = AstNode::block();
  AstNode* loop = unit.root.mut().addChild(AstNode::forLoop(
      "i", BoundExpr::single(AffExpr::constant(0), true),
      BoundExpr::single(AffExpr::constant(4), false)));
  loop->addChild(AstNode::sync());
  // for p in [i, min(4, i)]: the enclosing i <= 4 implies the bound is i,
  // so the counter sees one trip whatever i is.
  AstNode* point = loop->addChild(AstNode::forLoop(
      "p", BoundExpr::single(AffExpr::var("i"), true),
      BoundExpr{{AffExpr::constant(4), AffExpr::var("i")}, false}));
  point->addChild(AstNode::sync());
  ArrayStore store(block.arrays);
  EXPECT_EQ(executeAndCount(unit, {}, store).syncs, 10);
}

TEST(Interp, StepLoop) {
  ProgramBlock block;
  block.name = "st";
  block.arrays = {{"A", {16}}, {"B", {16}}};
  CodeUnit unit;
  unit.source = &block;
  unit.root = AstNode::block();
  AstNode* loop = unit.root.mut().addChild(
      AstNode::forLoop("i", BoundExpr::single(AffExpr::constant(0), true),
                       BoundExpr::single(AffExpr::constant(15), false), 4));
  loop->addChild(AstNode::copy(1, {AffExpr::var("i")}, 0, {AffExpr::var("i")}));
  ArrayStore store(block.arrays);
  EXPECT_EQ(executeAndCount(unit, {}, store).copyElements, 4);  // i = 0,4,8,12
}

TEST(Emit, RendersLoopAndCopy) {
  ProgramBlock block;
  block.name = "e";
  block.arrays = {{"A", {8}}, {"B", {8}}};
  CodeUnit unit;
  unit.source = &block;
  unit.root = AstNode::block();
  AstNode* loop = unit.root.mut().addChild(AstNode::forLoop(
      "i", BoundExpr::single(AffExpr::constant(0), true),
      BoundExpr::single(AffExpr::constant(7), false)));
  loop->addChild(AstNode::copy(1, {AffExpr::var("i")}, 0, {AffExpr::var("i")}));
  std::string code = emitC(unit);
  EXPECT_NE(code.find("for (i = 0; i <= 7; i++)"), std::string::npos) << code;
  EXPECT_NE(code.find("B[i] = A[i];"), std::string::npos) << code;
}

TEST(Emit, RendersCallWithComposedIndices) {
  ProgramBlock block = buildJacobiBlock(16, 4);
  CodeUnit unit;
  unit.source = &block;
  unit.statements = block.statements;
  unit.root = AstNode::block();
  unit.root.mut().addChild(AstNode::call(0, {AffExpr::var("t"), AffExpr::var("i")}));
  std::string code = emitC(unit);
  EXPECT_NE(code.find("B[i] ="), std::string::npos) << code;
  EXPECT_NE(code.find("A[i - 1]"), std::string::npos) << code;
}

}  // namespace
}  // namespace emm
