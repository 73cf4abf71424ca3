// Golden bank-conflict rows: the counter's {warpAccesses, bankCycles,
// conflictedAccesses} for a fixed set of compiled units and bank models must
// not move.
//
// Units: ME unpacked and packed at bench_ext_bank_conflicts' configuration
// and at buffer_layout_test's size/tile cases; matmul at a small size; the
// 2-D Jacobi scratchpad unit with `c1` marked thread-parallel (the bench's
// thread-per-row mapping), unpacked and packed; and every program among
// generator seed 1's first 200 that compiles, at the differential runner's
// default options, to a unit with a ThreadParallel loop; and a hand-built
// unit of lane edge cases (see laneEdges). Each unit is
// compiled once at the default bank shape and counted under every model of
// kModels. Rows live in tests/golden/bank_conflicts.txt, one per unit and
// model:
//
//   <unit>_b<banks>_e<elementBytes> <warpAccesses> <bankCycles> <conflictedAccesses>
//
// A change that moves any count fails here. A deliberate change to the
// conflict model rewrites the file:
//
//   EMM_UPDATE_GOLDEN=1 ./build/emmap_tests --gtest_filter='GoldenBankConflicts.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "testgen/diff_runner.h"
#include "testgen/generator.h"

namespace emm {
namespace {

const char* const kRowFile = EMM_GOLDEN_DIR "/bank_conflicts.txt";

/// A bank model: bank count and element size; banks are 4 bytes wide.
struct Model {
  i64 banks, elementBytes;
};
const std::vector<Model> kModels = {{1, 4}, {16, 4}, {32, 4}, {16, 8}};

BankConflictStats conflicts(const CodeUnit& unit, const IntVec& params, const Model& m) {
  return countBankConflicts(unit, params, BankDescriptor{m.banks, 4}, m.elementBytes);
}

bool hasThreadLoop(const AstNode& n) {
  if (n.kind == AstNode::Kind::For && n.loopKind == LoopKind::ThreadParallel) return true;
  for (const AstPtr& c : n.children)
    if (hasThreadLoop(*c)) return true;
  return false;
}

void markThreadParallel(AstNode& n, const std::string& iter) {
  if (n.kind == AstNode::Kind::For && n.iter == iter) n.loopKind = LoopKind::ThreadParallel;
  for (AstPtr& c : n.children) markThreadParallel(c.mut(), iter);
}

/// A unit, what keeps its source block alive, and the binding it is
/// counted at (tile origins zero, as the differential runner binds it).
struct Unit {
  std::string name;
  std::shared_ptr<const void> owner;
  const CodeUnit* unit;
  IntVec params;
};

/// Lane edge cases the built-in and generated units do not reach, over
/// A[64] and a local L[48][6] (row pitch 6: lanes 8 rows apart share a bank):
///
///   for t0 (thread) = 0 .. 39            // warps of 16, 16 and 8 lanes
///     if (t0 - 3 >= 0)                   // masks lanes 0-2 of the first warp
///       for p = max(0, t0 - 3) .. t0 + 2 // lane 0 drives 3 trips there,
///         L[t0][p - t0 + 3] = A[p]       // the other lanes run 6
///   for t1 (thread) = 0 .. 15
///     for q = t1 .. 20                   // lane l runs 21 - l trips
///       L[t1][0] = A[q]
///   for o = 0 .. 3                       // every o costs the same: the
///     for t2 (thread) = o .. o + 36      // lanes shift together; two full
///       L[t2 - o][o] = A[t2]             // warps, then 5 lanes
///   for t3 (thread) = 0 .. 40 step 2     // 21 iterations, 2 rows apart
///     L[t3][1] = A[t3]
Unit laneEdges() {
  struct Owned {
    ProgramBlock block;
    CodeUnit unit;
  };
  auto owned = std::make_shared<Owned>();
  owned->block.name = "lane_edges";
  owned->block.arrays = {{"A", {64}}};
  CodeUnit& unit = owned->unit;
  unit.source = &owned->block;
  LocalBuffer buf;
  buf.name = "L";
  buf.ndim = 2;
  buf.offset = {AffExpr::constant(0), AffExpr::constant(0)};
  buf.sizeExpr = {BoundExpr::single(AffExpr::constant(48), false),
                  BoundExpr::single(AffExpr::constant(6), false)};
  unit.localBuffers.mut().push_back(buf);
  const AffExpr t0 = AffExpr::var("t0"), t1 = AffExpr::var("t1"), t2 = AffExpr::var("t2"),
                t3 = AffExpr::var("t3"), o = AffExpr::var("o");
  auto aff = [](std::vector<std::pair<std::string, i64>> terms, i64 c) {
    AffExpr e = AffExpr::constant(c);
    e.terms = std::move(terms);
    return e;
  };
  auto lo = [](AffExpr e) { return BoundExpr::single(std::move(e), true); };
  auto hi = [](AffExpr e) { return BoundExpr::single(std::move(e), false); };
  auto threads = [](AstPtr loop) {
    loop.mut().loopKind = LoopKind::ThreadParallel;
    return loop;
  };
  unit.root = AstNode::block();
  AstNode* root = &unit.root.mut();
  AstNode* guarded =
      root->addChild(threads(AstNode::forLoop("t0", lo(AffExpr::constant(0)),
                                              hi(AffExpr::constant(39)))))
          ->addChild(AstNode::guard({t0.plus(-3)}));
  guarded
      ->addChild(AstNode::forLoop("p", BoundExpr{{AffExpr::constant(0), t0.plus(-3)}, true},
                                  hi(t0.plus(2))))
      ->addChild(AstNode::copy(1, {t0, aff({{"p", 1}, {"t0", -1}}, 3)}, 0,
                               {AffExpr::var("p")}));
  root->addChild(threads(AstNode::forLoop("t1", lo(AffExpr::constant(0)),
                                          hi(AffExpr::constant(15)))))
      ->addChild(AstNode::forLoop("q", lo(t1), hi(AffExpr::constant(20))))
      ->addChild(AstNode::copy(1, {t1, AffExpr::constant(0)}, 0, {AffExpr::var("q")}));
  root->addChild(AstNode::forLoop("o", lo(AffExpr::constant(0)), hi(AffExpr::constant(3))))
      ->addChild(threads(AstNode::forLoop("t2", lo(o), hi(o.plus(36)))))
      ->addChild(AstNode::copy(1, {aff({{"t2", 1}, {"o", -1}}, 0), o}, 0, {t2}));
  root->addChild(threads(AstNode::forLoop("t3", lo(AffExpr::constant(0)),
                                          hi(AffExpr::constant(40)), 2)))
      ->addChild(AstNode::copy(1, {t3, AffExpr::constant(1)}, 0, {t3}));
  return {"lane_edges", owned, &owned->unit, {}};
}

std::vector<Unit> goldenUnits() {
  std::vector<Unit> units;
  auto add = [&](const std::string& name, CompileResult r, const IntVec& params) {
    ASSERT_TRUE(r.ok && r.unit() != nullptr) << name << ": " << r.firstError();
    const IntVec bound = r.kernel.has_value() ? r.kernel->unitParams(params) : params;
    auto owner = std::make_shared<const CompileResult>(std::move(r));
    units.push_back({name, owner, owner->unit(), bound});
  };
  struct MeCase {
    std::string name;
    i64 ni, nj, w;
    IntVec tile;
  };
  const std::vector<MeCase> meCases = {
      {"me_bench", 64, 64, 16, {32, 16, 16, 4}},  {"me_case1", 48, 96, 8, {16, 32, 8, 8}},
      {"me_case2", 80, 64, 16, {16, 16, 16, 16}}, {"me_case3", 96, 48, 8, {32, 48, 8, 4}},
  };
  for (const MeCase& c : meCases)
    for (bool packed : {false, true}) {
      Compiler comp(buildMeBlock(c.ni, c.nj, c.w));
      comp.parameters({c.ni, c.nj, c.w}).tileSizes(c.tile).backend("cuda");
      comp.opts().packBuffers = packed;
      add(c.name + (packed ? "_packed" : "_unpacked"), comp.compile(), {c.ni, c.nj, c.w});
    }
  {
    Compiler comp(buildMatmulBlock(64, 64, 64));
    comp.parameters({64, 64, 64}).backend("cuda");
    add("matmul64", comp.compile(), {64, 64, 64});
  }
  for (bool packed : {false, true}) {
    const i64 n = 18, m = 18, t = 2;
    Compiler comp(buildJacobi2dBlock(n, m, t));
    comp.parameters({n, m, t}).scratchpadOnly(true).stageEverything(true).memoryLimitBytes(
        64 * 1024);
    comp.opts().packBuffers = packed;
    CompileResult r = comp.compile();
    if (r.scratchpadUnit.has_value()) markThreadParallel(r.scratchpadUnit->root.mut(), "c1");
    add(std::string("jacobi2d_") + (packed ? "packed" : "unpacked"), std::move(r), {n, m, t});
  }
  testgen::GeneratorOptions gen;
  gen.seed = 1;
  const testgen::ProgramGenerator generator(gen);
  const testgen::DiffOptions diff;
  for (u64 index = 0; index < 200; ++index) {
    const testgen::GeneratedProgram program = generator.generate(index);
    Compiler c(program.block);
    c.options(diff.baseOptions).parameters(program.paramValues);
    CompileResult r = c.compile();
    if (!r.ok || r.unit() == nullptr || r.unit()->root == nullptr ||
        !hasThreadLoop(*r.unit()->root))
      continue;
    add("seed1_p" + std::to_string(index), std::move(r), program.paramValues);
  }
  units.push_back(laneEdges());
  return units;
}

/// The rows of every unit under every model, in file order.
std::vector<std::pair<std::string, std::string>> goldenRows() {
  std::vector<std::pair<std::string, std::string>> rows;
  for (const Unit& u : goldenUnits())
    for (const Model& m : kModels) {
      const std::string name = u.name + "_b" + std::to_string(m.banks) + "_e" +
                               std::to_string(m.elementBytes);
      const BankConflictStats s = conflicts(*u.unit, u.params, m);
      rows.emplace_back(name, name + " " + std::to_string(s.warpAccesses) + " " +
                                  std::to_string(s.bankCycles) + " " +
                                  std::to_string(s.conflictedAccesses));
    }
  return rows;
}

TEST(GoldenBankConflicts, CountsMatchTheRecordedRows) {
  const auto rows = goldenRows();
  if (std::getenv("EMM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(kRowFile);
    f << "# unit_b<banks>_e<elementBytes> warpAccesses bankCycles conflictedAccesses "
         "(see tests/bank_conflict_rows_test.cpp)\n";
    for (const auto& [name, line] : rows) f << line << "\n";
    GTEST_SKIP() << "rewrote " << kRowFile;
  }
  std::ifstream f(kRowFile);
  ASSERT_TRUE(f.good()) << "missing " << kRowFile;
  std::map<std::string, std::string> recorded;
  for (std::string line; std::getline(f, line);)
    if (!line.empty() && line[0] != '#') recorded[line.substr(0, line.find(' '))] = line;
  // A stale row (a unit renamed or dropped) fails here.
  EXPECT_EQ(recorded.size(), rows.size());
  for (const auto& [name, line] : rows) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(recorded.count(name)) << "no golden row";
    EXPECT_EQ(line, recorded[name]);
  }
}

}  // namespace
}  // namespace emm
