// The parametric plan's per-binding specialization against a per-candidate
// reference: ParametricPlanOracle evaluates every candidate from the plan's
// formula trees and overlap polyhedra alone (SymExpr::eval per box bound,
// every predicate row per candidate, a fresh union-find per candidate), the
// way the plan evaluated before its rows were folded per binding and its
// partition structures memoized. evaluate(), coarsestStructureAt() and
// footprintInterval() must agree with it field for field, overflow errors
// included, on the built-in families at random sizes and on every
// parametric plan of generator seeds 1, 2, 3 and 7.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "kernels/blocks.h"
#include "testgen/diff_runner.h"
#include "testgen/generator.h"
#include "testgen/rng.h"
#include "tilesearch/tile_evaluator.h"

namespace emm {

/// The per-candidate reference evaluation (friend of ParametricTilePlan).
struct ParametricPlanOracle {
  using Plan = ParametricTilePlan;

  static std::vector<i64> symbols(const Plan& plan, const SizeBinding& binding,
                                  const std::vector<i64>& tile) {
    std::vector<i64> full(binding.ext.begin(), binding.ext.end());
    full.insert(full.end(), tile.begin(), tile.end());
    EXPECT_EQ(static_cast<int>(full.size()), plan.np_ + 2 * plan.depth_);
    return full;
  }

  /// Whether the pair predicate holds: every row checked at the candidate.
  static bool overlaps(const Plan::PairPredicate& p, const std::vector<i64>& full) {
    if (p.always) return true;
    if (p.never || p.cond.markedEmpty()) return false;
    for (const IntMat* m : {&p.cond.equalities(), &p.cond.inequalities()}) {
      for (int r = 0; r < m->rows(); ++r) {
        i128 acc = m->at(r, static_cast<int>(full.size()));
        for (size_t j = 0; j < full.size(); ++j)
          acc += static_cast<i128>(m->at(r, static_cast<int>(j))) * full[j];
        const i64 v = narrow(acc);
        if (m == &p.cond.equalities() ? v != 0 : v < 0) return false;
      }
    }
    return true;
  }

  /// Union-find groups ordered by lowest member, members ascending.
  static std::vector<std::vector<int>> group(int n, const std::vector<std::pair<int, int>>& edges) {
    std::vector<int> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int x) {
      while (parent[x] != x) x = parent[x];
      return x;
    };
    for (const auto& [a, b] : edges) parent[find(a)] = find(b);
    std::vector<int> label(n, -1);
    std::vector<std::vector<int>> out;
    for (int i = 0; i < n; ++i) {
      const int root = find(i);
      if (label[root] < 0) {
        label[root] = static_cast<int>(out.size());
        out.emplace_back();
      }
      out[label[root]].push_back(i);
    }
    return out;
  }

  static TileEvaluation evaluate(const Plan& plan, const SizeBinding& binding,
                                 const std::vector<i64>& tile) {
    const std::vector<i64> full = symbols(plan, binding, tile);
    auto box = [&](const Plan::ComponentFormula& comp, int m, int d, bool raw, bool upper) {
      const auto& b = raw ? comp.refs[m].rawBox[d] : comp.refs[m].ctxBox[d];
      return (upper ? b.second : b.first)->eval(full);
    };
    struct Live {
      const Plan::ArrayFormula* array;
      const Plan::ComponentFormula* comp;
      std::vector<int> members;
      int partition;
      int hoistLevel;
    };
    std::vector<Live> live;
    int partitionCounter = 0;
    i64 footprint = 0;
    TileEvaluation ev;
    for (const Plan::ArrayFormula& af : plan.arrays_) {
      std::vector<std::pair<int, int>> edges;
      for (const Plan::ComponentFormula& comp : af.comps) {
        const int n = static_cast<int>(comp.refs.size());
        for (int i = 0; i < n; ++i)
          for (int j = i + 1; j < n; ++j)
            if (overlaps(comp.pairs[static_cast<size_t>(i) * n + j], full))
              edges.emplace_back(comp.globalIdx[i], comp.globalIdx[j]);
      }
      for (const std::vector<int>& g : group(af.numRefs, edges)) {
        Live lg{&af, &af.comps[af.refLoc[g[0]].first], {}, 0, 0};
        for (int r : g) lg.members.push_back(af.refLoc[r].second);
        const Plan::ComponentFormula& comp = *lg.comp;
        bool beneficial = false;
        for (int m : lg.members) beneficial = beneficial || comp.refs[m].orderReuse;
        if (!beneficial) {
          auto capped = [&](const std::vector<i64>& lens) -> i64 {
            for (i64 len : lens)
              if (len <= 0) return 0;
            i128 n = 1;
            for (i64 len : lens) {
              n *= len;
              if (n >= plan.volumeCap_) return plan.volumeCap_;
            }
            return narrow(n);
          };
          const int rawDims = static_cast<int>(comp.refs[0].rawBox.size());
          i64 total = 0;
          for (int m : lg.members) {
            std::vector<i64> lens;
            for (int d = 0; d < rawDims; ++d)
              lens.push_back(
                  addChecked(subChecked(box(comp, m, d, true, true), box(comp, m, d, true, false)), 1));
            total = addChecked(total, capped(lens));
          }
          double frac = 0.0;
          if (total != 0) {
            i64 inter = 0;
            for (size_t i = 0; i < lg.members.size(); ++i)
              for (size_t j = i + 1; j < lg.members.size(); ++j) {
                std::vector<i64> lens;
                const int a = lg.members[i], b = lg.members[j];
                for (int d = 0; d < rawDims; ++d) {
                  const i64 lo = std::max(box(comp, a, d, true, false), box(comp, b, d, true, false));
                  const i64 hi = std::min(box(comp, a, d, true, true), box(comp, b, d, true, true));
                  lens.push_back(addChecked(subChecked(hi, lo), 1));
                }
                inter = addChecked(inter, capped(lens));
              }
            frac = static_cast<double>(inter) / static_cast<double>(total);
          }
          beneficial = frac > plan.benefitDelta_;
        }
        if (!beneficial && plan.onlyBeneficial_) {
          ++partitionCounter;
          continue;
        }
        lg.partition = partitionCounter++;
        lg.hoistLevel = plan.depth_;
        if (plan.hoist_) {
          lg.hoistLevel = 0;
          for (int l = 0; l < plan.depth_; ++l)
            for (int m : lg.members)
              if (comp.refs[m].usesOrigin[l]) lg.hoistLevel = l + 1;
        }
        i64 fp = 1;
        for (int d = 0; d < static_cast<int>(comp.refs[0].ctxBox.size()); ++d) {
          i64 lo = INT64_MAX, hi = INT64_MIN;
          for (int m : lg.members) {
            lo = std::min(lo, box(comp, m, d, false, false));
            hi = std::max(hi, box(comp, m, d, false, true));
          }
          fp = mulChecked(fp, std::max<i64>(0, addChecked(subChecked(hi, lo), 1)));
        }
        footprint = addChecked(footprint, fp);
        live.push_back(std::move(lg));
      }
    }
    ev.footprint = footprint;
    if (footprint > plan.options_.memLimitElems) {
      ev.reason = "scratchpad footprint exceeds limit";
      return ev;
    }
    auto volumeOf = [&](const Live& lg, bool writes) {
      const Plan::ComponentFormula& comp = *lg.comp;
      const int n = static_cast<int>(comp.refs.size());
      std::vector<int> side;
      for (int m : lg.members)
        if (comp.refs[m].isWrite == writes) side.push_back(m);
      std::vector<std::pair<int, int>> edges;
      for (size_t i = 0; i < side.size(); ++i)
        for (size_t j = i + 1; j < side.size(); ++j) {
          const int a = std::min(side[i], side[j]), b = std::max(side[i], side[j]);
          if (overlaps(comp.pairs[static_cast<size_t>(a) * n + b], full))
            edges.emplace_back(static_cast<int>(i), static_cast<int>(j));
        }
      i64 total = 0;
      for (const std::vector<int>& sub : group(static_cast<int>(side.size()), edges)) {
        i64 vol = 1;
        for (int d = 0; d < static_cast<int>(comp.refs[0].rawBox.size()); ++d) {
          i64 lo = INT64_MAX, hi = INT64_MIN;
          for (int k : sub) {
            lo = std::min(lo, box(comp, side[k], d, true, false));
            hi = std::max(hi, box(comp, side[k], d, true, true));
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
    const TileSearchOptions& o = plan.options_;
    const double P = static_cast<double>(o.innerProcs);
    double cost = 0;
    for (const Live& lg : live) {
      i64 occ = 1;
      for (int l = 0; l < lg.hoistLevel; ++l)
        occ = mulChecked(occ, ceilDiv(binding.loopRange[l], tile[l]));
      const i64 vin = volumeOf(lg, false);
      const i64 vout = volumeOf(lg, true);
      cost += bufferCostTerm(occ, vin, P, o.syncCost, o.transferCost) +
              bufferCostTerm(occ, vout, P, o.syncCost, o.transferCost);
      ev.terms.push_back({"L" + lg.array->arrayName + std::to_string(lg.partition), occ, vin, vout,
                          lg.hoistLevel});
    }
    ev.feasible = true;
    ev.cost = cost;
    return ev;
  }

  /// A copy of `plan` whose pair (0, 1) of the first component of array
  /// `arrayName` has the overlap condition `cond` (over [sizes, origins,
  /// tiles], no parameters), with its tables recompiled.
  static std::shared_ptr<const Plan> withPredicate(const Plan& plan, const std::string& arrayName,
                                                   Polyhedron cond) {
    auto copy = std::make_shared<Plan>(plan);
    for (Plan::ArrayFormula& af : copy->arrays_) {
      if (af.arrayName != arrayName) continue;
      Plan::ComponentFormula& comp = af.comps.at(0);
      EXPECT_GE(comp.refs.size(), 2u);
      Plan::PairPredicate& p = comp.pairs[1];
      p.always = p.never = false;
      p.cond = std::move(cond);
    }
    copy->compileTables();
    return copy;
  }

  static bool coarsest(const Plan& plan, const SizeBinding& binding,
                       const std::vector<i64>& tile) {
    const std::vector<i64> full = symbols(plan, binding, tile);
    for (const Plan::ArrayFormula& af : plan.arrays_)
      for (const Plan::ComponentFormula& comp : af.comps) {
        const int n = static_cast<int>(comp.refs.size());
        for (int i = 0; i < n; ++i)
          for (int j = i + 1; j < n; ++j)
            if (!overlaps(comp.pairs[static_cast<size_t>(i) * n + j], full)) return false;
      }
    return true;
  }

  /// The component footprint trees the plan compiles, in interval
  /// arithmetic over point sizes and origins and the tile box.
  static SymInterval footprintInterval(const Plan& plan, const SizeBinding& binding,
                                       const std::vector<SymInterval>& tileBox) {
    std::vector<SymInterval> params;
    for (i64 v : binding.ext) params.push_back({v, v});
    params.insert(params.end(), tileBox.begin(), tileBox.end());
    SymInterval total{0, 0};
    for (const Plan::ArrayFormula& af : plan.arrays_)
      for (const Plan::ComponentFormula& comp : af.comps) {
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
        const SymInterval fi = fp->evalInterval(params);
        total.lo = addChecked(total.lo, fi.lo);
        total.hi = addChecked(total.hi, fi.hi);
      }
    return total;
  }
};

namespace {

/// An evaluation or the text of the ApiError it raised.
struct Outcome {
  TileEvaluation ev;
  std::string error;
  bool operator==(const Outcome&) const = default;
};

template <class F>
Outcome outcomeOf(F&& f) {
  Outcome o;
  try {
    o.ev = f();
  } catch (const ApiError& e) {
    o.error = e.what();
  }
  return o;
}

std::string describe(const std::vector<i64>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + std::to_string(v[i]);
  return "(" + out + ")";
}

/// Calls `f` on every tile of the ladder grid.
template <class F>
void forEachTile(const std::vector<std::vector<i64>>& ladders, F&& f) {
  std::vector<size_t> idx(ladders.size(), 0);
  std::vector<i64> tile(ladders.size());
  while (true) {
    for (size_t l = 0; l < ladders.size(); ++l) tile[l] = ladders[l][idx[l]];
    f(tile);
    size_t l = ladders.size();
    while (l > 0 && ++idx[l - 1] == ladders[l - 1].size()) idx[--l] = 0;
    if (l == 0) return;
  }
}

/// What checkBinding covered: candidates, and those whose evaluation
/// raised an overflow.
struct Checked {
  int candidates = 0;
  int errors = 0;
  Checked& operator+=(const Checked& o) {
    candidates += o.candidates;
    errors += o.errors;
    return *this;
  }
};

/// Checks evaluate(), coarsestStructureAt() and footprintInterval() of
/// `plan` against the oracle at `sizes`, over every candidate of the
/// plan-only evaluator's ladders (the boxes from each candidate to the
/// ladder ends for the interval).
Checked checkBinding(const ParametricTilePlan& plan, const TileSearchOptions& options,
                     const IntVec& sizes, ParametricTilePlan::Scratch& scratch) {
  SCOPED_TRACE("sizes " + describe(sizes));
  const SizeBinding binding = plan.bindSizes(sizes);
  TileSearchOptions opts = options;
  opts.paramValues = sizes;
  std::vector<std::vector<i64>> ladders;
  try {
    TileEvaluator planOnly(std::shared_ptr<const ParametricTilePlan>(&plan, [](auto*) {}), opts);
    ladders = planOnly.candidates();
  } catch (const ApiError&) {
    return {};  // the size does not bind: the plan is never asked
  }
  Checked checked;
  forEachTile(ladders, [&](const std::vector<i64>& tile) {
    SCOPED_TRACE("tile " + describe(tile));
    const Outcome want = outcomeOf([&] { return ParametricPlanOracle::evaluate(plan, binding, tile); });
    const Outcome got =
        outcomeOf([&] { return plan.evaluate(binding, tile, scratch, /*withTerms=*/true); });
    EXPECT_EQ(got.error, want.error);
    EXPECT_EQ(got.ev, want.ev) << "cost " << got.ev.cost << " vs " << want.ev.cost;
    // Without terms: the same decision fields.
    const Outcome lean =
        outcomeOf([&] { return plan.evaluate(binding, tile, scratch, /*withTerms=*/false); });
    EXPECT_EQ(lean.error, want.error);
    EXPECT_EQ(lean.ev.feasible, want.ev.feasible);
    EXPECT_EQ(lean.ev.cost, want.ev.cost);
    EXPECT_EQ(lean.ev.footprint, want.ev.footprint);
    EXPECT_EQ(lean.ev.reason, want.ev.reason);

    std::string wantErr, gotErr;
    bool wantCoarsest = false, gotCoarsest = false;
    try {
      wantCoarsest = ParametricPlanOracle::coarsest(plan, binding, tile);
    } catch (const ApiError& e) {
      wantErr = e.what();
    }
    try {
      gotCoarsest = plan.coarsestStructureAt(binding, tile, scratch);
    } catch (const ApiError& e) {
      gotErr = e.what();
    }
    EXPECT_EQ(gotErr, wantErr);
    EXPECT_EQ(gotCoarsest, wantCoarsest);

    std::vector<SymInterval> box(tile.size());
    for (size_t l = 0; l < tile.size(); ++l) box[l] = {tile[l], ladders[l].back()};
    wantErr.clear();
    gotErr.clear();
    SymInterval wantBox{0, 0}, gotBox{0, 0};
    try {
      wantBox = ParametricPlanOracle::footprintInterval(plan, binding, box);
    } catch (const ApiError& e) {
      wantErr = e.what();
    }
    try {
      gotBox = plan.footprintInterval(binding, box, scratch);
    } catch (const ApiError& e) {
      gotErr = e.what();
    }
    EXPECT_EQ(gotErr, wantErr);
    EXPECT_EQ(gotBox.lo, wantBox.lo);
    EXPECT_EQ(gotBox.hi, wantBox.hi);
    ++checked.candidates;
    if (!want.error.empty()) ++checked.errors;
  });
  return checked;
}

/// A built-in kernel's family plan, built by one cold compile at `sizes`.
std::shared_ptr<const ParametricTilePlan> builtinPlan(const std::string& kernel,
                                                      const std::vector<i64>& sizes,
                                                      TileSearchOptions& options) {
  PlanCache cache;
  IntVec params;
  ProgramBlock block = buildKernelByName(kernel, sizes, params);
  Compiler c(block);
  CompileOptions o;
  o.paramValues = params;
  o.kernelName = kernel + "_kernel";
  c.options(o).cache(&cache);
  EXPECT_TRUE(c.compile().ok);
  std::shared_ptr<const FamilyPlan> family = c.cachedFamily(block);
  EXPECT_NE(family, nullptr);
  options = c.opts().tileSearchOptions();
  return family != nullptr ? family->tilePlan : nullptr;
}

/// Random sizes for `kernel`: moderate ones, and every fifth with one size
/// near 2^62, where box products overflow and rows stay live.
IntVec randomSizes(const std::string& kernel, testgen::Rng& rng, int index) {
  IntVec s = kernel == "me" ? IntVec{rng.range(1, 200), rng.range(1, 100), rng.range(1, 16)}
                            : IntVec{rng.range(1, 160), rng.range(1, 160), rng.range(1, 160)};
  if (index % 5 == 4) s[0] = (i64{1} << 62) - rng.range(0, 1000);
  return s;
}

constexpr int kBuiltinBindings = 200;
constexpr int kBuiltinShards = 4;

class ParametricFoldBuiltin : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ParametricFoldBuiltin, EveryLadderCandidateMatchesThePerCandidateOracle) {
  const std::string kernel = std::get<0>(GetParam());
  const int shard = std::get<1>(GetParam());
  TileSearchOptions options;
  const std::shared_ptr<const ParametricTilePlan> plan =
      builtinPlan(kernel, kernel == "me" ? std::vector<i64>{256, 128, 16}
                                         : std::vector<i64>{128, 128, 128},
                  options);
  ASSERT_NE(plan, nullptr);
  testgen::Rng rng(testgen::mixSeed(kernel == "me" ? 11 : 12, static_cast<u64>(shard)));
  ParametricTilePlan::Scratch scratch;
  Checked checked;
  for (int b = shard; b < kBuiltinBindings; b += kBuiltinShards)
    checked += checkBinding(*plan, options, randomSizes(kernel, rng, b), scratch);
  EXPECT_GT(checked.candidates, 0);
  EXPECT_GT(checked.errors, 0);  // the sizes near 2^62 overflow
}

INSTANTIATE_TEST_SUITE_P(Families, ParametricFoldBuiltin,
                         ::testing::Combine(::testing::Values(std::string("me"),
                                                              std::string("matmul")),
                                            ::testing::Range(0, kBuiltinShards)));

class ParametricFoldGenerated : public ::testing::TestWithParam<int> {};

TEST_P(ParametricFoldGenerated, EveryPlanOfTheSeedMatchesThePerCandidateOracle) {
  testgen::GeneratorOptions gen;
  gen.seed = static_cast<u64>(GetParam());
  const testgen::ProgramGenerator generator(gen);
  const testgen::DiffOptions diff;
  ParametricTilePlan::Scratch scratch;
  int plans = 0;
  Checked checked;
  for (u64 index = 0; index < 200; ++index) {
    SCOPED_TRACE("program " + std::to_string(index));
    const testgen::GeneratedProgram program = generator.generate(index);
    PlanCache cache;
    Compiler c(program.block);
    c.options(diff.baseOptions).parameters(program.paramValues).cache(&cache);
    c.compile();
    std::shared_ptr<const FamilyPlan> family = c.cachedFamily(program.block);
    if (family == nullptr || family->tilePlan == nullptr) continue;
    ++plans;
    const TileSearchOptions options = c.opts().tileSearchOptions();
    std::vector<IntVec> sizes = {program.paramValues};
    for (i64 factor : {2, 3}) {
      if (program.paramValues.empty()) break;
      IntVec scaled = program.paramValues;
      for (i64& v : scaled) v *= factor;
      sizes.push_back(std::move(scaled));
    }
    for (const IntVec& s : sizes) checked += checkBinding(*family->tilePlan, options, s, scratch);
  }
  EXPECT_GT(plans, 0);
  EXPECT_GT(checked.candidates, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParametricFoldGenerated, ::testing::Values(1, 2, 3, 7));

/// A predicate over ME's [Ni, Nj, W, o0..o3, T0..T3, 1] from rows of
/// (inequality, coefficients) pairs.
Polyhedron meCondition(const std::vector<std::pair<bool, std::vector<std::pair<int, i64>>>>& rows) {
  constexpr int kSymbols = 11;
  Polyhedron cond(kSymbols, 0);
  for (const auto& [inequality, terms] : rows) {
    IntVec row(kSymbols + 1, 0);
    for (const auto& [j, c] : terms) row[j] = c;
    if (inequality)
      cond.addInequality(row);
    else
      cond.addEquality(row);
  }
  return cond;
}

TEST(ParametricFold, SyntheticRowsFoldOnlyWhereTheirVerdictIsFixed) {
  // The generated and built-in plans have no predicate row with a negative
  // tile coefficient, an equality on a tile, or a tile term that overflows;
  // these conditions, put on ME's out/out pair, exercise each corner of the
  // fold. Symbols: Ni, Nj, W = 0..2, origins 3..6, T0..T3 = 7..10, 1 = 11.
  TileSearchOptions options;
  const std::shared_ptr<const ParametricTilePlan> me = builtinPlan("me", {256, 128, 16}, options);
  ASSERT_NE(me, nullptr);
  constexpr i64 kHuge = i64{1} << 61;
  const std::vector<Polyhedron> conditions = {
      meCondition({{true, {{10, -1}, {11, 4}}}}),                       // T3 <= 4
      meCondition({{true, {{7, 1}, {8, -1}, {11, 3}}}}),                // T1 <= T0 + 3
      meCondition({{false, {{9, 1}, {11, -4}}}}),                       // T2 == 4
      meCondition({{false, {{9, 1}, {2, -1}}}}),                        // T2 == W
      meCondition({{true, {{7, kHuge}, {11, -1}}}}),                    // overflows past T0 = 3
      meCondition({{true, {{7, kHuge}, {11, -1}}}, {true, {{11, -1}}}}),  // ... then false
      meCondition({{true, {{11, -1}}}, {true, {{7, kHuge}, {11, -1}}}}),  // false first
      meCondition({{true, {{10, 1}, {0, -1}}}, {true, {{8, -1}, {11, 100}}}}),  // T3 >= Ni, T1 <= 100
  };
  testgen::Rng rng(testgen::mixSeed(14, 0));
  for (size_t k = 0; k < conditions.size(); ++k) {
    SCOPED_TRACE("condition " + std::to_string(k));
    const std::shared_ptr<const ParametricTilePlan> plan =
        ParametricPlanOracle::withPredicate(*me, "out", conditions[k]);
    ParametricTilePlan::Scratch scratch;
    Checked checked;
    for (int b = 0; b < 6; ++b) checked += checkBinding(*plan, options, randomSizes("me", rng, b), scratch);
    EXPECT_GT(checked.candidates, 0);
  }
}

TEST(ParametricFoldConcurrent, ThreadsSharingOnePlanEachWithItsOwnScratchAgree) {
  TileSearchOptions options;
  const std::shared_ptr<const ParametricTilePlan> plan =
      builtinPlan("me", {256, 128, 16}, options);
  ASSERT_NE(plan, nullptr);
  struct Case {
    SizeBinding binding;
    std::vector<i64> tile;
    Outcome want;
  };
  std::vector<Case> cases;
  testgen::Rng rng(testgen::mixSeed(13, 0));
  for (int b = 0; b < 12; ++b) {
    const IntVec sizes = randomSizes("me", rng, b);
    TileSearchOptions opts = options;
    opts.paramValues = sizes;
    TileEvaluator planOnly(plan, opts);
    const SizeBinding binding = plan->bindSizes(sizes);
    forEachTile(planOnly.candidates(), [&](const std::vector<i64>& tile) {
      cases.push_back({binding, tile, outcomeOf([&] {
                         return ParametricPlanOracle::evaluate(*plan, binding, tile);
                       })});
    });
  }
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ParametricTilePlan::Scratch scratch;
      // Each thread walks the cases from its own offset, so the threads
      // evaluate different bindings at the same time.
      for (size_t k = 0; k < cases.size(); ++k) {
        const Case& c = cases[(k + t * cases.size() / kThreads) % cases.size()];
        const Outcome got = outcomeOf(
            [&] { return plan->evaluate(c.binding, c.tile, scratch, /*withTerms=*/true); });
        if (!(got == c.want)) ++mismatches;
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(cases.size(), 1000u);
}

}  // namespace
}  // namespace emm
