// Tests for the polyhedral library: Fourier-Motzkin projection, images,
// intersection/difference, emptiness, parametric bounds, enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>
#include <thread>

#include "driver/compiler.h"
#include "kernels/blocks.h"
#include "poly/enumerate.h"
#include "poly/polyhedron.h"
#include "support/field_codec.h"
#include "support/serialize.h"

namespace emm {
namespace {

/// 1-D box lo <= x <= hi with no parameters.
Polyhedron box1(i64 lo, i64 hi) {
  Polyhedron p(1, 0);
  p.addRange(0, lo, hi);
  return p;
}

/// 2-D box with no parameters.
Polyhedron box2(i64 lo0, i64 hi0, i64 lo1, i64 hi1) {
  Polyhedron p(2, 0);
  p.addRange(0, lo0, hi0);
  p.addRange(1, lo1, hi1);
  return p;
}

TEST(Polyhedron, ContainsPoint) {
  Polyhedron p = box2(0, 4, 2, 6);
  EXPECT_TRUE(p.contains({0, 2}));
  EXPECT_TRUE(p.contains({4, 6}));
  EXPECT_FALSE(p.contains({5, 2}));
  EXPECT_FALSE(p.contains({0, 1}));
}

TEST(Polyhedron, SimplifyDetectsContradiction) {
  Polyhedron p = box1(5, 3);  // empty
  EXPECT_TRUE(p.isEmpty());
}

// ---- The stored emptiness answer. ----

TEST(PolyEmptiness, IsEmptyStoresItsAnswer) {
  Polyhedron p = box1(0, 4);
  EXPECT_EQ(p.storedEmptiness(), std::nullopt);
  EXPECT_FALSE(p.isEmpty());
  EXPECT_EQ(p.storedEmptiness(), std::optional<bool>(false));
  Polyhedron q = box1(5, 3);
  EXPECT_TRUE(q.isEmpty());
  EXPECT_EQ(q.storedEmptiness(), std::optional<bool>(true));
}

TEST(PolyEmptiness, EveryMutatorForgetsTheAnswer) {
  // Each mutator turns the non-empty 0 <= x <= 4 empty; a stale stored
  // answer would still say non-empty.
  const IntVec xAtLeast9 = {1, -9};  // x - 9 >= 0
  const std::vector<std::pair<const char*, std::function<void(Polyhedron&)>>> mutators = {
      {"addEquality", [](Polyhedron& p) { p.addEquality({1, -9}); }},
      {"addInequality", [&](Polyhedron& p) { p.addInequality(xAtLeast9); }},
      {"addRange", [](Polyhedron& p) { p.addRange(0, 9, 12); }},
      {"addLowerBound", [](Polyhedron& p) { p.addLowerBound(0, {0, 9}); }},
      {"addUpperBound", [](Polyhedron& p) { p.addUpperBound(0, {0, -1}); }},
  };
  for (const auto& [name, mutate] : mutators) {
    SCOPED_TRACE(name);
    Polyhedron p = box1(0, 4);
    ASSERT_FALSE(p.isEmpty());
    mutate(p);
    EXPECT_EQ(p.storedEmptiness(), std::nullopt);
    EXPECT_TRUE(p.isEmpty());
  }
  Polyhedron p = box1(0, 4);
  ASSERT_FALSE(p.isEmpty());
  EXPECT_TRUE(p.simplify());
  EXPECT_EQ(p.storedEmptiness(), std::nullopt);
  EXPECT_FALSE(p.isEmpty());
}

TEST(PolyEmptiness, CopiesAndMovesCarryTheAnswer) {
  Polyhedron p = box2(0, 4, 2, 6);
  ASSERT_FALSE(p.isEmpty());
  Polyhedron copy(p);
  EXPECT_EQ(copy.storedEmptiness(), std::optional<bool>(false));
  Polyhedron assigned;
  assigned = p;
  EXPECT_EQ(assigned.storedEmptiness(), std::optional<bool>(false));
  Polyhedron moved(std::move(copy));
  EXPECT_EQ(moved.storedEmptiness(), std::optional<bool>(false));
  Polyhedron moveAssigned;
  moveAssigned = std::move(assigned);
  EXPECT_EQ(moveAssigned.storedEmptiness(), std::optional<bool>(false));
  // A copy's own mutation does not touch the original's answer.
  moved.addRange(0, 9, 12);
  EXPECT_TRUE(moved.isEmpty());
  EXPECT_EQ(p.storedEmptiness(), std::optional<bool>(false));
}

TEST(PolyEmptiness, MarkedEmptyBySimplifyStaysEmpty) {
  // 2x == 1 has no integer solution: simplify marks the set empty and may
  // drop the witness row, so later answers must come from the mark.
  Polyhedron p(1, 0);
  p.addEquality({2, -1});
  EXPECT_FALSE(p.simplify());
  EXPECT_EQ(p.storedEmptiness(), std::optional<bool>(true));
  EXPECT_TRUE(p.isEmpty());
  Polyhedron copy = p;
  EXPECT_TRUE(copy.isEmpty());
  copy.addRange(0, -10, 10);
  EXPECT_EQ(copy.storedEmptiness(), std::nullopt);
  EXPECT_TRUE(copy.isEmpty());
  EXPECT_FALSE(copy.simplify());
  EXPECT_TRUE(copy.isEmpty());
}

TEST(PolyEmptiness, ConcurrentSerializeOfSharedRecord) {
  // The family-record pattern: one shared const result whose polyhedra
  // have no stored answers yet, cloned and encoded by several threads at
  // once. Every thread must produce the bytes a single thread produces.
  IntVec params;
  Compiler c(buildKernelByName("me", {64, 32, 8}, params));
  c.parameters(params);
  const CompileResult compiled = c.compile();
  ASSERT_TRUE(compiled.ok) << compiled.firstError();
  const std::string expected = serializeCompileResult(compiled);
  const auto shared = std::make_shared<const CompileResult>(
      deserializeCompileResult(expected));  // answers not yet stored

  constexpr int kThreads = 4;
  std::vector<std::string> bytes(kThreads * 2);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      CompileResult clone = shared->clone();
      bytes[2 * t] = serializeCompileResult(clone);
      bytes[2 * t + 1] = serializeCompileResult(*shared);
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& b : bytes) EXPECT_EQ(b, expected);
}

TEST(Polyhedron, SimplifyGcdEquality) {
  // 2x == 5 has no integer solution.
  Polyhedron p(1, 0);
  p.addEquality({2, -5});
  EXPECT_TRUE(p.isEmpty());
  // 2x == 6 does.
  Polyhedron q(1, 0);
  q.addEquality({2, -6});
  EXPECT_FALSE(q.isEmpty());
  EXPECT_TRUE(q.contains({3}));
}

TEST(Polyhedron, EliminateVariable) {
  // { (x, y) : 0<=x<=3, x<=y<=x+2 } projected onto x is [0,3].
  Polyhedron p(2, 0);
  p.addRange(0, 0, 3);
  IntVec lo{-1, 1, 0};  // y - x >= 0
  p.addInequality(lo);
  IntVec hi{1, -1, 2};  // x + 2 - y >= 0
  p.addInequality(hi);
  Polyhedron proj = p.eliminated(1);
  EXPECT_EQ(proj.dim(), 1);
  EXPECT_TRUE(proj.contains({0}));
  EXPECT_TRUE(proj.contains({3}));
  EXPECT_FALSE(proj.contains({4}));
}

TEST(Polyhedron, EliminateViaEquality) {
  // { (x, y) : y == 2x + 1, 0 <= x <= 4 } projected onto y: odd y in [1,9].
  Polyhedron p(2, 0);
  p.addEquality({2, -1, 1});  // 2x - y + 1 == 0
  p.addRange(0, 0, 4);
  Polyhedron proj = p.eliminated(0);
  EXPECT_EQ(proj.dim(), 1);
  // Rational projection gives [1,9]; integrality of odd y shows up in
  // bounds rounding during scanning, so count the actual points.
  EXPECT_EQ(countPoints(proj, {}), 9);  // projection is the rational shadow
}

TEST(Polyhedron, ImageShift) {
  // x in [0,9]; y = x + 5 -> y in [5,14].
  Polyhedron p = box1(0, 9);
  IntMat f{{1, 5}};
  Polyhedron img = p.image(f);
  EXPECT_EQ(img.dim(), 1);
  EXPECT_EQ(countPoints(img, {}), 10);
  EXPECT_TRUE(img.contains({5}));
  EXPECT_TRUE(img.contains({14}));
  EXPECT_FALSE(img.contains({4}));
}

TEST(Polyhedron, ImageProjection2DTo1D) {
  // (i,j) in [0,3]x[0,5]; y = i -> [0,3].
  Polyhedron p = box2(0, 3, 0, 5);
  IntMat f{{1, 0, 0}};
  Polyhedron img = p.image(f);
  EXPECT_EQ(countPoints(img, {}), 4);
}

TEST(Polyhedron, ImageSkewed) {
  // (i,j) in [0,2]x[0,2]; y = i + j -> [0,4] (all integers reachable).
  Polyhedron p = box2(0, 2, 0, 2);
  IntMat f{{1, 1, 0}};
  EXPECT_EQ(countPoints(p.image(f), {}), 5);
}

TEST(Polyhedron, ImageWithParams) {
  // x in [0, N-1]; y = x + N -> [N, 2N-1]; with N=4: 4..7.
  Polyhedron p(1, 1);
  IntVec lo{1, 0, 0};
  p.addInequality(lo);  // x >= 0
  IntVec hi{-1, 1, -1};
  p.addInequality(hi);  // N - 1 - x >= 0
  IntMat f{{1, 1, 0}};  // y = x + N
  Polyhedron img = p.image(f);
  EXPECT_EQ(countPoints(img, {4}), 4);
  EXPECT_TRUE(img.contains({4, 4}));
  EXPECT_TRUE(img.contains({7, 4}));
  EXPECT_FALSE(img.contains({8, 4}));
}

TEST(Polyhedron, Preimage) {
  // Target: y in [10, 19]; map y = 2z -> z in [5, 9] (integral halves).
  Polyhedron target = box1(10, 19);
  IntMat f{{2, 0}};  // y = 2z, over [z, 1]
  Polyhedron pre = target.preimage(f, 1);
  EXPECT_EQ(countPoints(pre, {}), 5);
  EXPECT_TRUE(pre.contains({5}));
  EXPECT_TRUE(pre.contains({9}));
  EXPECT_FALSE(pre.contains({10}));
}

TEST(Polyhedron, IntersectAndOverlap) {
  Polyhedron a = box1(0, 10);
  Polyhedron b = box1(8, 20);
  EXPECT_TRUE(overlaps(a, b));
  EXPECT_EQ(countPoints(Polyhedron::intersect(a, b), {}), 3);
  Polyhedron c = box1(11, 20);
  EXPECT_FALSE(overlaps(a, c));
}

TEST(Polyhedron, EmptinessWithParams) {
  // { x : 0 <= x <= N-1, x >= N } is empty for all N.
  Polyhedron p(1, 1);
  p.addInequality({1, 0, 0});    // x >= 0
  p.addInequality({-1, 1, -1});  // x <= N-1
  p.addInequality({1, -1, 0});   // x >= N
  EXPECT_TRUE(p.isEmpty());
}

TEST(Polyhedron, ParamBounds) {
  // x in [N+1, 3N+4]; bounds as functions of N.
  Polyhedron p(1, 1);
  p.addInequality({1, -1, -1});   // x - N - 1 >= 0
  p.addInequality({-1, 3, 4});    // 3N + 4 - x >= 0
  DimBounds b = p.paramBounds(0);
  EXPECT_EQ(b.evalLower({10}), 11);
  EXPECT_EQ(b.evalUpper({10}), 34);
}

TEST(Polyhedron, LoopBoundsTriangular) {
  // { (i,j) : 0<=i<=9, 0<=j<=i }: bounds of j depend on i.
  Polyhedron p(2, 0);
  p.addRange(0, 0, 9);
  p.addInequality({0, 1, 0});   // j >= 0
  p.addInequality({1, -1, 0});  // i - j >= 0
  DimBounds b = p.loopBounds(1);
  EXPECT_EQ(b.evalLower({5}), 0);
  EXPECT_EQ(b.evalUpper({5}), 5);
  EXPECT_EQ(countPoints(p, {}), 55);
}

TEST(SetOps, DifferenceSplitsCorrectly) {
  Polyhedron a = box1(0, 9);
  Polyhedron b = box1(3, 5);
  PolySet diff = setDifference(a, b);
  i64 total = 0;
  for (const Polyhedron& piece : diff) total += countPoints(piece, {});
  EXPECT_EQ(total, 7);
  // Pieces are disjoint from b.
  for (const Polyhedron& piece : diff) EXPECT_FALSE(overlaps(piece, b));
}

TEST(SetOps, DifferenceEmptyResult) {
  EXPECT_TRUE(setDifference(box1(3, 5), box1(0, 9)).empty());
}

TEST(SetOps, MakeDisjointPreservesUnion) {
  PolySet pieces{box1(0, 10), box1(5, 15), box1(12, 20)};
  PolySet disjoint = makeDisjoint(pieces);
  i64 total = 0;
  for (const Polyhedron& piece : disjoint) total += countPoints(piece, {});
  EXPECT_EQ(total, 21);  // 0..20
  for (size_t i = 0; i < disjoint.size(); ++i)
    for (size_t j = i + 1; j < disjoint.size(); ++j)
      EXPECT_FALSE(overlaps(disjoint[i], disjoint[j]));
}

TEST(SetOps, OverlapComponents) {
  PolySet sets{box1(0, 5), box1(4, 9), box1(20, 25), box1(24, 30), box1(100, 101)};
  auto comps = overlapComponents(sets);
  ASSERT_EQ(comps.size(), 3u);
  std::multiset<size_t> sizes;
  for (const auto& c : comps) sizes.insert(c.size());
  EXPECT_EQ(sizes, (std::multiset<size_t>{1, 2, 2}));
}

TEST(Enumerate, VisitsLexicographically) {
  Polyhedron p = box2(0, 1, 0, 1);
  std::vector<IntVec> pts;
  forEachPoint(p, {}, [&](const IntVec& v) { pts.push_back(v); });
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0], (IntVec{0, 0}));
  EXPECT_EQ(pts[3], (IntVec{1, 1}));
  EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
}

TEST(Enumerate, CountWithCap) {
  Polyhedron p = box1(0, 999);
  EXPECT_EQ(countPoints(p, {}, 10), 10);
  EXPECT_EQ(countPoints(p, {}), 1000);
}

TEST(Enumerate, CountUnionDeduplicates) {
  PolySet sets{box1(0, 9), box1(5, 14)};
  EXPECT_EQ(countUnion(sets, {}), 15);
}

TEST(Enumerate, BoundingBoxVolume) {
  Polyhedron p = box2(2, 5, 10, 12);
  EXPECT_EQ(boundingBoxVolume(p, {}), 12);  // 4 * 3
  EXPECT_EQ(boundingBoxVolume(box1(5, 3), {}), 0);
}

TEST(Enumerate, DiagonalSliceIntegrality) {
  // { (i,j) : 2j == i, 0 <= i <= 10 } has 6 points.
  Polyhedron p(2, 0);
  p.addEquality({1, -2, 0});
  p.addRange(0, 0, 10);
  EXPECT_EQ(countPoints(p, {}), 6);
}

// ---- Property suite: images and projections against brute force. ----

struct ImageCase {
  i64 lo0, hi0, lo1, hi1;  // domain box
  i64 a, b, c, d;          // map rows: y0 = a*i + b*j, y1 = c*i + d*j
};

class ImageProperty : public ::testing::TestWithParam<ImageCase> {};

TEST_P(ImageProperty, ImageMatchesBruteForce) {
  const ImageCase& t = GetParam();
  Polyhedron dom = box2(t.lo0, t.hi0, t.lo1, t.hi1);
  IntMat f{{t.a, t.b, 0}, {t.c, t.d, 0}};
  Polyhedron img = dom.image(f);

  std::set<IntVec> expected;
  for (i64 i = t.lo0; i <= t.hi0; ++i)
    for (i64 j = t.lo1; j <= t.hi1; ++j)
      expected.insert({t.a * i + t.b * j, t.c * i + t.d * j});

  std::set<IntVec> actual;
  forEachPoint(img, {}, [&](const IntVec& v) { actual.insert(v); });
  // The image polyhedron is the rational shadow: it may strictly contain
  // the integer image only when the map is non-surjective on the lattice;
  // for these unimodular-ish cases equality must hold.
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Maps, ImageProperty,
    ::testing::Values(ImageCase{0, 4, 0, 4, 1, 0, 0, 1},    // identity
                      ImageCase{0, 4, 0, 4, 1, 1, 0, 1},    // shear
                      ImageCase{-2, 2, -2, 2, 1, 1, 1, 0},  // swapizer
                      ImageCase{0, 3, 0, 5, 1, 0, 1, 1},    // skew other way
                      ImageCase{2, 6, 1, 3, 1, -1, 0, 1}));

class ProjectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionProperty, ProjectionOfSimplexCountsMatchBruteForce) {
  int n = GetParam();
  // { (i, j) : 0 <= i, 0 <= j, i + j <= n } projected to i = [0, n].
  Polyhedron p(2, 0);
  p.addInequality({1, 0, 0});
  p.addInequality({0, 1, 0});
  p.addInequality({-1, -1, n});
  EXPECT_EQ(countPoints(p, {}), (static_cast<i64>(n) + 1) * (n + 2) / 2);
  Polyhedron proj = p.eliminated(1);
  EXPECT_EQ(countPoints(proj, {}), n + 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProjectionProperty, ::testing::Values(0, 1, 2, 5, 13));

// ---- The flat-row Fourier-Motzkin kernel against the row-vector one. ----

/// The rows and mark of one polyhedron, as the reference kernel sees them.
struct RefPoly {
  int dim = 0;
  int nparam = 0;
  IntMat eqs;
  IntMat ineqs;
  bool empty = false;

  int cols() const { return dim + nparam + 1; }
};

RefPoly refOf(const Polyhedron& p) {
  return {p.dim(), p.nparam(), p.equalities(), p.inequalities(), p.markedEmpty()};
}

bool refZeroButConst(const IntVec& row) {
  for (size_t i = 0; i + 1 < row.size(); ++i)
    if (row[i] != 0) return false;
  return true;
}

/// Polyhedron::simplify as it was written over one IntVec per row, kept
/// as the reference the flat-row kernel must match row for row.
bool refSimplify(RefPoly& p) {
  if (p.empty) return false;
  IntMat newEqs(0, p.cols());
  std::set<IntVec> seenEq;
  for (int r = 0; r < p.eqs.rows(); ++r) {
    IntVec row = p.eqs.row(r);
    if (refZeroButConst(row)) {
      if (row.back() != 0) return !(p.empty = true);
      continue;
    }
    i64 g = 0;
    for (size_t i = 0; i + 1 < row.size(); ++i) g = gcd64(g, row[i]);
    if (g > 0 && row.back() % g != 0) return !(p.empty = true);
    if (g > 1)
      for (i64& x : row) x /= g;
    for (size_t i = 0; i < row.size(); ++i)
      if (row[i] != 0) {
        if (row[i] < 0)
          for (i64& x : row) x = narrow(-static_cast<i128>(x));
        break;
      }
    if (seenEq.insert(row).second) newEqs.appendRow(row);
  }
  p.eqs = std::move(newEqs);

  IntMat newIneqs(0, p.cols());
  std::vector<IntVec> rows;
  for (int r = 0; r < p.ineqs.rows(); ++r) {
    IntVec row = p.ineqs.row(r);
    if (refZeroButConst(row)) {
      if (row.back() < 0) return !(p.empty = true);
      continue;
    }
    i64 g = 0;
    for (size_t i = 0; i + 1 < row.size(); ++i) g = gcd64(g, row[i]);
    if (g > 1) {
      for (size_t i = 0; i + 1 < row.size(); ++i) row[i] /= g;
      row.back() = floorDiv(row.back(), g);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && std::equal(rows[i].begin(), rows[i].end() - 1, rows[i - 1].begin())) continue;
    newIneqs.appendRow(rows[i]);
  }
  p.ineqs = std::move(newIneqs);
  return true;
}

/// Polyhedron::eliminated as it was written over one IntVec per row.
RefPoly refEliminated(const RefPoly& in, int var) {
  RefPoly work = in;
  RefPoly out{in.dim - 1, in.nparam, IntMat(0, in.cols() - 1), IntMat(0, in.cols() - 1), false};
  if (!refSimplify(work)) {
    out.empty = true;
    return out;
  }
  int eqIdx = -1;
  for (int r = 0; r < work.eqs.rows(); ++r)
    if (work.eqs.at(r, var) != 0) {
      eqIdx = r;
      break;
    }
  auto dropColumn = [&](const IntVec& row) {
    IntVec o;
    for (size_t j = 0; j < row.size(); ++j)
      if (static_cast<int>(j) != var) o.push_back(row[j]);
    return o;
  };
  auto substitute = [&](IntVec row, const IntVec& eq) {
    const i64 c = eq[var];
    if (row[var] != 0) {
      i64 g = gcd64(c, row[var]);
      i64 fr = (c < 0 ? -c : c) / g;
      i64 fe = -(row[var] * ((c < 0) ? -1 : 1)) / g;
      IntVec comb(row.size());
      for (size_t j = 0; j < row.size(); ++j) comb[j] = mulAddChecked(fr, row[j], fe, eq[j]);
      row = comb;
    }
    return dropColumn(row);
  };
  if (eqIdx >= 0) {
    const IntVec eq = work.eqs.row(eqIdx);
    for (int r = 0; r < work.eqs.rows(); ++r)
      if (r != eqIdx) out.eqs.appendRow(substitute(work.eqs.row(r), eq));
    for (int r = 0; r < work.ineqs.rows(); ++r)
      out.ineqs.appendRow(substitute(work.ineqs.row(r), eq));
    refSimplify(out);
    return out;
  }
  std::vector<IntVec> pos, neg, none;
  for (int r = 0; r < work.ineqs.rows(); ++r) {
    IntVec row = work.ineqs.row(r);
    (row[var] > 0 ? pos : row[var] < 0 ? neg : none).push_back(std::move(row));
  }
  for (int r = 0; r < work.eqs.rows(); ++r) out.eqs.appendRow(dropColumn(work.eqs.row(r)));
  for (const IntVec& row : none) out.ineqs.appendRow(dropColumn(row));
  for (const IntVec& a : pos)
    for (const IntVec& b : neg) {
      i64 g = gcd64(a[var], b[var]);
      i64 fa = -b[var] / g, fb = a[var] / g;
      IntVec comb(a.size());
      for (size_t j = 0; j < a.size(); ++j) comb[j] = mulAddChecked(fa, a[j], fb, b[j]);
      normalizeByGcd(comb);
      out.ineqs.appendRow(dropColumn(comb));
    }
  refSimplify(out);
  return out;
}

RefPoly refProjectedOnto(RefPoly cur, int keep) {
  while (cur.dim > keep) cur = refEliminated(cur, cur.dim - 1);
  return cur;
}

bool refIsEmpty(const RefPoly& p) {
  RefPoly all = p;
  if (!refSimplify(all)) return true;
  all.dim += all.nparam;
  all.nparam = 0;
  while (all.dim > 0) {
    all = refEliminated(all, all.dim - 1);
    if (all.empty) return true;
  }
  return !refSimplify(all);
}

std::string matText(const IntMat& m) {
  return std::to_string(m.rows()) + "x" + std::to_string(m.cols()) + " " + m.str();
}

/// Everything a polyhedron's serialized bytes carry except the derived
/// emptiness byte: shape, rows and the empty mark.
std::string rowsText(int dim, int nparam, const IntMat& eqs, const IntMat& ineqs, bool empty) {
  return std::to_string(dim) + "/" + std::to_string(nparam) + (empty ? " EMPTY" : "") +
         "\n eqs " + matText(eqs) + "\n ineqs " + matText(ineqs);
}
std::string rowsText(const Polyhedron& p) {
  return rowsText(p.dim(), p.nparam(), p.equalities(), p.inequalities(), p.markedEmpty());
}
std::string rowsText(const RefPoly& p) {
  return rowsText(p.dim, p.nparam, p.eqs, p.ineqs, p.empty);
}

/// `f()`'s text, or the text of the ApiError it throws.
template <class F>
std::string outcome(F&& f) {
  try {
    return f();
  } catch (const ApiError& e) {
    return std::string("ApiError: ") + e.what();
  }
}

/// Random rows in [-3, 3] over `dim` variables and up to two parameters,
/// seasoned with the rows simplify() treats specially: duplicates, zero
/// rows, rows with a common factor, loose copies of earlier rows, and
/// (rarely) entries near the int64 limits.
Polyhedron randomPolyhedron(std::mt19937_64& rng) {
  auto pick = [&](i64 lo, i64 hi) { return std::uniform_int_distribution<i64>(lo, hi)(rng); };
  const int dim = static_cast<int>(pick(1, 8));
  const int nparam = static_cast<int>(pick(0, 2));
  const int n = dim + nparam + 1;
  const bool huge = pick(0, 19) == 0;
  Polyhedron p(dim, nparam);
  std::vector<IntVec> made;
  auto row = [&] {
    IntVec r(n, 0);
    for (int j = 0; j + 1 < n; ++j) r[j] = pick(0, 2) == 0 ? 0 : pick(-3, 3);
    r.back() = pick(-6, 6);
    switch (pick(0, 9)) {
      case 0:  // a duplicate, or a copy with another constant
        if (!made.empty()) {
          r = made[pick(0, static_cast<i64>(made.size()) - 1)];
          if (r.back() > -100 && r.back() < 100) r.back() += pick(-1, 1);
        }
        break;
      case 1:  // a zero row: a tautology or a contradiction
        std::fill(r.begin(), r.end() - 1, 0);
        r.back() = pick(-1, 1);
        break;
      case 2:  // a common factor of the coefficients
        for (i64& x : r) x *= pick(2, 4);
        r.back() += pick(-2, 2);
        break;
      default:
        break;
    }
    if (huge && pick(0, 2) == 0) {
      const i64 edges[] = {INT64_MIN, INT64_MIN + 1, INT64_MAX, INT64_MAX / 2, INT64_MIN / 2,
                           INT64_MAX / 3 + 1};
      r[pick(0, n - 1)] = edges[pick(0, 5)];
    }
    made.push_back(r);
    return r;
  };
  // A box on most variables keeps the projections small and bounded.
  for (int v = 0; v < dim; ++v)
    if (pick(0, 3) != 0) p.addRange(v, pick(-4, 0), pick(0, 6));
  const int neq = static_cast<int>(pick(0, 3));
  const int nineq = static_cast<int>(pick(0, 4));
  for (int k = 0; k < neq; ++k) p.addEquality(row());
  for (int k = 0; k < nineq; ++k) p.addInequality(row());
  return p;
}

TEST(PolyKernel, MatchesTheRowVectorKernelOnRandomPolyhedra) {
  std::mt19937_64 rng(24);
  int emptyVerdicts = 0, errors = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const Polyhedron p = randomPolyhedron(rng);
    SCOPED_TRACE("case " + std::to_string(iter) + ": " + p.str());
    // simplify(), including the rows it leaves behind when it throws.
    Polyhedron got = p;
    RefPoly want = refOf(p);
    const std::string gotText =
        outcome([&] { return std::string(got.simplify() ? "ok" : "empty"); }) + rowsText(got);
    const std::string wantText =
        outcome([&] { return std::string(refSimplify(want) ? "ok" : "empty"); }) +
        rowsText(want);
    ASSERT_EQ(gotText, wantText);
    errors += gotText.starts_with("ApiError");
    // Simplifying the canonical form again changes nothing.
    if (!got.markedEmpty() && !gotText.starts_with("ApiError")) {
      Polyhedron again = got;
      again.addEquality(IntVec(again.cols(), 0));  // 0 == 0 drops the mark, not a row
      ASSERT_TRUE(again.simplify());
      ASSERT_EQ(rowsText(again), rowsText(got));
    }
    // eliminated(v) from the raw rows and from the simplified ones.
    for (int v = 0; v < p.dim(); ++v) {
      ASSERT_EQ(outcome([&] { return rowsText(p.eliminated(v)); }),
                outcome([&] { return rowsText(refEliminated(refOf(p), v)); }))
          << "eliminated(" << v << ")";
      if (gotText.starts_with("ApiError")) continue;
      ASSERT_EQ(outcome([&] { return rowsText(got.eliminated(v)); }),
                outcome([&] { return rowsText(refEliminated(want, v)); }))
          << "eliminated(" << v << ") of the simplified rows";
    }
    // Fourier-Motzkin grows doubly exponentially in the eliminated
    // variables, so whole projections and emptiness run on small spaces.
    const int vars = p.dim() + p.nparam();
    for (int keep = std::max(0, p.dim() - 3); keep < p.dim(); ++keep)
      ASSERT_EQ(outcome([&] { return rowsText(p.projectedOnto(keep)); }),
                outcome([&] { return rowsText(refProjectedOnto(refOf(p), keep)); }))
          << "projectedOnto(" << keep << ")";
    if (vars > 5) continue;
    const std::string verdict =
        outcome([&] { return std::string(p.isEmpty() ? "empty" : "non-empty"); });
    ASSERT_EQ(verdict,
              outcome([&] { return std::string(refIsEmpty(refOf(p)) ? "empty" : "non-empty"); }));
    emptyVerdicts += verdict == "empty";
  }
  // The corpus exercises both verdicts and the overflow errors.
  EXPECT_GT(emptyVerdicts, 100);
  EXPECT_GT(errors, 10);
}

TEST(PolyKernel, ContradictionKeepsTheRowsSerializedBytesCarry) {
  // A contradictory inequality: the equalities are already normalized,
  // the inequalities stay exactly as they were added.
  Polyhedron p(2, 0);
  p.addEquality({-2, 4, 6});  // normalizes to x - 2y - 3 == 0
  p.addInequality({4, 2, 6});
  p.addInequality({0, 0, -1});  // 0 >= 1
  p.addInequality({3, 3, 1});
  EXPECT_FALSE(p.simplify());
  EXPECT_TRUE(p.markedEmpty());
  EXPECT_EQ(matText(p.equalities()), matText(IntMat{{1, -2, -3}}));
  EXPECT_EQ(matText(p.inequalities()), matText(IntMat{{4, 2, 6}, {0, 0, -1}, {3, 3, 1}}));

  // A contradictory equality leaves the equalities unnormalized too.
  Polyhedron q(2, 0);
  q.addEquality({-2, 4, 6});
  q.addEquality({2, 4, 1});  // 2x + 4y + 1 == 0 has no integer point
  q.addInequality({4, 2, 6});
  EXPECT_FALSE(q.simplify());
  EXPECT_EQ(matText(q.equalities()), matText(IntMat{{-2, 4, 6}, {2, 4, 1}}));
  EXPECT_EQ(matText(q.inequalities()), matText(IntMat{{4, 2, 6}}));

  // The bytes carry exactly those rows.
  auto bytesOf = [](const Polyhedron& poly) {
    ByteWriter w;
    writeValue(w, poly);
    return w.take();
  };
  Polyhedron keptP(2, 0);
  keptP.addEquality({1, -2, -3});
  keptP.addInequality({4, 2, 6});
  keptP.addInequality({0, 0, -1});
  keptP.addInequality({3, 3, 1});
  EXPECT_EQ(bytesOf(p), bytesOf(keptP));
  Polyhedron keptQ(2, 0);
  keptQ.addEquality({-2, 4, 6});
  keptQ.addEquality({2, 4, 1});
  keptQ.addInequality({4, 2, 6});
  EXPECT_EQ(bytesOf(q), bytesOf(keptQ));
}

TEST(PolyKernel, EliminationPastTheRowLimitThrows) {
  // 46,341 distinct rows on each side of x0 combine into more than 2^31
  // rows: an ApiError, before any of them is written.
  Polyhedron p(2, 0);
  for (i64 k = 1; k <= 46341; ++k) {
    p.addInequality({1, k, 0});
    p.addInequality({-1, k, 0});
  }
  EXPECT_THROW(p.eliminated(0), ApiError);
}

TEST(PolyEmptiness, ConcurrentEliminationOfASharedSimplifiedPolyhedron) {
  // eliminated(), projectedOnto() and isEmpty() read the simplified mark
  // and fill the stored emptiness answer of one shared const polyhedron;
  // every thread must get the results a single thread gets.
  Polyhedron built(4, 1);
  for (int v = 0; v < 4; ++v) built.addRange(v, 0, 9);
  built.addInequality({1, -1, 2, 0, 1, -3});
  built.addInequality({-1, 2, 0, 1, -1, 4});
  built.addEquality({2, 0, 0, -2, 0, 0});
  ASSERT_TRUE(built.simplify());
  auto results = [](const Polyhedron& p) {
    std::string text;
    for (int v = 0; v < p.dim(); ++v) text += rowsText(p.eliminated(v));
    for (int keep = 0; keep < p.dim(); ++keep) text += rowsText(p.projectedOnto(keep));
    return text + (p.isEmpty() ? "empty" : "non-empty");
  };
  const std::string expected = results(Polyhedron(built));
  const auto shared = std::make_shared<const Polyhedron>(built);
  ASSERT_EQ(shared->storedEmptiness(), std::nullopt);

  constexpr int kThreads = 4;
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { got[t] = results(*shared); });
  for (std::thread& t : threads) t.join();
  for (const std::string& g : got) EXPECT_EQ(g, expected);
  EXPECT_EQ(shared->storedEmptiness(), std::optional<bool>(false));
}

}  // namespace
}  // namespace emm
