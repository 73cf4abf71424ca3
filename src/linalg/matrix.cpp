#include "linalg/matrix.h"

#include <algorithm>
#include <sstream>

namespace emm {

IntMat::IntMat(std::initializer_list<std::initializer_list<i64>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(size_t(rows_) * cols_);
  for (const auto& r : rows) {
    EMM_CHECK(static_cast<int>(r.size()) == cols_, "ragged initializer for IntMat");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

IntMat IntMat::identity(int n) {
  IntMat m(n, n);
  for (int i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

IntVec IntMat::row(int r) const {
  EMM_CHECK(r >= 0 && r < rows_, "row index out of range");
  return IntVec(data_.begin() + size_t(r) * cols_, data_.begin() + size_t(r + 1) * cols_);
}

void IntMat::setRow(int r, const IntVec& v) {
  EMM_CHECK(r >= 0 && r < rows_, "row index out of range");
  EMM_CHECK(static_cast<int>(v.size()) == cols_, "row width mismatch");
  std::copy(v.begin(), v.end(), data_.begin() + size_t(r) * cols_);
}

void IntMat::appendRow(std::span<const i64> v) {
  if (rows_ == 0 && cols_ == 0) cols_ = static_cast<int>(v.size());
  EMM_CHECK(static_cast<int>(v.size()) == cols_, "row width mismatch");
  data_.insert(data_.end(), v.begin(), v.end());
  ++rows_;
}

void IntMat::resizeRows(int rows) {
  EMM_CHECK(rows >= 0, "negative matrix shape");
  data_.resize(size_t(rows) * cols_);
  rows_ = rows;
}

void IntMat::removeRow(int r) {
  EMM_CHECK(r >= 0 && r < rows_, "row index out of range");
  data_.erase(data_.begin() + size_t(r) * cols_, data_.begin() + size_t(r + 1) * cols_);
  --rows_;
}

IntMat operator*(const IntMat& a, const IntMat& b) {
  EMM_CHECK(a.cols_ == b.rows_, "shape mismatch in matrix product");
  IntMat c(a.rows_, b.cols_);
  for (int i = 0; i < a.rows_; ++i)
    for (int k = 0; k < a.cols_; ++k) {
      i64 aik = a.at(i, k);
      if (aik == 0) continue;
      for (int j = 0; j < b.cols_; ++j)
        c.at(i, j) = narrow(static_cast<i128>(c.at(i, j)) + static_cast<i128>(aik) * b.at(k, j));
    }
  return c;
}

IntMat operator+(const IntMat& a, const IntMat& b) {
  EMM_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_, "shape mismatch in matrix sum");
  IntMat c(a.rows_, a.cols_);
  for (int i = 0; i < a.rows_; ++i)
    for (int j = 0; j < a.cols_; ++j) c.at(i, j) = addChecked(a.at(i, j), b.at(i, j));
  return c;
}

IntMat operator-(const IntMat& a, const IntMat& b) {
  EMM_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_, "shape mismatch in matrix difference");
  IntMat c(a.rows_, a.cols_);
  for (int i = 0; i < a.rows_; ++i)
    for (int j = 0; j < a.cols_; ++j) c.at(i, j) = subChecked(a.at(i, j), b.at(i, j));
  return c;
}

IntVec IntMat::apply(const IntVec& v) const {
  EMM_CHECK(static_cast<int>(v.size()) == cols_, "vector length mismatch in apply");
  IntVec out(rows_, 0);
  for (int i = 0; i < rows_; ++i) {
    i128 acc = 0;
    for (int j = 0; j < cols_; ++j) acc += static_cast<i128>(at(i, j)) * v[j];
    out[i] = narrow(acc);
  }
  return out;
}

IntMat IntMat::transposed() const {
  IntMat t(cols_, rows_);
  for (int i = 0; i < rows_; ++i)
    for (int j = 0; j < cols_; ++j) t.at(j, i) = at(i, j);
  return t;
}

namespace {

/// Fraction-free (Bareiss-style) forward elimination on a rational copy.
/// Returns the pivot columns; `m` is modified in place.
std::vector<int> eliminate(std::vector<std::vector<Rat>>& m) {
  std::vector<int> pivotCols;
  if (m.empty()) return pivotCols;
  int rows = static_cast<int>(m.size());
  int cols = static_cast<int>(m[0].size());
  int r = 0;
  for (int c = 0; c < cols && r < rows; ++c) {
    int pivot = -1;
    for (int i = r; i < rows; ++i)
      if (!m[i][c].isZero()) {
        pivot = i;
        break;
      }
    if (pivot < 0) continue;
    std::swap(m[r], m[pivot]);
    for (int i = r + 1; i < rows; ++i) {
      if (m[i][c].isZero()) continue;
      Rat f = m[i][c] / m[r][c];
      for (int j = c; j < cols; ++j) m[i][j] -= f * m[r][j];
    }
    pivotCols.push_back(c);
    ++r;
  }
  return pivotCols;
}

std::vector<std::vector<Rat>> toRational(const IntMat& a) {
  std::vector<std::vector<Rat>> m(a.rows(), std::vector<Rat>(a.cols()));
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) m[i][j] = Rat(a.at(i, j));
  return m;
}

}  // namespace

int IntMat::rank() const {
  auto m = toRational(*this);
  return static_cast<int>(eliminate(m).size());
}

std::string IntMat::str() const {
  std::ostringstream os;
  for (int i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : " ");
    for (int j = 0; j < cols_; ++j) os << at(i, j) << (j + 1 < cols_ ? " " : "");
    os << (i + 1 < rows_ ? "\n" : "]");
  }
  return os.str();
}

void normalizeByGcd(IntVec& v) {
  i64 g = 0;
  for (i64 x : v) g = gcd64(g, x);
  if (g > 1)
    for (i64& x : v) x /= g;
}

i64 dot(const IntVec& a, const IntVec& b) {
  EMM_CHECK(a.size() == b.size(), "length mismatch in dot product");
  i128 acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc += static_cast<i128>(a[i]) * b[i];
  return narrow(acc);
}

bool solveRational(const IntMat& a, const IntVec& b, std::vector<Rat>& x) {
  EMM_CHECK(static_cast<int>(b.size()) == a.rows(), "rhs length mismatch in solve");
  // Augmented elimination.
  auto m = toRational(a);
  for (int i = 0; i < a.rows(); ++i) m[i].push_back(Rat(b[i]));
  auto pivots = eliminate(m);
  int cols = a.cols();
  // Inconsistent if a pivot landed in the augmented column.
  for (int c : pivots)
    if (c == cols) return false;
  // Back-substitute; free variables get zero.
  x.assign(cols, Rat(0));
  for (int k = static_cast<int>(pivots.size()) - 1; k >= 0; --k) {
    int c = pivots[k];
    Rat rhs = m[k][cols];
    for (int j = c + 1; j < cols; ++j) rhs -= m[k][j] * x[j];
    x[c] = rhs / m[k][c];
  }
  return true;
}

std::vector<IntVec> nullspace(const IntMat& a) {
  auto m = toRational(a);
  auto pivots = eliminate(m);
  int cols = a.cols();
  std::vector<bool> isPivot(cols, false);
  for (int c : pivots) isPivot[c] = true;

  std::vector<IntVec> basis;
  for (int free = 0; free < cols; ++free) {
    if (isPivot[free]) continue;
    // Solve with the free variable set to 1, other free variables 0.
    std::vector<Rat> x(cols, Rat(0));
    x[free] = Rat(1);
    for (int k = static_cast<int>(pivots.size()) - 1; k >= 0; --k) {
      int c = pivots[k];
      Rat rhs(0);
      for (int j = c + 1; j < cols; ++j) rhs -= m[k][j] * x[j];
      x[c] = rhs / m[k][c];
    }
    // Scale to integers.
    i64 scale = 1;
    for (const Rat& r : x) scale = lcm64(scale, r.den());
    IntVec v(cols);
    for (int j = 0; j < cols; ++j) v[j] = mulChecked(x[j].num(), scale / x[j].den());
    normalizeByGcd(v);
    basis.push_back(std::move(v));
  }
  return basis;
}

IntMat hermiteNormalForm(const IntMat& a) {
  // Column-style HNF via integer column operations (Euclidean reduction).
  IntMat h = a;
  int rows = h.rows(), cols = h.cols();
  int pivotCol = 0;
  for (int r = 0; r < rows && pivotCol < cols; ++r) {
    // Reduce columns pivotCol..cols-1 so at most one has a nonzero in row r.
    while (true) {
      int nz = -1, count = 0;
      for (int c = pivotCol; c < cols; ++c)
        if (h.at(r, c) != 0) {
          ++count;
          if (nz < 0 || std::abs(h.at(r, c)) < std::abs(h.at(r, nz))) nz = c;
        }
      if (count <= 1) {
        if (count == 1) {
          // Move the surviving column into pivot position.
          for (int i = 0; i < rows; ++i) std::swap(h.at(i, pivotCol), h.at(i, nz));
        }
        break;
      }
      // Reduce all other columns by the minimal one.
      for (int c = pivotCol; c < cols; ++c) {
        if (c == nz || h.at(r, c) == 0) continue;
        i64 q = floorDiv(h.at(r, c), h.at(r, nz));
        for (int i = 0; i < rows; ++i)
          h.at(i, c) = subChecked(h.at(i, c), mulChecked(q, h.at(i, nz)));
      }
    }
    if (h.at(r, pivotCol) == 0) continue;  // No pivot in this row.
    // Make the pivot positive.
    if (h.at(r, pivotCol) < 0)
      for (int i = 0; i < rows; ++i) h.at(i, pivotCol) = narrow(-static_cast<i128>(h.at(i, pivotCol)));
    // Reduce earlier columns modulo the pivot (entries left of pivot in row r
    // must lie in [0, pivot)).
    for (int c = 0; c < pivotCol; ++c) {
      i64 q = floorDiv(h.at(r, c), h.at(r, pivotCol));
      if (q == 0) continue;
      for (int i = 0; i < rows; ++i)
        h.at(i, c) = subChecked(h.at(i, c), mulChecked(q, h.at(i, pivotCol)));
    }
    ++pivotCol;
  }
  return h;
}

}  // namespace emm
