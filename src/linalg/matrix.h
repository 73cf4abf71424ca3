// Exact integer matrices and vectors.
//
// The polyhedral front end represents iteration-space constraints, affine
// access functions and transformation hyperplanes as integer matrices. All
// operations are exact (checked int64 with __int128 intermediates); rank is
// computed by fraction-free Gaussian elimination, so Algorithm 1's reuse test
// (rank(F) < dim(iteration space)) is never subject to floating-point error.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "support/checked_int.h"
#include "support/rational.h"

namespace emm {

using IntVec = std::vector<i64>;

/// Dense integer matrix with exact arithmetic.
class IntMat {
public:
  IntMat() = default;
  IntMat(int rows, int cols) : rows_(rows), cols_(cols), data_(size_t(rows) * cols, 0) {
    EMM_CHECK(rows >= 0 && cols >= 0, "negative matrix shape");
  }
  /// Row-major construction: {{1,0,3},{0,1,-2}}.
  IntMat(std::initializer_list<std::initializer_list<i64>> rows);

  static IntMat identity(int n);
  static IntMat zero(int rows, int cols) { return IntMat(rows, cols); }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  i64& at(int r, int c) {
    EMM_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
    return data_[size_t(r) * cols_ + c];
  }
  i64 at(int r, int c) const {
    EMM_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "matrix index out of range");
    return data_[size_t(r) * cols_ + c];
  }

  IntVec row(int r) const;
  /// Row r in place, without a copy. Valid until the row count changes.
  std::span<const i64> rowSpan(int r) const {
    EMM_CHECK(r >= 0 && r < rows_, "row index out of range");
    return {data_.data() + size_t(r) * cols_, size_t(cols_)};
  }
  std::span<i64> rowSpan(int r) {
    EMM_CHECK(r >= 0 && r < rows_, "row index out of range");
    return {data_.data() + size_t(r) * cols_, size_t(cols_)};
  }
  void setRow(int r, const IntVec& v);
  /// Appends a row, growing the matrix by one.
  void appendRow(std::span<const i64> v);
  void appendRow(const IntVec& v) { appendRow(std::span<const i64>(v)); }
  /// Truncates to, or grows with zero rows to, `rows` rows.
  void resizeRows(int rows);
  /// Removes row r.
  void removeRow(int r);

  friend IntMat operator*(const IntMat& a, const IntMat& b);
  friend IntMat operator+(const IntMat& a, const IntMat& b);
  friend IntMat operator-(const IntMat& a, const IntMat& b);
  friend bool operator==(const IntMat& a, const IntMat& b) = default;

  /// Matrix-vector product (v has cols() entries).
  IntVec apply(const IntVec& v) const;

  IntMat transposed() const;

  /// Rank over the rationals, computed exactly.
  int rank() const;

  std::string str() const;

private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<i64> data_;
};

/// Divides a vector by the gcd of its entries (no-op for the zero vector).
void normalizeByGcd(IntVec& v);

/// Dot product with overflow checking.
i64 dot(const IntVec& a, const IntVec& b);

/// Solves A x = b over the rationals. Returns true and fills x if a solution
/// exists (any solution, if underdetermined); false if inconsistent.
bool solveRational(const IntMat& a, const IntVec& b, std::vector<Rat>& x);

/// Basis of the rational nullspace of A, returned as integer vectors
/// (each scaled to integer entries with gcd 1). Empty if A has full column
/// rank.
std::vector<IntVec> nullspace(const IntMat& a);

/// Hermite Normal Form (column-style, nonnegative pivots) of A.
/// Returns H such that H = A * U for some unimodular U.
IntMat hermiteNormalForm(const IntMat& a);

}  // namespace emm
