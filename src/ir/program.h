// Program IR: affine program blocks in the polyhedral model.
//
// A ProgramBlock is the unit the paper's framework operates on: a set of
// statements, each with an iteration-space polytope, affine array access
// functions, an executable body (expression tree over its accesses), and a
// multidimensional affine schedule giving the original execution order.
// Arrays are declared with symbolic dimensionality plus concrete extents so
// the interpreter can execute blocks for semantic testing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "poly/polyhedron.h"
#include "support/fields.h"

namespace emm {

/// A global (off-chip) array. Extents are concrete so blocks are executable;
/// the compiler itself only uses `ndim`.
struct ArrayDecl {
  std::string name;
  std::vector<i64> extents;  ///< one per dimension

  int ndim() const { return static_cast<int>(extents.size()); }
  i64 elementCount() const {
    i64 n = 1;
    for (i64 e : extents) n = mulChecked(n, e);
    return n;
  }

  static constexpr void fields(auto& v) {
    v.tag(kTagArrayDecl, "ArrayDecl");
    v("name", &ArrayDecl::name);
    v("extents", &ArrayDecl::extents);
  }
};

/// One affine reference to an array inside a statement.
struct Access {
  int arrayId = -1;  ///< index into ProgramBlock::arrays
  IntMat fn;         ///< rows = array ndim, cols = stmt dim + nparam + 1
  bool isWrite = false;

  static constexpr void fields(auto& v) {
    v.tag(kTagAccess, "Access");
    v("arrayId", &Access::arrayId);
    v("fn", &Access::fn);
    v("isWrite", &Access::isWrite);
  }
};

/// Expression tree for statement bodies. Leaves load from the statement's
/// accesses (by index) or are constants; interior nodes are arithmetic.
class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
public:
  enum class Kind { Const, Load, Add, Sub, Mul, Div, Abs, Min, Max };

  static ExprPtr constant(double v);
  /// Loads the value read through access `accessIdx` of the statement.
  static ExprPtr load(int accessIdx);
  static ExprPtr add(ExprPtr a, ExprPtr b);
  static ExprPtr sub(ExprPtr a, ExprPtr b);
  static ExprPtr mul(ExprPtr a, ExprPtr b);
  static ExprPtr div(ExprPtr a, ExprPtr b);
  static ExprPtr abs(ExprPtr a);
  static ExprPtr min(ExprPtr a, ExprPtr b);
  static ExprPtr max(ExprPtr a, ExprPtr b);

  Kind kind() const { return kind_; }
  double constValue() const { return cval_; }
  int accessIndex() const { return accessIdx_; }
  const ExprPtr& lhs() const { return a_; }
  const ExprPtr& rhs() const { return b_; }

  /// Renders the expression with access `i` shown as `accessText[i]`.
  std::string str(const std::vector<std::string>& accessText) const;

private:
  friend struct ExprAccess;  // internal factory

  Kind kind_ = Kind::Const;
  double cval_ = 0;
  int accessIdx_ = -1;
  ExprPtr a_, b_;
};

/// A statement: domain, accesses, body, and original schedule.
///
/// The schedule maps (iteration vector, params, 1) to a time vector; global
/// execution order of statement instances is the lexicographic order of time
/// vectors (ties broken by statement id, though schedules should already be
/// disambiguating via constant rows, as in the classic 2d+1 form).
struct Statement {
  std::string name;
  Polyhedron domain;      ///< dim = loop depth, nparam shared across the block
  std::vector<Access> accesses;
  int writeAccess = -1;   ///< index into `accesses`; -1 for pure side-effect-free
  ExprPtr rhs;            ///< value stored through `writeAccess`
  IntMat schedule;        ///< rows = time dims, cols = dim + nparam + 1

  int dim() const { return domain.dim(); }

  static constexpr void fields(auto& v) {
    v.tag(kTagStatement, "Statement");
    v("name", &Statement::name);
    v("domain", &Statement::domain);
    v("accesses", &Statement::accesses);
    v("writeAccess", &Statement::writeAccess);
    v.nullable("rhs", &Statement::rhs);
    v("schedule", &Statement::schedule);
  }
};

/// A block of affine code: what Section 3's framework takes as input.
struct ProgramBlock {
  std::string name;
  std::vector<std::string> paramNames;  ///< global parameters (problem sizes)
  std::vector<ArrayDecl> arrays;
  std::vector<Statement> statements;

  int nparam() const { return static_cast<int>(paramNames.size()); }

  int arrayIdByName(const std::string& n) const;

  /// Builds the canonical "2d+1"-style schedule for a statement occupying
  /// static position `pos` at each depth: (pos0, i0, pos1, i1, ..., posd).
  /// `positions` has dim+1 entries.
  static IntMat interleavedSchedule(int dim, int nparam, const std::vector<i64>& positions);

  /// Validates internal consistency (access arity, schedule shape, ...).
  /// Throws ApiError on malformed blocks.
  void validate() const;

  static constexpr void fields(auto& v) {
    v.tag(kTagProgramBlock, "ProgramBlock");
    v("name", &ProgramBlock::name);
    v("paramNames", &ProgramBlock::paramNames);
    v("arrays", &ProgramBlock::arrays);
    v("statements", &ProgramBlock::statements);
  }
};

/// Flat storage for all arrays of a block, used by the interpreter and by
/// kernel reference implementations.
class ArrayStore {
public:
  explicit ArrayStore(const std::vector<ArrayDecl>& decls);

  int numArrays() const { return static_cast<int>(decls_.size()); }
  const ArrayDecl& decl(int id) const { return decls_[id]; }

  double get(int arrayId, const IntVec& index) const;
  void set(int arrayId, const IntVec& index, double v);

  /// Fills array `arrayId` with a deterministic pseudo-random pattern.
  void fillPattern(int arrayId, unsigned seed);
  /// Fills every array.
  void fillAllPattern(unsigned seed);

  std::vector<double>& raw(int arrayId) { return data_[arrayId]; }
  const std::vector<double>& raw(int arrayId) const { return data_[arrayId]; }

  /// Max absolute difference across all arrays (shapes must match).
  static double maxAbsDiff(const ArrayStore& a, const ArrayStore& b);

private:
  size_t flatten(int arrayId, const IntVec& index) const;

  std::vector<ArrayDecl> decls_;
  std::vector<std::vector<double>> data_;
};

/// Executes the block with its original schedule at the given parameter
/// binding. This is the semantic oracle for all code-generation tests.
void executeReference(const ProgramBlock& block, const IntVec& paramValues, ArrayStore& store);

/// Human-readable rendering of a block: arrays with extents, every
/// statement's domain, accesses (as `A[i0+1][i1]` subscripts), body
/// expression and schedule matrix. Used by divergence reports from the
/// differential tester and handy for debugging hand-built blocks.
std::string printProgramBlock(const ProgramBlock& block);

}  // namespace emm
