// Differential oracle harness: one generated program, every pipeline view.
//
// DiffRunner executes the untransformed interpreter oracle
// (executeReference) and compares element-exact array states against every
// view of the compiled program:
//
//   pipeline   — the transformed + tiled CodeUnit, interpreted
//   parametric — a second compile with parametric tile analysis disabled;
//                tile choice and emitted artifact must agree byte for byte
//   serialize  — serialize -> deserialize -> re-serialize must be a fixed
//                point, the deserialized unit must execute identically,
//                and re-emitting it through the backend must reproduce the
//                artifact text
//   wire       — the same block compiled through a live ServiceServer
//                socket; the served unit must execute identically and the
//                artifact must match the local compile. When the bind view
//                bound a scaled size, that size is then asked twice on the
//                same connection: the daemon binds it, shipping the family
//                record and then only a lean overlay, and both served
//                artifacts and units must match the local bind and the
//                oracle at that size
//   bind       — the program's family artifact (size-generic record built
//                by a cached compile at the generated size) requested at
//                scaled sizes (half, 2x, 3x, with array extents recomputed
//                exactly for each); a size the binder accepts must match
//                the oracle at ITS size element-exactly, and sizes the
//                guards or the argmin re-certification reject must fall
//                back to a clean full pipeline — never a wrong answer
//
// Every unit a view executes is also counted (countCodeUnit): the count
// view must return the executed trace field for field, or the run reports
// a "count" divergence.
//
// Element-exact comparison is sound here: a legal transformation preserves
// each element's read/write operand sequence, so results are bit-identical
// — any nonzero difference is a real miscompile, not noise.
//
// Failure taxonomy: a pipeline that rejects a program MUST do so through an
// error diagnostic (clean fallback — counted, not failed). A wrong answer,
// a thrown exception, an ok-result with no diagnostic trail for a missing
// unit, or a serialize mismatch is a divergence. EMM_CHECK aborts are left
// to crash the process: that is the fuzzer finding a real invariant
// violation, and the harness must not mask it.
#pragma once

#include <functional>
#include <string>

#include "driver/compiler.h"
#include "testgen/generator.h"

namespace emm::testgen {

/// What to check and how to compile. The runner owns no policy beyond the
/// defaults: callers (emmfuzz, tests) decide which views are in play.
struct DiffOptions {
  bool checkPipeline = true;
  bool checkParametric = true;
  bool checkSerialize = true;
  bool checkBind = true;
  bool checkWire = false;
  std::string wireSocket;  ///< required when checkWire
  unsigned fillSeed = 5;   ///< ArrayStore fill pattern seed
  /// Base option set for every compile; paramValues are overwritten per
  /// program. Defaults keep the standard pipeline and the "c" backend, but
  /// shrink innerProcs from its GPU-sized default (32): the tile searcher
  /// rejects any tile whose volume is below innerProcs, which would rule
  /// out every generated program with small trip counts and make the sweep
  /// an expensive no-op.
  CompileOptions baseOptions;

  DiffOptions() { baseOptions.innerProcs = 4; }
  /// Hook applied to every constructed Compiler — the seam for planting
  /// bugs (replacePass) or attaching caches in tests.
  std::function<void(Compiler&)> configureCompiler;
};

/// Outcome of one differential run.
struct DiffResult {
  bool ok = true;         ///< no divergence (fallbacks are ok)
  bool compiled = false;  ///< pipeline produced an executable unit
  bool fellBack = false;  ///< clean rejection (error diagnostic, or no unit)
  int boundSizes = 0;     ///< bind view: scaled sizes served by a record bind
  /// "pipeline" | "parametric" | "serialize" | "bind" | "wire" | "count"
  std::string failedCheck;
  std::string detail;       ///< human-readable description of the divergence
};

class DiffRunner {
public:
  explicit DiffRunner(DiffOptions options = {}) : options_(options) {}

  const DiffOptions& options() const { return options_; }

  /// Runs every enabled check on one program.
  DiffResult run(const GeneratedProgram& program) const;

private:
  DiffOptions options_;
};

/// Aggregate counters of a sweep.
struct SweepStats {
  i64 programs = 0;
  i64 compiled = 0;
  i64 fallbacks = 0;
  i64 divergences = 0;
  i64 boundSizes = 0;  ///< total sizes the bind view served via record binds
};

/// One divergence surfaced by a sweep, with its minimized form (equal to
/// `program` when minimization is disabled or failed to shrink).
struct SweepFinding {
  GeneratedProgram program;
  GeneratedProgram minimized;
  DiffResult result;
};

struct SweepOptions {
  GeneratorOptions gen;
  DiffOptions diff;
  u64 programs = 200;
  double timeBudgetSeconds = 0;  ///< 0 = no budget; stops early when exceeded
  bool minimize = true;
  /// Called for every divergence (after minimization when enabled).
  std::function<void(const SweepFinding&)> onFinding;
};

/// Generates `programs` programs and differentially checks each one.
SweepStats runDifferentialSweep(const SweepOptions& options);

}  // namespace emm::testgen
