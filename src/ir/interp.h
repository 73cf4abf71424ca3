// AST interpreter: executes generated code against real arrays.
//
// The interpreter is the semantic backbone of the test suite: the original
// block (via executeReference) and any generated CodeUnit (tiled, with
// scratchpad buffers and move-in/move-out code) must leave the global arrays
// in identical states. Parallel loop markers are executed sequentially; the
// framework guarantees that is equivalent.
//
// The interpreter also produces a MemTrace: counts of global-memory and
// local-buffer accesses, arithmetic and synchronizations, which the machine
// simulator converts to time. countCodeUnit derives the same trace from the
// unit's bounds and guards alone, without arrays, so the figures price the
// code the compiler emitted at the paper's problem sizes. countBankConflicts
// is a lane count of that walk: it runs the threads of a half-warp in
// lockstep and charges the scratchpad bank cycles their accesses serialize
// into. This keeps "what the code does" and "what it costs" in one place.
#pragma once

#include <string>

#include "ir/ast.h"

namespace emm {

/// Access counters gathered while executing a CodeUnit.
struct MemTrace {
  i64 globalReads = 0;    ///< element loads from off-chip arrays
  i64 globalWrites = 0;   ///< element stores to off-chip arrays
  i64 localReads = 0;     ///< element loads from scratchpad buffers
  i64 localWrites = 0;    ///< element stores to scratchpad buffers
  i64 syncs = 0;          ///< Sync nodes executed
  i64 stmtInstances = 0;  ///< statement instances executed
  i64 copyElements = 0;   ///< elements moved by Copy nodes
  i64 arithOps = 0;       ///< arithmetic expression nodes evaluated

  MemTrace& operator+=(const MemTrace& o);
  bool operator==(const MemTrace&) const = default;
  std::string str() const;
};

/// Executes `unit` with the given parameter binding against `globals`.
/// Local buffers are allocated per execution from their size expressions.
/// Returns the access trace.
MemTrace executeCodeUnit(const CodeUnit& unit, const IntVec& paramValues, ArrayStore& globals);

/// The trace executeCodeUnit would return, counted from the unit's loop
/// bounds and guards without arrays or data. Bound parts that the enclosing
/// loops' bounds already imply are dropped, and a loop whose body counts do
/// not depend on its iterator is counted once and multiplied by its trip
/// count, so a paper-scale unit counts in milliseconds.
MemTrace countCodeUnit(const CodeUnit& unit, const IntVec& paramValues);

/// What countBankConflicts counted.
struct BankConflictStats {
  i64 warpAccesses = 0;        ///< half-warp-wide local access instructions issued
  i64 bankCycles = 0;          ///< cycles after serialization; >= warpAccesses
  i64 conflictedAccesses = 0;  ///< warp accesses that took more than one cycle

  /// Cycles lost to serialization: 0 for a conflict-free layout.
  i64 excessCycles() const { return bankCycles - warpAccesses; }
  /// Fraction of scratchpad access cycles that are serialization overhead.
  double serializedFraction() const {
    return bankCycles > 0 ? static_cast<double>(excessCycles()) / static_cast<double>(bankCycles)
                          : 0.0;
  }
};

/// The scratchpad bank cycles of `unit` at a parameter binding, counted as
/// countCodeUnit counts, in lockstep over a half-warp of lanes. The
/// outermost ThreadParallel loop is the lane dimension, as in emit_cuda: a
/// warp is 16 consecutive iterations of it (the G80 half-warp that accesses
/// the scratchpad together), and every local access inside it costs the
/// most distinct addresses any one bank serves (lanes on one address
/// broadcast). Buffers sit back to back at bank-row-aligned offsets, as the
/// packing planner places them, addressed through their padded extents
/// (LocalBuffer::pad), so counting before and after applyBufferLayout
/// measures what the padding bought. An active lane's index outside its
/// buffer's logical extents throws, as under executeCodeUnit. Accesses
/// outside thread-parallel loops are scalar and cost nothing here.
BankConflictStats countBankConflicts(const CodeUnit& unit, const IntVec& paramValues,
                                     const BankDescriptor& bank, i64 elementBytes);

/// Peak scratchpad residency in elements: the sum of all local buffer sizes
/// at the given parameter binding (the framework allocates all buffers for
/// the duration of the block, matching the paper's footprint model).
i64 scratchpadFootprint(const CodeUnit& unit, const IntVec& paramValues);

}  // namespace emm
