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
// code the compiler emitted at the paper's problem sizes. This keeps "what
// the code does" and "what it costs" in one place.
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

/// Peak scratchpad residency in elements: the sum of all local buffer sizes
/// at the given parameter binding (the framework allocates all buffers for
/// the duration of the block, matching the paper's footprint model).
i64 scratchpadFootprint(const CodeUnit& unit, const IntVec& paramValues);

}  // namespace emm
