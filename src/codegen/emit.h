// Code generation: renders a compiled CodeUnit as target source text.
//
// The paper maps one tiled, data-staged loop nest onto two machine classes,
// a GPU and a Cell-like local store; between them only the loop mapping,
// the barrier and the transfer primitive differ. Three targets render the
// unit through one AST walk (codegen/emitter.h):
//   "c"    readable C in the style of the paper's Figures 1 and 3 (FORALL
//          markers on parallel loops, local-buffer declarations), the text
//          every example prints and the interpreter-backed tests read;
//   "cuda" a __global__ kernel plus a host launch stub: the artifact the
//          paper's toolchain fed to nvcc (codegen/emit_cuda.cpp);
//   "cell" an SPE kernel whose every reference is staged through the local
//          store by DMA, plus a PPU launch stub (codegen/emit_cell.cpp).
// The output is source text; this repository executes the same CodeUnit
// through the interpreter instead, so the targets are validated
// structurally and by construction share the AST the interpreter certifies.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "codegen/artifact_info.h"
#include "driver/options.h"
#include "ir/ast.h"

namespace emm {

struct BufferLayout;

/// Named values of the parameters a compile binds at emission.
using BoundEnv = std::vector<std::pair<std::string, i64>>;

/// The bound environment: the leading `numBoundParams` parameters of
/// `source` (-1: as many as `values` holds) paired with their values. Tile
/// origins follow the bound parameters and stay loop-bound. Clamped to the
/// values given and to the block's parameter table, because both can arrive
/// from a socket.
BoundEnv boundEnvironment(const ProgramBlock& source, const IntVec& values, int numBoundParams);

/// Throws ApiError ("unknown backend 'x' (registered: c, cuda, cell)")
/// unless `target` names a codegen target.
void requireEmitTarget(const std::string& target);

/// Renders `unit` for the target `options.backendName`. `layout` carries the
/// packed-arena geometry formulas of size-generic CUDA emission (null:
/// shared extents fold to constants); `info` (optional) receives the
/// artifact's bind slots, guards and size-generic verdict. Throws ApiError
/// on an unknown target or an invalid parameter binding.
std::string emitArtifact(const CodeUnit& unit, const CompileOptions& options,
                         const BufferLayout* layout, ArtifactInfo* info);

/// The "c" target at default options: local buffer declarations followed
/// by the code.
std::string emitC(const CodeUnit& unit);

/// Process-wide count of emitArtifact calls. The fig4/fig5 sweeps and
/// bench/svc_family_bind assert on deltas of this counter: a warmed family
/// must serve every further size with ZERO new emissions.
std::uint64_t emitterInvocations();

}  // namespace emm
