// Simulated two-level parallel machine with explicitly managed memory.
//
// Substitutes for the paper's NVIDIA GeForce 8800 GTX testbed. The machine
// has `numSMs` outer-level MIMD units; each holds `simdPerSM` SIMD lanes and
// `smemBytesPerSM` of scratchpad shared by the inner-level processes
// (threads) of the blocks resident on it. Blocks are virtual processors
// mapped onto SMs; the number of concurrently resident blocks is limited by
// their scratchpad footprint (paper Section 5: at most X/M concurrent
// blocks) and by `maxBlocksPerSM`.
//
// The timing model charges exactly the quantities the paper's evaluation
// reasons about:
//   - compute: SIMD-retired scalar operations,
//   - scratchpad traffic: low fixed cost per element,
//   - global traffic: max of a latency-bound term (hidden by resident
//     warps) and a bandwidth-bound term (device bandwidth shared by SMs),
//   - intra-block synchronization: cost per barrier scaled by resident
//     warps (the P*S term of Section 4.3),
//   - inter-block synchronization: global barrier cost with a component
//     linear in the number of blocks (drives the Figure 7 U-shape).
// Functional correctness is established separately by the interpreter; the
// simulator converts counted work into time.
#pragma once

#include <string>
#include <vector>

#include "support/checked_int.h"

namespace emm {

struct MemTrace;
struct TiledKernelMembers;

/// Machine description. Defaults are the calibrated 8800 GTX-like model;
/// the constants are calibrated once, so that the machine reproduces the
/// paper's ~8x ME and ~10x Jacobi scratchpad speedups (see
/// globalIssueCyclesPerWarp), and reused by every figure.
struct Machine {
  int numSMs = 16;
  int simdPerSM = 8;
  int warpSize = 32;
  i64 smemBytesPerSM = 16 * 1024;
  int maxBlocksPerSM = 8;
  double clockGHz = 1.35;  ///< shader clock

  double globalLatencyCycles = 480;   ///< uncontended DRAM access latency
  double globalBytesPerCycle = 64.0;  ///< device-wide DRAM bandwidth
  /// Issue cost of one warp-wide global transaction at the SM's load/store
  /// path. Latency hiding cannot beat this throughput floor; it is what
  /// separates global from scratchpad cost when many warps are resident.
  /// Calibrated for 2007-era coalescing rules (the G80 serialized any warp
  /// access that was not 16-word aligned, which stencil/window accesses
  /// rarely are), reproducing the paper's ~8x ME / ~10x Jacobi scratchpad
  /// speedups.
  double globalIssueCyclesPerWarp = 72.0;
  double smemCyclesPerElem = 1.0;     ///< per element, per SIMD lane group
  double computeCyclesPerOp = 1.0;    ///< per scalar op, per SIMD lane
  double syncBaseCycles = 32.0;       ///< intra-block barrier, per warp
  /// Resident warps needed to keep an SM's pipelines full; fewer warps
  /// leave ALU/memory latency exposed (linear utilization model). This is
  /// what makes low-block-count launches of narrow (64-thread) blocks slow
  /// and produces the falling edge of the paper's Figure 7.
  double warpsToSaturate = 8.0;
  double interBlockSyncBaseCycles = 2000.0;  ///< kernel-relaunch style barrier
  double interBlockSyncPerBlockCycles = 75.0;
  i64 elemBytes = 4;
  /// Fraction of global-transfer time hidden under computation when the
  /// generated code double-buffers its scratchpad tiles (software
  /// pipelining of move-in with the previous tile's compute). 0 = the
  /// paper's synchronous copies; the ext_double_buffering bench explores
  /// the headroom this future-work optimization offers.
  double copyComputeOverlap = 0.0;

  /// Host CPU baseline (single core, the paper's Core2-Duo-class host).
  double cpuClockGHz = 2.13;
  double cpuCyclesPerOp = 1.25;
  double cpuMemCyclesPerElem = 6.0;  ///< effective cached-stream cost

  static Machine geforce8800gtx() { return Machine{}; }

  /// Cell-BE-like profile: 8 SPE-style units, each with a 256 KB local
  /// store and a 4-wide SIMD pipeline, one context per unit, DMA-based
  /// global access. On this machine global memory CANNOT be touched during
  /// compute: kernels must stage everything through the local store
  /// (SmemOptions::onlyBeneficial = false), which is the paper's Cell
  /// discussion in Section 3.
  static Machine cellLike() {
    Machine m;
    m.numSMs = 8;
    m.simdPerSM = 4;
    m.warpSize = 1;
    m.smemBytesPerSM = 256 * 1024;
    m.maxBlocksPerSM = 1;
    m.clockGHz = 3.2;
    m.globalLatencyCycles = 1000;        // DMA round trip
    m.globalBytesPerCycle = 8.0;         // ~25 GB/s EIB share
    m.globalIssueCyclesPerWarp = 4.0;    // per element issued into a DMA list
    m.smemCyclesPerElem = 0.5;           // local store is single-cycle, dual-issue
    m.syncBaseCycles = 100;              // mailbox-style signal
    m.interBlockSyncBaseCycles = 4000;   // barrier across SPEs
    m.interBlockSyncPerBlockCycles = 200;
    m.warpsToSaturate = 1;               // no warp scheduling: one context
    return m;
  }

  i64 totalSmemBytes() const { return mulChecked(smemBytesPerSM, numSMs); }
};

/// Work performed by ONE thread block for one kernel launch (totals across
/// all of the block's threads).
struct BlockWork {
  i64 globalElems = 0;   ///< global-memory element transfers (loads+stores)
  i64 smemElems = 0;     ///< scratchpad element accesses
  i64 computeOps = 0;    ///< scalar arithmetic operations
  i64 intraSyncs = 0;    ///< intra-block barriers executed

  BlockWork& operator+=(const BlockWork& o);
  BlockWork scaled(double f) const;
};

/// One block's share of `total`, the trace of a whole unit run by
/// `numBlocks` blocks: each count divided by the blocks and rounded up, with
/// the unit's arithmetic operations as compute.
BlockWork blockShare(const MemTrace& total, i64 numBlocks);

/// Launch shape.
struct LaunchConfig {
  i64 numBlocks = 1;
  i64 threadsPerBlock = 1;
  i64 smemBytesPerBlock = 0;
  /// Global barriers executed by the launch (0 when blocks are independent).
  i64 interBlockSyncs = 0;
  /// When true, all blocks must be co-resident to synchronize (spin-style
  /// barrier, Section 4.1's residency argument); infeasible configurations
  /// are reported. The default (false) models kernel-relaunch barriers,
  /// which is how 2007-era CUDA realized global synchronization and how the
  /// paper could sweep up to 250 blocks in Figure 7.
  bool syncRequiresResidency = false;
};

/// Simulation outcome.
struct SimResult {
  bool feasible = true;
  std::string infeasibleReason;
  double milliseconds = 0;
  double cyclesPerBlock = 0;
  i64 concurrentBlocks = 0;  ///< resident across the device
  i64 waves = 0;
  double globalTrafficBytes = 0;

  std::string str() const;
};

/// Simulates a launch where every block performs `perBlock` work.
SimResult simulateLaunch(const Machine& m, const LaunchConfig& launch, const BlockWork& perBlock);

/// Simulates one launch of a compiled kernel at a binding: one block of
/// `threadsPerBlock` threads per outer-level tile, each holding
/// footprintPerBlock scratchpad elements and doing its blockShare of the
/// unit's counted trace. `counted`, when given, receives that trace.
SimResult simulateKernel(const Machine& m, const TiledKernelMembers& kernel,
                         const std::vector<i64>& paramValues, i64 threadsPerBlock,
                         MemTrace* counted = nullptr);

/// Simulates the single-core CPU baseline executing `ops` scalar operations
/// and `memElems` memory element accesses.
double simulateCpuMs(const Machine& m, i64 ops, i64 memElems);

}  // namespace emm
