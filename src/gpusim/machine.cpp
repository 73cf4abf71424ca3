#include "gpusim/machine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ir/interp.h"
#include "tiling/multilevel.h"

namespace emm {

BlockWork& BlockWork::operator+=(const BlockWork& o) {
  globalElems += o.globalElems;
  smemElems += o.smemElems;
  computeOps += o.computeOps;
  intraSyncs += o.intraSyncs;
  return *this;
}

BlockWork BlockWork::scaled(double f) const {
  BlockWork w;
  w.globalElems = static_cast<i64>(std::llround(static_cast<double>(globalElems) * f));
  w.smemElems = static_cast<i64>(std::llround(static_cast<double>(smemElems) * f));
  w.computeOps = static_cast<i64>(std::llround(static_cast<double>(computeOps) * f));
  w.intraSyncs = static_cast<i64>(std::llround(static_cast<double>(intraSyncs) * f));
  return w;
}

BlockWork blockShare(const MemTrace& total, i64 numBlocks) {
  EMM_CHECK(numBlocks >= 1, "a launch needs at least one block");
  BlockWork w;
  w.globalElems = ceilDiv(addChecked(total.globalReads, total.globalWrites), numBlocks);
  w.smemElems = ceilDiv(addChecked(total.localReads, total.localWrites), numBlocks);
  w.computeOps = ceilDiv(total.arithOps, numBlocks);
  w.intraSyncs = ceilDiv(total.syncs, numBlocks);
  return w;
}

std::string SimResult::str() const {
  std::ostringstream os;
  if (!feasible) {
    os << "infeasible: " << infeasibleReason;
    return os.str();
  }
  os << milliseconds << " ms (blocks/wave=" << concurrentBlocks << ", waves=" << waves << ")";
  return os.str();
}

SimResult simulateLaunch(const Machine& m, const LaunchConfig& launch, const BlockWork& perBlock) {
  SimResult r;
  EMM_CHECK(launch.numBlocks >= 1 && launch.threadsPerBlock >= 1, "degenerate launch");

  // --- Occupancy: how many blocks are resident per SM. ---
  i64 bySmem = launch.smemBytesPerBlock == 0
                   ? m.maxBlocksPerSM
                   : m.smemBytesPerSM / std::max<i64>(launch.smemBytesPerBlock, 1);
  if (bySmem < 1) {
    r.feasible = false;
    r.infeasibleReason = "scratchpad footprint exceeds per-SM capacity";
    return r;
  }
  i64 blocksPerSM = std::min<i64>(m.maxBlocksPerSM, bySmem);
  i64 concurrent = std::min<i64>(launch.numBlocks, mulChecked(blocksPerSM, m.numSMs));

  if (launch.interBlockSyncs > 0 && launch.syncRequiresResidency &&
      concurrent < launch.numBlocks) {
    // All blocks must be simultaneously active to cross a global barrier
    // (paper Section 4.1).
    r.feasible = false;
    r.infeasibleReason = "global synchronization requires all blocks resident; occupancy " +
                         std::to_string(concurrent) + " < " + std::to_string(launch.numBlocks);
    return r;
  }
  r.concurrentBlocks = concurrent;

  // --- Throughput/stall decomposition. ---
  // Blocks assigned to one SM serialize on its pipelines (SIMD lanes,
  // scratchpad ports, the load/store issue path). Co-residency does not add
  // throughput; what it buys is latency hiding: exposed memory latency and
  // barrier stalls overlap with other resident blocks' work.
  double warpsPerBlock =
      std::ceil(static_cast<double>(launch.threadsPerBlock) / m.warpSize);
  i64 activeSMs = std::min<i64>(m.numSMs, launch.numBlocks);
  i64 blocksAssigned = ceilDiv(launch.numBlocks, activeSMs);
  double bpsEff = static_cast<double>(std::min<i64>(blocksPerSM, blocksAssigned));

  // Throughput terms (cycles one block occupies its SM's pipelines).
  // Utilization < 1 when too few warps are resident to cover pipeline
  // latency (warpsToSaturate); co-resident blocks contribute their warps.
  double utilization =
      std::min(1.0, warpsPerBlock * std::max(1.0, static_cast<double>(std::min<i64>(
                                                      blocksPerSM, blocksAssigned))) /
                        m.warpsToSaturate);
  double computeCycles = static_cast<double>(perBlock.computeOps) * m.computeCyclesPerOp /
                         static_cast<double>(m.simdPerSM) / utilization;
  double smemCycles = static_cast<double>(perBlock.smemElems) * m.smemCyclesPerElem /
                      static_cast<double>(m.simdPerSM) / utilization;
  double issueCycles = static_cast<double>(perBlock.globalElems) / m.warpSize *
                       m.globalIssueCyclesPerWarp;

  // Stall terms, hidden by co-resident blocks (and the block's own warps).
  double latencyStall = static_cast<double>(perBlock.globalElems) / m.warpSize *
                        m.globalLatencyCycles / std::max(1.0, warpsPerBlock * bpsEff);
  double exposedLatency = std::max(0.0, latencyStall - issueCycles);
  double syncStall = static_cast<double>(perBlock.intraSyncs) * m.syncBaseCycles *
                     warpsPerBlock / std::max(1.0, bpsEff);

  // Double buffering hides part of the global-transfer time under compute.
  double globalPart = issueCycles + exposedLatency;
  double computePart = computeCycles + smemCycles;
  double hidden = m.copyComputeOverlap * std::min(globalPart, computePart);
  r.cyclesPerBlock = computePart + globalPart - hidden + syncStall;

  // --- Launch time: per-SM serialization vs device bandwidth floor. ---
  double perSmCycles = r.cyclesPerBlock * static_cast<double>(blocksAssigned);
  double bandwidthCycles = static_cast<double>(perBlock.globalElems) *
                           static_cast<double>(launch.numBlocks) *
                           static_cast<double>(m.elemBytes) / m.globalBytesPerCycle;
  double totalCycles = std::max(perSmCycles, bandwidthCycles);
  totalCycles += static_cast<double>(launch.interBlockSyncs) *
                 (m.interBlockSyncBaseCycles +
                  m.interBlockSyncPerBlockCycles * static_cast<double>(launch.numBlocks));
  r.waves = blocksAssigned;

  r.globalTrafficBytes = static_cast<double>(perBlock.globalElems) *
                         static_cast<double>(launch.numBlocks) *
                         static_cast<double>(m.elemBytes);
  r.milliseconds = totalCycles / (m.clockGHz * 1e6);
  return r;
}

SimResult simulateKernel(const Machine& m, const TiledKernelMembers& kernel,
                         const IntVec& paramValues, i64 threadsPerBlock, MemTrace* counted) {
  LaunchConfig launch;
  launch.numBlocks = kernel.numBlockTiles(paramValues);
  launch.threadsPerBlock = threadsPerBlock;
  launch.smemBytesPerBlock = mulChecked(m.elemBytes, kernel.footprintPerBlock(paramValues));
  const MemTrace total = countCodeUnit(kernel.unit, kernel.unitParams(paramValues));
  if (counted != nullptr) *counted = total;
  return simulateLaunch(m, launch, blockShare(total, launch.numBlocks));
}

double simulateCpuMs(const Machine& m, i64 ops, i64 memElems) {
  double cycles = static_cast<double>(ops) * m.cpuCyclesPerOp +
                  static_cast<double>(memElems) * m.cpuMemCyclesPerElem;
  return cycles / (m.cpuClockGHz * 1e6);
}

}  // namespace emm
