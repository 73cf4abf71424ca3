#include "driver/options.h"

namespace emm {

SmemOptions CompileOptions::smemOptions() const {
  SmemOptions s;
  s.delta = delta;
  s.partitionMode = partitionMode;
  s.onlyBeneficial = !stageEverything;
  s.optimizeCopySets = optimizeCopySets;
  s.sampleParams = paramValues;
  return s;
}

TileSearchOptions CompileOptions::tileSearchOptions() const {
  TileSearchOptions t;
  // The Cell emitter re-checks the doubled total of a double-buffered tile.
  t.memLimitElems = scratchpadBudgetBytes() / elementBytes;
  t.innerProcs = innerProcs;
  t.syncCost = syncCost;
  t.transferCost = transferCost;
  t.paramValues = paramValues;
  t.candidates = tileCandidates;
  t.hoistCopies = hoistCopies;
  t.parametric = parametricTileAnalysis;
  return t;
}

}  // namespace emm
