#include "testgen/diff_runner.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "codegen/emit.h"
#include "driver/plan_cache.h"
#include "ir/interp.h"
#include "poly/enumerate.h"
#include "service/client.h"
#include "support/serialize.h"
#include "testgen/minimize.h"

namespace emm::testgen {

namespace {

/// Parameter binding for interpreting a compiled unit: the tiled kernel's
/// block appends tile-origin parameters after the source parameters; they
/// are bound by the tile loops at run time, so their slots are zero-filled
/// (the idiom every oracle-comparison test in tests/ uses).
IntVec unitParams(const CompileResult& r, const IntVec& paramValues) {
  IntVec ext = paramValues;
  if (r.kernel.has_value() && r.kernel->analysis.tileBlock != nullptr)
    ext.resize(r.kernel->analysis.tileBlock->paramNames.size(), 0);
  return ext;
}

DiffResult divergence(DiffResult base, const std::string& check, const std::string& detail) {
  base.ok = false;
  base.failedCheck = check;
  base.detail = detail;
  return base;
}

/// What differs between two compiles of one request on one cache, or ""
/// when nothing the bind view checks does: the artifact, the bound
/// arguments and flag, the search (its wall clocks aside) and the
/// diagnostics.
std::string repeatMismatch(const CompileResult& a, const CompileResult& b) {
  if (a.ok != b.ok) return "ok flag";
  if (a.artifact != b.artifact) return "artifact";
  if (a.artifactBound != b.artifactBound) return "artifactBound";
  if (a.boundArgs != b.boundArgs) return "bound arguments";
  const TileSearchResult& sa = a.search;
  const TileSearchResult& sb = b.search;
  if (sa.subTile != sb.subTile || !(sa.eval == sb.eval) || sa.evaluations != sb.evaluations ||
      sa.memoHits != sb.memoHits || sa.parametric != sb.parametric ||
      sa.familyAdopted != sb.familyAdopted || sa.prunedBoxes != sb.prunedBoxes ||
      sa.parametricReason != sb.parametricReason)
    return "tile search";
  if (a.diagnostics.size() != b.diagnostics.size()) return "diagnostic count";
  for (size_t i = 0; i < a.diagnostics.size(); ++i)
    if (a.diagnostics[i].str() != b.diagnostics[i].str())
      return "diagnostic '" + a.diagnostics[i].str() + "'";
  return "";
}

std::string joinTile(const std::vector<i64>& t) {
  std::ostringstream os;
  for (size_t i = 0; i < t.size(); ++i) os << (i ? "," : "") << t[i];
  return os.str();
}

/// The block re-extented for a different parameter binding: every array
/// dimension gets the exact max index + 1 over the scaled domains (the same
/// enumeration the oracle walks), so the probe stays inside ArrayStore
/// bounds by construction — for upscales AND downscales. The binder swaps
/// these extents into the bound result, so stride consumers see them too.
ProgramBlock scaleExtents(const ProgramBlock& block, const IntVec& scaled) {
  ProgramBlock out = block;
  for (ArrayDecl& a : out.arrays) std::fill(a.extents.begin(), a.extents.end(), i64(1));
  for (const Statement& st : out.statements) {
    forEachPoint(st.domain, scaled, [&](const IntVec& iter) {
      IntVec hom = iter;
      hom.insert(hom.end(), scaled.begin(), scaled.end());
      hom.push_back(1);
      for (const Access& acc : st.accesses) {
        const IntVec idx = acc.fn.apply(hom);
        ArrayDecl& a = out.arrays[acc.arrayId];
        for (size_t d = 0; d < idx.size(); ++d)
          a.extents[d] = std::max(a.extents[d], idx[d] + 1);
      }
    });
  }
  return out;
}

}  // namespace

DiffResult DiffRunner::run(const GeneratedProgram& program) const {
  const DiffOptions& o = options_;
  DiffResult out;

  // Oracle: the original schedule, interpreted.
  ArrayStore want(program.block.arrays);
  want.fillAllPattern(o.fillSeed);
  executeReference(program.block, program.paramValues, want);

  auto makeCompiler = [&]() {
    Compiler c(program.block);
    c.options(o.baseOptions);
    c.parameters(program.paramValues);
    if (o.configureCompiler) o.configureCompiler(c);
    return c;
  };

  Compiler compiler = makeCompiler();
  CompileResult r;
  try {
    r = compiler.compile();
  } catch (const std::exception& e) {
    return divergence(out, "pipeline", std::string("compile() threw: ") + e.what());
  }

  if (!r.ok) {
    // A rejected program must explain itself; a silent failure is a bug.
    if (r.firstError().empty())
      return divergence(out, "pipeline", "pipeline failed with no error diagnostic");
    out.fellBack = true;
    return out;
  }
  const CodeUnit* unit = r.unit();
  if (unit == nullptr) {
    // Clean fallback (e.g. inter-block sync needed): ok, but nothing to run.
    out.fellBack = true;
    return out;
  }
  out.compiled = true;

  if (o.checkPipeline) {
    ArrayStore got(program.block.arrays);
    got.fillAllPattern(o.fillSeed);
    try {
      executeCodeUnit(*unit, unitParams(r, program.paramValues), got);
    } catch (const std::exception& e) {
      return divergence(out, "pipeline", std::string("unit execution threw: ") + e.what());
    }
    const double diff = ArrayStore::maxAbsDiff(got, want);
    if (diff != 0.0)
      return divergence(out, "pipeline",
                        "transformed unit diverges from oracle, maxAbsDiff=" + std::to_string(diff));
  }

  if (o.checkParametric) {
    Compiler c2 = makeCompiler();
    c2.opts().parametricTileAnalysis = !o.baseOptions.parametricTileAnalysis;
    CompileResult r2;
    try {
      r2 = c2.compile();
    } catch (const std::exception& e) {
      return divergence(out, "parametric", std::string("toggled compile threw: ") + e.what());
    }
    if (r2.ok != r.ok)
      return divergence(out, "parametric", "parametric toggle flips the compile verdict");
    if (r2.search.subTile != r.search.subTile)
      return divergence(out, "parametric",
                        "tile choice differs: concrete [" + joinTile(r2.search.subTile) +
                            "] vs parametric [" + joinTile(r.search.subTile) + "]");
    if (r2.artifact != r.artifact)
      return divergence(out, "parametric", "emitted artifact differs across the toggle");
  }

  if (o.checkSerialize) {
    const std::string bytes = serializeCompileResult(r);
    CompileResult r3;
    try {
      r3 = deserializeCompileResult(bytes);
    } catch (const std::exception& e) {
      return divergence(out, "serialize", std::string("round trip rejected own bytes: ") + e.what());
    }
    if (serializeCompileResult(r3) != bytes)
      return divergence(out, "serialize", "re-serialization is not a byte fixed point");
    const CodeUnit* unit3 = r3.unit();
    if (unit3 == nullptr)
      return divergence(out, "serialize", "deserialized result lost its code unit");
    ArrayStore got(program.block.arrays);
    got.fillAllPattern(o.fillSeed);
    try {
      executeCodeUnit(*unit3, unitParams(r3, program.paramValues), got);
    } catch (const std::exception& e) {
      return divergence(out, "serialize", std::string("deserialized unit threw: ") + e.what());
    }
    if (ArrayStore::maxAbsDiff(got, want) != 0.0)
      return divergence(out, "serialize", "deserialized unit diverges from oracle");
    // Re-emit: the deserialized unit, with the deserialized buffer layout,
    // must render to the text the compile shipped.
    const BufferLayout* layout3 = r3.bufferLayout ? &*r3.bufferLayout : nullptr;
    std::string reemitted;
    try {
      reemitted = emitArtifact(*unit3, compiler.opts(), layout3, nullptr);
    } catch (const std::exception& e) {
      return divergence(out, "serialize", std::string("re-emit threw: ") + e.what());
    }
    if (reemitted != r.artifact)
      return divergence(out, "serialize", "re-emitted source differs from the shipped artifact");
  }

  // The first scaled size the bind view saw bound, for the wire view's lean
  // path.
  struct BoundProbe {
    ProgramBlock block;
    IntVec sizes;
    std::string artifact;
  };
  std::optional<BoundProbe> boundProbe;

  if (o.checkBind && !program.block.paramNames.empty()) {
    // Family binding: a cached compile at the generated size builds the
    // size-generic family record; scaled sizes (half, 2x, 3x) then request
    // the same family. A size the binder accepts must match the oracle at
    // ITS size element-exactly with the bound (never re-emitted) artifact;
    // a size the guards or the argmin re-certification reject must come
    // back as a clean full pipeline whose unit still matches the oracle —
    // a rejection is never allowed to become a wrong answer. Each size is
    // asked twice on the one cache: the repeat is served by the family's
    // search memo (or the result tier) and must equal the first answer.
    PlanCache cache;
    Compiler seed = makeCompiler();
    seed.cache(&cache);
    CompileResult rs;
    try {
      rs = seed.compile();
    } catch (const std::exception& e) {
      return divergence(out, "bind", std::string("cached seed compile threw: ") + e.what());
    }
    if (rs.ok && rs.unit() != nullptr) {
      for (int probe = 0; probe < 3; ++probe) {
        IntVec scaled = program.paramValues;
        for (i64& p : scaled) p = probe == 0 ? std::max<i64>(1, p / 2) : p * (probe + 1);
        if (scaled == program.paramValues) continue;
        const ProgramBlock probeBlock = scaleExtents(program.block, scaled);
        Compiler cb(probeBlock);
        cb.options(o.baseOptions);
        cb.parameters(scaled);
        if (o.configureCompiler) o.configureCompiler(cb);
        cb.cache(&cache);
        CompileResult rb, repeat;
        try {
          rb = cb.compile();
          repeat = cb.compile();
        } catch (const std::exception& e) {
          return divergence(out, "bind", std::string("scaled compile threw: ") + e.what());
        }
        const std::string mismatch = repeatMismatch(rb, repeat);
        if (!mismatch.empty())
          return divergence(out, "bind",
                            "repeated scaled compile differs from the first: " + mismatch);
        if (!rb.ok) {
          if (rb.firstError().empty())
            return divergence(out, "bind", "scaled compile failed with no error diagnostic");
          continue;  // clean rejection at this size
        }
        const CodeUnit* unitB = rb.unit();
        if (unitB == nullptr) continue;  // clean fallback at this size
        if (rb.artifactBound && !rb.familyHit)
          return divergence(out, "bind", "artifact bound without a family hit");
        if (rb.artifactBound) {
          ++out.boundSizes;
          if (!boundProbe) boundProbe = BoundProbe{probeBlock, scaled, rb.artifact};
        }
        ArrayStore wantS(probeBlock.arrays);
        wantS.fillAllPattern(o.fillSeed);
        executeReference(probeBlock, scaled, wantS);
        for (const CompileResult* res : {&rb, &repeat}) {
          const std::string what = std::string(res == &repeat ? "repeated " : "") +
                                   (res->artifactBound ? "bound" : "re-emitted");
          const CodeUnit* unit = res->unit();
          if (unit == nullptr)
            return divergence(out, "bind", what + " result lost its code unit");
          ArrayStore gotS(probeBlock.arrays);
          gotS.fillAllPattern(o.fillSeed);
          try {
            executeCodeUnit(*unit, unitParams(*res, scaled), gotS);
          } catch (const std::exception& e) {
            return divergence(out, "bind", what + " unit threw at scaled size: " + e.what());
          }
          const double diffS = ArrayStore::maxAbsDiff(gotS, wantS);
          if (diffS != 0.0)
            return divergence(out, "bind",
                              what + " unit diverges from oracle at scaled size, maxAbsDiff=" +
                                  std::to_string(diffS));
        }
      }
    }
  }

  if (o.checkWire && !o.wireSocket.empty()) {
    std::optional<svc::ServiceClient> client;
    // One request at `sizes` on the connection; a divergence names `what`.
    auto serve = [&](const ProgramBlock& block, const IntVec& sizes, const std::string& what,
                     const std::string& wantArtifact, const ArrayStore& wantStore,
                     bool mustBind) -> std::optional<DiffResult> {
      svc::CompileRequest req;
      req.block = block;
      req.options = o.baseOptions;
      req.options.paramValues = sizes;
      svc::WireCompileReply reply;
      try {
        if (!client) client.emplace(o.wireSocket);
        reply = client->compile(std::move(req));
      } catch (const std::exception& e) {
        return divergence(out, "wire", "service compile " + what + " failed: " + e.what());
      }
      if (!reply.result.ok)
        return divergence(out, "wire", "server rejected a locally compilable program " + what +
                                           ": " + reply.result.firstError());
      if (mustBind && !reply.result.artifactBound)
        return divergence(out, "wire", "server did not bind " + what);
      if (reply.result.artifact != wantArtifact)
        return divergence(out, "wire", "served artifact " + what + " differs from the local one");
      const CodeUnit* unitW = reply.result.unit();
      if (unitW == nullptr)
        return divergence(out, "wire", "served result " + what + " lost its code unit");
      ArrayStore got(block.arrays);
      got.fillAllPattern(o.fillSeed);
      try {
        executeCodeUnit(*unitW, unitParams(reply.result, sizes), got);
      } catch (const std::exception& e) {
        return divergence(out, "wire", "served unit " + what + " threw: " + e.what());
      }
      if (ArrayStore::maxAbsDiff(got, wantStore) != 0.0)
        return divergence(out, "wire", "served unit " + what + " diverges from oracle");
      return std::nullopt;
    };
    if (std::optional<DiffResult> bad =
            serve(program.block, program.paramValues, "at the generated size", r.artifact, want,
                  false))
      return *bad;
    // The lean path: the size the bind view bound, asked twice on the same
    // connection. The daemon binds it on its fast path; the first reply
    // ships the family record into a client slot, the second only the slot
    // and the overlay, which the client materializes against its copy.
    if (boundProbe) {
      ArrayStore wantS(boundProbe->block.arrays);
      wantS.fillAllPattern(o.fillSeed);
      executeReference(boundProbe->block, boundProbe->sizes, wantS);
      for (int ask = 0; ask < 2; ++ask)
        if (std::optional<DiffResult> bad =
                serve(boundProbe->block, boundProbe->sizes,
                      ask == 0 ? "at the bound size" : "at the bound size, asked again",
                      boundProbe->artifact, wantS, ask == 1))
          return *bad;
    }
  }

  return out;
}

SweepStats runDifferentialSweep(const SweepOptions& options) {
  ProgramGenerator generator(options.gen);
  DiffRunner runner(options.diff);
  SweepStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < options.programs; ++i) {
    if (options.timeBudgetSeconds > 0) {
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      if (elapsed.count() > options.timeBudgetSeconds) break;
    }
    GeneratedProgram program = generator.generate(i);
    DiffResult result = runner.run(program);
    ++stats.programs;
    if (result.compiled) ++stats.compiled;
    if (result.fellBack) ++stats.fallbacks;
    stats.boundSizes += result.boundSizes;
    if (result.ok) continue;
    ++stats.divergences;
    SweepFinding finding{program, program, result};
    if (options.minimize) {
      MinimizeResult shrunk = minimizeProgram(
          program, [&](const GeneratedProgram& candidate) { return !runner.run(candidate).ok; });
      finding.minimized = std::move(shrunk.program);
      finding.result = runner.run(finding.minimized);
      if (finding.result.ok) finding.result = result;  // shrink raced itself; keep original
    }
    if (options.onFinding) options.onFinding(finding);
  }
  return stats;
}

}  // namespace emm::testgen
