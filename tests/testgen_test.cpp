// Tests for the differential verification subsystem (src/testgen): generator
// determinism and executability, the end-to-end differential sweep against
// the interpreter oracle (including the over-the-wire view through a live
// in-process ServiceServer), delta-minimizer convergence, the planted-bug
// self-test ("would the harness catch a real miscompile?"), and hostile-input
// safety of the .emmrepro reproducer format.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ir/program.h"
#include "service/server.h"
#include "support/serialize.h"
#include "testgen/diff_runner.h"
#include "testgen/generator.h"
#include "testgen/minimize.h"
#include "testgen/planted_bug.h"
#include "testgen/repro.h"

namespace emm::testgen {
namespace {

namespace fs = std::filesystem;

// ---- Generator. ----

TEST(ProgramGenerator, SameSeedAndIndexIsByteIdentical) {
  ProgramGenerator a, b;  // independent instances, same default options
  for (u64 i : {u64(0), u64(1), u64(7), u64(33), u64(258)}) {
    SCOPED_TRACE(i);
    const GeneratedProgram pa = a.generate(i);
    const GeneratedProgram pb = b.generate(i);
    EXPECT_EQ(serializeProgramBlock(pa.block), serializeProgramBlock(pb.block));
    EXPECT_EQ(pa.paramValues, pb.paramValues);
    EXPECT_EQ(describeProgram(pa), describeProgram(pb));
  }
}

TEST(ProgramGenerator, DifferentIndexOrSeedChangesTheProgram) {
  ProgramGenerator a;
  GeneratorOptions o2;
  o2.seed = 2;
  ProgramGenerator c(o2);
  EXPECT_NE(serializeProgramBlock(a.generate(0).block),
            serializeProgramBlock(a.generate(1).block));
  EXPECT_NE(serializeProgramBlock(a.generate(0).block),
            serializeProgramBlock(c.generate(0).block));
}

TEST(ProgramGenerator, ProgramsValidateAndTheOracleExecutesThem) {
  // The generator's contract: every program passes validate() (checked
  // inside generate()) and every access stays inside the declared extents,
  // so the reference interpreter must run without tripping bounds checks.
  ProgramGenerator gen;
  for (u64 i = 0; i < 50; ++i) {
    SCOPED_TRACE(i);
    const GeneratedProgram p = gen.generate(i);
    EXPECT_FALSE(describeProgram(p).empty());
    EXPECT_EQ(p.paramValues.size(), static_cast<size_t>(p.block.nparam()));
    ArrayStore store(p.block.arrays);
    store.fillAllPattern(5);
    executeReference(p.block, p.paramValues, store);
  }
}

// ---- Differential sweep. ----

TEST(Differential, TwoHundredProgramSweepIsClean) {
  SweepOptions sweep;  // pipeline + parametric + serialize views
  sweep.programs = 200;
  SweepStats stats;
  sweep.onFinding = [](const SweepFinding& f) {
    ADD_FAILURE() << "divergence at index " << f.program.index << " [" << f.result.failedCheck
                  << "] " << f.result.detail << "\n"
                  << describeProgram(f.minimized);
  };
  stats = runDifferentialSweep(sweep);
  EXPECT_EQ(stats.programs, 200);
  EXPECT_EQ(stats.divergences, 0);
  // The sweep must exercise both sides of the pipeline: programs that
  // compile to an executable unit and programs that fall back cleanly.
  EXPECT_GT(stats.compiled, 0);
  EXPECT_GT(stats.fallbacks, 0);

  // The other targets over the first 50 programs: the serialize view
  // re-emits each deserialized unit with its deserialized buffer layout
  // and must reproduce the shipped artifact.
  for (const char* target : {"cuda", "cell"}) {
    SCOPED_TRACE(target);
    SweepOptions other = sweep;
    other.programs = 50;
    other.diff.baseOptions.backendName = target;
    const SweepStats s = runDifferentialSweep(other);
    EXPECT_EQ(s.programs, 50);
    EXPECT_EQ(s.divergences, 0);
    EXPECT_GT(s.compiled, 0);
  }
}

TEST(Differential, BindViewServesScaledSizesFromTheFamilyRecord) {
  // A tight scratchpad budget pins the tile argmin to the budget rather
  // than the trip counts, so scaled probes of a generated family tend to
  // re-certify to the record's tile and bind it instead of re-emitting.
  // The sweep must stay divergence-free AND actually exercise record binds
  // — if the guards rejected every probe the view would be vacuous.
  SweepOptions sweep;
  sweep.programs = 120;
  sweep.gen.minTrip = 12;
  sweep.gen.maxTrip = 16;
  sweep.gen.parametricPercent = 100;
  sweep.diff.baseOptions.memLimitBytes = 256;
  sweep.minimize = false;
  sweep.onFinding = [](const SweepFinding& f) {
    ADD_FAILURE() << "divergence at index " << f.program.index << " [" << f.result.failedCheck
                  << "] " << f.result.detail << "\n"
                  << describeProgram(f.minimized);
  };
  const SweepStats stats = runDifferentialSweep(sweep);
  EXPECT_EQ(stats.divergences, 0);
  EXPECT_GT(stats.compiled, 0);
  EXPECT_GT(stats.boundSizes, 0);  // the bind view served real record binds
}

TEST(Differential, WireViewAgreesWithLocalCompile) {
  const std::string socket =
      (fs::temp_directory_path() / ("testgen_wire_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ::unlink(socket.c_str());
  svc::ServiceServer server({socket, /*jobs=*/2, /*cacheDir=*/"", /*cacheCapacity=*/128,
                             /*cacheShards=*/1});
  server.start();

  SweepOptions sweep;
  sweep.programs = 40;
  sweep.diff.checkWire = true;
  sweep.diff.wireSocket = socket;
  const SweepStats stats = runDifferentialSweep(sweep);
  server.stop();
  ::unlink(socket.c_str());

  EXPECT_EQ(stats.divergences, 0);
  EXPECT_GT(stats.compiled, 0);  // the wire check ran on real kernels
}

TEST(Differential, WireViewServesBoundSizesLeanOnTheFastPath) {
  // The bind view's tight-budget sweep, with the wire view on: each size
  // the local binder bound is asked twice on one connection, so the daemon
  // ships the family record once and then a lean overlay, and both must
  // match the local bind and the oracle.
  const std::string socket =
      (fs::temp_directory_path() / ("testgen_lean_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ::unlink(socket.c_str());
  svc::ServiceServer server({socket, /*jobs=*/2, /*cacheDir=*/"", /*cacheCapacity=*/128,
                             /*cacheShards=*/1});
  server.start();

  SweepOptions sweep;
  sweep.programs = 60;
  sweep.gen.minTrip = 12;
  sweep.gen.maxTrip = 16;
  sweep.gen.parametricPercent = 100;
  sweep.diff.baseOptions.memLimitBytes = 256;
  sweep.diff.checkWire = true;
  sweep.diff.wireSocket = socket;
  sweep.minimize = false;
  const SweepStats stats = runDifferentialSweep(sweep);
  const svc::WireStats served = server.stats();
  server.stop();
  ::unlink(socket.c_str());

  EXPECT_EQ(stats.divergences, 0);
  ASSERT_GT(stats.boundSizes, 0);
  EXPECT_GT(served.familyRecordSends, 0);
  EXPECT_GT(served.familyFastPath - served.familyRecordSends, 0);  // lean replies
}

// ---- Minimizer. ----

TEST(Minimizer, ConvergesToTheSmallestProgramUnderATrivialPredicate) {
  // An always-failing predicate makes every reduction acceptable, so the
  // fixpoint is the floor of the reduction system: one statement with its
  // write and a single read, the body a bare load.
  ProgramGenerator gen;
  const GeneratedProgram p = gen.generate(0);
  ASSERT_GT(p.block.statements.size(), 1u);
  const MinimizeResult m =
      minimizeProgram(p, [](const GeneratedProgram&) { return true; });
  EXPECT_TRUE(m.changed);
  EXPECT_GT(m.attempts, 0);
  ASSERT_EQ(m.program.block.statements.size(), 1u);
  EXPECT_LE(m.program.block.statements[0].accesses.size(), 2u);
  m.program.block.validate();  // reductions kept the block well-formed
}

TEST(Minimizer, RespectsThePredicateAndTheBudget) {
  ProgramGenerator gen;
  const GeneratedProgram p = gen.generate(0);
  const std::string original = serializeProgramBlock(p.block);

  // A never-failing predicate must leave the program untouched.
  const MinimizeResult untouched =
      minimizeProgram(p, [](const GeneratedProgram&) { return false; });
  EXPECT_FALSE(untouched.changed);
  EXPECT_EQ(serializeProgramBlock(untouched.program.block), original);

  // A zero budget performs no predicate evaluations at all.
  int calls = 0;
  const MinimizeResult none = minimizeProgram(
      p, [&](const GeneratedProgram&) { ++calls; return true; }, /*maxAttempts=*/0);
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(none.changed);
}

// ---- Planted-bug self-test. ----

TEST(Differential, PlantedTilerBugIsCaughtAndShrunk) {
  // The acceptance test for the whole subsystem: with a classic copy-loop
  // off-by-one planted into the final pass, the sweep must report pipeline
  // divergences (wrong answers, not crashes) and shrink each finding to a
  // tiny reproducer.
  SweepOptions sweep;
  sweep.programs = 60;
  sweep.diff.configureCompiler = plantTilerBug;
  sweep.diff.checkWire = false;  // the planted bug exists only locally
  std::vector<SweepFinding> findings;
  sweep.onFinding = [&](const SweepFinding& f) { findings.push_back(f); };
  const SweepStats stats = runDifferentialSweep(sweep);

  ASSERT_GT(stats.divergences, 0);
  ASSERT_EQ(static_cast<i64>(findings.size()), stats.divergences);
  for (const SweepFinding& f : findings) {
    SCOPED_TRACE(f.program.index);
    EXPECT_EQ(f.result.failedCheck, "pipeline");
    EXPECT_LE(f.minimized.block.statements.size(), 3u);
    // The minimized program still reproduces the divergence...
    DiffOptions planted;
    planted.configureCompiler = plantTilerBug;
    EXPECT_FALSE(DiffRunner(planted).run(f.minimized).ok);
    // ...and is clean under the unmodified pipeline: the finding indicts
    // the planted pass, not the generator.
    EXPECT_TRUE(DiffRunner().run(f.minimized).ok);
  }
}

TEST(ReproFormat, FindingsRoundTripThroughEmmreproFiles) {
  ProgramGenerator gen;
  Repro repro{gen.generate(17), "pipeline", "maxAbsDiff=3.5"};
  const std::string path =
      (fs::temp_directory_path() / ("testgen_repro_" + std::to_string(::getpid()) + ".emmrepro"))
          .string();
  writeReproFile(path, repro);
  const Repro back = readReproFile(path);
  fs::remove(path);
  EXPECT_EQ(serializeProgramBlock(back.program.block),
            serializeProgramBlock(repro.program.block));
  EXPECT_EQ(back.program.paramValues, repro.program.paramValues);
  EXPECT_EQ(back.program.seed, repro.program.seed);
  EXPECT_EQ(back.program.index, repro.program.index);
  EXPECT_EQ(back.failedCheck, repro.failedCheck);
  EXPECT_EQ(back.detail, repro.detail);
}

TEST(ReproFormat, HostileBytesAreRejectedCleanly) {
  ProgramGenerator gen;
  const std::string bytes = serializeRepro({gen.generate(5), "pipeline", "detail"});
  ASSERT_NO_THROW(deserializeRepro(bytes));

  // Every strict prefix must throw: the reader is bounds-checked end to end.
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(deserializeRepro(std::string_view(bytes).substr(0, keep)), SerializeError)
        << "prefix " << keep;
  }
  // Trailing garbage.
  EXPECT_THROW(deserializeRepro(bytes + "x"), SerializeError);
  // Bad magic.
  {
    std::string m = bytes;
    m[0] ^= 0x20;
    EXPECT_THROW(deserializeRepro(m), SerializeError);
  }
  // Corrupted payload: the digest check catches a single flipped bit even
  // when the flip yields a structurally decodable stream.
  {
    std::string m = bytes;
    m.back() ^= 0x01;
    EXPECT_THROW(deserializeRepro(m), SerializeError);
  }
  // Version and schema bytes directly after the 8-byte magic.
  for (size_t pos = 8; pos < std::min<size_t>(bytes.size(), 16); ++pos) {
    std::string m = bytes;
    m[pos] ^= 0x7F;
    EXPECT_THROW(deserializeRepro(m), SerializeError) << "byte " << pos;
  }
}

}  // namespace
}  // namespace emm::testgen
