// Tests for the versioned plan serialization layer: primitive encodings,
// hostile-input rejection, and full CompileResult round-trips over every
// built-in kernel (the products must replay byte-identically — same
// artifact, costs, tile choices, diagnostics, and timings — and the
// deserialized code unit must execute identically in the interpreter).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/plan_cache.h"
#include "ir/interp.h"
#include "kernels/blocks.h"
#include "support/serialize.h"
#include "testgen/generator.h"

namespace emm {
namespace {

// ---- Primitive encodings. ----

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32v(0xDEADBEEF);
  w.u64v(0x0123456789ABCDEFull);
  w.i64v(-42);
  w.boolean(true);
  w.boolean(false);
  w.f64(-0.0);
  w.f64(3.14159);
  w.str("hello");
  w.str("");

  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32v(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64v(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64v(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  double negZero = r.f64();
  EXPECT_EQ(negZero, 0.0);
  EXPECT_TRUE(std::signbit(negZero));
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.atEnd());
}

TEST(ByteCodec, EncodingIsLittleEndianByteByByte) {
  ByteWriter w;
  w.u32v(0x01020304);
  const std::string& b = w.buffer();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x01);
}

TEST(ByteCodec, NaNBitPatternSurvives) {
  ByteWriter w;
  w.f64(std::numeric_limits<double>::quiet_NaN());
  ByteReader r(w.buffer());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(ByteCodec, TruncatedReadsThrowInsteadOfCrashing) {
  ByteWriter w;
  w.u64v(7);
  std::string bytes = w.take();
  bytes.resize(3);
  ByteReader r(bytes);
  EXPECT_THROW(r.u64v(), SerializeError);
}

TEST(ByteCodec, HugeCountIsRejectedBeforeAllocation) {
  ByteWriter w;
  w.u64v(std::numeric_limits<u64>::max() / 2);  // absurd element count
  ByteReader r(w.buffer());
  EXPECT_THROW(r.count(8), SerializeError);
}

TEST(ByteCodec, StringLengthBeyondInputThrows) {
  ByteWriter w;
  w.u64v(1000);  // claims 1000 bytes follow
  w.u8('x');
  ByteReader r(w.buffer());
  EXPECT_THROW(r.str(), SerializeError);
}

TEST(ByteCodec, ExpectEndFlagsTrailingGarbage) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.buffer());
  r.u8();
  EXPECT_THROW(r.expectEnd(), SerializeError);
}

// ---- Schema identity. ----

TEST(Schema, FingerprintIsStableWithinABuild) {
  EXPECT_EQ(serializeSchemaFingerprint(), serializeSchemaFingerprint());
  EXPECT_NE(serializeSchemaFingerprint(), 0u);
}

TEST(Schema, BlockAndOptionEncodingsAreCanonical) {
  EXPECT_EQ(serializeProgramBlock(buildMeBlock(64, 32, 8)),
            serializeProgramBlock(buildMeBlock(64, 32, 8)));
  EXPECT_NE(serializeProgramBlock(buildMeBlock(64, 32, 8)),
            serializeProgramBlock(buildMeBlock(64, 32, 16)));
  CompileOptions a, b;
  EXPECT_EQ(serializeCompileOptions(a), serializeCompileOptions(b));
  b.memLimitBytes += 1;
  EXPECT_NE(serializeCompileOptions(a), serializeCompileOptions(b));
}

// ---- Full-plan round trips. ----

/// Compiles a built-in kernel the way emmapc would configure it.
CompileResult compileKernel(const std::string& name, const std::string& backend) {
  IntVec params;
  ProgramBlock block = buildKernelByName(name, {}, params);
  Compiler c(std::move(block));
  const bool fig1 = name == "figure1";
  c.parameters(params)
      .memoryLimitBytes(16 * 1024)
      .backend(backend)
      .scratchpadOnly(fig1)
      .stageEverything(fig1)
      .partition(fig1 ? PartitionMode::PerArrayUnion : PartitionMode::MaximalDisjoint);
  return c.compile();
}

/// The strong oracle: re-serializing the deserialized result must reproduce
/// the original byte stream exactly — any field dropped or altered by the
/// reader shows up as a byte difference.
void expectRoundTripIdentity(const CompileResult& r) {
  const std::string bytes = serializeCompileResult(r);
  CompileResult back = deserializeCompileResult(bytes);
  EXPECT_EQ(serializeCompileResult(back), bytes);

  // Field-level spot checks (redundant with the byte identity, but they
  // localize a failure).
  EXPECT_EQ(back.ok, r.ok);
  EXPECT_EQ(back.artifact, r.artifact);
  EXPECT_EQ(back.search.subTile, r.search.subTile);
  EXPECT_EQ(back.search.eval.cost, r.search.eval.cost);  // bit-identical double
  EXPECT_EQ(back.search.eval.footprint, r.search.eval.footprint);
  EXPECT_EQ(back.diagnostics.size(), r.diagnostics.size());
  EXPECT_EQ(back.timings.size(), r.timings.size());
  EXPECT_EQ(back.kernel.has_value(), r.kernel.has_value());
  EXPECT_EQ(back.scratchpadUnit.has_value(), r.scratchpadUnit.has_value());
  EXPECT_EQ(back.blockPlan.has_value(), r.blockPlan.has_value());

  // Back-pointers must land on the deserialized blocks, not the originals.
  if (back.kernel) {
    EXPECT_EQ(back.kernel->unit.source, back.kernel->analysis.tileBlock.get());
    EXPECT_EQ(back.kernel->analysis.plan.block, back.kernel->analysis.tileBlock.get());
  }
  if (back.blockPlan && r.blockPlan && r.blockPlan->block != nullptr) {
    EXPECT_NE(back.blockPlan->block, r.blockPlan->block);
    EXPECT_TRUE(back.blockPlan->block == back.input.get() ||
                back.blockPlan->block == back.transformed.get());
  }
}

TEST(PlanRoundTrip, EveryBuiltinKernelReplaysByteIdentically) {
  for (const std::string& name : builtinKernelNames()) {
    SCOPED_TRACE(name);
    CompileResult r = compileKernel(name, "c");
    ASSERT_TRUE(r.ok) << r.firstError();
    expectRoundTripIdentity(r);
  }
}

/// Every back-pointer of `r` names one of r's own blocks (or is null).
void expectOwnBlocks(const CompileResult& r) {
  const auto own = [&](const ProgramBlock* b) {
    return b == nullptr || b == r.input.get() || b == r.transformed.get();
  };
  if (r.kernel) {
    EXPECT_EQ(r.kernel->unit.source, r.kernel->analysis.tileBlock.get());
    EXPECT_EQ(r.kernel->analysis.plan.block, r.kernel->analysis.tileBlock.get());
  }
  if (r.scratchpadUnit) {
    EXPECT_TRUE(own(r.scratchpadUnit->source));
  }
  if (r.blockPlan) {
    EXPECT_TRUE(own(r.blockPlan->block));
  }
}

TEST(PlanCopy, CopiesPointAtTheirOwnBlocks) {
  // Built-ins cover the tiled kernel, the scratchpad-only unit (figure1)
  // and the block-plan fallback (jacobi). A copy outlives its original.
  for (const std::string& name : builtinKernelNames()) {
    SCOPED_TRACE(name);
    auto original = std::make_unique<CompileResult>(compileKernel(name, "c"));
    ASSERT_TRUE(original->ok) << original->firstError();
    const std::string bytes = serializeCompileResult(*original);
    CompileResult constructed = *original;
    CompileResult assigned;
    assigned = *original;
    std::optional<TiledKernel> kernel = original->kernel;
    original.reset();
    for (const CompileResult* copy : {&constructed, &assigned}) {
      expectOwnBlocks(*copy);
      EXPECT_EQ(serializeCompileResult(*copy), bytes);
    }
    if (kernel) {
      EXPECT_EQ(kernel->unit.source, kernel->analysis.tileBlock.get());
      EXPECT_EQ(kernel->analysis.plan.block, kernel->analysis.tileBlock.get());
    }
  }
}

TEST(PlanRoundTrip, CudaAndCellArtifactsSurvive) {
  for (const std::string& backend : {std::string("cuda"), std::string("cell")}) {
    SCOPED_TRACE(backend);
    CompileResult r = compileKernel("me", backend);
    ASSERT_TRUE(r.ok) << r.firstError();
    EXPECT_FALSE(r.artifact.empty());
    expectRoundTripIdentity(r);
  }
}

TEST(PlanRoundTrip, DeserializedUnitExecutesIdentically) {
  const IntVec params = {16, 16, 4};  // small so the interpreter run is fast
  Compiler c(buildMeBlock(params[0], params[1], params[2]));
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("c");
  CompileResult r = c.compile();
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_TRUE(r.kernel.has_value());
  CompileResult back = deserializeCompileResult(serializeCompileResult(r));

  IntVec ext = params;
  ext.resize(r.kernel->analysis.tileBlock->paramNames.size(), 0);

  ArrayStore storeA(r.input->arrays);
  storeA.fillAllPattern(1);
  MemTrace a = executeCodeUnit(*r.unit(), ext, storeA);

  ArrayStore storeB(back.input->arrays);
  storeB.fillAllPattern(1);
  MemTrace b = executeCodeUnit(*back.unit(), ext, storeB);

  EXPECT_EQ(a.stmtInstances, b.stmtInstances);
  EXPECT_EQ(a.globalReads, b.globalReads);
  EXPECT_EQ(a.globalWrites, b.globalWrites);
  EXPECT_EQ(a.copyElements, b.copyElements);
  EXPECT_EQ(a.syncs, b.syncs);
  EXPECT_EQ(ArrayStore::maxAbsDiff(storeA, storeB), 0.0);
}

TEST(PlanRoundTrip, BufferLayoutSurvivesWithPadsAndFormulas) {
  // packBuffers defaults on, so the cuda ME plan carries a BufferLayout
  // with nonzero pads; the byte-identity oracle above already covers it,
  // but these checks localize a layout-codec failure to the field.
  CompileResult r = compileKernel("me", "cuda");
  ASSERT_TRUE(r.ok) << r.firstError();
  ASSERT_TRUE(r.bufferLayout.has_value());
  CompileResult back = deserializeCompileResult(serializeCompileResult(r));
  ASSERT_TRUE(back.bufferLayout.has_value());
  const BufferLayout& a = *r.bufferLayout;
  const BufferLayout& b = *back.bufferLayout;
  EXPECT_EQ(b.padded, a.padded);
  EXPECT_EQ(b.note, a.note);
  EXPECT_EQ(b.bank.banks, a.bank.banks);
  EXPECT_EQ(b.bank.widthBytes, a.bank.widthBytes);
  EXPECT_EQ(b.elementBytes, a.elementBytes);
  ASSERT_EQ(b.buffers.size(), a.buffers.size());
  IntVec sample(r.unit()->source->paramNames.size(), 0);
  sample[0] = 64;
  sample[1] = 64;
  sample[2] = 8;
  for (size_t i = 0; i < a.buffers.size(); ++i) {
    SCOPED_TRACE(a.buffers[i].name);
    EXPECT_EQ(b.buffers[i].name, a.buffers[i].name);
    EXPECT_EQ(b.buffers[i].rowPadElems, a.buffers[i].rowPadElems);
    // The symbolic formulas evaluate identically after the round trip.
    EXPECT_EQ(b.buffers[i].offsetElems->eval(sample), a.buffers[i].offsetElems->eval(sample));
    EXPECT_EQ(b.buffers[i].footprintElems->eval(sample),
              a.buffers[i].footprintElems->eval(sample));
  }
  EXPECT_EQ(b.totalElems->eval(sample), a.totalElems->eval(sample));
  // The pads reach the deserialized unit's LocalBuffers too (the layout is
  // applied, not just carried).
  ASSERT_EQ(back.unit()->localBuffers.size(), r.unit()->localBuffers.size());
  for (size_t i = 0; i < r.unit()->localBuffers.size(); ++i)
    EXPECT_EQ(back.unit()->localBuffers[i].pad, r.unit()->localBuffers[i].pad);
}

TEST(PlanDecode, TruncationAnywhereInsideTheLayoutThrowsCleanly) {
  // Dense truncation sweep over the whole payload (every 7th byte, plus
  // the exact tail) — the BufferLayout codec sits mid-stream, so this
  // drags the cut point through every one of its fields.
  const std::string bytes = serializeCompileResult(compileKernel("me", "cuda"));
  for (size_t keep = 1; keep < bytes.size(); keep += 7) {
    EXPECT_THROW(deserializeCompileResult(std::string_view(bytes).substr(0, keep)),
                 SerializeError)
        << "at " << keep;
  }
  EXPECT_THROW(deserializeCompileResult(std::string_view(bytes).substr(0, bytes.size() - 1)),
               SerializeError);
}

TEST(PlanRoundTrip, FailedResultsRoundTripToo) {
  // An infeasible memory budget fails in tilesearch; the diagnostics-only
  // result must survive (the disk cache never stores these, but the codec
  // should not care).
  Compiler c(buildMeBlock(64, 64, 8));
  c.parameters({64, 64, 8}).memoryLimitBytes(1);
  CompileResult r = c.compile();
  ASSERT_FALSE(r.ok);
  expectRoundTripIdentity(r);
}

// ---- Hostile payloads. ----

TEST(PlanDecode, EmptyInputThrows) {
  EXPECT_THROW(deserializeCompileResult(std::string_view{}), SerializeError);
}

TEST(PlanDecode, WrongLeadingTagThrows) {
  std::string bytes = serializeCompileResult(compileKernel("matmul", "c"));
  bytes[0] ^= 0x5A;
  EXPECT_THROW(deserializeCompileResult(bytes), SerializeError);
}

TEST(PlanDecode, AnyTruncationThrowsCleanly) {
  std::string bytes = serializeCompileResult(compileKernel("matmul", "c"));
  // Chop at several depths: header, mid-products, one byte short.
  for (size_t keep : {size_t(1), bytes.size() / 3, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE(keep);
    EXPECT_THROW(deserializeCompileResult(std::string_view(bytes).substr(0, keep)),
                 SerializeError);
  }
}

TEST(PlanDecode, TrailingGarbageIsRejected) {
  std::string bytes = serializeCompileResult(compileKernel("matmul", "c"));
  bytes += "extra";
  EXPECT_THROW(deserializeCompileResult(bytes), SerializeError);
}

// ---- Structure-aware mutation fuzzing. ----
//
// The decoders' contract is total: for ANY byte string, deserialization
// either succeeds or throws SerializeError — no other exception type, no
// crash, no UB (the CI sanitizer jobs run this file under ASan+UBSan).
// Mutating real encodings probes much deeper than random bytes: most
// mutants keep a valid prefix, so the corruption lands mid-stream on
// length fields, tags, and counts.

/// Applies one seeded structural mutation: bit flip, byte overwrite,
/// truncation, range duplication (stretches lengths), or range deletion.
std::string mutateBytes(const std::string& base, std::mt19937_64& rng) {
  std::string m = base;
  const auto pos = [&](size_t n) { return static_cast<size_t>(rng() % std::max<size_t>(n, 1)); };
  switch (rng() % 5) {
    case 0:  // single bit flip
      m[pos(m.size())] ^= static_cast<char>(1u << (rng() % 8));
      break;
    case 1:  // byte overwrite with an interesting value
      m[pos(m.size())] = static_cast<char>(std::array<unsigned char, 6>{
          0x00, 0xFF, 0x7F, 0x80, 0x01, 0xFE}[rng() % 6]);
      break;
    case 2:  // truncate
      m.resize(pos(m.size()));
      break;
    case 3: {  // duplicate a short range in place
      const size_t at = pos(m.size());
      const size_t len = 1 + pos(16);
      m.insert(at, m.substr(at, std::min(len, m.size() - at)));
      break;
    }
    default: {  // delete a short range
      const size_t at = pos(m.size());
      m.erase(at, 1 + pos(8));
      break;
    }
  }
  return m;
}

/// Every mutant must decode cleanly or throw SerializeError; anything else
/// (std::bad_alloc, std::length_error, a sanitizer abort) fails the test.
template <typename Decode>
void expectTotalDecoder(const std::string& base, u64 seed, int mutants, Decode decode) {
  std::mt19937_64 rng(seed);
  int rejected = 0, accepted = 0;
  for (int i = 0; i < mutants; ++i) {
    const std::string m = mutateBytes(base, rng);
    try {
      decode(m);
      ++accepted;
    } catch (const SerializeError&) {
      ++rejected;
    }
  }
  // Sanity: the corpus is actually adversarial — the vast majority of
  // mutants must be rejections, not silent accepts of corrupt data.
  EXPECT_GT(rejected, accepted);
  EXPECT_GT(rejected, mutants / 2);
}

TEST(PlanDecodeFuzz, MutatedCompileResultsNeverEscapeSerializeError) {
  // Bases from both hand-built kernels and generator-produced programs:
  // generated blocks carry odd shapes (transposed writes, broadcast rows,
  // parametric bounds) that the kernel corpus alone never encodes.
  std::vector<std::string> bases;
  bases.push_back(serializeCompileResult(compileKernel("matmul", "c")));
  bases.push_back(serializeCompileResult(compileKernel("me", "cuda")));
  {
    // A cell artifact carries the full v4 surface: formula bind slots plus
    // SymLe and BufExtentEq family guards — so the sweep lands mutations on
    // guard kinds, symbolic operand trees, and slot formulas too.
    CompileResult cell = compileKernel("figure1", "cell");
    ASSERT_TRUE(cell.ok) << cell.firstError();
    ASSERT_TRUE(cell.artifactInfo.has_value());
    ASSERT_FALSE(cell.artifactInfo->guards.empty());
    ASSERT_FALSE(cell.artifactInfo->slots.empty());
    bases.push_back(serializeCompileResult(cell));
  }
  testgen::ProgramGenerator gen;
  for (u64 i : {u64(3), u64(9)}) {  // indices that compile to full plans
    testgen::GeneratedProgram p = gen.generate(i);
    Compiler c(p.block);
    c.opts().innerProcs = 4;
    c.parameters(p.paramValues);
    CompileResult r = c.compile();
    ASSERT_TRUE(r.ok) << r.firstError();
    bases.push_back(serializeCompileResult(r));
  }
  u64 seed = 0xfeedULL;
  for (const std::string& base : bases) {
    SCOPED_TRACE(base.size());
    expectTotalDecoder(base, seed++, 300,
                       [](const std::string& m) { (void)deserializeCompileResult(m); });
  }
}

TEST(PlanDecodeFuzz, MutatedFamilyPlansNeverEscapeSerializeError) {
  // The .emmfam encoding embeds the family's size-generic compiled record
  // (options + full CompileResult with its ArtifactInfo) after the
  // parametric tile plan — the deepest v4 payload. Build a real one through
  // the disk tier, confirm the record and its guard predicates are actually
  // present in the base bytes, then mutate.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("emmfam_fuzz_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    Compiler c(buildMeBlock(64, 64, 8));
    c.parameters({64, 64, 8}).memoryLimitBytes(16 * 1024);
    PlanCache memory;
    c.cache(&memory).diskCache(dir.string());
    ASSERT_TRUE(c.compile().ok);
  }
  std::string base;
  for (const fs::directory_entry& de : fs::directory_iterator(dir))
    if (de.path().extension() == ".emmfam") {
      std::ifstream f(de.path(), std::ios::binary);
      std::ostringstream os;
      os << f.rdbuf();
      base = os.str();
    }
  fs::remove_all(dir);
  ASSERT_FALSE(base.empty());

  // Strip the disk-tier envelope (magic, version, schema fingerprint, key
  // echo, collision digests, length-prefixed payload, checksum) down to the
  // raw FamilyPlan payload the decoder under test consumes.
  ASSERT_GT(base.size(), 8u);
  {
    ByteReader header(std::string_view(base).substr(8));
    header.u32v();                                    // format version
    for (int i = 0; i < 6; ++i) header.u64v();        // schema, key echo, digests
    const u64 payloadLen = header.u64v();
    ASSERT_LE(payloadLen + 8, header.remaining());
    base = base.substr(8 + header.position(), payloadLen);
  }

  std::shared_ptr<const FamilyPlan> plan = deserializeFamilyPlan(base);
  ASSERT_TRUE(plan->haveRecord && plan->record != nullptr);
  ASSERT_TRUE(plan->record->artifactInfo.has_value());
  EXPECT_FALSE(plan->record->artifactInfo->slots.empty());

  expectTotalDecoder(base, 0xfa4ULL, 400,
                     [](const std::string& m) { (void)deserializeFamilyPlan(m); });
}

TEST(PlanDecodeFuzz, MutatedProgramBlocksNeverEscapeSerializeError) {
  testgen::ProgramGenerator gen;
  u64 seed = 0xbeadULL;
  for (u64 i = 0; i < 4; ++i) {
    const std::string base = serializeProgramBlock(gen.generate(i).block);
    SCOPED_TRACE(i);
    expectTotalDecoder(base, seed++, 300,
                       [](const std::string& m) { (void)deserializeProgramBlock(m); });
  }
}

}  // namespace
}  // namespace emm
