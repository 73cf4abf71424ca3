#include "support/serialize.h"

#include <cstring>
#include <limits>
#include <utility>

#include "driver/compiler.h"
#include "driver/family_plan.h"
#include "driver/options.h"
#include "support/fingerprint.h"

namespace emm {

namespace {

// Recursion guards for tree payloads. Legitimate plans are far shallower;
// a hostile file claiming deeper nesting is rejected before the stack is.
constexpr int kMaxExprDepth = 512;
constexpr int kMaxAstDepth = 4096;

// Structural sanity cap for dimension/shape fields. Nothing in this
// codebase approaches it; a corrupt shape larger than this is rejected
// before any EMM_CHECK (which would abort) can see it.
constexpr i64 kMaxShape = 1 << 20;

// One tag byte opens every composite value; a reader that lands on the
// wrong byte (truncation, bit flip, format drift) fails on the tag instead
// of misparsing the following fields as something else.
enum : unsigned char {
  kTagIntMat = 0x01,
  kTagPolyhedron,
  kTagDivExpr,
  kTagDimBounds,
  kTagExpr,
  kTagAccess,
  kTagStatement,
  kTagArrayDecl,
  kTagProgramBlock,
  kTagAffExpr,
  kTagBoundExpr,
  kTagAstNode,
  kTagLocalBuffer,
  kTagCodeUnit,
  kTagDependence,
  kTagLoopDepSummary,
  kTagParallelismPlan,
  kTagBufferTerm,
  kTagTileEvaluation,
  kTagTileSearchResult,
  kTagGeometryHint,
  kTagSmemOptions,
  kTagRefSummary,
  kTagPartitionPlan,
  kTagDataPlan,
  kTagTileAnalysis,
  kTagTiledKernel,
  kTagDiagnostic,
  kTagPassTiming,
  kTagPipelineProducts,
  kTagCompileResult,
  kTagCompileOptions,
  kTagSymExpr,
  kTagPairPredicate,
  kTagRefFormula,
  kTagComponentFormula,
  kTagArrayFormula,
  kTagGeometryRecord,
  kTagTileSearchOptions,
  kTagSizeBinding,
  kTagParametricPlan,
  kTagFamilyPlan,
  kTagBufferLayoutEntry,
  kTagBufferLayout,
  kTagBindSlot,
  kTagFamilyGuard,
  kTagArtifactInfo,
  kTagList = 0xA0,
};

// The schema manifest: every serialized struct, field by field, in wire
// order. serializeSchemaFingerprint() digests this string, so ANY change to
// a serializer below must be mirrored here — that edit is what retires
// stale .emmplan files (see docs/PLAN_FORMAT.md for the policy).
constexpr const char* kSchemaManifest =
    "emmplan-schema v4;"
    "IntMat{rows,cols,data[i64]};"
    "Polyhedron{dim,nparam,eqs:IntMat,ineqs:IntMat,empty:bool};"
    "DivExpr{coeffs[i64],den};"
    "DimBounds{lower[DivExpr],upper[DivExpr]};"
    "Expr{kind,cval:f64|accessIdx|lhs,rhs};"
    "Access{arrayId,fn:IntMat,isWrite};"
    "Statement{name,domain,accesses[],writeAccess,rhs?:Expr,schedule:IntMat};"
    "ArrayDecl{name,extents[i64]};"
    "ProgramBlock{name,paramNames[str],arrays[],statements[]};"
    "AffExpr{terms[(str,i64)],cnst,den};"
    "BoundExpr{parts[AffExpr],isMax};"
    "AstNode{kind,children[],iter,lb,ub,step,loopKind,guards[AffExpr],"
    "stmtId,callArgs[AffExpr],dstArray,srcArray,dstIndex[AffExpr],"
    "srcIndex[AffExpr],text};"
    "LocalBuffer{name,ndim,offset[AffExpr],sizeExpr[BoundExpr],pad[i64]};"
    "CodeUnit{name,statements[],localBuffers[],root?:AstNode};"
    "Dependence{srcStmt,dstStmt,srcAccess,dstAccess,kind,poly,srcDim,dstDim};"
    "LoopDepSummary{loop,sign};"
    "ParallelismPlan{band[i64],spaceLoops[i64],timeLoops[i64],"
    "needsInterBlockSync,summaries[]};"
    "BufferTerm{name,occurrences,volumeIn,volumeOut,hoistLevel};"
    "TileEvaluation{feasible,reason,cost:f64,footprint,terms[]};"
    "TileSearchResult{subTile[i64],eval,evaluations,memoHits,parametric,"
    "familyAdopted,prunedBoxes,parametricReason,planBuildMillis:f64,"
    "evalMillis:f64};"
    "GeometryHint{arrayId,refs[(int,int)],lower[[AffExpr]],upper[[AffExpr]]};"
    "SmemOptions{delta:f64,partitionMode,onlyBeneficial,optimizeCopySets,"
    "deadAfterBlock[int],blockLocalParams[str],paramContext?:Polyhedron,"
    "sampleParams[i64],volumeCap,geometryHints[]};"
    "RefSummary{stmt,access,isWrite,rank,iterDim,dataSpace:Polyhedron};"
    "PartitionPlan{arrayId,refs[],orderReuse,constReuseFraction:f64,"
    "beneficial,hasBuffer,bufferName,offset[AffExpr],sizeExpr[BoundExpr]};"
    "DataPlan{options,partitions[],partitionOf[[int]]};"
    "TileAnalysis{tileBlock?:ProgramBlock,plan:DataPlan,originParams[str],"
    "tileParams[str],loopBounds[DimBounds],subTile[i64],depth,hoistLevel[int]};"
    "TiledKernel{analysis,unit:CodeUnit,spaceLoops[int],blockTileSizes[i64],"
    "spaceLoopRange[(BoundExpr,BoundExpr)]};"
    "Diagnostic{severity,stage,message};"
    "PassTiming{pass,millis:f64,ran,skipped};"
    "BufferLayoutEntry{name,extent[SymExpr],rowPadElems,offsetElems:SymExpr,"
    "footprintElems:SymExpr};"
    "BufferLayout{banks,bankWidthBytes,elementBytes,padded,note,buffers[],"
    "totalElems?:SymExpr};"
    "BindSlot{name,kind,a,b,formula?:SymExpr};"
    "FamilyGuard{kind,lhs?:SymExpr,rhs?:SymExpr,bufferIndex,dim,expected,"
    "what};"
    "ArtifactInfo{sizeGeneric,note,slots[],guards[]};"
    "PipelineProducts{input?:ProgramBlock,transformed?:ProgramBlock,deps[],"
    "haveDeps,plan,havePlan,appliedSkews[(int,int,i64)],search,"
    "geometryHints[],kernel?:TiledKernel,scratchpadUnit?:(srcRef,CodeUnit),"
    "blockPlan?:(blockRef,DataPlan),bufferLayout?:BufferLayout,"
    "artifactInfo?:ArtifactInfo,artifact};"
    "CompileResult{products,ok,diagnostics[],timings[]};"
    "CompileOptions{paramValues[i64],mode,delta:f64,partitionMode,"
    "stageEverything,optimizeCopySets,subTile[i64],blockTile[i64],"
    "threadTile[i64],hoistCopies,useScratchpad,searchMode,memLimitBytes,"
    "elementBytes,innerProcs,syncCost:f64,transferCost:f64,"
    "tileCandidates[[i64]],parametricTileAnalysis,packBuffers,smemBanks,"
    "smemBankWidthBytes,backendName,kernelName,elementType,numBoundParams,"
    "doubleBuffer,runtimeSizeArgs};"
    "SymExpr{kind,cval|paramIdx+name|lhs,rhs};"
    "PairPredicate{always,never,cond:Polyhedron};"
    "RefFormula{stmt,access,isWrite,orderReuse,ctxBox[(SymExpr,SymExpr)],"
    "rawBox[(SymExpr,SymExpr)],usesOrigin[bool]};"
    "ComponentFormula{refs[],pairs[],hoistLevel,globalIdx[int]};"
    "ArrayFormula{arrayId,arrayName,comps[],numRefs,refLoc[(int,int)]};"
    "GeometryRecord{arrayId,refKeys[(int,int)],lower[[AffExpr]],"
    "upper[[AffExpr]]};"
    "TileSearchOptions{memLimitElems,innerProcs,syncCost:f64,"
    "transferCost:f64,paramValues[i64],candidates[[i64]],hoistCopies,"
    "parametric};"
    "SizeBinding{ext[i64],loopRange[i64]};"
    "ParametricTilePlan{depth,np,options,analysis,defaultBinding,arrays[],"
    "geometry[],hoist,benefitDelta:f64,volumeCap,onlyBeneficial};"
    "FamilyPlan{haveDeps,deps[],haveTransform,transformedTemplate?:"
    "ProgramBlock,plan,appliedSkews[(int,int,i64)],tilePlan?:"
    "ParametricTilePlan,parametricReason,record?:(CompileOptions,"
    "CompileResult)};";

void expectTag(ByteReader& r, unsigned char tag, const char* what) {
  unsigned char got = r.u8();
  if (got != tag)
    throw SerializeError(std::string("bad tag for ") + what + " (got " + std::to_string(got) +
                         ", want " + std::to_string(tag) + ")");
}

/// Reads an i64 and validates it names a value of an enum with
/// `maxValue + 1` consecutive members starting at 0.
template <typename E>
E readEnum(ByteReader& r, i64 maxValue, const char* what) {
  i64 v = r.i64v();
  if (v < 0 || v > maxValue)
    throw SerializeError(std::string("out-of-range ") + what + " value " + std::to_string(v));
  return static_cast<E>(v);
}

/// Reads a non-negative shape/dimension field with a structural sanity cap.
int readShape(ByteReader& r, const char* what) {
  i64 v = r.i64v();
  if (v < 0 || v > kMaxShape)
    throw SerializeError(std::string("implausible ") + what + " " + std::to_string(v));
  return static_cast<int>(v);
}

template <typename T, typename F>
void writeList(ByteWriter& w, const std::vector<T>& v, F writeElem) {
  w.u8(kTagList);
  w.u64v(v.size());
  for (const T& e : v) writeElem(w, e);
}

template <typename T, typename F>
std::vector<T> readList(ByteReader& r, F readElem) {
  expectTag(r, kTagList, "list");
  u64 n = r.count();
  std::vector<T> out;
  for (u64 i = 0; i < n; ++i) out.push_back(readElem(r));
  return out;
}

void writeI64Vec(ByteWriter& w, const std::vector<i64>& v) {
  w.u8(kTagList);
  w.u64v(v.size());
  for (i64 x : v) w.i64v(x);
}

std::vector<i64> readI64Vec(ByteReader& r) {
  expectTag(r, kTagList, "i64 vector");
  u64 n = r.count(8);
  std::vector<i64> out;
  out.reserve(n);
  for (u64 i = 0; i < n; ++i) out.push_back(r.i64v());
  return out;
}

void writeIntVecOfInt(ByteWriter& w, const std::vector<int>& v) {
  w.u8(kTagList);
  w.u64v(v.size());
  for (int x : v) w.intv(x);
}

std::vector<int> readIntVecOfInt(ByteReader& r) {
  expectTag(r, kTagList, "int vector");
  u64 n = r.count(8);
  std::vector<int> out;
  out.reserve(n);
  for (u64 i = 0; i < n; ++i) out.push_back(r.intv());
  return out;
}

void writeStrVec(ByteWriter& w, const std::vector<std::string>& v) {
  w.u8(kTagList);
  w.u64v(v.size());
  for (const std::string& s : v) w.str(s);
}

std::vector<std::string> readStrVec(ByteReader& r) {
  expectTag(r, kTagList, "string vector");
  u64 n = r.count();
  std::vector<std::string> out;
  for (u64 i = 0; i < n; ++i) out.push_back(r.str());
  return out;
}

// ---- linalg / poly -------------------------------------------------------

void writeIntMat(ByteWriter& w, const IntMat& m) {
  w.u8(kTagIntMat);
  w.intv(m.rows());
  w.intv(m.cols());
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) w.i64v(m.at(i, j));
}

IntMat readIntMat(ByteReader& r) {
  expectTag(r, kTagIntMat, "IntMat");
  int rows = readShape(r, "matrix rows");
  int cols = readShape(r, "matrix cols");
  u64 cells = static_cast<u64>(rows) * static_cast<u64>(cols);
  if (cells * 8 > r.remaining()) throw SerializeError("truncated matrix data");
  IntMat m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m.at(i, j) = r.i64v();
  return m;
}

void writePoly(ByteWriter& w, const Polyhedron& p) {
  w.u8(kTagPolyhedron);
  w.intv(p.dim());
  w.intv(p.nparam());
  writeIntMat(w, p.equalities());
  writeIntMat(w, p.inequalities());
  // simplify() may have dropped the witness constraint after marking the
  // set empty, so emptiness is carried explicitly. isEmpty() answers from
  // the polyhedron's stored answer once settleDerivedAnswers has run.
  w.boolean(p.isEmpty());
}

Polyhedron readPoly(ByteReader& r) {
  expectTag(r, kTagPolyhedron, "Polyhedron");
  int dim = readShape(r, "polyhedron dim");
  int nparam = readShape(r, "polyhedron nparam");
  IntMat eqs = readIntMat(r);
  IntMat ineqs = readIntMat(r);
  bool empty = r.boolean();
  int cols = dim + nparam + 1;
  if ((eqs.rows() > 0 && eqs.cols() != cols) || (ineqs.rows() > 0 && ineqs.cols() != cols))
    throw SerializeError("polyhedron constraint width mismatch");
  Polyhedron p(dim, nparam);
  for (int i = 0; i < eqs.rows(); ++i) p.addEquality(eqs.row(i));
  for (int i = 0; i < ineqs.rows(); ++i) p.addInequality(ineqs.row(i));
  // The byte is a claim, not an answer: the stored emptiness answer is
  // always derived from the constraints read, so hostile bytes cannot plant
  // a wrong one. A claimed-empty set that is not empty by the constraints
  // is made empty explicitly.
  if (empty && !p.isEmpty()) {
    // Original was marked empty by an integer-infeasibility test the
    // rational relaxation cannot reproduce; reinstate with 0 >= 1.
    IntVec contradiction(cols, 0);
    contradiction.back() = -1;
    p.addInequality(contradiction);
  }
  return p;
}

void writeDivExpr(ByteWriter& w, const DivExpr& d) {
  w.u8(kTagDivExpr);
  writeI64Vec(w, d.coeffs);
  w.i64v(d.den);
}

DivExpr readDivExpr(ByteReader& r) {
  expectTag(r, kTagDivExpr, "DivExpr");
  DivExpr d;
  d.coeffs = readI64Vec(r);
  d.den = r.i64v();
  return d;
}

void writeDimBounds(ByteWriter& w, const DimBounds& b) {
  w.u8(kTagDimBounds);
  writeList(w, b.lower, [](ByteWriter& ww, const DivExpr& e) { writeDivExpr(ww, e); });
  writeList(w, b.upper, [](ByteWriter& ww, const DivExpr& e) { writeDivExpr(ww, e); });
}

DimBounds readDimBounds(ByteReader& r) {
  expectTag(r, kTagDimBounds, "DimBounds");
  DimBounds b;
  b.lower = readList<DivExpr>(r, [](ByteReader& rr) { return readDivExpr(rr); });
  b.upper = readList<DivExpr>(r, [](ByteReader& rr) { return readDivExpr(rr); });
  return b;
}

// ---- program IR ----------------------------------------------------------

void writeExpr(ByteWriter& w, const Expr& e) {
  w.u8(kTagExpr);
  w.i64v(static_cast<i64>(e.kind()));
  switch (e.kind()) {
    case Expr::Kind::Const:
      w.f64(e.constValue());
      break;
    case Expr::Kind::Load:
      w.intv(e.accessIndex());
      break;
    case Expr::Kind::Abs:
      writeExpr(w, *e.lhs());
      break;
    default:  // binary
      writeExpr(w, *e.lhs());
      writeExpr(w, *e.rhs());
      break;
  }
}

ExprPtr readExpr(ByteReader& r, int depth) {
  if (depth > kMaxExprDepth) throw SerializeError("expression nesting too deep");
  expectTag(r, kTagExpr, "Expr");
  auto kind = readEnum<Expr::Kind>(r, static_cast<i64>(Expr::Kind::Max), "Expr kind");
  switch (kind) {
    case Expr::Kind::Const:
      return Expr::constant(r.f64());
    case Expr::Kind::Load:
      return Expr::load(r.intv());
    case Expr::Kind::Abs:
      return Expr::abs(readExpr(r, depth + 1));
    default: {
      ExprPtr a = readExpr(r, depth + 1);
      ExprPtr b = readExpr(r, depth + 1);
      switch (kind) {
        case Expr::Kind::Add:
          return Expr::add(std::move(a), std::move(b));
        case Expr::Kind::Sub:
          return Expr::sub(std::move(a), std::move(b));
        case Expr::Kind::Mul:
          return Expr::mul(std::move(a), std::move(b));
        case Expr::Kind::Div:
          return Expr::div(std::move(a), std::move(b));
        case Expr::Kind::Min:
          return Expr::min(std::move(a), std::move(b));
        default:
          return Expr::max(std::move(a), std::move(b));
      }
    }
  }
}

void writeAccess(ByteWriter& w, const Access& a) {
  w.u8(kTagAccess);
  w.intv(a.arrayId);
  writeIntMat(w, a.fn);
  w.boolean(a.isWrite);
}

Access readAccess(ByteReader& r) {
  expectTag(r, kTagAccess, "Access");
  Access a;
  a.arrayId = r.intv();
  a.fn = readIntMat(r);
  a.isWrite = r.boolean();
  return a;
}

void writeStatement(ByteWriter& w, const Statement& s) {
  w.u8(kTagStatement);
  w.str(s.name);
  writePoly(w, s.domain);
  writeList(w, s.accesses, [](ByteWriter& ww, const Access& a) { writeAccess(ww, a); });
  w.intv(s.writeAccess);
  w.boolean(s.rhs != nullptr);
  if (s.rhs) writeExpr(w, *s.rhs);
  writeIntMat(w, s.schedule);
}

Statement readStatement(ByteReader& r) {
  expectTag(r, kTagStatement, "Statement");
  Statement s;
  s.name = r.str();
  s.domain = readPoly(r);
  s.accesses = readList<Access>(r, [](ByteReader& rr) { return readAccess(rr); });
  s.writeAccess = r.intv();
  if (r.boolean()) s.rhs = readExpr(r, 0);
  s.schedule = readIntMat(r);
  return s;
}

void writeArrayDecl(ByteWriter& w, const ArrayDecl& a) {
  w.u8(kTagArrayDecl);
  w.str(a.name);
  writeI64Vec(w, a.extents);
}

ArrayDecl readArrayDecl(ByteReader& r) {
  expectTag(r, kTagArrayDecl, "ArrayDecl");
  ArrayDecl a;
  a.name = r.str();
  a.extents = readI64Vec(r);
  return a;
}

void writeBlock(ByteWriter& w, const ProgramBlock& b) {
  w.u8(kTagProgramBlock);
  w.str(b.name);
  writeStrVec(w, b.paramNames);
  writeList(w, b.arrays, [](ByteWriter& ww, const ArrayDecl& a) { writeArrayDecl(ww, a); });
  writeList(w, b.statements, [](ByteWriter& ww, const Statement& s) { writeStatement(ww, s); });
}

ProgramBlock readBlock(ByteReader& r) {
  expectTag(r, kTagProgramBlock, "ProgramBlock");
  ProgramBlock b;
  b.name = r.str();
  b.paramNames = readStrVec(r);
  b.arrays = readList<ArrayDecl>(r, [](ByteReader& rr) { return readArrayDecl(rr); });
  b.statements = readList<Statement>(r, [](ByteReader& rr) { return readStatement(rr); });
  return b;
}

// ---- loop AST ------------------------------------------------------------

void writeAffExpr(ByteWriter& w, const AffExpr& e) {
  w.u8(kTagAffExpr);
  w.u8(kTagList);
  w.u64v(e.terms.size());
  for (const auto& [name, coeff] : e.terms) {
    w.str(name);
    w.i64v(coeff);
  }
  w.i64v(e.cnst);
  w.i64v(e.den);
}

AffExpr readAffExpr(ByteReader& r) {
  expectTag(r, kTagAffExpr, "AffExpr");
  expectTag(r, kTagList, "AffExpr terms");
  u64 n = r.count();
  AffExpr e;
  for (u64 i = 0; i < n; ++i) {
    std::string name = r.str();
    i64 coeff = r.i64v();
    e.terms.emplace_back(std::move(name), coeff);
  }
  e.cnst = r.i64v();
  e.den = r.i64v();
  return e;
}

void writeAffExprVec(ByteWriter& w, const std::vector<AffExpr>& v) {
  writeList(w, v, [](ByteWriter& ww, const AffExpr& e) { writeAffExpr(ww, e); });
}

std::vector<AffExpr> readAffExprVec(ByteReader& r) {
  return readList<AffExpr>(r, [](ByteReader& rr) { return readAffExpr(rr); });
}

void writeBoundExpr(ByteWriter& w, const BoundExpr& b) {
  w.u8(kTagBoundExpr);
  writeAffExprVec(w, b.parts);
  w.boolean(b.isMax);
}

BoundExpr readBoundExpr(ByteReader& r) {
  expectTag(r, kTagBoundExpr, "BoundExpr");
  BoundExpr b;
  b.parts = readAffExprVec(r);
  b.isMax = r.boolean();
  return b;
}

void writeAst(ByteWriter& w, const AstNode& n) {
  w.u8(kTagAstNode);
  w.i64v(static_cast<i64>(n.kind));
  w.u8(kTagList);
  w.u64v(n.children.size());
  for (const AstPtr& c : n.children) writeAst(w, *c);
  w.str(n.iter);
  writeBoundExpr(w, n.lb);
  writeBoundExpr(w, n.ub);
  w.i64v(n.step);
  w.i64v(static_cast<i64>(n.loopKind));
  writeAffExprVec(w, n.guards);
  w.intv(n.stmtId);
  writeAffExprVec(w, n.callArgs);
  w.intv(n.dstArray);
  w.intv(n.srcArray);
  writeAffExprVec(w, n.dstIndex);
  writeAffExprVec(w, n.srcIndex);
  w.str(n.text);
}

AstPtr readAst(ByteReader& r, int depth) {
  if (depth > kMaxAstDepth) throw SerializeError("AST nesting too deep");
  expectTag(r, kTagAstNode, "AstNode");
  auto node = std::make_unique<AstNode>();
  node->kind = readEnum<AstNode::Kind>(r, static_cast<i64>(AstNode::Kind::Comment), "AST kind");
  expectTag(r, kTagList, "AST children");
  u64 n = r.count();
  for (u64 i = 0; i < n; ++i) node->children.push_back(readAst(r, depth + 1));
  node->iter = r.str();
  node->lb = readBoundExpr(r);
  node->ub = readBoundExpr(r);
  node->step = r.i64v();
  node->loopKind =
      readEnum<LoopKind>(r, static_cast<i64>(LoopKind::ThreadParallel), "loop kind");
  node->guards = readAffExprVec(r);
  node->stmtId = r.intv();
  node->callArgs = readAffExprVec(r);
  node->dstArray = r.intv();
  node->srcArray = r.intv();
  node->dstIndex = readAffExprVec(r);
  node->srcIndex = readAffExprVec(r);
  node->text = r.str();
  return node;
}

void writeLocalBuffer(ByteWriter& w, const LocalBuffer& b) {
  w.u8(kTagLocalBuffer);
  w.str(b.name);
  w.intv(b.ndim);
  writeAffExprVec(w, b.offset);
  writeList(w, b.sizeExpr, [](ByteWriter& ww, const BoundExpr& e) { writeBoundExpr(ww, e); });
  writeI64Vec(w, b.pad);
}

LocalBuffer readLocalBuffer(ByteReader& r) {
  expectTag(r, kTagLocalBuffer, "LocalBuffer");
  LocalBuffer b;
  b.name = r.str();
  b.ndim = r.intv();
  b.offset = readAffExprVec(r);
  b.sizeExpr = readList<BoundExpr>(r, [](ByteReader& rr) { return readBoundExpr(rr); });
  b.pad = readI64Vec(r);
  return b;
}

/// CodeUnit minus `source`, which is a back-pointer the caller rebinds.
void writeUnit(ByteWriter& w, const CodeUnit& u) {
  w.u8(kTagCodeUnit);
  w.str(u.name);
  writeList(w, u.statements, [](ByteWriter& ww, const Statement& s) { writeStatement(ww, s); });
  writeList(w, u.localBuffers,
            [](ByteWriter& ww, const LocalBuffer& b) { writeLocalBuffer(ww, b); });
  w.boolean(u.root != nullptr);
  if (u.root) writeAst(w, *u.root);
}

CodeUnit readUnit(ByteReader& r, const ProgramBlock* source) {
  expectTag(r, kTagCodeUnit, "CodeUnit");
  CodeUnit u;
  u.source = source;
  u.name = r.str();
  u.statements = readList<Statement>(r, [](ByteReader& rr) { return readStatement(rr); });
  u.localBuffers = readList<LocalBuffer>(r, [](ByteReader& rr) { return readLocalBuffer(rr); });
  if (r.boolean()) u.root = readAst(r, 0);
  return u;
}

// ---- analysis products ---------------------------------------------------

void writeDependence(ByteWriter& w, const Dependence& d) {
  w.u8(kTagDependence);
  w.intv(d.srcStmt);
  w.intv(d.dstStmt);
  w.intv(d.srcAccess);
  w.intv(d.dstAccess);
  w.i64v(static_cast<i64>(d.kind));
  writePoly(w, d.poly);
  w.intv(d.srcDim);
  w.intv(d.dstDim);
}

Dependence readDependence(ByteReader& r) {
  expectTag(r, kTagDependence, "Dependence");
  Dependence d;
  d.srcStmt = r.intv();
  d.dstStmt = r.intv();
  d.srcAccess = r.intv();
  d.dstAccess = r.intv();
  d.kind = readEnum<DepKind>(r, static_cast<i64>(DepKind::Output), "dependence kind");
  d.poly = readPoly(r);
  d.srcDim = r.intv();
  d.dstDim = r.intv();
  return d;
}

void writeParallelismPlan(ByteWriter& w, const ParallelismPlan& p) {
  w.u8(kTagParallelismPlan);
  writeIntVecOfInt(w, p.band);
  writeIntVecOfInt(w, p.spaceLoops);
  writeIntVecOfInt(w, p.timeLoops);
  w.boolean(p.needsInterBlockSync);
  writeList(w, p.summaries, [](ByteWriter& ww, const LoopDepSummary& s) {
    ww.u8(kTagLoopDepSummary);
    ww.intv(s.loop);
    ww.i64v(static_cast<i64>(s.sign));
  });
}

ParallelismPlan readParallelismPlan(ByteReader& r) {
  expectTag(r, kTagParallelismPlan, "ParallelismPlan");
  ParallelismPlan p;
  p.band = readIntVecOfInt(r);
  p.spaceLoops = readIntVecOfInt(r);
  p.timeLoops = readIntVecOfInt(r);
  p.needsInterBlockSync = r.boolean();
  p.summaries = readList<LoopDepSummary>(r, [](ByteReader& rr) {
    expectTag(rr, kTagLoopDepSummary, "LoopDepSummary");
    LoopDepSummary s;
    s.loop = rr.intv();
    s.sign = readEnum<SignRange>(rr, static_cast<i64>(SignRange::Mixed), "sign range");
    return s;
  });
  return p;
}

void writeTileEvaluation(ByteWriter& w, const TileEvaluation& e) {
  w.u8(kTagTileEvaluation);
  w.boolean(e.feasible);
  w.str(e.reason);
  w.f64(e.cost);
  w.i64v(e.footprint);
  writeList(w, e.terms, [](ByteWriter& ww, const TileEvaluation::BufferTerm& t) {
    ww.u8(kTagBufferTerm);
    ww.str(t.name);
    ww.i64v(t.occurrences);
    ww.i64v(t.volumeIn);
    ww.i64v(t.volumeOut);
    ww.intv(t.hoistLevel);
  });
}

TileEvaluation readTileEvaluation(ByteReader& r) {
  expectTag(r, kTagTileEvaluation, "TileEvaluation");
  TileEvaluation e;
  e.feasible = r.boolean();
  e.reason = r.str();
  e.cost = r.f64();
  e.footprint = r.i64v();
  e.terms = readList<TileEvaluation::BufferTerm>(r, [](ByteReader& rr) {
    expectTag(rr, kTagBufferTerm, "BufferTerm");
    TileEvaluation::BufferTerm t;
    t.name = rr.str();
    t.occurrences = rr.i64v();
    t.volumeIn = rr.i64v();
    t.volumeOut = rr.i64v();
    t.hoistLevel = rr.intv();
    return t;
  });
  return e;
}

void writeSearchResult(ByteWriter& w, const TileSearchResult& s) {
  w.u8(kTagTileSearchResult);
  writeI64Vec(w, s.subTile);
  writeTileEvaluation(w, s.eval);
  w.intv(s.evaluations);
  w.intv(s.memoHits);
  w.boolean(s.parametric);
  w.boolean(s.familyAdopted);
  w.intv(s.prunedBoxes);
  w.str(s.parametricReason);
  w.f64(s.planBuildMillis);
  w.f64(s.evalMillis);
}

TileSearchResult readSearchResult(ByteReader& r) {
  expectTag(r, kTagTileSearchResult, "TileSearchResult");
  TileSearchResult s;
  s.subTile = readI64Vec(r);
  s.eval = readTileEvaluation(r);
  s.evaluations = r.intv();
  s.memoHits = r.intv();
  s.parametric = r.boolean();
  s.familyAdopted = r.boolean();
  s.prunedBoxes = r.intv();
  s.parametricReason = r.str();
  s.planBuildMillis = r.f64();
  s.evalMillis = r.f64();
  return s;
}

void writeGeometryHint(ByteWriter& w, const GeometryHint& h) {
  w.u8(kTagGeometryHint);
  w.intv(h.arrayId);
  w.u8(kTagList);
  w.u64v(h.refs.size());
  for (const auto& [stmt, access] : h.refs) {
    w.intv(stmt);
    w.intv(access);
  }
  auto writePools = [](ByteWriter& ww, const std::vector<std::vector<AffExpr>>& pools) {
    ww.u8(kTagList);
    ww.u64v(pools.size());
    for (const std::vector<AffExpr>& pool : pools) writeAffExprVec(ww, pool);
  };
  writePools(w, h.lower);
  writePools(w, h.upper);
}

GeometryHint readGeometryHint(ByteReader& r) {
  expectTag(r, kTagGeometryHint, "GeometryHint");
  GeometryHint h;
  h.arrayId = r.intv();
  expectTag(r, kTagList, "hint refs");
  u64 n = r.count();
  for (u64 i = 0; i < n; ++i) {
    int stmt = r.intv();
    int access = r.intv();
    h.refs.emplace_back(stmt, access);
  }
  auto readPools = [](ByteReader& rr) {
    expectTag(rr, kTagList, "hint pools");
    u64 k = rr.count();
    std::vector<std::vector<AffExpr>> pools;
    for (u64 i = 0; i < k; ++i) pools.push_back(readAffExprVec(rr));
    return pools;
  };
  h.lower = readPools(r);
  h.upper = readPools(r);
  return h;
}

void writeSmemOptions(ByteWriter& w, const SmemOptions& o) {
  w.u8(kTagSmemOptions);
  w.f64(o.delta);
  w.i64v(static_cast<i64>(o.partitionMode));
  w.boolean(o.onlyBeneficial);
  w.boolean(o.optimizeCopySets);
  writeIntVecOfInt(w, o.deadAfterBlock);
  writeStrVec(w, o.blockLocalParams);
  w.boolean(o.paramContext.has_value());
  if (o.paramContext) writePoly(w, *o.paramContext);
  writeI64Vec(w, o.sampleParams);
  w.i64v(o.volumeCap);
  writeList(w, o.geometryHints,
            [](ByteWriter& ww, const GeometryHint& h) { writeGeometryHint(ww, h); });
}

SmemOptions readSmemOptions(ByteReader& r) {
  expectTag(r, kTagSmemOptions, "SmemOptions");
  SmemOptions o;
  o.delta = r.f64();
  o.partitionMode =
      readEnum<PartitionMode>(r, static_cast<i64>(PartitionMode::PerArrayUnion), "partition mode");
  o.onlyBeneficial = r.boolean();
  o.optimizeCopySets = r.boolean();
  o.deadAfterBlock = readIntVecOfInt(r);
  o.blockLocalParams = readStrVec(r);
  if (r.boolean()) o.paramContext = readPoly(r);
  o.sampleParams = readI64Vec(r);
  o.volumeCap = r.i64v();
  o.geometryHints = readList<GeometryHint>(r, [](ByteReader& rr) { return readGeometryHint(rr); });
  return o;
}

void writeRefSummary(ByteWriter& w, const RefSummary& s) {
  w.u8(kTagRefSummary);
  w.intv(s.stmt);
  w.intv(s.access);
  w.boolean(s.isWrite);
  w.intv(s.rank);
  w.intv(s.iterDim);
  writePoly(w, s.dataSpace);
}

RefSummary readRefSummary(ByteReader& r) {
  expectTag(r, kTagRefSummary, "RefSummary");
  RefSummary s;
  s.stmt = r.intv();
  s.access = r.intv();
  s.isWrite = r.boolean();
  s.rank = r.intv();
  s.iterDim = r.intv();
  s.dataSpace = readPoly(r);
  return s;
}

void writePartitionPlan(ByteWriter& w, const PartitionPlan& p) {
  w.u8(kTagPartitionPlan);
  w.intv(p.arrayId);
  writeList(w, p.refs, [](ByteWriter& ww, const RefSummary& s) { writeRefSummary(ww, s); });
  w.boolean(p.orderReuse);
  w.f64(p.constReuseFraction);
  w.boolean(p.beneficial);
  w.boolean(p.hasBuffer);
  w.str(p.bufferName);
  writeAffExprVec(w, p.offset);
  writeList(w, p.sizeExpr, [](ByteWriter& ww, const BoundExpr& e) { writeBoundExpr(ww, e); });
}

PartitionPlan readPartitionPlan(ByteReader& r) {
  expectTag(r, kTagPartitionPlan, "PartitionPlan");
  PartitionPlan p;
  p.arrayId = r.intv();
  p.refs = readList<RefSummary>(r, [](ByteReader& rr) { return readRefSummary(rr); });
  p.orderReuse = r.boolean();
  p.constReuseFraction = r.f64();
  p.beneficial = r.boolean();
  p.hasBuffer = r.boolean();
  p.bufferName = r.str();
  p.offset = readAffExprVec(r);
  p.sizeExpr = readList<BoundExpr>(r, [](ByteReader& rr) { return readBoundExpr(rr); });
  return p;
}

/// DataPlan minus `block`, which the caller rebinds.
void writeDataPlan(ByteWriter& w, const DataPlan& p) {
  w.u8(kTagDataPlan);
  writeSmemOptions(w, p.options);
  writeList(w, p.partitions,
            [](ByteWriter& ww, const PartitionPlan& pp) { writePartitionPlan(ww, pp); });
  w.u8(kTagList);
  w.u64v(p.partitionOf.size());
  for (const std::vector<int>& row : p.partitionOf) writeIntVecOfInt(w, row);
}

DataPlan readDataPlan(ByteReader& r, const ProgramBlock* block) {
  expectTag(r, kTagDataPlan, "DataPlan");
  DataPlan p;
  p.block = block;
  p.options = readSmemOptions(r);
  p.partitions = readList<PartitionPlan>(r, [](ByteReader& rr) { return readPartitionPlan(rr); });
  expectTag(r, kTagList, "partitionOf");
  u64 n = r.count();
  for (u64 i = 0; i < n; ++i) p.partitionOf.push_back(readIntVecOfInt(r));
  return p;
}

void writeTileAnalysis(ByteWriter& w, const TileAnalysis& a) {
  w.u8(kTagTileAnalysis);
  w.boolean(a.tileBlock != nullptr);
  if (a.tileBlock) writeBlock(w, *a.tileBlock);
  writeDataPlan(w, a.plan);
  writeStrVec(w, a.originParams);
  writeStrVec(w, a.tileParams);
  writeList(w, a.loopBounds, [](ByteWriter& ww, const DimBounds& b) { writeDimBounds(ww, b); });
  writeI64Vec(w, a.subTile);
  w.intv(a.depth);
  writeIntVecOfInt(w, a.hoistLevel);
}

TileAnalysis readTileAnalysis(ByteReader& r) {
  expectTag(r, kTagTileAnalysis, "TileAnalysis");
  TileAnalysis a;
  if (r.boolean()) a.tileBlock = std::make_unique<ProgramBlock>(readBlock(r));
  a.plan = readDataPlan(r, a.tileBlock.get());
  a.originParams = readStrVec(r);
  a.tileParams = readStrVec(r);
  a.loopBounds = readList<DimBounds>(r, [](ByteReader& rr) { return readDimBounds(rr); });
  a.subTile = readI64Vec(r);
  a.depth = r.intv();
  a.hoistLevel = readIntVecOfInt(r);
  return a;
}

void writeTiledKernel(ByteWriter& w, const TiledKernel& k) {
  w.u8(kTagTiledKernel);
  writeTileAnalysis(w, k.analysis);
  writeUnit(w, k.unit);
  writeIntVecOfInt(w, k.spaceLoops);
  writeI64Vec(w, k.blockTileSizes);
  w.u8(kTagList);
  w.u64v(k.spaceLoopRange.size());
  for (const auto& [lb, ub] : k.spaceLoopRange) {
    writeBoundExpr(w, lb);
    writeBoundExpr(w, ub);
  }
}

TiledKernel readTiledKernel(ByteReader& r) {
  expectTag(r, kTagTiledKernel, "TiledKernel");
  TiledKernel k;
  k.analysis = readTileAnalysis(r);
  k.unit = readUnit(r, k.analysis.tileBlock.get());
  k.spaceLoops = readIntVecOfInt(r);
  k.blockTileSizes = readI64Vec(r);
  expectTag(r, kTagList, "spaceLoopRange");
  u64 n = r.count();
  for (u64 i = 0; i < n; ++i) {
    BoundExpr lb = readBoundExpr(r);
    BoundExpr ub = readBoundExpr(r);
    k.spaceLoopRange.emplace_back(std::move(lb), std::move(ub));
  }
  return k;
}

// ---- driver records ------------------------------------------------------

void writeDiagnostic(ByteWriter& w, const Diagnostic& d) {
  w.u8(kTagDiagnostic);
  w.i64v(static_cast<i64>(d.severity));
  w.str(d.stage);
  w.str(d.message);
}

Diagnostic readDiagnostic(ByteReader& r) {
  expectTag(r, kTagDiagnostic, "Diagnostic");
  Diagnostic d;
  d.severity = readEnum<Severity>(r, static_cast<i64>(Severity::Error), "severity");
  d.stage = r.str();
  d.message = r.str();
  return d;
}

void writePassTiming(ByteWriter& w, const PassTiming& t) {
  w.u8(kTagPassTiming);
  w.str(t.pass);
  w.f64(t.millis);
  w.boolean(t.ran);
  w.boolean(t.skipped);
}

PassTiming readPassTiming(ByteReader& r) {
  expectTag(r, kTagPassTiming, "PassTiming");
  PassTiming t;
  t.pass = r.str();
  t.millis = r.f64();
  t.ran = r.boolean();
  t.skipped = r.boolean();
  return t;
}

// Back-pointer discriminators for DataPlan::block / CodeUnit::source inside
// PipelineProducts (mirrors the remapBlock logic of clone()).
enum : unsigned char { kRefNone = 0, kRefInput = 1, kRefTransformed = 2 };

unsigned char blockRefOf(const PipelineProducts& p, const ProgramBlock* ptr) {
  if (ptr == nullptr) return kRefNone;
  if (ptr == p.input.get()) return kRefInput;
  if (ptr == p.transformed.get()) return kRefTransformed;
  return kRefNone;  // foreign pointer: not representable, drop like clone()
}

const ProgramBlock* resolveBlockRef(const PipelineProducts& p, unsigned char ref) {
  switch (ref) {
    case kRefInput:
      return p.input.get();
    case kRefTransformed:
      return p.transformed.get();
    case kRefNone:
      return nullptr;
    default:
      throw SerializeError("bad block back-reference " + std::to_string(ref));
  }
}

// SymExpr codec (defined with the parametric-plan codecs below; the buffer
// layout reuses it for its extent/offset/footprint formulas).
void writeSymExpr(ByteWriter& w, const SymPtr& e);
SymPtr readSymExpr(ByteReader& r, int depth);

void writeBufferLayoutEntry(ByteWriter& w, const BufferLayoutEntry& e) {
  w.u8(kTagBufferLayoutEntry);
  w.str(e.name);
  writeList(w, e.extent, [](ByteWriter& ww, const SymPtr& s) { writeSymExpr(ww, s); });
  w.i64v(e.rowPadElems);
  writeSymExpr(w, e.offsetElems);
  writeSymExpr(w, e.footprintElems);
}

BufferLayoutEntry readBufferLayoutEntry(ByteReader& r) {
  expectTag(r, kTagBufferLayoutEntry, "BufferLayoutEntry");
  BufferLayoutEntry e;
  e.name = r.str();
  e.extent = readList<SymPtr>(r, [](ByteReader& rr) { return readSymExpr(rr, 0); });
  e.rowPadElems = r.i64v();
  e.offsetElems = readSymExpr(r, 0);
  e.footprintElems = readSymExpr(r, 0);
  return e;
}

void writeBufferLayout(ByteWriter& w, const BufferLayout& l) {
  w.u8(kTagBufferLayout);
  w.i64v(l.bank.banks);
  w.i64v(l.bank.widthBytes);
  w.i64v(l.elementBytes);
  w.boolean(l.padded);
  w.str(l.note);
  writeList(w, l.buffers,
            [](ByteWriter& ww, const BufferLayoutEntry& e) { writeBufferLayoutEntry(ww, e); });
  w.boolean(l.totalElems != nullptr);
  if (l.totalElems) writeSymExpr(w, l.totalElems);
}

BufferLayout readBufferLayout(ByteReader& r) {
  expectTag(r, kTagBufferLayout, "BufferLayout");
  BufferLayout l;
  l.bank.banks = r.i64v();
  l.bank.widthBytes = r.i64v();
  l.elementBytes = r.i64v();
  l.padded = r.boolean();
  l.note = r.str();
  l.buffers =
      readList<BufferLayoutEntry>(r, [](ByteReader& rr) { return readBufferLayoutEntry(rr); });
  if (r.boolean()) l.totalElems = readSymExpr(r, 0);
  return l;
}

void writeBindSlot(ByteWriter& w, const BindSlot& s) {
  w.u8(kTagBindSlot);
  w.str(s.name);
  w.i64v(static_cast<i64>(s.kind));
  w.intv(s.a);
  w.intv(s.b);
  w.boolean(s.formula != nullptr);
  if (s.formula != nullptr) writeSymExpr(w, s.formula);
}

BindSlot readBindSlot(ByteReader& r) {
  expectTag(r, kTagBindSlot, "BindSlot");
  BindSlot s;
  s.name = r.str();
  s.kind = readEnum<BindSlot::Kind>(r, static_cast<i64>(BindSlot::Kind::Formula),
                                    "BindSlot::Kind");
  s.a = r.intv();
  s.b = r.intv();
  if (r.boolean()) s.formula = readSymExpr(r, 0);
  // A Formula slot with no formula would make the binder's argument fill
  // reject every request; hostile bytes must surface here instead.
  if (s.kind == BindSlot::Kind::Formula && s.formula == nullptr)
    throw SerializeError("formula bind slot without a formula");
  return s;
}

void writeFamilyGuard(ByteWriter& w, const FamilyGuard& g) {
  w.u8(kTagFamilyGuard);
  w.i64v(static_cast<i64>(g.kind));
  w.boolean(g.lhs != nullptr);
  if (g.lhs != nullptr) writeSymExpr(w, g.lhs);
  w.boolean(g.rhs != nullptr);
  if (g.rhs != nullptr) writeSymExpr(w, g.rhs);
  w.intv(g.bufferIndex);
  w.intv(g.dim);
  w.i64v(g.expected);
  w.str(g.what);
}

FamilyGuard readFamilyGuard(ByteReader& r) {
  expectTag(r, kTagFamilyGuard, "FamilyGuard");
  FamilyGuard g;
  g.kind = readEnum<FamilyGuard::Kind>(r, static_cast<i64>(FamilyGuard::Kind::BufExtentEq),
                                       "FamilyGuard::Kind");
  if (r.boolean()) g.lhs = readSymExpr(r, 0);
  if (r.boolean()) g.rhs = readSymExpr(r, 0);
  g.bufferIndex = r.intv();
  g.dim = r.intv();
  g.expected = r.i64v();
  g.what = r.str();
  // Symbolic guards without both sides could never be evaluated; reject the
  // bytes rather than admit a guard the binder must treat as violated.
  if (g.kind != FamilyGuard::Kind::BufExtentEq && (g.lhs == nullptr || g.rhs == nullptr))
    throw SerializeError("symbolic family guard missing an operand");
  return g;
}

void writeArtifactInfo(ByteWriter& w, const ArtifactInfo& info) {
  w.u8(kTagArtifactInfo);
  w.boolean(info.sizeGeneric);
  w.str(info.note);
  writeList(w, info.slots, [](ByteWriter& ww, const BindSlot& s) { writeBindSlot(ww, s); });
  writeList(w, info.guards,
            [](ByteWriter& ww, const FamilyGuard& g) { writeFamilyGuard(ww, g); });
}

ArtifactInfo readArtifactInfo(ByteReader& r) {
  expectTag(r, kTagArtifactInfo, "ArtifactInfo");
  ArtifactInfo info;
  info.sizeGeneric = r.boolean();
  info.note = r.str();
  info.slots = readList<BindSlot>(r, [](ByteReader& rr) { return readBindSlot(rr); });
  info.guards = readList<FamilyGuard>(r, [](ByteReader& rr) { return readFamilyGuard(rr); });
  return info;
}

void writeProducts(ByteWriter& w, const PipelineProducts& p) {
  w.u8(kTagPipelineProducts);
  w.boolean(p.input != nullptr);
  if (p.input) writeBlock(w, *p.input);
  w.boolean(p.transformed != nullptr);
  if (p.transformed) writeBlock(w, *p.transformed);
  writeList(w, p.deps, [](ByteWriter& ww, const Dependence& d) { writeDependence(ww, d); });
  w.boolean(p.haveDeps);
  writeParallelismPlan(w, p.plan);
  w.boolean(p.havePlan);
  w.u8(kTagList);
  w.u64v(p.appliedSkews.size());
  for (const auto& [target, srcFactor] : p.appliedSkews) {
    w.intv(target);
    w.intv(srcFactor.first);
    w.i64v(srcFactor.second);
  }
  writeSearchResult(w, p.search);
  writeList(w, p.geometryHints,
            [](ByteWriter& ww, const GeometryHint& h) { writeGeometryHint(ww, h); });
  w.boolean(p.kernel.has_value());
  if (p.kernel) writeTiledKernel(w, *p.kernel);
  w.boolean(p.scratchpadUnit.has_value());
  if (p.scratchpadUnit) {
    w.u8(blockRefOf(p, p.scratchpadUnit->source));
    writeUnit(w, *p.scratchpadUnit);
  }
  w.boolean(p.blockPlan.has_value());
  if (p.blockPlan) {
    w.u8(blockRefOf(p, p.blockPlan->block));
    writeDataPlan(w, *p.blockPlan);
  }
  w.boolean(p.bufferLayout.has_value());
  if (p.bufferLayout) writeBufferLayout(w, *p.bufferLayout);
  w.boolean(p.artifactInfo.has_value());
  if (p.artifactInfo) writeArtifactInfo(w, *p.artifactInfo);
  w.str(p.artifact);
}

PipelineProducts readProducts(ByteReader& r) {
  expectTag(r, kTagPipelineProducts, "PipelineProducts");
  PipelineProducts p;
  if (r.boolean()) p.input = std::make_unique<ProgramBlock>(readBlock(r));
  if (r.boolean()) p.transformed = std::make_unique<ProgramBlock>(readBlock(r));
  p.deps = readList<Dependence>(r, [](ByteReader& rr) { return readDependence(rr); });
  p.haveDeps = r.boolean();
  p.plan = readParallelismPlan(r);
  p.havePlan = r.boolean();
  expectTag(r, kTagList, "appliedSkews");
  u64 nskews = r.count();
  for (u64 i = 0; i < nskews; ++i) {
    int target = r.intv();
    int source = r.intv();
    i64 factor = r.i64v();
    p.appliedSkews.emplace_back(target, std::make_pair(source, factor));
  }
  p.search = readSearchResult(r);
  p.geometryHints =
      readList<GeometryHint>(r, [](ByteReader& rr) { return readGeometryHint(rr); });
  if (r.boolean()) p.kernel.emplace(readTiledKernel(r));
  if (r.boolean()) {
    unsigned char srcRef = r.u8();
    p.scratchpadUnit.emplace(readUnit(r, resolveBlockRef(p, srcRef)));
  }
  if (r.boolean()) {
    unsigned char blockRef = r.u8();
    p.blockPlan.emplace(readDataPlan(r, resolveBlockRef(p, blockRef)));
  }
  if (r.boolean()) p.bufferLayout.emplace(readBufferLayout(r));
  if (r.boolean()) p.artifactInfo.emplace(readArtifactInfo(r));
  p.artifact = r.str();
  return p;
}


// ---- symbolic expressions (parametric family plans) ----------------------

void writeSymExpr(ByteWriter& w, const SymPtr& e) {
  if (e == nullptr) throw SerializeError("null symbolic expression");
  w.u8(kTagSymExpr);
  w.i64v(static_cast<i64>(e->kind()));
  switch (e->kind()) {
    case SymExpr::Kind::Const:
      w.i64v(e->constValue());
      break;
    case SymExpr::Kind::Param:
      w.intv(e->paramIndex());
      w.str(e->paramName());
      break;
    default:
      writeSymExpr(w, e->lhs());
      writeSymExpr(w, e->rhs());
      break;
  }
}

SymPtr readSymExpr(ByteReader& r, int depth) {
  if (depth > kMaxExprDepth) throw SerializeError("symbolic expression nesting too deep");
  expectTag(r, kTagSymExpr, "SymExpr");
  auto kind = readEnum<SymExpr::Kind>(r, static_cast<i64>(SymExpr::Kind::Max), "SymExpr kind");
  switch (kind) {
    case SymExpr::Kind::Const:
      return SymExpr::constant(r.i64v());
    case SymExpr::Kind::Param: {
      int idx = readShape(r, "SymExpr param index");
      return SymExpr::param(idx, r.str());
    }
    default: {
      SymPtr a = readSymExpr(r, depth + 1);
      SymPtr b = readSymExpr(r, depth + 1);
      // Every divisor a compiled plan produces is a positive constant
      // (compileDiv wraps DivExpr::den); anything else would only surface
      // as an eval-time checked-arithmetic abort, so reject it here.
      if ((kind == SymExpr::Kind::FloorDiv || kind == SymExpr::Kind::CeilDiv) &&
          (b->kind() != SymExpr::Kind::Const || b->constValue() <= 0))
        throw SerializeError("symbolic divisor must be a positive constant");
      // The factories fold constant operands with checked (aborting)
      // arithmetic; pre-validate so corrupt constants throw instead.
      if (a->kind() == SymExpr::Kind::Const && b->kind() == SymExpr::Kind::Const) {
        const i128 x = a->constValue();
        const i128 y = b->constValue();
        i128 folded = 0;
        if (kind == SymExpr::Kind::Add) folded = x + y;
        if (kind == SymExpr::Kind::Mul) folded = x * y;
        if (folded < static_cast<i128>(INT64_MIN) || folded > static_cast<i128>(INT64_MAX))
          throw SerializeError("symbolic constant overflow");
      }
      switch (kind) {
        case SymExpr::Kind::Add:
          return SymExpr::add(std::move(a), std::move(b));
        case SymExpr::Kind::Mul:
          return SymExpr::mul(std::move(a), std::move(b));
        case SymExpr::Kind::FloorDiv:
          return SymExpr::floorDiv(std::move(a), std::move(b));
        case SymExpr::Kind::CeilDiv:
          return SymExpr::ceilDiv(std::move(a), std::move(b));
        case SymExpr::Kind::Min:
          return SymExpr::min(std::move(a), std::move(b));
        default:
          return SymExpr::max(std::move(a), std::move(b));
      }
    }
  }
}

void writeSymBox(ByteWriter& w, const std::vector<std::pair<SymPtr, SymPtr>>& box) {
  w.u8(kTagList);
  w.u64v(box.size());
  for (const auto& [lo, hi] : box) {
    writeSymExpr(w, lo);
    writeSymExpr(w, hi);
  }
}

std::vector<std::pair<SymPtr, SymPtr>> readSymBox(ByteReader& r) {
  expectTag(r, kTagList, "symbolic box");
  u64 n = r.count();
  std::vector<std::pair<SymPtr, SymPtr>> box;
  for (u64 i = 0; i < n; ++i) {
    SymPtr lo = readSymExpr(r, 0);
    SymPtr hi = readSymExpr(r, 0);
    box.emplace_back(std::move(lo), std::move(hi));
  }
  return box;
}

void writeIntPairVec(ByteWriter& w, const std::vector<std::pair<int, int>>& v) {
  w.u8(kTagList);
  w.u64v(v.size());
  for (const auto& [a, b] : v) {
    w.intv(a);
    w.intv(b);
  }
}

std::vector<std::pair<int, int>> readIntPairVec(ByteReader& r) {
  expectTag(r, kTagList, "int pair vector");
  u64 n = r.count();
  std::vector<std::pair<int, int>> out;
  for (u64 i = 0; i < n; ++i) {
    int a = r.intv();
    int b = r.intv();
    out.emplace_back(a, b);
  }
  return out;
}

void writeBoolVec(ByteWriter& w, const std::vector<bool>& v) {
  w.u8(kTagList);
  w.u64v(v.size());
  for (bool b : v) w.boolean(b);
}

std::vector<bool> readBoolVec(ByteReader& r) {
  expectTag(r, kTagList, "bool vector");
  u64 n = r.count();
  std::vector<bool> out;
  for (u64 i = 0; i < n; ++i) out.push_back(r.boolean());
  return out;
}

void writeTileSearchOptions(ByteWriter& w, const TileSearchOptions& o) {
  w.u8(kTagTileSearchOptions);
  w.i64v(o.memLimitElems);
  w.i64v(o.innerProcs);
  w.f64(o.syncCost);
  w.f64(o.transferCost);
  writeI64Vec(w, o.paramValues);
  w.u8(kTagList);
  w.u64v(o.candidates.size());
  for (const std::vector<i64>& v : o.candidates) writeI64Vec(w, v);
  w.boolean(o.hoistCopies);
  w.boolean(o.parametric);
}

TileSearchOptions readTileSearchOptions(ByteReader& r) {
  expectTag(r, kTagTileSearchOptions, "TileSearchOptions");
  TileSearchOptions o;
  o.memLimitElems = r.i64v();
  o.innerProcs = r.i64v();
  o.syncCost = r.f64();
  o.transferCost = r.f64();
  o.paramValues = readI64Vec(r);
  expectTag(r, kTagList, "candidate ladders");
  u64 n = r.count();
  for (u64 i = 0; i < n; ++i) o.candidates.push_back(readI64Vec(r));
  o.hoistCopies = r.boolean();
  o.parametric = r.boolean();
  return o;
}

}  // namespace

// ---- public API ----------------------------------------------------------

u64 digestBytes(std::string_view bytes) {
  Hasher h;  // the one FNV-1a implementation, shared with the cache keys
  h.bytes(bytes.data(), bytes.size());
  return h.digest();
}

u64 serializeSchemaFingerprint() {
  static const u64 fp = digestBytes(kSchemaManifest);
  return fp;
}

void ByteWriter::u32v(u32 v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<unsigned char>(v >> (8 * i)));
}

void ByteWriter::u64v(u64 v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<unsigned char>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  u64 bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64v(bits);
}

void ByteWriter::str(const std::string& s) {
  u64v(s.size());
  buf_.append(s);
}

void ByteWriter::bytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

const unsigned char* ByteReader::need(size_t n) {
  if (n > remaining()) throw SerializeError("truncated input (" + std::to_string(n) +
                                            " bytes wanted, " + std::to_string(remaining()) +
                                            " left)");
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

unsigned char ByteReader::u8() { return *need(1); }

u32 ByteReader::u32v() {
  const unsigned char* p = need(4);
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

u64 ByteReader::u64v() {
  const unsigned char* p = need(8);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

int ByteReader::intv() {
  i64 v = i64v();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
    throw SerializeError("int field out of range: " + std::to_string(v));
  return static_cast<int>(v);
}

bool ByteReader::boolean() {
  unsigned char v = u8();
  if (v > 1) throw SerializeError("bad boolean byte " + std::to_string(v));
  return v == 1;
}

double ByteReader::f64() {
  u64 bits = u64v();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  u64 n = count();
  const unsigned char* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

u64 ByteReader::count(u64 minBytesPerElement) {
  u64 n = u64v();
  if (minBytesPerElement > 0 && n > remaining() / minBytesPerElement)
    throw SerializeError("count " + std::to_string(n) + " exceeds remaining input");
  return n;
}

void ByteReader::expectEnd() const {
  if (!atEnd())
    throw SerializeError("trailing garbage: " + std::to_string(remaining()) + " bytes");
}

// Body writers shared between the standalone entry points and the family
// record (a CompileResult + its CompileOptions embedded in a .emmfam).
// CompileResult::artifactBound/boundArgs are transport-only by contract and
// never serialized.
static void writeCompileResultInto(ByteWriter& w, const CompileResult& result) {
  w.u8(kTagCompileResult);
  writeProducts(w, result);
  w.boolean(result.ok);
  writeList(w, result.diagnostics,
            [](ByteWriter& ww, const Diagnostic& d) { writeDiagnostic(ww, d); });
  writeList(w, result.timings, [](ByteWriter& ww, const PassTiming& t) { writePassTiming(ww, t); });
}

static CompileResult readCompileResultFrom(ByteReader& r) {
  expectTag(r, kTagCompileResult, "CompileResult");
  CompileResult out;
  static_cast<PipelineProducts&>(out) = readProducts(r);
  out.ok = r.boolean();
  out.diagnostics = readList<Diagnostic>(r, [](ByteReader& rr) { return readDiagnostic(rr); });
  out.timings = readList<PassTiming>(r, [](ByteReader& rr) { return readPassTiming(rr); });
  return out;
}

std::string serializeCompileResult(const CompileResult& result) {
  ByteWriter w;
  writeCompileResultInto(w, result);
  return w.take();
}

void settleDerivedAnswers(const CompileResult& result) {
  ByteWriter w;
  writeCompileResultInto(w, result);
}

CompileResult deserializeCompileResult(std::string_view bytes) {
  ByteReader r(bytes);
  try {
    CompileResult out = readCompileResultFrom(r);
    r.expectEnd();
    return out;
  } catch (const ApiError& e) {
    // Reconstruction runs real IR code (polyhedra, symbolic formulas,
    // checked arithmetic) whose preconditions hostile bytes can violate;
    // every such failure is a decode failure, never an escape.
    throw SerializeError(std::string("compile result decode failed: ") + e.what());
  }
}

std::string serializeProgramBlock(const ProgramBlock& block) {
  ByteWriter w;
  writeBlock(w, block);
  return w.take();
}

static void writeCompileOptionsInto(ByteWriter& w, const CompileOptions& o) {
  w.u8(kTagCompileOptions);
  writeI64Vec(w, o.paramValues);
  w.i64v(static_cast<i64>(o.mode));
  w.f64(o.delta);
  w.i64v(static_cast<i64>(o.partitionMode));
  w.boolean(o.stageEverything);
  w.boolean(o.optimizeCopySets);
  writeI64Vec(w, o.subTile);
  writeI64Vec(w, o.blockTile);
  writeI64Vec(w, o.threadTile);
  w.boolean(o.hoistCopies);
  w.boolean(o.useScratchpad);
  w.i64v(static_cast<i64>(o.searchMode));
  w.i64v(o.memLimitBytes);
  w.i64v(o.elementBytes);
  w.i64v(o.innerProcs);
  w.f64(o.syncCost);
  w.f64(o.transferCost);
  w.u8(kTagList);
  w.u64v(o.tileCandidates.size());
  for (const std::vector<i64>& v : o.tileCandidates) writeI64Vec(w, v);
  w.boolean(o.parametricTileAnalysis);
  w.boolean(o.packBuffers);
  w.i64v(o.smemBanks);
  w.i64v(o.smemBankWidthBytes);
  w.str(o.backendName);
  w.str(o.kernelName);
  w.str(o.elementType);
  w.intv(o.numBoundParams);
  w.boolean(o.doubleBuffer);
  w.boolean(o.runtimeSizeArgs);
}

std::string serializeCompileOptions(const CompileOptions& o) {
  ByteWriter w;
  writeCompileOptionsInto(w, o);
  return w.take();
}

ProgramBlock deserializeProgramBlock(std::string_view bytes) {
  ByteReader r(bytes);
  try {
    ProgramBlock b = readBlock(r);
    r.expectEnd();
    b.validate();
    return b;
  } catch (const ApiError& e) {
    throw SerializeError(std::string("program block decode failed: ") + e.what());
  }
}

static CompileOptions readCompileOptionsFrom(ByteReader& r) {
  expectTag(r, kTagCompileOptions, "CompileOptions");
  CompileOptions o;
  o.paramValues = readI64Vec(r);
  o.mode = readEnum<PipelineMode>(r, static_cast<i64>(PipelineMode::ScratchpadOnly),
                                  "PipelineMode");
  o.delta = r.f64();
  o.partitionMode = readEnum<PartitionMode>(r, static_cast<i64>(PartitionMode::PerArrayUnion),
                                            "PartitionMode");
  o.stageEverything = r.boolean();
  o.optimizeCopySets = r.boolean();
  o.subTile = readI64Vec(r);
  o.blockTile = readI64Vec(r);
  o.threadTile = readI64Vec(r);
  o.hoistCopies = r.boolean();
  o.useScratchpad = r.boolean();
  o.searchMode = readEnum<TileSearchMode>(r, static_cast<i64>(TileSearchMode::Exhaustive),
                                          "TileSearchMode");
  o.memLimitBytes = r.i64v();
  o.elementBytes = r.i64v();
  o.innerProcs = r.i64v();
  o.syncCost = r.f64();
  o.transferCost = r.f64();
  expectTag(r, kTagList, "tile candidate pools");
  u64 pools = r.count();
  for (u64 i = 0; i < pools; ++i) o.tileCandidates.push_back(readI64Vec(r));
  o.parametricTileAnalysis = r.boolean();
  o.packBuffers = r.boolean();
  o.smemBanks = r.i64v();
  o.smemBankWidthBytes = r.i64v();
  o.backendName = r.str();
  o.kernelName = r.str();
  o.elementType = r.str();
  o.numBoundParams = r.intv();
  o.doubleBuffer = r.boolean();
  o.runtimeSizeArgs = r.boolean();
  return o;
}

CompileOptions deserializeCompileOptions(std::string_view bytes) {
  ByteReader r(bytes);
  CompileOptions o = readCompileOptionsFrom(r);
  r.expectEnd();
  return o;
}

// ---- parametric family plans ---------------------------------------------
// serializeParametricPlanBody / deserializeParametricPlanBody are friends of
// ParametricTilePlan (parametric_plan.h): the plan's compiled formulas are
// private by design and only the wire format reaches into them.

void serializeParametricPlanBody(ByteWriter& w, const ParametricTilePlan& plan) {
  w.u8(kTagParametricPlan);
  w.intv(plan.depth_);
  w.intv(plan.np_);
  writeTileSearchOptions(w, plan.options_);
  writeTileAnalysis(w, plan.analysis_);
  w.u8(kTagSizeBinding);
  writeI64Vec(w, plan.defaultBinding_.ext);
  writeI64Vec(w, plan.defaultBinding_.loopRange);
  w.u8(kTagList);
  w.u64v(plan.arrays_.size());
  for (const auto& af : plan.arrays_) {
    w.u8(kTagArrayFormula);
    w.intv(af.arrayId);
    w.str(af.arrayName);
    w.u8(kTagList);
    w.u64v(af.comps.size());
    for (const auto& comp : af.comps) {
      w.u8(kTagComponentFormula);
      w.u8(kTagList);
      w.u64v(comp.refs.size());
      for (const auto& rf : comp.refs) {
        w.u8(kTagRefFormula);
        w.intv(rf.key.first);
        w.intv(rf.key.second);
        w.boolean(rf.isWrite);
        w.boolean(rf.orderReuse);
        writeSymBox(w, rf.ctxBox);
        writeSymBox(w, rf.rawBox);
        writeBoolVec(w, rf.usesOrigin);
      }
      w.u8(kTagList);
      w.u64v(comp.pairs.size());
      for (const auto& pred : comp.pairs) {
        w.u8(kTagPairPredicate);
        w.boolean(pred.always);
        w.boolean(pred.never);
        writePoly(w, pred.cond);
      }
      w.intv(comp.hoistLevel);
      writeIntVecOfInt(w, comp.globalIdx);
    }
    w.intv(af.numRefs);
    writeIntPairVec(w, af.refLoc);
  }
  w.u8(kTagList);
  w.u64v(plan.geometry_.size());
  for (const auto& g : plan.geometry_) {
    w.u8(kTagGeometryRecord);
    w.intv(g.arrayId);
    writeIntPairVec(w, g.refKeys);
    auto writePools = [](ByteWriter& ww, const std::vector<std::vector<AffExpr>>& pools) {
      ww.u8(kTagList);
      ww.u64v(pools.size());
      for (const std::vector<AffExpr>& pool : pools) writeAffExprVec(ww, pool);
    };
    writePools(w, g.lower);
    writePools(w, g.upper);
  }
  w.boolean(plan.hoist_);
  w.f64(plan.benefitDelta_);
  w.i64v(plan.volumeCap_);
  w.boolean(plan.onlyBeneficial_);
}

ParametricTilePlan deserializeParametricPlanBody(ByteReader& r) {
  expectTag(r, kTagParametricPlan, "ParametricTilePlan");
  ParametricTilePlan plan;
  plan.depth_ = readShape(r, "plan depth");
  plan.np_ = readShape(r, "plan size-parameter count");
  plan.options_ = readTileSearchOptions(r);
  plan.analysis_ = readTileAnalysis(r);
  expectTag(r, kTagSizeBinding, "SizeBinding");
  plan.defaultBinding_.ext = readI64Vec(r);
  plan.defaultBinding_.loopRange = readI64Vec(r);
  expectTag(r, kTagList, "array formulas");
  u64 narrays = r.count();
  for (u64 i = 0; i < narrays; ++i) {
    expectTag(r, kTagArrayFormula, "ArrayFormula");
    ParametricTilePlan::ArrayFormula af;
    af.arrayId = r.intv();
    af.arrayName = r.str();
    expectTag(r, kTagList, "component formulas");
    u64 ncomps = r.count();
    for (u64 c = 0; c < ncomps; ++c) {
      expectTag(r, kTagComponentFormula, "ComponentFormula");
      ParametricTilePlan::ComponentFormula comp;
      expectTag(r, kTagList, "reference formulas");
      u64 nrefs = r.count();
      for (u64 q = 0; q < nrefs; ++q) {
        expectTag(r, kTagRefFormula, "RefFormula");
        ParametricTilePlan::RefFormula rf;
        rf.key.first = r.intv();
        rf.key.second = r.intv();
        rf.isWrite = r.boolean();
        rf.orderReuse = r.boolean();
        rf.ctxBox = readSymBox(r);
        rf.rawBox = readSymBox(r);
        rf.usesOrigin = readBoolVec(r);
        comp.refs.push_back(std::move(rf));
      }
      expectTag(r, kTagList, "pair predicates");
      u64 npairs = r.count();
      if (npairs != nrefs * nrefs)
        throw SerializeError("pair predicate count mismatch");
      for (u64 q = 0; q < npairs; ++q) {
        expectTag(r, kTagPairPredicate, "PairPredicate");
        ParametricTilePlan::PairPredicate pred;
        pred.always = r.boolean();
        pred.never = r.boolean();
        pred.cond = readPoly(r);
        comp.pairs.push_back(std::move(pred));
      }
      comp.hoistLevel = r.intv();
      comp.globalIdx = readIntVecOfInt(r);
      if (comp.globalIdx.size() != comp.refs.size())
        throw SerializeError("component global index arity mismatch");
      // evaluate()/footprintInterval() index member 0's boxes, so every
      // component needs at least one reference and congruent shapes; ragged
      // or empty components would read out of bounds.
      if (comp.refs.empty()) throw SerializeError("empty component formula");
      for (const ParametricTilePlan::RefFormula& rf : comp.refs) {
        if (rf.ctxBox.size() != comp.refs[0].ctxBox.size() ||
            rf.rawBox.size() != comp.refs[0].rawBox.size())
          throw SerializeError("ragged reference box dimensions");
        if (rf.usesOrigin.size() != static_cast<size_t>(plan.depth_))
          throw SerializeError("reference origin-bit arity mismatch");
      }
      af.comps.push_back(std::move(comp));
    }
    af.numRefs = readShape(r, "array reference count");
    af.refLoc = readIntPairVec(r);
    if (af.refLoc.size() != static_cast<size_t>(af.numRefs))
      throw SerializeError("array reference location arity mismatch");
    for (const auto& [ci, li] : af.refLoc) {
      if (ci < 0 || static_cast<size_t>(ci) >= af.comps.size() || li < 0 ||
          static_cast<size_t>(li) >= af.comps[ci].refs.size())
        throw SerializeError("array reference location out of range");
    }
    // globalIdx must be the exact inverse of refLoc: evaluate() feeds it
    // into an unchecked union-find over numRefs members, so any other
    // value is memory-unsafe, not just wrong.
    for (size_t ci = 0; ci < af.comps.size(); ++ci) {
      const std::vector<int>& gidx = af.comps[ci].globalIdx;
      for (size_t li = 0; li < gidx.size(); ++li) {
        const int g = gidx[li];
        if (g < 0 || g >= af.numRefs ||
            af.refLoc[g] != std::make_pair(static_cast<int>(ci), static_cast<int>(li)))
          throw SerializeError("component global index inconsistent with refLoc");
      }
    }
    plan.arrays_.push_back(std::move(af));
  }
  expectTag(r, kTagList, "geometry records");
  u64 ngeom = r.count();
  for (u64 i = 0; i < ngeom; ++i) {
    expectTag(r, kTagGeometryRecord, "GeometryRecord");
    ParametricTilePlan::GeometryRecord g;
    g.arrayId = r.intv();
    g.refKeys = readIntPairVec(r);
    auto readPools = [](ByteReader& rr) {
      expectTag(rr, kTagList, "geometry pools");
      u64 k = rr.count();
      std::vector<std::vector<AffExpr>> pools;
      for (u64 d = 0; d < k; ++d) pools.push_back(readAffExprVec(rr));
      return pools;
    };
    g.lower = readPools(r);
    g.upper = readPools(r);
    plan.geometry_.push_back(std::move(g));
  }
  plan.hoist_ = r.boolean();
  plan.benefitDelta_ = r.f64();
  plan.volumeCap_ = r.i64v();
  plan.onlyBeneficial_ = r.boolean();
  // Structural validation + symbol-table reconstruction. The checks inside
  // run as EMM_REQUIRE (ApiError); convert so hostile input stays a clean
  // SerializeError for the disk tier.
  try {
    plan.rebuildSymbols();
  } catch (const ApiError& e) {
    throw SerializeError(std::string("parametric plan validation failed: ") + e.what());
  }
  if (static_cast<int>(plan.defaultBinding_.ext.size()) != plan.np_ + plan.depth_ ||
      static_cast<int>(plan.defaultBinding_.loopRange.size()) != plan.depth_)
    throw SerializeError("parametric plan binding arity mismatch");
  if (static_cast<int>(plan.analysis_.loopBounds.size()) != plan.depth_)
    throw SerializeError("parametric plan loop-bound arity mismatch");
  plan.buildFootprintFormulas();  // derived from the validated boxes
  return plan;
}

std::string serializeFamilyPlan(const FamilyPlan& plan) {
  ByteWriter w;
  w.u8(kTagFamilyPlan);
  w.boolean(plan.haveDeps);
  writeList(w, plan.deps, [](ByteWriter& ww, const Dependence& d) { writeDependence(ww, d); });
  w.boolean(plan.haveTransform);
  if (plan.haveTransform) writeBlock(w, plan.transformedTemplate);
  writeParallelismPlan(w, plan.plan);
  w.u8(kTagList);
  w.u64v(plan.appliedSkews.size());
  for (const auto& [target, srcFactor] : plan.appliedSkews) {
    w.intv(target);
    w.intv(srcFactor.first);
    w.i64v(srcFactor.second);
  }
  w.boolean(plan.tilePlan != nullptr);
  if (plan.tilePlan != nullptr) serializeParametricPlanBody(w, *plan.tilePlan);
  w.str(plan.parametricReason);
  // Codegen tier (plan format v4): the size-generic record that lets the
  // binder serve further sizes from disk with no re-emission.
  const bool haveRecord = plan.haveRecord && plan.record != nullptr;
  w.boolean(haveRecord);
  if (haveRecord) {
    writeCompileOptionsInto(w, plan.recordOptions);
    writeCompileResultInto(w, *plan.record);
  }
  return w.take();
}

std::shared_ptr<const FamilyPlan> deserializeFamilyPlan(std::string_view bytes) {
  ByteReader r(bytes);
  auto plan = std::make_shared<FamilyPlan>();
  try {
    expectTag(r, kTagFamilyPlan, "FamilyPlan");
    plan->haveDeps = r.boolean();
    plan->deps = readList<Dependence>(r, [](ByteReader& rr) { return readDependence(rr); });
    plan->haveTransform = r.boolean();
    if (plan->haveTransform) plan->transformedTemplate = readBlock(r);
    plan->plan = readParallelismPlan(r);
    expectTag(r, kTagList, "applied skews");
    u64 nskews = r.count();
    for (u64 i = 0; i < nskews; ++i) {
      int target = r.intv();
      int src = r.intv();
      i64 factor = r.i64v();
      plan->appliedSkews.push_back({target, {src, factor}});
    }
    if (r.boolean())
      plan->tilePlan =
          std::make_shared<const ParametricTilePlan>(deserializeParametricPlanBody(r));
    plan->parametricReason = r.str();
    if (r.boolean()) {
      plan->recordOptions = readCompileOptionsFrom(r);
      plan->record = std::make_shared<const CompileResult>(readCompileResultFrom(r));
      plan->haveRecord = true;
      // Every bind clones the record; settle its answers once, here.
      settleDerivedAnswers(*plan->record);
    }
    r.expectEnd();
  } catch (const ApiError& e) {
    // Reconstructed values are validated with API preconditions (e.g. a
    // malformed transformed block); surface them as decode failures.
    throw SerializeError(std::string("family plan decode failed: ") + e.what());
  }
  return plan;
}

}  // namespace emm
