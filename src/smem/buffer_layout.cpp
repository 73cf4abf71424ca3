#include "smem/buffer_layout.h"

#include <limits>
#include <numeric>

#include "support/diagnostics.h"

namespace emm {

namespace {

/// Index of `name` in the unit's parameter table.
int paramIndexOf(const std::vector<std::string>& names, const std::string& name) {
  for (size_t j = 0; j < names.size(); ++j)
    if (names[j] == name) return static_cast<int>(j);
  EMM_CHECK(false, "buffer extent mentions unknown parameter '" + name + "'");
  return -1;
}

SymPtr symFromAff(const AffExpr& e, const std::vector<std::string>& names, bool ceilMode) {
  std::vector<std::pair<i64, SymPtr>> terms;
  for (const auto& [name, coeff] : e.terms) {
    int j = paramIndexOf(names, name);
    terms.emplace_back(coeff, SymExpr::param(j, names[j]));
  }
  SymPtr num = SymExpr::affine(e.cnst, terms);
  if (e.den == 1) return num;
  SymPtr den = SymExpr::constant(e.den);
  return ceilMode ? SymExpr::ceilDiv(num, den) : SymExpr::floorDiv(num, den);
}

/// Compiles a BoundExpr to a SymExpr with the same rounding semantics as
/// BoundExpr::eval: max-of-ceil parts for lower bounds, min-of-floor for
/// upper bounds (extents use the latter).
SymPtr symFromBound(const BoundExpr& b, const std::vector<std::string>& names) {
  EMM_CHECK(!b.parts.empty(), "empty bound expression in buffer extent");
  SymPtr out;
  for (const AffExpr& part : b.parts) {
    SymPtr p = symFromAff(part, names, b.isMax);
    out = out == nullptr ? p : (b.isMax ? SymExpr::max(out, p) : SymExpr::min(out, p));
  }
  return out;
}

/// Smallest innermost pad in [0, banks) minimizing gcd(padded pitch in bank
/// words, banks) — 0 when the natural pitch is already conflict-free, and
/// the full-coprime pad (gcd 1) whenever one exists, which for power-of-two
/// bank counts is any pad making the padded pitch odd.
i64 choosePad(i64 extent, i64 wordsPerElem, i64 banks) {
  if (banks <= 1 || extent <= 0) return 0;
  i64 bestPad = 0;
  i64 bestGcd = std::numeric_limits<i64>::max();
  for (i64 p = 0; p < banks; ++p) {
    i64 g = std::gcd(mulChecked(addChecked(extent, p), wordsPerElem), banks);
    if (g < bestGcd) {
      bestGcd = g;
      bestPad = p;
      if (g == 1) break;
    }
  }
  return bestPad;
}

}  // namespace

i64 BufferLayout::paddingBytes(const std::vector<i64>& params) const {
  i64 elems = 0;
  for (const BufferLayoutEntry& e : buffers) {
    if (e.rowPadElems == 0 || e.extent.empty()) continue;
    i64 rows = 1;
    for (size_t d = 0; d + 1 < e.extent.size(); ++d)
      rows = mulChecked(rows, std::max<i64>(0, e.extent[d]->eval(params)));
    elems = addChecked(elems, mulChecked(rows, e.rowPadElems));
  }
  return mulChecked(elems, elementBytes);
}

i64 BufferLayout::totalBytes(const std::vector<i64>& params) const {
  if (totalElems == nullptr) return 0;
  return mulChecked(totalElems->eval(params), elementBytes);
}

SymInterval BufferLayout::totalElemsInterval(const std::vector<SymInterval>& paramBox) const {
  if (totalElems == nullptr) return {0, 0};
  return totalElems->evalInterval(paramBox);
}

BufferLayout planBufferLayout(const CodeUnit& unit, const BufferLayoutOptions& options) {
  EMM_CHECK(unit.source != nullptr, "CodeUnit without source block");
  const std::vector<std::string>& names = unit.source->paramNames;

  // Sample binding: the leading problem-size parameters; trailing (origin)
  // parameters never appear in extent formulas, so zeros are inert.
  std::vector<i64> sample(names.size(), 0);
  for (size_t j = 0; j < names.size() && j < options.paramValues.size(); ++j)
    sample[j] = options.paramValues[j];
  std::vector<SymInterval> box = options.paramBox;
  if (box.empty())
    for (i64 v : sample) box.push_back({v, v});
  EMM_CHECK(box.size() >= names.size(), "parameter box shorter than the parameter table");

  const i64 wordsPerElem =
      std::max<i64>(1, options.elementBytes / std::max<i64>(1, options.bank.widthBytes));

  // Builds one candidate arena: with or without conflict pads, with or
  // without bank-row-aligned base offsets (alignment keeps packing from
  // rotating a buffer's bank assignment, so it travels with the pads).
  auto build = [&](bool withPads, bool aligned) {
    BufferLayout layout;
    layout.bank = options.bank;
    layout.elementBytes = options.elementBytes;
    layout.totalElems = SymExpr::constant(0);
    SymPtr offset = SymExpr::constant(0);
    SymPtr banksConst = SymExpr::constant(std::max<i64>(1, options.bank.banks));
    bool anyPad = false;
    for (const LocalBuffer& b : unit.localBuffers) {
      BufferLayoutEntry e;
      e.name = b.name;
      for (int d = 0; d < b.ndim; ++d) e.extent.push_back(symFromBound(b.sizeExpr[d], names));
      // Conflict padding targets the row pitch, which only exists (as a
      // lane stride distinct from 1) for buffers with at least two
      // dimensions; 1-D buffers are accessed unit-strided and stay as-is.
      if (withPads && b.ndim >= 2)
        e.rowPadElems =
            choosePad(e.extent.back()->eval(sample), wordsPerElem, options.bank.banks);
      anyPad |= e.rowPadElems != 0;
      SymPtr footprint = SymExpr::constant(1);
      for (int d = 0; d < b.ndim; ++d) {
        SymPtr ext = e.extent[d];
        if (d == b.ndim - 1 && e.rowPadElems != 0)
          ext = SymExpr::add(ext, SymExpr::constant(e.rowPadElems));
        footprint = SymExpr::mul(footprint, ext);
      }
      e.footprintElems = footprint;
      e.offsetElems = offset;
      SymPtr end = SymExpr::add(offset, footprint);
      layout.totalElems = end;
      offset = aligned && options.bank.banks > 1
                   ? SymExpr::mul(banksConst, SymExpr::ceilDiv(end, banksConst))
                   : end;
      layout.buffers.push_back(std::move(e));
    }
    layout.padded = anyPad;
    return layout;
  };

  BufferLayout packed = build(true, true);
  const i64 packedBytes = packed.totalBytes(sample);
  const SymInterval enclosure = packed.totalElemsInterval(box);
  const i64 worstBytes = mulChecked(enclosure.hi, options.elementBytes);
  if (packedBytes <= options.memLimitBytes && worstBytes <= options.memLimitBytes)
    return packed;

  // The padded arena can exceed the budget the (unpadded) tile search
  // certified against; conflicts are cheaper than spilling, so fall back.
  BufferLayout flat = build(false, false);
  flat.padded = false;
  flat.note = "padded footprint " + std::to_string(std::max(packedBytes, worstBytes)) +
              " bytes exceeds the " + std::to_string(options.memLimitBytes) +
              "-byte scratchpad budget; unpadded fallback";
  const i64 flatWorst =
      mulChecked(flat.totalElemsInterval(box).hi, options.elementBytes);
  if (flatWorst > options.memLimitBytes)
    flat.note += " (raw footprint " + std::to_string(flatWorst) +
                 " bytes is itself over budget on this path)";
  return flat;
}

void applyBufferLayout(CodeUnit& unit, const BufferLayout& layout) {
  for (const BufferLayoutEntry& e : layout.buffers) {
    for (LocalBuffer& b : unit.localBuffers.mut()) {
      if (b.name != e.name) continue;
      b.pad.clear();
      if (e.rowPadElems != 0 && b.ndim > 0) {
        b.pad.assign(b.ndim, 0);
        b.pad.back() = e.rowPadElems;
      }
      break;
    }
  }
}

}  // namespace emm
