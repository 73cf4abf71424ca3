// Bank-conflict-aware parametric buffer packing (the paper's
// conflict-minimizing scratchpad layout scheme).
//
// The Section-3 planner gives every local buffer its per-dimension extent as
// a closed form over the block parameters (LocalBuffer::sizeExpr). This
// module turns those formulas into a packed, banked arena layout:
//
//  - each buffer's innermost dimension is padded so the padded row pitch is
//    coprime with the scratchpad bank count — unit-strided warp accesses
//    (lane index in the innermost dimension) already hit distinct banks, and
//    tile-strided accesses (lane index in an OUTER dimension, whose bank
//    stride is the row pitch) now do too, instead of serializing when the
//    natural pitch shares a factor with the bank count;
//  - base offsets are assigned by a prefix sum rounded up to bank-row
//    multiples, so packing buffers back to back never rotates a buffer's
//    bank assignment;
//  - the total padded footprint stays a SymExpr over the block parameters,
//    so it can be checked against the scratchpad budget both concretely (at
//    the sample binding) and as an interval over a parameter box — the same
//    discipline as ParametricTilePlan::footprintInterval.
//
// Padding changes allocation strides only, never logical indices, so padded
// and unpadded units are semantically identical (the interpreter oracle
// certifies this; see tests/buffer_layout_test.cpp). When the padded
// footprint exceeds the budget the planner falls back to the unpadded
// layout and says why in BufferLayout::note.
#pragma once

#include <string>
#include <vector>

#include "ir/ast.h"
#include "sym/sym_expr.h"

namespace emm {

/// Scratchpad banking of the target machine (gpusim::Machine mirrors this).
/// banks <= 1 models an unbanked store: no padding is ever added.
struct BankDescriptor {
  i64 banks = 16;
  i64 widthBytes = 4;

  static constexpr void fields(auto& v) {
    v.tag(kTagNone, "BankDescriptor");
    v("banks", &BankDescriptor::banks);
    v("widthBytes", &BankDescriptor::widthBytes);
  }
};

/// Placement of one local buffer inside the packed arena. All expressions
/// are over the owning CodeUnit's source parameters (by index into
/// source->paramNames), with tile origins never mentioned — the layout is
/// valid for every member of a kernel family.
struct BufferLayoutEntry {
  std::string name;
  std::vector<SymPtr> extent;  ///< logical extent per dimension
  i64 rowPadElems = 0;         ///< innermost-dimension conflict padding
  SymPtr offsetElems;          ///< arena base offset, elements
  SymPtr footprintElems;       ///< padded footprint, elements

  static constexpr void fields(auto& v) {
    v.tag(kTagBufferLayoutEntry, "BufferLayoutEntry");
    v("name", &BufferLayoutEntry::name);
    v("extent", &BufferLayoutEntry::extent);
    v("rowPadElems", &BufferLayoutEntry::rowPadElems);
    v("offsetElems", &BufferLayoutEntry::offsetElems);
    v("footprintElems", &BufferLayoutEntry::footprintElems);
  }
};

/// A packed arena layout for a CodeUnit's local buffers.
struct BufferLayout {
  BankDescriptor bank;
  i64 elementBytes = 4;
  /// True when conflict padding is in effect; false for the unpadded
  /// fallback (or when every natural pitch was already conflict-free).
  bool padded = false;
  /// Human-readable record of a fallback decision (empty otherwise).
  std::string note;
  std::vector<BufferLayoutEntry> buffers;
  SymPtr totalElems;  ///< arena size in elements, padded and bank-aligned

  /// Total padding overhead at a concrete binding, in bytes.
  i64 paddingBytes(const std::vector<i64>& params) const;
  /// Arena size at a concrete binding, in bytes.
  i64 totalBytes(const std::vector<i64>& params) const;
  /// Interval enclosure of the arena size (elements) over a parameter box.
  SymInterval totalElemsInterval(const std::vector<SymInterval>& paramBox) const;

  static constexpr void fields(auto& v) {
    v.tag(kTagBufferLayout, "BufferLayout");
    v("bank", &BufferLayout::bank);
    v("elementBytes", &BufferLayout::elementBytes);
    v("padded", &BufferLayout::padded);
    v("note", &BufferLayout::note);
    v("buffers", &BufferLayout::buffers);
    v.nullable("totalElems", &BufferLayout::totalElems);
  }
};

struct BufferLayoutOptions {
  BankDescriptor bank;
  i64 elementBytes = 4;
  i64 memLimitBytes = 16 * 1024;
  /// Sample binding of the unit's leading source parameters (problem sizes;
  /// tile origins stay unbound). Pads are chosen at this binding.
  IntVec paramValues;
  /// Optional per-parameter box for the symbolic budget check; empty means
  /// the point box at paramValues. Must cover every parameter the extent
  /// formulas mention when non-empty.
  std::vector<SymInterval> paramBox;
};

/// Plans the packed layout for `unit`'s local buffers. Never throws on
/// budget overflow — it falls back to the unpadded layout and records the
/// reason in BufferLayout::note.
BufferLayout planBufferLayout(const CodeUnit& unit, const BufferLayoutOptions& options);

/// Writes the layout's padding into the unit's LocalBuffers (by name), so
/// the interpreter and every emitter allocate the padded geometry.
void applyBufferLayout(CodeUnit& unit, const BufferLayout& layout);

}  // namespace emm
