// Checked 64-bit integer arithmetic with __int128 intermediates.
//
// All polyhedral computations use int64 coefficients. Row combinations in
// Fourier-Motzkin elimination multiply coefficients, so intermediates are
// computed in __int128 and narrowed with an explicit range check.
#pragma once

#include <cstdint>
#include <numeric>

#include "support/diagnostics.h"

namespace emm {

using i64 = long long;  // 64-bit everywhere we build; matches the %lld printf style
using i128 = __int128;

/// Narrow an __int128 to int64. Overflow throws ApiError rather than
/// aborting: whether a combination overflows depends on the *input* values
/// (a pathological program, or hostile serialized bytes mid-decode), so it
/// is a recoverable precondition failure, not a broken internal invariant —
/// the pipeline turns it into an error diagnostic and the plan decoders
/// into a SerializeError.
[[noreturn, gnu::cold, gnu::noinline]] inline void throwOverflow() {
  throw ApiError("int64 overflow in exact arithmetic");
}

inline i64 narrow(i128 v) {
  if (v < static_cast<i128>(INT64_MIN) || v > static_cast<i128>(INT64_MAX)) throwOverflow();
  return static_cast<i64>(v);
}

/// a + b, a - b and a * b, throwing what narrow() throws on overflow.
inline i64 addChecked(i64 a, i64 b) {
  i64 r;
  if (__builtin_add_overflow(a, b, &r)) throwOverflow();
  return r;
}
inline i64 subChecked(i64 a, i64 b) {
  i64 r;
  if (__builtin_sub_overflow(a, b, &r)) throwOverflow();
  return r;
}
inline i64 mulChecked(i64 a, i64 b) {
  i64 r;
  if (__builtin_mul_overflow(a, b, &r)) throwOverflow();
  return r;
}

/// a*b + c*d in one checked expression (the FM row-combination primitive).
inline i64 mulAddChecked(i64 a, i64 b, i64 c, i64 d) {
  return narrow(static_cast<i128>(a) * b + static_cast<i128>(c) * d);
}

/// Non-negative gcd; gcd(0,0) == 0. INT64_MIN has no int64 magnitude, so
/// like an overflow in narrow() it throws ApiError (hostile plan bytes can
/// carry it into a polyhedron that is later simplified).
inline i64 gcd64(i64 a, i64 b) {
  EMM_REQUIRE(a != INT64_MIN && b != INT64_MIN, "int64 overflow in gcd");
  if (a < 0) a = -a;
  if (b < 0) b = -b;
  while (b != 0) {
    i64 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

inline i64 lcm64(i64 a, i64 b) {
  if (a == 0 || b == 0) return 0;
  i64 g = gcd64(a, b);
  return mulChecked(a / g, b < 0 ? -b : b);
}

/// Floor division (rounds toward negative infinity). A zero divisor is a
/// data-dependent precondition (see narrow), so it throws, not aborts.
inline i64 floorDiv(i64 a, i64 b) {
  EMM_REQUIRE(b != 0, "floorDiv by zero");
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Ceiling division (rounds toward positive infinity).
inline i64 ceilDiv(i64 a, i64 b) {
  EMM_REQUIRE(b != 0, "ceilDiv by zero");
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) ++q;
  return q;
}

}  // namespace emm
