// The library's own transcendental functions: pow, exp, log, sin and cos.
//
// These decide PUF bits: the alpha-power delay law, the NBTI/HCI power laws
// and their Arrhenius factors, the Gaussian draws of process variation and
// the layout ripple all go through them.  Each is plain IEEE-754 double
// arithmetic over the fixed tables of detmath_tables.hpp (generated once by
// scripts/gen_detmath_tables.py): exactly rounded +, -, *, / and integer
// operations on bit patterns, never a libm call.  The build compiles every
// TU with -ffp-contract=off (GCC, Clang) and MSVC's default /fp:precise does
// not contract, so no compiler fuses a*b+c into a differently rounded op.
// So each function returns the same bits on every CPU, compiler and C
// library, and the pinned digests (tests/integration/determinism_test.cpp)
// hold everywhere, not only where one libm happens to run.
//
// pow, exp and log follow the non-FMA branch of the algorithm glibc >= 2.28
// uses for pow: a 128-entry log table carried in double-double, y * log x
// split into hi + lo, and exp through a 2^(j/128) table.  sin and cos use a
// three-step Cody-Waite reduction by pi/2 and polynomial kernels.  Each
// function states its domain, which covers every caller, and fails its
// contract (std::invalid_argument) outside it.  The error bounds below are
// measured against long double in tests/common/detmath_test.cpp.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/detmath_tables.hpp"

namespace aropuf::detmath {

/// Largest |x| exp accepts (and largest |y ln x| pow accepts).  Below
/// about -671 the final scale * (1 + tmp) would round tmp's share in the
/// subnormal range; glibc leaves this fast path at 512 too.
inline constexpr double kMaxExpArg = 512.0;

/// Largest |x| sin and cos accept: the reduction's quotient n stays below
/// 2^20, so n * (pi/2's 33-bit head) is exact.
inline constexpr double kMaxTrigArg = 0x1p19;

/// x^y for x == 0 or a positive normal x, and a finite y > 0 with
/// |y ln x| <= kMaxExpArg.  pow(0, y) == 0.  Error below 0.52 ULP.
/// Inline, so the delay kernels interleave the two pows of a stage.
[[nodiscard]] inline double pow(double x, double y);

/// e^x for |x| <= kMaxExpArg.  Error below 0.52 ULP.
[[nodiscard]] double exp(double x);

/// ln x for a positive normal x.  Error below 0.52 ULP.  Inline, like
/// pow, for the Gaussian draws of construction.
[[nodiscard]] inline double log(double x);

/// sqrt(-2 ln s / s), the factor the polar method scales an accepted pair
/// (u, v) by, for s = u^2 + v^2, a positive normal double (an accepted s is
/// in [2^-104, 1)).  Xoshiro256::gaussian() returns u and then v times it.
/// sqrt and / are exactly rounded IEEE operations, so, with log, the factor
/// has the same bits everywhere.
[[nodiscard]] inline double polar_factor(double s);

/// factors[i] = polar_factor(s[i]), four lanes at a time (polar_factors_avx2)
/// when the CPU executes AVX2 and one at a time otherwise: the same bits
/// either way.  `factors` may be `s` itself.  Every s[i] must be a positive
/// normal double; the four-lane path does not check it.
void polar_factors(std::span<const double> s, std::span<double> factors);

/// sin x for |x| <= kMaxTrigArg.  Error below 0.85 ULP.
[[nodiscard]] double sin(double x);

/// cos x for |x| <= kMaxTrigArg.  Error below 0.85 ULP.
[[nodiscard]] double cos(double x);

#if defined(AROPUF_SIMD_ENABLED)
/// out[i] = pow(x[i], y), four lanes at a time through the AVX2 sequence the
/// delay kernel runs (detmath_avx2.hpp); bit-identical to pow by
/// construction.  The caller checks that the CPU executes AVX2.
void pow_avx2(std::span<const double> x, double y, std::span<double> out);

/// polar_factors' four-lane path (detail::polar_factor4 of
/// detmath_avx2.hpp), the scalar polar_factor on the last s.size() % 4.
/// The caller checks that the CPU executes AVX2.
void polar_factors_avx2(std::span<const double> s, std::span<double> factors);
#endif

namespace detail {

/// Throws std::invalid_argument naming the broken precondition; out of
/// line, so the inline pow stays small.
[[noreturn]] void domain_error(const char* what);

inline constexpr std::uint64_t kTableMask = kTableSize - 1;
/// 1.5 * 2^52: adding it rounds a double below 2^51 to an integer, which
/// then sits in the low bits of the sum's pattern.
inline constexpr double kRoundShift = 0x1.8p52;
/// Bit pattern of the smallest normal double; x is positive normal when
/// bits(x) - kMinNormalBits < kNormalSpan.
inline constexpr std::uint64_t kMinNormalBits = 0x0010000000000000ULL;
inline constexpr std::uint64_t kNormalSpan = 0x7ff0000000000000ULL - kMinNormalBits;

inline std::uint64_t bits(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }
inline double from_bits(std::uint64_t b) noexcept { return std::bit_cast<double>(b); }

/// ln x for the positive normal x with pattern ix, as the double-double
/// result + *tail: x = 2^k z, ln x = k ln2 + ln c + log1p(z/c - 1).
inline double log_inline(std::uint64_t ix, double* tail) noexcept {
  const std::uint64_t tmp = ix - kLogOffset;
  const auto i = static_cast<std::size_t>((tmp >> (52 - kTableBits)) & kTableMask);
  const std::int64_t k = static_cast<std::int64_t>(tmp) >> 52;
  const std::uint64_t iz = ix - (tmp & (0xfffULL << 52));
  const double z = from_bits(iz);
  const double kd = static_cast<double>(k);
  const double invc = kLogInvc[i];
  const double logc = kLogC[i];
  const double logctail = kLogCTail[i];

  // zhi has 21 significant bits and invc 8, so zhi * invc - 1 is exact.
  const double zhi = from_bits((iz + (1ULL << 31)) & (~0ULL << 32));
  const double zlo = z - zhi;
  const double rhi = zhi * invc - 1.0;
  const double rlo = zlo * invc;
  const double r = rhi + rlo;

  // k * ln2hi + logc is exact: both are multiples of 2^-42.
  const double t1 = kd * kLn2Hi + logc;
  const double t2 = t1 + r;
  const double lo1 = kd * kLn2Lo + logctail;
  const double lo2 = (t1 - t2) + r;

  const double ar = -0.5 * r;
  const double ar2 = r * ar;
  const double ar3 = r * ar2;
  const double arhi = -0.5 * rhi;
  const double arhi2 = rhi * arhi;
  const double hi = t2 + arhi2;
  const double lo3 = rlo * (ar + arhi);
  const double lo4 = (t2 - hi) + arhi2;
  const double* a = kLogPoly;
  const double p =
      ar3 * ((a[0] + r * a[1]) + ar2 * ((a[2] + r * a[3]) + ar2 * (a[4] + r * a[5])));
  const double lo = (((lo1 + lo2) + lo3) + lo4) + p;
  const double y = hi + lo;
  *tail = (hi - y) + lo;
  return y;
}

/// True when |x| <= kMaxExpArg (false for NaN).
inline bool in_exp_domain(double x) noexcept {
  return (bits(x) & ~(1ULL << 63)) <= bits(kMaxExpArg);
}

/// e^(x + xtail) for |x| <= kMaxExpArg and |xtail| <= 2^-15:
/// x = k ln2/128 + r, e^x = 2^(k/128) e^r.
inline double exp_inline(double x, double xtail) noexcept {
  const double z = kInvLn2N * x;
  double kd = z + kRoundShift;
  const std::uint64_t ki = bits(kd);
  kd -= kRoundShift;
  double r = (x - kd * kLn2HiN) - kd * kLn2LoN;
  r += xtail;
  // ki - idx is 128 m plus the shift's pattern, which the shift drops: top
  // is m in the exponent field, and scale = 2^m * 2^(idx/128).
  const std::uint64_t idx = ki & kTableMask;
  const std::uint64_t top = (ki - idx) << (52 - kTableBits);
  const double tail = kExpTail[idx];
  const double scale = from_bits(bits(kExpHead[idx]) + top);
  const double r2 = r * r;
  const double* c = kExpPoly;
  const double tmp = ((tail + r) + r2 * (c[0] + r * c[1])) + (r2 * r2) * (c[2] + r * c[3]);
  return scale + scale * tmp;
}

}  // namespace detail

inline double log(double x) {
  using namespace detail;
  const std::uint64_t ix = bits(x);
  if (ix - kMinNormalBits >= kNormalSpan) domain_error("log needs a positive normal x");
  double tail = 0.0;
  return log_inline(ix, &tail);
}

inline double pow(double x, double y) {
  using namespace detail;
  if (!(y > 0.0 && y <= std::numeric_limits<double>::max())) {
    domain_error("pow needs a finite exponent y > 0");
  }
  const std::uint64_t ix = bits(x);
  if (ix - kMinNormalBits >= kNormalSpan) {
    if (ix != 0) domain_error("pow needs x == 0 or a positive normal x");
    return 0.0;
  }
  double lo = 0.0;
  const double hi = log_inline(ix, &lo);
  // y * (hi + lo) as ehi + elo: yhi * lhi is exact (26 + 26 bits).
  const double yhi = from_bits(bits(y) & (~0ULL << 27));
  const double ylo = y - yhi;
  const double lhi = from_bits(bits(hi) & (~0ULL << 27));
  const double llo = (hi - lhi) + lo;
  const double ehi = yhi * lhi;
  const double elo = ylo * lhi + y * llo;
  if (!in_exp_domain(ehi)) domain_error("pow needs |y ln x| <= 512");
  return exp_inline(ehi, elo);
}

inline double polar_factor(double s) { return std::sqrt(-2.0 * log(s) / s); }

}  // namespace aropuf::detmath
