// Four-lane detmath::pow for TUs compiled with -mavx2 (the delay kernel's
// and detmath_avx2.cpp).
//
// pow4 runs detmath::pow's operation sequence (detmath.cpp) on four lanes:
// the same table entries, the same exactly rounded sub/mul/add in the same
// association, and the same integer operations on bit patterns.  Two
// scalar steps have no AVX2 instruction and are rewritten exactly: the
// exponent k comes from a sign-extended 12-bit field placed in the low bits
// of 1.5 * 2^52 (k is a small integer, so both forms give k exactly), and
// the tables are read with gathers.  So every lane equals the scalar pow
// bit for bit; tests/common/detmath_test.cpp compares them on a million
// inputs and the table edges.  A lane outside pow's fast domain (zero, a
// subnormal, negative or non-finite x, or |y ln x| > kMaxExpArg) sends all
// four lanes through the scalar pow, which returns the same bits for valid
// lanes and fails the contract for invalid ones.
#pragma once

#if !defined(__AVX2__)
#error "common/detmath_avx2.hpp needs a TU compiled with -mavx2"
#endif

#include <immintrin.h>

#include <cstdint>
#include <limits>

#include "common/detmath.hpp"

namespace aropuf::detmath::detail {

/// The scalar pow on each lane: the slow path of pow4.
inline __m256d pow_each_lane(__m256d x, double y) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, x);
  for (double& lane : lanes) lane = detmath::pow(lane, y);
  return _mm256_load_pd(lanes);
}

inline __m256d splat(double v) noexcept { return _mm256_set1_pd(v); }
inline __m256i splat_bits(std::uint64_t v) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// detmath::pow(x[lane], y) for each of four lanes, bit-identical to it.
inline __m256d pow4(__m256d x, double y) {
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  const __m256i ix = _mm256_castpd_si256(x);
  const __m256d x_ok = _mm256_and_pd(_mm256_cmp_pd(x, splat(kMinNormal), _CMP_GE_OQ),
                                     _mm256_cmp_pd(x, splat(kMaxFinite), _CMP_LE_OQ));

  // --- log_inline ---------------------------------------------------------
  const __m256i tmp = _mm256_sub_epi64(ix, splat_bits(kLogOffset));
  const __m256i i =
      _mm256_and_si256(_mm256_srli_epi64(tmp, 52 - kTableBits), splat_bits(kTableMask));
  // k = tmp >> 52 (arithmetic): sign-extend the 12-bit field into the low
  // bits of 1.5 * 2^52, then subtract 1.5 * 2^52.
  const __m256i kfield = _mm256_xor_si256(_mm256_srli_epi64(tmp, 52), splat_bits(0x800));
  const __m256i kbits = _mm256_add_epi64(kfield, splat_bits(0x4338000000000000ULL - 0x800));
  const __m256d kd = _mm256_sub_pd(_mm256_castsi256_pd(kbits), splat(kRoundShift));
  const __m256i iz = _mm256_sub_epi64(ix, _mm256_and_si256(tmp, splat_bits(0xfffULL << 52)));
  const __m256d z = _mm256_castsi256_pd(iz);
  const __m256d invc = _mm256_i64gather_pd(kLogInvc, i, 8);
  const __m256d logc = _mm256_i64gather_pd(kLogC, i, 8);
  const __m256d logctail = _mm256_i64gather_pd(kLogCTail, i, 8);

  const __m256d zhi = _mm256_castsi256_pd(
      _mm256_and_si256(_mm256_add_epi64(iz, splat_bits(1ULL << 31)), splat_bits(~0ULL << 32)));
  const __m256d zlo = _mm256_sub_pd(z, zhi);
  const __m256d rhi = _mm256_sub_pd(_mm256_mul_pd(zhi, invc), splat(1.0));
  const __m256d rlo = _mm256_mul_pd(zlo, invc);
  const __m256d r = _mm256_add_pd(rhi, rlo);

  const __m256d t1 = _mm256_add_pd(_mm256_mul_pd(kd, splat(kLn2Hi)), logc);
  const __m256d t2 = _mm256_add_pd(t1, r);
  const __m256d lo1 = _mm256_add_pd(_mm256_mul_pd(kd, splat(kLn2Lo)), logctail);
  const __m256d lo2 = _mm256_add_pd(_mm256_sub_pd(t1, t2), r);

  const __m256d ar = _mm256_mul_pd(splat(-0.5), r);
  const __m256d ar2 = _mm256_mul_pd(r, ar);
  const __m256d ar3 = _mm256_mul_pd(r, ar2);
  const __m256d arhi = _mm256_mul_pd(splat(-0.5), rhi);
  const __m256d arhi2 = _mm256_mul_pd(rhi, arhi);
  const __m256d hi = _mm256_add_pd(t2, arhi2);
  const __m256d lo3 = _mm256_mul_pd(rlo, _mm256_add_pd(ar, arhi));
  const __m256d lo4 = _mm256_add_pd(_mm256_sub_pd(t2, hi), arhi2);
  const double* a = kLogPoly;
  const auto lin = [&](int j) {  // a[j] + r * a[j + 1]
    return _mm256_add_pd(splat(a[j]), _mm256_mul_pd(r, splat(a[j + 1])));
  };
  const __m256d inner = _mm256_add_pd(lin(2), _mm256_mul_pd(ar2, lin(4)));
  const __m256d p = _mm256_mul_pd(ar3, _mm256_add_pd(lin(0), _mm256_mul_pd(ar2, inner)));
  const __m256d lo =
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(_mm256_add_pd(lo1, lo2), lo3), lo4), p);
  const __m256d log_hi = _mm256_add_pd(hi, lo);
  const __m256d log_lo = _mm256_add_pd(_mm256_sub_pd(hi, log_hi), lo);

  // --- y * log x as ehi + elo ----------------------------------------------
  const double yhi = from_bits(bits(y) & (~0ULL << 27));
  const __m256d lhi = _mm256_and_pd(log_hi, _mm256_castsi256_pd(splat_bits(~0ULL << 27)));
  const __m256d llo = _mm256_add_pd(_mm256_sub_pd(log_hi, lhi), log_lo);
  const __m256d ehi = _mm256_mul_pd(splat(yhi), lhi);
  const __m256d elo =
      _mm256_add_pd(_mm256_mul_pd(splat(y - yhi), lhi), _mm256_mul_pd(splat(y), llo));

  const __m256d abs_ehi = _mm256_andnot_pd(splat(-0.0), ehi);
  const __m256d ok = _mm256_and_pd(x_ok, _mm256_cmp_pd(abs_ehi, splat(kMaxExpArg), _CMP_LE_OQ));
  if (_mm256_movemask_pd(ok) != 0xF || !(y > 0.0 && y <= kMaxFinite)) return pow_each_lane(x, y);

  // --- exp_inline(ehi, elo) -------------------------------------------------
  const __m256d kd_shifted = _mm256_add_pd(_mm256_mul_pd(splat(kInvLn2N), ehi), splat(kRoundShift));
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd_e = _mm256_sub_pd(kd_shifted, splat(kRoundShift));
  __m256d er = _mm256_sub_pd(_mm256_sub_pd(ehi, _mm256_mul_pd(kd_e, splat(kLn2HiN))),
                             _mm256_mul_pd(kd_e, splat(kLn2LoN)));
  er = _mm256_add_pd(er, elo);
  const __m256i idx = _mm256_and_si256(ki, splat_bits(kTableMask));
  const __m256i top = _mm256_slli_epi64(_mm256_sub_epi64(ki, idx), 52 - kTableBits);
  const __m256d tail = _mm256_i64gather_pd(kExpTail, idx, 8);
  const __m256d scale = _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_castpd_si256(_mm256_i64gather_pd(kExpHead, idx, 8)), top));
  const __m256d er2 = _mm256_mul_pd(er, er);
  const double* c = kExpPoly;
  const __m256d poly_lo = _mm256_add_pd(splat(c[0]), _mm256_mul_pd(er, splat(c[1])));
  const __m256d poly_hi = _mm256_add_pd(splat(c[2]), _mm256_mul_pd(er, splat(c[3])));
  const __m256d etmp =
      _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(tail, er), _mm256_mul_pd(er2, poly_lo)),
                    _mm256_mul_pd(_mm256_mul_pd(er2, er2), poly_hi));
  return _mm256_add_pd(scale, _mm256_mul_pd(scale, etmp));
}

}  // namespace aropuf::detmath::detail
