// detmath::pow_avx2: the four-lane pow of detmath_avx2.hpp over a span,
// compiled with -mavx2 (see src/common/CMakeLists.txt).
#include "common/detmath.hpp"

#if defined(AROPUF_SIMD_ENABLED) && defined(__AVX2__)

#include "common/check.hpp"
#include "common/detmath_avx2.hpp"

namespace aropuf::detmath {

void pow_avx2(std::span<const double> x, double y, std::span<double> out) {
  ARO_REQUIRE(x.size() == out.size(), "pow_avx2 needs one output per input");
  const std::size_t lanes = x.size() - x.size() % 4;
  for (std::size_t i = 0; i < lanes; i += 4) {
    _mm256_storeu_pd(&out[i], detail::pow4(_mm256_loadu_pd(&x[i]), y));
  }
  for (std::size_t i = lanes; i < x.size(); ++i) out[i] = pow(x[i], y);
}

}  // namespace aropuf::detmath

#endif  // AROPUF_SIMD_ENABLED && __AVX2__
