#include "common/detmath.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace aropuf::detmath {

namespace detail {

void domain_error(const char* what) {
  throw std::invalid_argument(std::string("detmath: ") + what);
}

}  // namespace detail

namespace {

using namespace detail;

/// Biased exponent field of x.
int exponent_field(double x) noexcept { return static_cast<int>((bits(x) >> 52) & 0x7ff); }

/// x = n pi/2 + (a + da) with |a| <= pi/4 (a little more after rounding);
/// returns n.  fdlibm's medium-size reduction: a second and third 33-bit
/// piece of pi/2 join only when cancellation ate the first one's accuracy.
std::int64_t reduce_pio2(double x, double* a, double* da) {
  if (!(x >= -kMaxTrigArg && x <= kMaxTrigArg)) {
    domain_error("sin/cos argument outside [-2^19, 2^19]");
  }
  const double fn = (x * kInvPio2 + kRoundShift) - kRoundShift;
  double r = x - fn * kPio2_1;
  double w = fn * kPio2_1t;
  double y = r - w;
  const int ex = exponent_field(x);
  if (ex - exponent_field(y) > 16) {
    double t = r;
    w = fn * kPio2_2;
    r = t - w;
    w = fn * kPio2_2t - ((t - r) - w);
    y = r - w;
    if (ex - exponent_field(y) > 49) {
      t = r;
      w = fn * kPio2_3;
      r = t - w;
      w = fn * kPio2_3t - ((t - r) - w);
      y = r - w;
    }
  }
  *a = y;
  *da = (r - y) - w;
  return static_cast<std::int64_t>(fn);
}

/// sin(x + y) for |x| <= ~pi/4, y the reduction's tail.
double kernel_sin(double x, double y) noexcept {
  const double* s = kSinPoly;
  const double z = x * x;
  const double w = z * z;
  const double r = (s[1] + z * (s[2] + z * s[3])) + (z * w) * (s[4] + z * s[5]);
  const double v = z * x;
  return x - (((z * (0.5 * y - v * r)) - y) - v * s[0]);
}

/// cos(x + y) for |x| <= ~pi/4, y the reduction's tail.
double kernel_cos(double x, double y) noexcept {
  const double* c = kCosPoly;
  const double z = x * x;
  const double w = z * z;
  const double r = z * (c[0] + z * (c[1] + z * c[2])) + (w * w) * (c[3] + z * (c[4] + z * c[5]));
  const double hz = 0.5 * z;
  const double one_minus_hz = 1.0 - hz;
  return one_minus_hz + (((1.0 - one_minus_hz) - hz) + (z * r - x * y));
}

}  // namespace

double exp(double x) {
  if (!in_exp_domain(x)) domain_error("exp argument outside [-512, 512]");
  return exp_inline(x, 0.0);
}

double sin(double x) {
  double a = 0.0;
  double da = 0.0;
  switch (reduce_pio2(x, &a, &da) & 3) {
    case 0: return kernel_sin(a, da);
    case 1: return kernel_cos(a, da);
    case 2: return -kernel_sin(a, da);
    default: return -kernel_cos(a, da);
  }
}

double cos(double x) {
  double a = 0.0;
  double da = 0.0;
  switch (reduce_pio2(x, &a, &da) & 3) {
    case 0: return kernel_cos(a, da);
    case 1: return -kernel_sin(a, da);
    case 2: return -kernel_cos(a, da);
    default: return kernel_sin(a, da);
  }
}

}  // namespace aropuf::detmath
