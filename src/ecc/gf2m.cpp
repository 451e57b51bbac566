#include "ecc/gf2m.hpp"

#include "common/check.hpp"

namespace aropuf {

std::uint32_t GF2m::default_primitive_poly(int m) {
  // Conventional choices (lowest-weight primitive trinomials/pentanomials).
  switch (m) {
    case 3:  return 0x0B;    // x^3 + x + 1
    case 4:  return 0x13;    // x^4 + x + 1
    case 5:  return 0x25;    // x^5 + x^2 + 1
    case 6:  return 0x43;    // x^6 + x + 1
    case 7:  return 0x89;    // x^7 + x^3 + 1
    case 8:  return 0x11D;   // x^8 + x^4 + x^3 + x^2 + 1
    case 9:  return 0x211;   // x^9 + x^4 + 1
    case 10: return 0x409;   // x^10 + x^3 + 1
    case 11: return 0x805;   // x^11 + x^2 + 1
    case 12: return 0x1053;  // x^12 + x^6 + x^4 + x + 1
    case 13: return 0x201B;  // x^13 + x^4 + x^3 + x + 1
    case 14: return 0x4443;  // x^14 + x^10 + x^6 + x + 1
    default:
      ARO_REQUIRE(false, "GF(2^m) supports m in [3, 14]");
      return 0;
  }
}

GF2m::GF2m(int m) : GF2m(m, default_primitive_poly(m)) {}

GF2m::GF2m(int m, std::uint32_t primitive_poly)
    : m_(m), size_(1U << m), poly_(primitive_poly) {
  ARO_REQUIRE(m >= 3 && m <= 14, "GF(2^m) supports m in [3, 14]");
  ARO_REQUIRE((primitive_poly >> m) == 1U, "primitive polynomial must have degree m");
  build_tables();
}

void GF2m::build_tables() {
  exp_.assign(2 * order(), 0);
  log_.assign(size_, 0);
  std::uint32_t value = 1;
  for (std::uint32_t i = 0; i < order(); ++i) {
    exp_[i] = value;
    log_[value] = i;
    value <<= 1;
    if (value & size_) value ^= poly_;
  }
  ARO_REQUIRE(value == 1, "polynomial is not primitive for this m");
  // Doubled table: exp_[i + order] == exp_[i], so mul avoids a modulo.
  for (std::uint32_t i = 0; i < order(); ++i) exp_[order() + i] = exp_[i];
}

std::uint32_t GF2m::mul(std::uint32_t a, std::uint32_t b) const {
  ARO_REQUIRE(a < size_ && b < size_, "operand outside field");
  if (a == 0 || b == 0) return 0;
  return exp_[log_[a] + log_[b]];
}

std::uint32_t GF2m::inv(std::uint32_t a) const {
  ARO_REQUIRE(a != 0, "zero has no inverse");
  ARO_REQUIRE(a < size_, "operand outside field");
  return exp_[order() - log_[a]];
}

std::uint32_t GF2m::div(std::uint32_t a, std::uint32_t b) const {
  ARO_REQUIRE(b != 0, "division by zero");
  ARO_REQUIRE(a < size_ && b < size_, "operand outside field");
  if (a == 0) return 0;
  return exp_[log_[a] + order() - log_[b]];
}

std::uint32_t GF2m::alpha_pow(std::int64_t e) const {
  const auto n = static_cast<std::int64_t>(order());
  std::int64_t r = e % n;
  if (r < 0) r += n;
  return exp_[static_cast<std::size_t>(r)];
}

std::uint32_t GF2m::log(std::uint32_t a) const {
  ARO_REQUIRE(a != 0, "discrete log of zero");
  ARO_REQUIRE(a < size_, "operand outside field");
  return log_[a];
}

std::uint32_t GF2m::pow(std::uint32_t a, std::uint64_t e) const {
  ARO_REQUIRE(a < size_, "operand outside field");
  if (e == 0) return 1;
  if (a == 0) return 0;
  // Reduce e first: log_[a] * e would wrap 64 bits for e >= 2^50.
  const std::uint64_t le = (static_cast<std::uint64_t>(log_[a]) * (e % order())) % order();
  return exp_[static_cast<std::size_t>(le)];
}

}  // namespace aropuf
