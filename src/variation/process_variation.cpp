#include "variation/process_variation.hpp"

#include <cmath>

#include "common/detmath.hpp"

namespace aropuf {

namespace {

/// sin(2 pi * turns + phase), with the whole turns dropped first (exactly,
/// by floor): the argument stays in [phase, 2 pi + phase) for any array, well
/// inside detmath::sin's domain.
double ripple(double turns, double phase) {
  return detmath::sin(2.0 * M_PI * (turns - std::floor(turns)) + phase);
}

}  // namespace

DieVariation::DieVariation(const TechnologyParams& tech, std::uint64_t die_seed)
    : tech_(&tech),
      global_([&] {
        Xoshiro256 rng(SplitMix64(die_seed ^ 0x676c6f62616cULL /* "global" */).next());
        return rng.gaussian(0.0, tech.sigma_vth_global);
      }()),
      field_(tech.sigma_vth_spatial, tech.spatial_correlation_length, die_seed) {
  tech.validate();
}

std::vector<Volts> DieVariation::static_offsets(std::span<const Position> positions) const {
  std::vector<Volts> offsets(positions.size());
  field_.evaluate(positions, offsets);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    offsets[i] = combine(positions[i], offsets[i]);
  }
  return offsets;
}

Volts DieVariation::systematic_offset(Position p) const noexcept {
  const double amp = tech_->layout_systematic_amplitude;
  if (amp == 0.0) return 0.0;
  const double wavelength = tech_->layout_ripple_wavelength;
  // Smooth, die-independent pattern: a supply IR-drop gradient down the
  // columns plus litho ripples along both axes.  Component weights are
  // calibrated (see DESIGN.md §5) so that the conventional distant pairing
  // (which spans half the array in y) picks up an equivalent ~0.45 sigma of
  // systematic bias (inter-chip HD ≈ 45 %), while adjacent pairs (delta-x of
  // one pitch) see only the gentle x ripple (inter-chip HD ≈ 49.7 %).
  constexpr double kGradientY = 0.02;   // per pitch
  constexpr double kRippleY = 0.32;
  constexpr double kRippleX = 0.05;
  const double ripple_y = kRippleY * ripple(p.y / wavelength, 0.9);
  const double ripple_x = kRippleX * ripple(p.x / (0.67 * wavelength), 1.3);
  return amp * (kGradientY * p.y + ripple_y + ripple_x);
}

}  // namespace aropuf
