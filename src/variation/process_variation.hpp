// Composition of all Vth variation components for one die.
//
//   Vth(device) = Vth_nom
//               + global(die)            — inter-die shift, N(0, σ_global)
//               + spatial(x, y | die)    — within-die correlated field
//               + systematic(x, y)       — layout pattern SHARED by all dies
//               + local(device)          — white mismatch, N(0, σ_local)
//
// The systematic component is the reproduction's model for why conventional
// (distant-pair) RO-PUFs show inter-chip HD below 50 %: IR-drop gradients and
// litho systematics repeat on every die, so a pair spanning the array is
// biased the same way on every chip.  Adjacent pairs (the ARO-PUF layout
// discipline) see only its spatial derivative, which is negligible at one
// RO pitch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "device/technology.hpp"
#include "variation/spatial_field.hpp"

namespace aropuf {

class DieVariation {
 public:
  /// `die_seed` identifies the die; dies with different seeds have
  /// independent global shifts and spatial fields.  The systematic pattern
  /// depends only on `tech`.
  DieVariation(const TechnologyParams& tech, std::uint64_t die_seed);

  /// Inter-die Vth shift (same for every device on the die).
  [[nodiscard]] Volts global_offset() const noexcept { return global_; }

  /// Within-die correlated component at `p` (die-specific).
  [[nodiscard]] Volts spatial_offset(Position p) const { return field_(p); }

  /// Layout-systematic component at `p` (identical on all dies).
  [[nodiscard]] Volts systematic_offset(Position p) const noexcept;

  /// One device's white local mismatch for its standard normal draw:
  /// 0.0 + sigma * normal, the sum rng.gaussian(0.0, sigma) forms (a -0.0
  /// product gives +0.0).
  [[nodiscard]] Volts local_sample(double normal) const noexcept {
    return 0.0 + tech_->sigma_vth_local * normal;
  }

  /// The three position-dependent (device-independent) components combined:
  /// global + spatial + systematic.  All devices of one RO share a position,
  /// so callers hoist this per RO and add local_sample() per device; the sum
  /// keeps total_offset()'s left-to-right association, so the hoist is
  /// bit-identical.
  [[nodiscard]] Volts static_offset(Position p) const {
    return combine(p, spatial_offset(p));
  }

  /// static_offset() at every position of an array, with the spatial field
  /// evaluated once for the whole array (SpatialField::evaluate) instead of
  /// once per position; offsets[i] == static_offset(positions[i]) bit for bit.
  [[nodiscard]] std::vector<Volts> static_offsets(std::span<const Position> positions) const;

  /// All four components combined for a device at `p`.
  [[nodiscard]] Volts total_offset(Position p, Xoshiro256& local_rng) const {
    return static_offset(p) + local_sample(local_rng.gaussian());
  }

 private:
  /// global + spatial + systematic, left to right: the one place the static
  /// components are summed, shared by static_offset() and static_offsets().
  [[nodiscard]] Volts combine(Position p, Volts spatial) const noexcept {
    return global_ + spatial + systematic_offset(p);
  }

  const TechnologyParams* tech_;
  Volts global_;
  SpatialField field_;
};

}  // namespace aropuf
