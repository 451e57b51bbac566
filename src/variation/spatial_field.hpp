// Spatially correlated Gaussian random field over die coordinates.
//
// Within-die process variation is not white: neighbouring devices share
// lithography/anneal history, so their Vth offsets are correlated with a
// characteristic length of tens of microns.  The field is synthesised as a
// kernel-weighted sum of i.i.d. anchors on a coarse grid (spacing = the
// correlation length); weights use a Gaussian kernel and are normalized so
// the marginal at every point is N(0, sigma^2).
//
// Anchors are derived by hashing (seed, ix, iy), so the field is a pure
// function of (seed, position): fully deterministic, and two dies with
// different seeds get independent fields.  Each anchor costs a hash plus
// log/sqrt/cos, and an RO array reuses the same few anchors in every
// position's 7x7 window, so evaluate() draws the anchors a set of positions
// touches once, into a grid, and sums every window from it.  The 49 kernel
// weights of a window and their norm depend on the position and the
// correlation length only, never on the die, so each thread keeps the last
// array's weights and every later die of the same layout reuses them.
#pragma once

#include <cstdint>
#include <span>

#include "common/units.hpp"

namespace aropuf {

/// Die-local coordinates in RO-pitch units.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

class SpatialField {
 public:
  /// `sigma` — marginal standard deviation at every point;
  /// `correlation_length` — distance (same units as Position) at which
  /// correlation decays to ~0.45;
  /// `seed` — identity of this die's field.
  SpatialField(double sigma, double correlation_length, std::uint64_t seed);

  /// Field values at every point of `points` into `out` (same length); each
  /// marginally N(0, sigma^2).  The anchors of all the points' kernel windows
  /// are drawn once; out[i] depends only on points[i], never on the other
  /// points, so any batch gives the bits a one-point call gives.  The
  /// windows' weights come from a per-thread memo of the last batch, keyed
  /// on the correlation length and the exact points; the memo only skips
  /// recomputing them, so it never changes a bit.
  void evaluate(std::span<const Position> points, std::span<double> out) const;

  /// Field value at `p`: evaluate() of the one point, which bypasses the
  /// memo.
  [[nodiscard]] double operator()(Position p) const;

  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  [[nodiscard]] double correlation_length() const noexcept { return lambda_; }

 private:
  double sigma_;
  double lambda_;
  std::uint64_t seed_;
};

}  // namespace aropuf
