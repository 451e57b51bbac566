#include "variation/spatial_field.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace aropuf {

namespace {
// Anchors within this many correlation lengths contribute to a point.
constexpr std::int64_t kKernelRadiusCells = 3;
constexpr std::int64_t kWindowSide = 2 * kKernelRadiusCells + 1;

/// Anchor-grid cell containing grid coordinate `g` (position / lambda).
std::int64_t cell_of(double g) { return static_cast<std::int64_t>(std::floor(g)); }
}  // namespace

SpatialField::SpatialField(double sigma, double correlation_length, std::uint64_t seed)
    : sigma_(sigma), lambda_(correlation_length), seed_(seed) {
  ARO_REQUIRE(sigma >= 0.0, "field sigma must be non-negative");
  ARO_REQUIRE(correlation_length > 0.0, "correlation length must be positive");
}

double SpatialField::anchor(std::int64_t ix, std::int64_t iy) const noexcept {
  // Hash the cell coordinates into two uniforms, then Box-Muller.  The +large
  // offsets keep ix/iy non-negative distinct patterns for negative cells.
  const auto ux = static_cast<std::uint64_t>(ix + (1LL << 32));
  const auto uy = static_cast<std::uint64_t>(iy + (1LL << 32));
  SplitMix64 h(seed_ ^ (ux * 0x9e3779b97f4a7c15ULL) ^ (uy * 0xc2b2ae3d27d4eb4fULL));
  const double u1 = (static_cast<double>(h.next() >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(h.next() >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

void SpatialField::evaluate(std::span<const Position> points, std::span<double> out) const {
  ARO_REQUIRE(points.size() == out.size(), "field output needs one slot per point");
  if (points.empty()) return;
  if (sigma_ == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }

  // The windows' cells: the points' cells widened by the kernel radius.
  std::int64_t x_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t x_hi = std::numeric_limits<std::int64_t>::min();
  std::int64_t y_lo = x_lo;
  std::int64_t y_hi = x_hi;
  for (const Position& p : points) {
    const std::int64_t cx = cell_of(p.x / lambda_);
    const std::int64_t cy = cell_of(p.y / lambda_);
    x_lo = std::min(x_lo, cx);
    x_hi = std::max(x_hi, cx);
    y_lo = std::min(y_lo, cy);
    y_hi = std::max(y_hi, cy);
  }
  const double box_cells =
      (static_cast<double>(x_hi) - static_cast<double>(x_lo) + kWindowSide) *
      (static_cast<double>(y_hi) - static_cast<double>(y_lo) + kWindowSide);
  if (box_cells > static_cast<double>(kWindowSide * kWindowSide) *
                      static_cast<double>(points.size())) {
    // Points too scattered for one grid to pay: one window per point.
    for (std::size_t i = 0; i < points.size(); ++i) {
      evaluate(points.subspan(i, 1), out.subspan(i, 1));
    }
    return;
  }

  // Anchor (ix, iy) sits at grid[(ix - x0) * height + (iy - y0)]: a window's
  // column is contiguous, in the order the sum below reads it.
  const std::int64_t x0 = x_lo - kKernelRadiusCells;
  const std::int64_t y0 = y_lo - kKernelRadiusCells;
  const std::int64_t width = x_hi - x_lo + kWindowSide;
  const std::int64_t height = y_hi - y_lo + kWindowSide;
  std::vector<double> grid(static_cast<std::size_t>(width * height));
  for (std::int64_t ix = 0; ix < width; ++ix) {
    for (std::int64_t iy = 0; iy < height; ++iy) {
      grid[static_cast<std::size_t>(ix * height + iy)] = anchor(x0 + ix, y0 + iy);
    }
  }

  for (std::size_t i = 0; i < points.size(); ++i) {
    const double gx = points[i].x / lambda_;
    const double gy = points[i].y / lambda_;
    const std::int64_t cx = cell_of(gx);
    const std::int64_t cy = cell_of(gy);
    double weighted = 0.0;
    double weight_sq = 0.0;
    for (std::int64_t ix = cx - kKernelRadiusCells; ix <= cx + kKernelRadiusCells; ++ix) {
      const double* column =
          grid.data() + (ix - x0) * height + (cy - kKernelRadiusCells - y0);
      for (std::int64_t iy = cy - kKernelRadiusCells; iy <= cy + kKernelRadiusCells; ++iy) {
        const double dx = gx - static_cast<double>(ix);
        const double dy = gy - static_cast<double>(iy);
        const double d2 = dx * dx + dy * dy;
        const double w = std::exp(-0.5 * d2);
        weighted += w * *column++;
        weight_sq += w * w;
      }
    }
    // Normalizing by sqrt(sum w^2) makes the marginal exactly N(0, sigma^2)
    // regardless of where the point falls relative to the anchor grid.
    out[i] = sigma_ * weighted / std::sqrt(weight_sq);
  }
}

double SpatialField::operator()(Position p) const {
  double value = 0.0;
  evaluate({&p, 1}, {&value, 1});
  return value;
}

}  // namespace aropuf
