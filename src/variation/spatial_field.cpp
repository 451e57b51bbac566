#include "variation/spatial_field.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {

namespace {
// Anchors within this many correlation lengths contribute to a point.
constexpr std::int64_t kKernelRadiusCells = 3;
constexpr std::int64_t kWindowSide = 2 * kKernelRadiusCells + 1;
constexpr std::size_t kWindowCells = kWindowSide * kWindowSide;

/// One relaxed add per array the memo had to plan (never per die it held).
telemetry::Counter& window_plans_counter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::global().counter("variation.window_plans");
  return c;
}

/// Anchor-grid cell containing grid coordinate `g` (position / lambda).
std::int64_t cell_of(double g) { return static_cast<std::int64_t>(std::floor(g)); }

/// Deterministic standard-normal anchor value of field `seed` at grid cell
/// (ix, iy).
double anchor(std::uint64_t seed, std::int64_t ix, std::int64_t iy) noexcept {
  // Hash the cell coordinates into two uniforms, then Box-Muller.  The +large
  // offsets keep ix/iy non-negative distinct patterns for negative cells.
  const auto ux = static_cast<std::uint64_t>(ix + (1LL << 32));
  const auto uy = static_cast<std::uint64_t>(iy + (1LL << 32));
  SplitMix64 h(seed ^ (ux * 0x9e3779b97f4a7c15ULL) ^ (uy * 0xc2b2ae3d27d4eb4fULL));
  const double u1 = (static_cast<double>(h.next() >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(h.next() >> 11) * 0x1.0p-53;
  return std::sqrt(-2.0 * detmath::log(u1)) * detmath::cos(2.0 * M_PI * u2);
}

/// The die-independent half of evaluating a set of points: the anchor grid
/// their windows cover, where each window starts in it, each point's kernel
/// weights and their norm.  All of it depends only on lambda and the exact
/// points, never on the seed.
struct Windows {
  double lambda = 0.0;
  std::vector<Position> points;
  std::int64_t x0 = 0;  ///< grid cell of anchor 0
  std::int64_t y0 = 0;
  std::int64_t width = 0;  ///< grid extent in cells
  std::int64_t height = 0;
  std::vector<std::size_t> start;  ///< grid index of each window's first anchor
  std::vector<double> weights;     ///< kWindowCells per point, ix-outer, iy-inner
  std::vector<double> norms;       ///< sqrt(sum of squared weights) per point

  [[nodiscard]] bool holds(double l, std::span<const Position> p) const {
    return l == lambda && p.size() == points.size() &&
           std::memcmp(p.data(), points.data(), p.size_bytes()) == 0;
  }
};

/// Plans `w` for `points`, or returns false and leaves `w` untouched when the
/// points are too scattered for one grid to pay (its box would exceed
/// kWindowCells cells per point).
bool plan_windows(double lambda, std::span<const Position> points, Windows& w) {
  // The windows' cells: the points' cells widened by the kernel radius.
  std::int64_t x_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t x_hi = std::numeric_limits<std::int64_t>::min();
  std::int64_t y_lo = x_lo;
  std::int64_t y_hi = x_hi;
  for (const Position& p : points) {
    const std::int64_t cx = cell_of(p.x / lambda);
    const std::int64_t cy = cell_of(p.y / lambda);
    x_lo = std::min(x_lo, cx);
    x_hi = std::max(x_hi, cx);
    y_lo = std::min(y_lo, cy);
    y_hi = std::max(y_hi, cy);
  }
  const double box_cells =
      (static_cast<double>(x_hi) - static_cast<double>(x_lo) + kWindowSide) *
      (static_cast<double>(y_hi) - static_cast<double>(y_lo) + kWindowSide);
  if (box_cells > static_cast<double>(kWindowCells) * static_cast<double>(points.size())) {
    return false;
  }

  // Anchor (ix, iy) sits at grid[(ix - x0) * height + (iy - y0)]: a window's
  // column is contiguous, in the order the sum reads it.
  w.points.clear();  // no stale match if anything below throws
  w.x0 = x_lo - kKernelRadiusCells;
  w.y0 = y_lo - kKernelRadiusCells;
  w.width = x_hi - x_lo + kWindowSide;
  w.height = y_hi - y_lo + kWindowSide;
  w.start.resize(points.size());
  w.weights.resize(points.size() * kWindowCells);
  w.norms.resize(points.size());
  double* weight = w.weights.data();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double gx = points[i].x / lambda;
    const double gy = points[i].y / lambda;
    const std::int64_t cx = cell_of(gx);
    const std::int64_t cy = cell_of(gy);
    w.start[i] = static_cast<std::size_t>((cx - kKernelRadiusCells - w.x0) * w.height +
                                          (cy - kKernelRadiusCells - w.y0));
    double weight_sq = 0.0;
    for (std::int64_t ix = cx - kKernelRadiusCells; ix <= cx + kKernelRadiusCells; ++ix) {
      for (std::int64_t iy = cy - kKernelRadiusCells; iy <= cy + kKernelRadiusCells; ++iy) {
        const double dx = gx - static_cast<double>(ix);
        const double dy = gy - static_cast<double>(iy);
        const double d2 = dx * dx + dy * dy;
        *weight = detmath::exp(-0.5 * d2);
        weight_sq += *weight * *weight;
        ++weight;
      }
    }
    // Normalizing by sqrt(sum w^2) makes the marginal exactly N(0, sigma^2)
    // regardless of where the point falls relative to the anchor grid.
    w.norms[i] = std::sqrt(weight_sq);
  }
  w.lambda = lambda;
  w.points.assign(points.begin(), points.end());
  return true;
}

/// Field `seed` at every planned point: draws the grid's anchors once, then
/// sums each window in ix-outer, iy-inner order.
void sum_windows(const Windows& w, double sigma, std::uint64_t seed, std::span<double> out) {
  std::vector<double> grid(static_cast<std::size_t>(w.width * w.height));
  for (std::int64_t ix = 0; ix < w.width; ++ix) {
    for (std::int64_t iy = 0; iy < w.height; ++iy) {
      grid[static_cast<std::size_t>(ix * w.height + iy)] = anchor(seed, w.x0 + ix, w.y0 + iy);
    }
  }
  const double* weight = w.weights.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double* column = grid.data() + w.start[i];
    double weighted = 0.0;
    for (std::int64_t ix = 0; ix < kWindowSide; ++ix, column += w.height) {
      for (std::int64_t iy = 0; iy < kWindowSide; ++iy) weighted += *weight++ * column[iy];
    }
    out[i] = sigma * weighted / w.norms[i];
  }
}
}  // namespace

SpatialField::SpatialField(double sigma, double correlation_length, std::uint64_t seed)
    : sigma_(sigma), lambda_(correlation_length), seed_(seed) {
  ARO_REQUIRE(sigma >= 0.0, "field sigma must be non-negative");
  ARO_REQUIRE(correlation_length > 0.0, "correlation length must be positive");
}

void SpatialField::evaluate(std::span<const Position> points, std::span<double> out) const {
  ARO_REQUIRE(points.size() == out.size(), "field output needs one slot per point");
  if (points.empty()) return;
  if (sigma_ == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  if (points.size() == 1) {
    // One window always fits its own grid.  Planned locally, so a one-point
    // call never evicts an array's memo entry.
    Windows one;
    plan_windows(lambda_, points, one);
    sum_windows(one, sigma_, seed_, out);
    return;
  }
  // Every die of a study lays its ROs out the same way, so each pool thread
  // keeps the last array's plan and only the anchors are drawn per die.
  thread_local Windows memo;
  if (!memo.holds(lambda_, points)) {
    window_plans_counter().add(1);
    if (!plan_windows(lambda_, points, memo)) {
      // Points too scattered for one grid to pay: one window per point.
      for (std::size_t i = 0; i < points.size(); ++i) {
        evaluate(points.subspan(i, 1), out.subspan(i, 1));
      }
      return;
    }
  }
  sum_windows(memo, sigma_, seed_, out);
}

double SpatialField::operator()(Position p) const {
  double value = 0.0;
  evaluate({&p, 1}, {&value, 1});
  return value;
}

}  // namespace aropuf
