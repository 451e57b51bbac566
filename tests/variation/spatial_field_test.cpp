#include "variation/spatial_field.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {
namespace {

/// The field as it was evaluated before the batch path: every point hashes
/// its own 7x7 window of anchors.  Kept as the oracle the batch evaluation
/// must reproduce bit for bit, through the library's own log, cos and exp.
double per_point_field(double sigma, double lambda, std::uint64_t seed, Position p) {
  constexpr std::int64_t kKernelRadiusCells = 3;
  const auto anchor = [&](std::int64_t ix, std::int64_t iy) {
    const auto ux = static_cast<std::uint64_t>(ix + (1LL << 32));
    const auto uy = static_cast<std::uint64_t>(iy + (1LL << 32));
    SplitMix64 h(seed ^ (ux * 0x9e3779b97f4a7c15ULL) ^ (uy * 0xc2b2ae3d27d4eb4fULL));
    const double u1 = (static_cast<double>(h.next() >> 11) + 0.5) * 0x1.0p-53;
    const double u2 = static_cast<double>(h.next() >> 11) * 0x1.0p-53;
    return std::sqrt(-2.0 * detmath::log(u1)) * detmath::cos(2.0 * M_PI * u2);
  };
  if (sigma == 0.0) return 0.0;
  const double gx = p.x / lambda;
  const double gy = p.y / lambda;
  const auto cx = static_cast<std::int64_t>(std::floor(gx));
  const auto cy = static_cast<std::int64_t>(std::floor(gy));

  double weighted = 0.0;
  double weight_sq = 0.0;
  for (std::int64_t ix = cx - kKernelRadiusCells; ix <= cx + kKernelRadiusCells; ++ix) {
    for (std::int64_t iy = cy - kKernelRadiusCells; iy <= cy + kKernelRadiusCells; ++iy) {
      const double dx = gx - static_cast<double>(ix);
      const double dy = gy - static_cast<double>(iy);
      const double d2 = dx * dx + dy * dy;
      const double w = detmath::exp(-0.5 * d2);
      weighted += w * anchor(ix, iy);
      weight_sq += w * w;
    }
  }
  return sigma * weighted / std::sqrt(weight_sq);
}

/// An RO array as RoPuf lays it out: `count` ROs in rows of `width`, unit
/// pitch.
std::vector<Position> ro_array(int count, int width) {
  std::vector<Position> array;
  for (int i = 0; i < count; ++i) {
    array.push_back({static_cast<double>(i % width), static_cast<double>(i / width)});
  }
  return array;
}

/// Batch evaluation of `points` equals the oracle at every point, bitwise.
void expect_batch_matches_oracle(double sigma, double lambda, std::uint64_t seed,
                                 const std::vector<Position>& points) {
  const SpatialField field(sigma, lambda, seed);
  std::vector<double> batch(points.size(), -1.0);
  field.evaluate(points, batch);
  std::vector<double> oracle;
  oracle.reserve(points.size());
  for (const Position& p : points) oracle.push_back(per_point_field(sigma, lambda, seed, p));
  EXPECT_EQ(std::memcmp(batch.data(), oracle.data(), batch.size() * sizeof(double)), 0)
      << "sigma " << sigma << ", lambda " << lambda << ", seed " << seed << ", "
      << points.size() << " points";
}

TEST(SpatialFieldTest, DeterministicForSameSeed) {
  const SpatialField a(8e-3, 12.0, 42);
  const SpatialField b(8e-3, 12.0, 42);
  for (double x = 0.0; x < 20.0; x += 2.3) {
    EXPECT_DOUBLE_EQ(a({x, x * 0.5}), b({x, x * 0.5}));
  }
}

TEST(SpatialFieldTest, DifferentSeedsDiffer) {
  const SpatialField a(8e-3, 12.0, 1);
  const SpatialField b(8e-3, 12.0, 2);
  int differ = 0;
  for (double x = 0.0; x < 20.0; x += 1.0) {
    if (a({x, 0.0}) != b({x, 0.0})) ++differ;
  }
  EXPECT_EQ(differ, 20);
}

TEST(SpatialFieldTest, ZeroSigmaIsIdenticallyZero) {
  const SpatialField f(0.0, 12.0, 7);
  EXPECT_DOUBLE_EQ(f({3.0, 4.0}), 0.0);
  // The batch path gives exact (+0.0) zeros too.
  const std::vector<Position> points = {{0.0, 0.0}, {-3.5, 2.25}, {1e4, -1e4}};
  std::vector<double> values(points.size(), 1.0);
  f.evaluate(points, values);
  const std::vector<double> zeros(points.size(), 0.0);
  EXPECT_EQ(std::memcmp(values.data(), zeros.data(), values.size() * sizeof(double)), 0);
}

TEST(SpatialFieldTest, MarginalIsStandardizedToSigma) {
  // Sample the field of many independent dies at a fixed point; the marginal
  // across dies must be N(0, sigma^2).
  const double sigma = 8e-3;
  RunningStats stats;
  for (std::uint64_t seed = 0; seed < 4000; ++seed) {
    const SpatialField f(sigma, 12.0, seed);
    stats.add(f({5.3, 7.1}));
  }
  EXPECT_NEAR(stats.mean(), 0.0, sigma * 0.05);
  EXPECT_NEAR(stats.stddev(), sigma, sigma * 0.05);
}

TEST(SpatialFieldTest, NearbyPointsAreHighlyCorrelated) {
  // Correlation estimated over dies: adjacent points (1 pitch apart, with
  // correlation length 12) must correlate > 0.95.
  double sum_ab = 0.0;
  double sum_a2 = 0.0;
  double sum_b2 = 0.0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    const SpatialField f(1.0, 12.0, seed);
    const double a = f({4.0, 4.0});
    const double b = f({5.0, 4.0});
    sum_ab += a * b;
    sum_a2 += a * a;
    sum_b2 += b * b;
  }
  const double corr = sum_ab / std::sqrt(sum_a2 * sum_b2);
  EXPECT_GT(corr, 0.95);
}

TEST(SpatialFieldTest, DistantPointsDecorrelate) {
  double sum_ab = 0.0;
  double sum_a2 = 0.0;
  double sum_b2 = 0.0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    const SpatialField f(1.0, 3.0, seed);
    const double a = f({0.0, 0.0});
    const double b = f({30.0, 30.0});
    sum_ab += a * b;
    sum_a2 += a * a;
    sum_b2 += b * b;
  }
  const double corr = sum_ab / std::sqrt(sum_a2 * sum_b2);
  EXPECT_LT(std::fabs(corr), 0.1);
}

TEST(SpatialFieldTest, CorrelationFallsWithDistance) {
  auto corr_at = [](double dist) {
    double sum_ab = 0.0;
    double sum_a2 = 0.0;
    double sum_b2 = 0.0;
    for (std::uint64_t seed = 0; seed < 1500; ++seed) {
      const SpatialField f(1.0, 6.0, seed);
      const double a = f({10.0, 10.0});
      const double b = f({10.0 + dist, 10.0});
      sum_ab += a * b;
      sum_a2 += a * a;
      sum_b2 += b * b;
    }
    return sum_ab / std::sqrt(sum_a2 * sum_b2);
  };
  const double c2 = corr_at(2.0);
  const double c6 = corr_at(6.0);
  const double c15 = corr_at(15.0);
  EXPECT_GT(c2, c6);
  EXPECT_GT(c6, c15);
}

TEST(SpatialFieldTest, SmoothAtSubPitchScale) {
  const SpatialField f(8e-3, 12.0, 99);
  const double v0 = f({5.0, 5.0});
  const double v1 = f({5.01, 5.0});
  EXPECT_NEAR(v0, v1, 8e-3 * 0.01);
}

TEST(SpatialFieldTest, BatchEvaluationMatchesPerPointOracle) {
  Xoshiro256 rng(2024);
  for (const double lambda : {0.5, 3.0, 12.0, 40.0}) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::uint64_t seed = rng();
      const double sigma = rng.uniform(1e-3, 2e-2);
      expect_batch_matches_oracle(sigma, lambda, seed, ro_array(256, 16));
      // Negative and fractional coordinates scattered over a few cells.
      std::vector<Position> scattered;
      for (int i = 0; i < 64; ++i) {
        scattered.push_back({rng.uniform(-3.0 * lambda, 3.0 * lambda),
                             rng.uniform(-3.0 * lambda, 3.0 * lambda)});
      }
      expect_batch_matches_oracle(sigma, lambda, seed, scattered);
      // Points many cells apart, with a close pair among them.
      const std::vector<Position> far = {{0.0, 0.0},
                                         {0.25, -0.75},
                                         {-1e4 * lambda, 3.5},
                                         {7.5 * lambda, 2e4 * lambda},
                                         {-5e3 * lambda - 0.5, -6e3 * lambda + 0.5}};
      expect_batch_matches_oracle(sigma, lambda, seed, far);
    }
  }
  // Back-to-back dies of one layout reuse this thread's window weights.
  // Another correlation length, the width-7 array and one-point calls in
  // between replace or bypass them, and no die may see another's weights.
  const std::vector<Position> square = ro_array(256, 16);
  const std::vector<Position> tall = ro_array(256, 7);
  for (int die = 0; die < 32; ++die) {
    const std::uint64_t seed = rng();
    expect_batch_matches_oracle(8e-3, 12.0, seed, square);
    expect_batch_matches_oracle(8e-3, 12.0, seed ^ 1, square);
    switch (die % 3) {
      case 0:
        expect_batch_matches_oracle(8e-3, 3.0, seed, square);
        break;
      case 1:
        expect_batch_matches_oracle(8e-3, 12.0, seed, tall);
        break;
      default: {
        const Position p = square[static_cast<std::size_t>(die) % square.size()];
        expect_batch_matches_oracle(8e-3, 12.0, seed, {p});
        const double value = SpatialField(8e-3, 12.0, seed)(p);
        const double oracle = per_point_field(8e-3, 12.0, seed, p);
        EXPECT_EQ(std::memcmp(&value, &oracle, sizeof value), 0) << "seed " << seed;
      }
    }
    expect_batch_matches_oracle(8e-3, 12.0, seed ^ 2, square);
  }
}

TEST(SpatialFieldTest, EightThreadsOfMixedArraysMatchTheOracle) {
  // Each thread keeps its own window weights.  Eight threads walk the same
  // mix of layouts and correlation lengths from different starting points,
  // so hits and misses interleave differently on every thread.
  struct Case {
    double lambda = 0.0;
    const std::vector<Position>* points = nullptr;
    std::uint64_t seed = 0;
    std::vector<double> oracle;
  };
  const double sigma = 8e-3;
  const std::vector<Position> layouts[] = {ro_array(256, 16), ro_array(256, 7),
                                           ro_array(64, 8)};
  Xoshiro256 rng(8);
  std::vector<Case> cases;
  for (int k = 0; k < 24; ++k) {
    Case c;
    c.lambda = k % 4 == 3 ? 3.0 : 12.0;  // runs of one layout, one other lambda each
    c.points = &layouts[(k / 4) % 3];
    c.seed = rng();
    for (const Position& p : *c.points) {
      c.oracle.push_back(per_point_field(sigma, c.lambda, c.seed, p));
    }
    cases.push_back(std::move(c));
  }
  constexpr std::size_t kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double> out;
      for (std::size_t j = 0; j < 4 * cases.size(); ++j) {
        const Case& c = cases[(j + 5 * t) % cases.size()];
        out.assign(c.points->size(), -1.0);
        SpatialField(sigma, c.lambda, c.seed).evaluate(*c.points, out);
        if (std::memcmp(out.data(), c.oracle.data(), out.size() * sizeof(double)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(SpatialFieldTest, BackToBackDiesOfOneLayoutPlanOnce) {
  // The memo's hits, counted: every bit test above would also pass with a
  // memo that never hit.  Each array plan is one variation.window_plans add.
  const telemetry::Counter& plans =
      telemetry::MetricsRegistry::global().counter("variation.window_plans");
  const std::vector<Position> square = ro_array(256, 16);
  const std::vector<Position> tall = ro_array(256, 7);
  std::vector<double> out(square.size());
  // Another layout first, so this thread's memo cannot hold `square` yet.
  SpatialField(8e-3, 12.0, 1).evaluate(tall, out);
  const std::uint64_t before = plans.value();
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SpatialField(8e-3, 12.0, seed).evaluate(square, out);
    // One-point calls plan locally and leave the memo alone.
    (void)SpatialField(8e-3, 12.0, seed)(square[seed]);
  }
  EXPECT_EQ(plans.value() - before, 1U);
  // Another correlation length is another plan, and so is the way back.
  SpatialField(8e-3, 3.0, 1).evaluate(square, out);
  SpatialField(8e-3, 12.0, 1).evaluate(square, out);
  EXPECT_EQ(plans.value() - before, 3U);
}

TEST(SpatialFieldTest, SinglePointAndEmptySpan) {
  const double sigma = 8e-3;
  for (const Position p : {Position{0.0, 0.0}, Position{-2.5, 7.25}, Position{1e5, -3e4}}) {
    expect_batch_matches_oracle(sigma, 12.0, 42, {p});
    const double value = SpatialField(sigma, 12.0, 42)(p);
    const double oracle = per_point_field(sigma, 12.0, 42, p);
    EXPECT_EQ(std::memcmp(&value, &oracle, sizeof value), 0);
  }
  const SpatialField field(sigma, 12.0, 42);
  std::vector<double> none;
  EXPECT_NO_THROW(field.evaluate({}, none));
  std::vector<double> two(2);
  const Position one[] = {{1.0, 1.0}};
  EXPECT_THROW(field.evaluate(one, two), std::invalid_argument);
}

TEST(SpatialFieldTest, RejectsBadParameters) {
  EXPECT_THROW(SpatialField(-1.0, 12.0, 0), std::invalid_argument);
  EXPECT_THROW(SpatialField(1.0, 0.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
