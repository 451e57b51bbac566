#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/statistics.hpp"

namespace aropuf {
namespace {

TEST(SplitMix64Test, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SplitMix64Test, KnownReferenceValues) {
  // Reference outputs of the public-domain splitmix64 for seed 1234567.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
}

TEST(Xoshiro256Test, IsDeterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256Test, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256Test, UniformMeanAndVariance) {
  Xoshiro256 rng(13);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Xoshiro256Test, UniformRangeRespectsBounds) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro256Test, GaussianMoments) {
  Xoshiro256 rng(19);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Xoshiro256Test, GaussianScaledMoments) {
  Xoshiro256 rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Xoshiro256Test, GaussianTailFractionMatchesNormal) {
  Xoshiro256 rng(29);
  int beyond_2sigma = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (std::fabs(rng.gaussian()) > 2.0) ++beyond_2sigma;
  }
  // P(|Z| > 2) = 4.55 %.
  EXPECT_NEAR(static_cast<double>(beyond_2sigma) / kSamples, 0.0455, 0.005);
}

/// True when the batch `rng.gaussians(count)` returns, bit for bit, what
/// `count` gaussian() calls on a copy of `rng` return, and leaves the stream
/// where they do: the next gaussian() (the pending spare, if any) and the
/// next raw draw agree too.
bool batch_equals_calls(Xoshiro256 rng, std::size_t count, std::vector<double>& batch) {
  Xoshiro256 calls = rng;
  batch.assign(count, 0.0);
  rng.gaussians(batch);
  bool same = true;
  for (const double g : batch) {
    same &= std::bit_cast<std::uint64_t>(g) == std::bit_cast<std::uint64_t>(calls.gaussian());
  }
  same &= std::bit_cast<std::uint64_t>(rng.gaussian()) ==
          std::bit_cast<std::uint64_t>(calls.gaussian());
  return same && rng() == calls();
}

TEST(Xoshiro256Test, GaussianBatchEqualsRepeatedCallsBitwise) {
  std::vector<double> batch;
  int mismatches = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Xoshiro256 fresh(seed);
    Xoshiro256 with_spare(seed);
    (void)with_spare.gaussian();  // leaves the pair's second deviate pending
    for (std::size_t count = 0; count <= 130; ++count) {
      for (const bool spare : {false, true}) {
        if (batch_equals_calls(spare ? with_spare : fresh, count, batch)) continue;
        if (mismatches++ < 5) {
          ADD_FAILURE() << "seed " << seed << ", count " << count
                        << (spare ? ", spare pending" : ", fresh stream");
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Xoshiro256Test, PolarNormalsAreGaussiansOfEachPair) {
  Xoshiro256 rng(29);
  Xoshiro256 calls = rng;
  std::vector<PolarPair> pairs(150);  // more than one batch of factors
  for (PolarPair& p : pairs) p = rng.polar_pair();
  std::vector<double> normals(2 * pairs.size());
  polar_normals(pairs, normals);
  for (std::size_t i = 0; i < normals.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(normals[i]),
              std::bit_cast<std::uint64_t>(calls.gaussian()))
        << i;
  }
  EXPECT_EQ(rng(), calls());
  std::vector<double> short_of_one(2 * pairs.size() - 1);
  EXPECT_THROW(polar_normals(pairs, short_of_one), std::invalid_argument);
}

TEST(Xoshiro256Test, BoundedStaysInBound) {
  Xoshiro256 rng(31);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17U);
}

TEST(Xoshiro256Test, BoundedZeroReturnsZero) {
  Xoshiro256 rng(37);
  EXPECT_EQ(rng.bounded(0), 0U);
}

TEST(Xoshiro256Test, BoundedIsRoughlyUniform) {
  Xoshiro256 rng(41);
  std::vector<int> counts(8, 0);
  constexpr int kSamples = 80000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.bounded(8)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 0.125, 0.01);
  }
}

TEST(Xoshiro256Test, BernoulliMatchesProbability) {
  Xoshiro256 rng(43);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngFabricTest, SameNameSameStream) {
  const RngFabric fabric(99);
  Xoshiro256 a = fabric.stream("devices", 3);
  Xoshiro256 b = fabric.stream("devices", 3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(RngFabricTest, DifferentNamesDiverge) {
  const RngFabric fabric(99);
  EXPECT_NE(fabric.derive("devices"), fabric.derive("noise"));
}

TEST(RngFabricTest, DifferentIndicesDiverge) {
  const RngFabric fabric(99);
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(fabric.derive("chip", i));
  EXPECT_EQ(seeds.size(), 1000U);
}

TEST(RngFabricTest, AllThreeIndicesMatter) {
  const RngFabric fabric(5);
  EXPECT_NE(fabric.derive("x", 1, 0, 0), fabric.derive("x", 0, 1, 0));
  EXPECT_NE(fabric.derive("x", 0, 1, 0), fabric.derive("x", 0, 0, 1));
  EXPECT_NE(fabric.derive("x", 1, 0, 0), fabric.derive("x", 0, 0, 1));
}

TEST(RngFabricTest, ChildFabricsAreIndependent) {
  const RngFabric parent(7);
  const RngFabric c0 = parent.child("chip", 0);
  const RngFabric c1 = parent.child("chip", 1);
  EXPECT_NE(c0.derive("devices"), c1.derive("devices"));
  // A child never reproduces the parent's streams.
  EXPECT_NE(c0.derive("devices"), parent.derive("devices"));
}

TEST(RngFabricTest, MasterSeedChangesEverything) {
  const RngFabric a(1);
  const RngFabric b(2);
  EXPECT_NE(a.derive("devices", 1, 2, 3), b.derive("devices", 1, 2, 3));
}

}  // namespace
}  // namespace aropuf
