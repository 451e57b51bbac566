#include "variation/process_variation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/statistics.hpp"

namespace aropuf {
namespace {

class DieVariationTest : public ::testing::Test {
 protected:
  TechnologyParams tech_ = TechnologyParams::cmos90();
};

TEST_F(DieVariationTest, GlobalOffsetIsPerDie) {
  const DieVariation a(tech_, 1);
  const DieVariation b(tech_, 2);
  EXPECT_NE(a.global_offset(), b.global_offset());
  // Same seed reproduces the same die.
  const DieVariation a2(tech_, 1);
  EXPECT_DOUBLE_EQ(a.global_offset(), a2.global_offset());
}

TEST_F(DieVariationTest, GlobalOffsetDistribution) {
  RunningStats stats;
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    stats.add(DieVariation(tech_, seed).global_offset());
  }
  EXPECT_NEAR(stats.mean(), 0.0, tech_.sigma_vth_global * 0.1);
  EXPECT_NEAR(stats.stddev(), tech_.sigma_vth_global, tech_.sigma_vth_global * 0.05);
}

TEST_F(DieVariationTest, SystematicIsIdenticalAcrossDies) {
  const DieVariation a(tech_, 10);
  const DieVariation b(tech_, 20);
  for (double x = 0.0; x < 16.0; x += 3.0) {
    for (double y = 0.0; y < 16.0; y += 3.0) {
      EXPECT_DOUBLE_EQ(a.systematic_offset({x, y}), b.systematic_offset({x, y}));
    }
  }
}

TEST_F(DieVariationTest, SystematicVanishesWhenAmplitudeZero) {
  TechnologyParams t = tech_;
  t.layout_systematic_amplitude = 0.0;
  const DieVariation die(t, 3);
  EXPECT_DOUBLE_EQ(die.systematic_offset({7.0, 9.0}), 0.0);
}

TEST_F(DieVariationTest, SystematicChangesMoreAcrossHalfArrayThanOnePitch) {
  // The design premise of the pairing comparison: a distant pair (delta-y =
  // 8) sees much more systematic offset than an adjacent pair (delta-x = 1).
  const DieVariation die(tech_, 5);
  RunningStats adjacent;
  RunningStats distant;
  for (double x = 0.0; x < 14.0; x += 1.0) {
    for (double y = 0.0; y < 8.0; y += 1.0) {
      adjacent.add(std::fabs(die.systematic_offset({x + 1.0, y}) -
                             die.systematic_offset({x, y})));
      distant.add(std::fabs(die.systematic_offset({x, y + 8.0}) -
                            die.systematic_offset({x, y})));
    }
  }
  EXPECT_GT(distant.mean(), 3.0 * adjacent.mean());
}

TEST_F(DieVariationTest, SpatialOffsetDiffersAcrossDies) {
  const DieVariation a(tech_, 100);
  const DieVariation b(tech_, 200);
  EXPECT_NE(a.spatial_offset({4.0, 4.0}), b.spatial_offset({4.0, 4.0}));
}

TEST_F(DieVariationTest, LocalSampleMatchesSigma) {
  const DieVariation die(tech_, 11);
  Xoshiro256 rng(77);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(die.local_sample(rng));
  EXPECT_NEAR(stats.mean(), 0.0, 1e-3);
  EXPECT_NEAR(stats.stddev(), tech_.sigma_vth_local, tech_.sigma_vth_local * 0.03);
}

TEST_F(DieVariationTest, TotalOffsetCombinesComponents) {
  const DieVariation die(tech_, 13);
  const Position p{3.0, 5.0};
  // With a zero-variance local RNG contribution removed by averaging, the
  // total must centre on global + spatial + systematic.
  Xoshiro256 rng(123);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(die.total_offset(p, rng));
  const double expected =
      die.global_offset() + die.spatial_offset(p) + die.systematic_offset(p);
  EXPECT_NEAR(stats.mean(), expected, tech_.sigma_vth_local * 0.05);
  EXPECT_NEAR(stats.stddev(), tech_.sigma_vth_local, tech_.sigma_vth_local * 0.03);
}

TEST_F(DieVariationTest, StaticOffsetsMatchPerPointOffsets) {
  // The per-die batch (one anchor grid for the whole array) gives
  // static_offset()'s bits at every RO position of a square 16-wide array and
  // of a tall 7-wide one.
  for (const TechnologyParams& tech :
       {TechnologyParams::cmos90(), TechnologyParams::cmos65(), TechnologyParams::cmos45()}) {
    for (const int width : {16, 7}) {
      const DieVariation die(tech, 2014 + static_cast<std::uint64_t>(width));
      std::vector<Position> positions;
      for (int i = 0; i < 256; ++i) {
        positions.push_back({static_cast<double>(i % width), static_cast<double>(i / width)});
      }
      const std::vector<Volts> batch = die.static_offsets(positions);
      ASSERT_EQ(batch.size(), positions.size());
      for (std::size_t i = 0; i < positions.size(); ++i) {
        const Volts one = die.static_offset(positions[i]);
        EXPECT_EQ(std::memcmp(&batch[i], &one, sizeof one), 0)
            << tech.name << ", width " << width << ", RO " << i;
      }
    }
  }
}

}  // namespace
}  // namespace aropuf
