#include "puf/ro_puf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/statistics.hpp"

namespace aropuf {
namespace {

/// Bitwise equality (EXPECT_DOUBLE_EQ would accept 4 ULPs).
void expect_same_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

void expect_same_device(const Transistor& a, const Transistor& b) {
  EXPECT_EQ(a.type, b.type);
  expect_same_bits(a.vth_fresh, b.vth_fresh, "vth_fresh");
  expect_same_bits(a.vth_tempco, b.vth_tempco, "vth_tempco");
  expect_same_bits(a.nbti_sensitivity, b.nbti_sensitivity, "nbti_sensitivity");
  expect_same_bits(a.hci_sensitivity, b.hci_sensitivity, "hci_sensitivity");
}

/// Two dies are the same PUF: every device and aging state bit for bit, the
/// same pairs, and the same measured responses at evaluation indices 0..3.
void expect_same_puf(const RoPuf& a, const RoPuf& b) {
  ASSERT_EQ(a.oscillators().size(), b.oscillators().size());
  for (std::size_t i = 0; i < a.oscillators().size(); ++i) {
    const RingOscillator& ra = a.oscillators()[i];
    const RingOscillator& rb = b.oscillators()[i];
    ASSERT_EQ(ra.num_stages(), rb.num_stages());
    for (std::size_t s = 0; s < ra.stages().size(); ++s) {
      expect_same_device(ra.stages()[s].pmos, rb.stages()[s].pmos);
      expect_same_device(ra.stages()[s].nmos, rb.stages()[s].nmos);
    }
    expect_same_bits(ra.stress().elapsed, rb.stress().elapsed, "elapsed");
    expect_same_bits(ra.stress().nbti_effective, rb.stress().nbti_effective, "nbti_effective");
    expect_same_bits(ra.stress().switching_cycles, rb.stress().switching_cycles,
                     "switching_cycles");
    expect_same_bits(ra.aging_shifts().nbti, rb.aging_shifts().nbti, "nbti shift");
    expect_same_bits(ra.aging_shifts().hci, rb.aging_shifts().hci, "hci shift");
  }
  EXPECT_EQ(a.pairs(), b.pairs());
  const auto op = a.nominal_op();
  for (std::uint64_t k = 0; k < 4; ++k) EXPECT_EQ(a.evaluate(op, k), b.evaluate(op, k)) << k;
}

/// A third design on the same silicon: a random challenge pairing with its
/// own seed, read through another measurement window.
PufConfig challenge_config() {
  PufConfig c = PufConfig::aro();
  c.label = "challenge";
  c.pairing = PairingStrategy::kRandomChallenge;
  c.challenge_seed = 0x5eed;
  c.measurement_window = 50e-6;
  return c;
}

class RoPufTest : public ::testing::Test {
 protected:
  RoPuf make_chip(std::uint64_t chip_index = 0, PufConfig cfg = PufConfig::aro(64)) const {
    return RoPuf(tech_, std::move(cfg), fabric_.child("chip", chip_index));
  }

  TechnologyParams tech_ = TechnologyParams::cmos90();
  RngFabric fabric_{2014};
};

TEST_F(RoPufTest, ConstructionMatchesConfig) {
  const RoPuf chip = make_chip();
  EXPECT_EQ(chip.oscillators().size(), 64U);
  EXPECT_EQ(chip.pairs().size(), 32U);
  EXPECT_EQ(chip.response_bits(), 32U);
}

TEST_F(RoPufTest, PositionsFollowRowMajorGrid) {
  const RoPuf chip = make_chip();
  const int width = chip.config().array_width;
  for (std::size_t i = 0; i < chip.oscillators().size(); ++i) {
    const Position p = chip.oscillators()[i].position();
    EXPECT_DOUBLE_EQ(p.x, static_cast<double>(static_cast<int>(i) % width));
    EXPECT_DOUBLE_EQ(p.y, static_cast<double>(static_cast<int>(i) / width));
  }
}

TEST_F(RoPufTest, SameSeedSameChip) {
  const RoPuf a = make_chip(5);
  const RoPuf b = make_chip(5);
  const auto op = a.nominal_op();
  EXPECT_EQ(a.evaluate(op, 0), b.evaluate(op, 0));
  EXPECT_EQ(a.noiseless_response(op), b.noiseless_response(op));
}

TEST_F(RoPufTest, DifferentSeedsDifferentChips) {
  const RoPuf a = make_chip(1);
  const RoPuf b = make_chip(2);
  const auto op = a.nominal_op();
  EXPECT_GT(hamming_distance(a.evaluate(op, 0), b.evaluate(op, 0)), 5U);
}

TEST_F(RoPufTest, SameEvalIndexReplaysNoise) {
  const RoPuf chip = make_chip();
  const auto op = chip.nominal_op();
  EXPECT_EQ(chip.evaluate(op, 3), chip.evaluate(op, 3));
}

TEST_F(RoPufTest, RepeatedEvaluationsMostlyStable) {
  const RoPuf chip = make_chip(0, PufConfig::aro(256));
  const auto op = chip.nominal_op();
  const BitVector golden = chip.evaluate(op, 0);
  RunningStats intra;
  for (std::uint64_t e = 1; e <= 20; ++e) {
    intra.add(fractional_hamming_distance(golden, chip.evaluate(op, e)));
  }
  EXPECT_LT(intra.mean(), 0.05);  // noise floor: a few percent at most
}

TEST_F(RoPufTest, NoiselessResponseIsNoiseFree) {
  const RoPuf chip = make_chip();
  const auto op = chip.nominal_op();
  EXPECT_EQ(chip.noiseless_response(op), chip.noiseless_response(op));
}

TEST_F(RoPufTest, MeasuredResponseTracksNoiseless) {
  const RoPuf chip = make_chip(0, PufConfig::aro(256));
  const auto op = chip.nominal_op();
  const double hd =
      fractional_hamming_distance(chip.noiseless_response(op), chip.evaluate(op, 0));
  EXPECT_LT(hd, 0.05);
}

TEST_F(RoPufTest, PairFrequencyDifferencesMatchNoiselessBits) {
  const RoPuf chip = make_chip();
  const auto op = chip.nominal_op();
  const auto diffs = chip.pair_frequency_differences(op);
  const BitVector bits = chip.noiseless_response(op);
  ASSERT_EQ(diffs.size(), bits.size());
  for (std::size_t i = 0; i < diffs.size(); ++i) {
    EXPECT_EQ(bits.get(i), diffs[i] > 0.0);
  }
}

TEST_F(RoPufTest, AgingChangesSomeBitsConventional) {
  RoPuf chip(tech_, PufConfig::conventional(256), fabric_.child("chip", 9));
  const auto op = chip.nominal_op();
  const BitVector golden = chip.evaluate(op, 0);
  chip.age_years(10.0);
  const BitVector aged = chip.evaluate(op, 1);
  const double hd = fractional_hamming_distance(golden, aged);
  EXPECT_GT(hd, 0.10);  // conventional design degrades heavily
  EXPECT_LT(hd, 0.55);
}

TEST_F(RoPufTest, AroAgesFarLessThanConventional) {
  RoPuf aro(tech_, PufConfig::aro(256), fabric_.child("chip", 3));
  RoPuf conv(tech_, PufConfig::conventional(256), fabric_.child("chip", 3));
  const auto op = aro.nominal_op();
  const BitVector aro_golden = aro.evaluate(op, 0);
  const BitVector conv_golden = conv.evaluate(op, 0);
  aro.age_years(10.0);
  conv.age_years(10.0);
  const double aro_hd = fractional_hamming_distance(aro_golden, aro.evaluate(op, 1));
  const double conv_hd = fractional_hamming_distance(conv_golden, conv.evaluate(op, 1));
  EXPECT_LT(aro_hd, conv_hd * 0.6);
}

TEST_F(RoPufTest, ResetAgingRestoresGolden) {
  RoPuf chip(tech_, PufConfig::conventional(128), fabric_.child("chip", 4));
  const auto op = chip.nominal_op();
  const BitVector golden = chip.evaluate(op, 0);
  chip.age_years(10.0);
  chip.reset_aging();
  EXPECT_EQ(chip.evaluate(op, 0), golden);
}

TEST_F(RoPufTest, AgeInStepsNearlyEqualsAgeAtOnce) {
  // HCI cycles accrue at the RO's *current* frequency, which itself decays
  // with age, so yearly steps integrate slightly fewer cycles than one
  // 4-year step (which uses the fresh frequency throughout).  The first-
  // order discretization difference must stay well below mismatch scale.
  RoPuf once(tech_, PufConfig::conventional(64), fabric_.child("chip", 6));
  RoPuf steps(tech_, PufConfig::conventional(64), fabric_.child("chip", 6));
  once.age_years(4.0);
  for (int i = 0; i < 4; ++i) steps.age_years(1.0);
  const auto op = once.nominal_op();
  const auto& ro_once = once.oscillators()[0];
  const auto& ro_steps = steps.oscillators()[0];
  EXPECT_NEAR(ro_once.frequency(op), ro_steps.frequency(op),
              ro_once.frequency(op) * 1e-3);
  // Finer steps age (very slightly) less through the HCI term.
  EXPECT_GE(ro_steps.frequency(op), ro_once.frequency(op));
}

TEST_F(RoPufTest, NegativeYearsRejected) {
  RoPuf chip = make_chip();
  EXPECT_THROW(chip.age_years(-1.0), std::invalid_argument);
}

TEST_F(RoPufTest, MakePopulationProducesDistinctChips) {
  const auto chips = make_population(tech_, PufConfig::aro(64), 5, fabric_);
  ASSERT_EQ(chips.size(), 5U);
  const auto op = chips[0].nominal_op();
  for (std::size_t i = 0; i < chips.size(); ++i) {
    for (std::size_t j = i + 1; j < chips.size(); ++j) {
      EXPECT_GT(hamming_distance(chips[i].evaluate(op, 0), chips[j].evaluate(op, 0)), 3U);
    }
  }
}

TEST_F(RoPufTest, MakePopulationRejectsEmpty) {
  EXPECT_THROW(make_population(tech_, PufConfig::aro(64), 0, fabric_), std::invalid_argument);
}

TEST_F(RoPufTest, RedesignedDieEqualsFreshBuildOfTheOtherDesign) {
  const std::pair<PufConfig, PufConfig> cases[] = {
      {PufConfig::conventional(), PufConfig::aro()},
      {PufConfig::aro(), PufConfig::conventional()},
      {PufConfig::conventional(), challenge_config()},
  };
  for (const auto& [from, to] : cases) {
    SCOPED_TRACE(from.label + " -> " + to.label);
    const RoPuf die = make_chip(3, from);
    const RoPuf redesigned(die, to);
    EXPECT_EQ(redesigned.config().label, to.label);
    EXPECT_EQ(redesigned.config().lifetime_profile.name, to.lifetime_profile.name);
    expect_same_puf(redesigned, make_chip(3, to));
  }
}

TEST_F(RoPufTest, RedesignedAgedDieCarriesItsAging) {
  // The copy keeps the aging the die took under its first design, then ages
  // under the new design's profile.
  RoPuf conventional = make_chip(4, PufConfig::conventional());
  conventional.age_years(3.0);
  RoPuf redesigned(conventional, PufConfig::aro());
  RoPuf fresh = make_chip(4, PufConfig::aro());
  fresh.age(PufConfig::conventional().lifetime_profile, years(3.0));
  expect_same_puf(redesigned, fresh);
  redesigned.age_years(2.0);
  fresh.age_years(2.0);
  expect_same_puf(redesigned, fresh);
}

TEST_F(RoPufTest, RedesignRejectsAnotherGeometry) {
  const RoPuf die = make_chip(0, PufConfig::aro());
  EXPECT_THROW((void)RoPuf(die, PufConfig::aro(128)), std::invalid_argument);
  EXPECT_THROW((void)RoPuf(die, PufConfig::aro(256, 11)), std::invalid_argument);
  PufConfig wide = PufConfig::aro();
  wide.array_width = 32;
  EXPECT_THROW((void)RoPuf(die, wide), std::invalid_argument);
  PufConfig no_window = PufConfig::aro();
  no_window.measurement_window = 0.0;
  EXPECT_THROW((void)RoPuf(die, no_window), std::invalid_argument);
}

TEST_F(RoPufTest, CopiedChipSharesTechnologySafely) {
  // RoPuf owns its TechnologyParams via shared_ptr: copies must stay valid
  // even after the source is destroyed.
  std::unique_ptr<RoPuf> original = std::make_unique<RoPuf>(
      tech_, PufConfig::aro(64), fabric_.child("chip", 8));
  const auto op = original->nominal_op();
  const BitVector expected = original->evaluate(op, 0);
  const RoPuf copy = *original;
  original.reset();
  EXPECT_EQ(copy.evaluate(op, 0), expected);
}

}  // namespace
}  // namespace aropuf
