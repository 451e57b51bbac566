// The delay kernels against their oracle, the per-RO walk.  RoPuf ages and
// reads every die through the CPU's kernel; each result must equal, bit for
// bit, what RingOscillator's own walk gives for a copy of the die's
// oscillators aged through apply_stress(const AgingModel&, ...).  A response
// bit is the sign of a frequency difference, so one ulp of drift could flip a
// bit aging never touched.  Both kernels (detail::frequencies_batched and,
// where the CPU runs it, detail::frequencies_avx2) are held to the oracle on
// each die's SoA too, so a study computes the same bits on every CPU.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/delay_kernel.hpp"
#include "puf/ro_puf.hpp"

namespace aropuf {
namespace {

constexpr std::uint64_t kDiesPerDesign = 12;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise equality of two per-RO vectors; reports the first differing RO.
void expect_same_bits(std::span<const double> got, std::span<const double> want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) {
      ADD_FAILURE() << what << ": RO " << i << " reads " << got[i] << ", the oracle " << want[i];
      return;
    }
  }
}

/// Checks every frequency path of `chip` against `oracle`, a copy of its
/// oscillators that went through the same life by the per-RO walk: the
/// aging shifts, then at the nominal corner and two off-nominal ones
/// ro_frequencies, fresh_ro_frequencies and each kernel on the die's SoA.
void expect_die_matches_oracle(const RoPuf& chip, const std::vector<RingOscillator>& oracle) {
  const std::size_t n = oracle.size();
  ASSERT_EQ(chip.oscillators().size(), n);
  std::vector<AgingShifts> shifts;
  for (std::size_t i = 0; i < n; ++i) {
    const AgingShifts& got = chip.oscillators()[i].aging_shifts();
    const AgingShifts& want = oracle[i].aging_shifts();
    if (bits(got.nbti) != bits(want.nbti) || bits(got.hci) != bits(want.hci)) {
      ADD_FAILURE() << "RO " << i << " aging shifts (" << got.nbti << ", " << got.hci
                    << ") differ from the oracle's (" << want.nbti << ", " << want.hci << ")";
      return;
    }
    shifts.push_back(want);
  }

  const TechnologyParams& tech = chip.technology();
  const RoArraySoA soa = RoArraySoA::from_oscillators(chip.oscillators());
  const std::vector<AgingShifts> no_shifts(n);
  const OperatingPoint corners[] = {
      {tech.vdd_nominal, tech.temp_nominal},
      {tech.vdd_nominal * 0.9, celsius(-40.0)},
      {tech.vdd_nominal * 1.1, celsius(85.0)},
  };
  for (const OperatingPoint op : corners) {
    SCOPED_TRACE(::testing::Message() << "vdd=" << op.vdd << " T=" << op.temp);
    std::vector<double> aged(n), fresh(n);
    for (std::size_t i = 0; i < n; ++i) {
      aged[i] = oracle[i].frequency(op);
      fresh[i] = oracle[i].fresh_frequency(op);
    }
    expect_same_bits(chip.ro_frequencies(op), aged, "ro_frequencies");
    expect_same_bits(chip.fresh_ro_frequencies(op), fresh, "fresh_ro_frequencies");
    std::vector<double> got(n);
    detail::frequencies_batched(soa, tech, op, shifts, got);
    expect_same_bits(got, aged, "batched kernel, aged");
    detail::frequencies_batched(soa, tech, op, no_shifts, got);
    expect_same_bits(got, fresh, "batched kernel, fresh");
#if defined(AROPUF_SIMD_ENABLED)
    if (simd_available()) {
      detail::frequencies_avx2(soa, tech, op, shifts, got);
      expect_same_bits(got, aged, "AVX2 kernel, aged");
      detail::frequencies_avx2(soa, tech, op, no_shifts, got);
      expect_same_bits(got, fresh, "AVX2 kernel, fresh");
    }
#endif
  }
}

// E2's lifetime: every die of both designs through age_years to each
// checkpoint, its oracle copy through apply_stress under the design's
// lifetime profile.
TEST(KernelEquivalence, AgedDiesMatchTheOracleBitwise) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  const AgingModel aging(tech);
  const RngFabric fabric(77);
  const double checkpoints[] = {0.0, 2.0, 6.0, 10.0};
  for (const PufConfig& config : {PufConfig::conventional(), PufConfig::aro()}) {
    for (std::uint64_t die = 0; die < kDiesPerDesign; ++die) {
      RoPuf chip(tech, config, fabric.child("chip", die));
      std::vector<RingOscillator> oracle = chip.oscillators();
      double age = 0.0;
      for (const double year : checkpoints) {
        SCOPED_TRACE(::testing::Message() << config.label << " die " << die << " at " << year
                                          << " years");
        if (year > age) {
          chip.age_years(year - age);
          for (RingOscillator& ro : oracle) {
            ro.apply_stress(aging, config.lifetime_profile, years(year - age));
          }
          age = year;
        }
        expect_die_matches_oracle(chip, oracle);
      }
    }
  }
}

// Mixed missions: a hot burn-in, static idle, gated use and always-on use,
// each an age(profile, duration) phase at its own stress temperature.
TEST(KernelEquivalence, MixedPhasesMatchTheOracleBitwise) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  const AgingModel aging(tech);
  const RngFabric fabric(78);
  StressProfile burn_in = StressProfile::conventional_always_on();
  burn_in.stress_temperature = celsius(125.0);
  StressProfile cold_idle = StressProfile::static_enabled_idle();
  cold_idle.stress_temperature = celsius(-10.0);
  const std::pair<StressProfile, Seconds> phases[] = {
      {burn_in, 48.0 * 3600.0},
      {cold_idle, years(1.0)},
      {StressProfile::aro_gated(1000.0, 1e-3), years(3.0)},
      {StressProfile::conventional_always_on(), years(0.5)},
  };
  for (const PufConfig& config : {PufConfig::conventional(), PufConfig::aro()}) {
    for (std::uint64_t die = 0; die < kDiesPerDesign; ++die) {
      RoPuf chip(tech, config, fabric.child("chip", die));
      std::vector<RingOscillator> oracle = chip.oscillators();
      for (std::size_t p = 0; p < std::size(phases); ++p) {
        const auto& [profile, duration] = phases[p];
        SCOPED_TRACE(::testing::Message() << config.label << " die " << die << " after phase "
                                          << p << " (" << profile.name << ")");
        chip.age(profile, duration);
        for (RingOscillator& ro : oracle) ro.apply_stress(aging, profile, duration);
        expect_die_matches_oracle(chip, oracle);
      }
    }
  }
}

TEST(KernelEquivalence, FrequencyVectorsMatchPerRoAccessors) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  RoPuf chip(tech, PufConfig::aro(), RngFabric(7).child("chip", 3));
  chip.age_years(3.0);
  const OperatingPoint op = chip.nominal_op();
  const std::vector<double> aged = chip.ro_frequencies(op);
  const std::vector<double> fresh = chip.fresh_ro_frequencies(op);
  ASSERT_EQ(aged.size(), chip.oscillators().size());
  for (std::size_t i = 0; i < aged.size(); ++i) {
    EXPECT_EQ(bits(aged[i]), bits(chip.oscillators()[i].frequency(op))) << "RO " << i;
    EXPECT_EQ(bits(fresh[i]), bits(chip.oscillators()[i].fresh_frequency(op))) << "RO " << i;
  }
}

}  // namespace
}  // namespace aropuf
