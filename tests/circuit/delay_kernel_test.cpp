// Batched delay kernel contract tests: bitwise equality of both kernels
// against the per-RO walk, their oracle (fresh silicon, aged silicon,
// off-nominal corners, near-threshold supplies where the overdrive floor
// engages), SoA flattening, span validation, and the CPU's kernel choice.
#include "circuit/delay_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/ring_oscillator.hpp"
#include "device/technology.hpp"

namespace aropuf {
namespace {

class DelayKernelTest : public ::testing::Test {
 protected:
  /// A small array of distinct ROs at distinct die positions.
  std::vector<RingOscillator> make_ros(int count = 9, int stages = 13) const {
    const DieVariation die(tech_, 11);
    std::vector<RingOscillator> ros;
    ros.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(i));
      const Position pos{static_cast<double>(i % 4), static_cast<double>(i / 4)};
      ros.emplace_back(tech_, stages, pos, die.static_offset(pos), die, rng);
    }
    return ros;
  }

  /// Ages each RO by a different amount so every AgingShifts is distinct.
  void age_unevenly(std::vector<RingOscillator>& ros) const {
    for (std::size_t i = 0; i < ros.size(); ++i) {
      ros[i].apply_stress(aging_, StressProfile::conventional_always_on(),
                          years(0.5 * static_cast<double>(i + 1)));
    }
  }

  static std::vector<AgingShifts> gather_shifts(const std::vector<RingOscillator>& ros) {
    std::vector<AgingShifts> shifts;
    shifts.reserve(ros.size());
    for (const auto& ro : ros) shifts.push_back(ro.aging_shifts());
    return shifts;
  }

  /// Expects the batched (and, when available, AVX2) kernel to reproduce the
  /// per-RO walk's frequencies bit for bit at `op`.
  void expect_bitwise_equal_backends(const std::vector<RingOscillator>& ros,
                                     OperatingPoint op) const {
    const RoArraySoA soa = RoArraySoA::from_oscillators(ros);
    const std::vector<AgingShifts> shifts = gather_shifts(ros);
    std::vector<double> batched(ros.size());
    detail::frequencies_batched(soa, tech_, op, shifts, batched);
    for (std::size_t i = 0; i < ros.size(); ++i) {
      EXPECT_EQ(batched[i], ros[i].frequency(op)) << "RO " << i << " batched vs per-RO walk";
    }
#if defined(AROPUF_SIMD_ENABLED)
    if (simd_available()) {
      std::vector<double> simd(ros.size());
      detail::frequencies_avx2(soa, tech_, op, shifts, simd);
      for (std::size_t i = 0; i < ros.size(); ++i) {
        EXPECT_EQ(simd[i], batched[i]) << "RO " << i << " simd vs batched";
      }
    }
#endif
  }

  TechnologyParams tech_ = TechnologyParams::cmos90();
  OperatingPoint nominal_{tech_.vdd_nominal, tech_.temp_nominal};
  AgingModel aging_{tech_};
};

TEST_F(DelayKernelTest, SoAFlattensDeviceParameters) {
  const std::vector<RingOscillator> ros = make_ros(3, 7);
  const RoArraySoA soa = RoArraySoA::from_oscillators(ros);
  EXPECT_EQ(soa.num_ros, 3);
  EXPECT_EQ(soa.stages, 7);
  EXPECT_EQ(soa.size(), 21U);
  ASSERT_EQ(soa.vth_p_fresh.size(), 21U);
  for (std::size_t ro = 0; ro < ros.size(); ++ro) {
    for (std::size_t s = 0; s < 7; ++s) {
      const auto& stage = ros[ro].stages()[s];
      const std::size_t i = ro * 7 + s;
      EXPECT_EQ(soa.vth_p_fresh[i], stage.pmos.vth_fresh);
      EXPECT_EQ(soa.tempco_p[i], stage.pmos.vth_tempco);
      EXPECT_EQ(soa.nbti_sens[i], stage.pmos.nbti_sensitivity);
      EXPECT_EQ(soa.vth_n_fresh[i], stage.nmos.vth_fresh);
      EXPECT_EQ(soa.tempco_n[i], stage.nmos.vth_tempco);
      EXPECT_EQ(soa.hci_sens[i], stage.nmos.hci_sensitivity);
    }
  }
}

TEST_F(DelayKernelTest, SoARejectsMixedStageCounts) {
  std::vector<RingOscillator> ros = make_ros(2, 13);
  {
    const DieVariation die(tech_, 11);
    Xoshiro256 rng(999);
    ros.emplace_back(tech_, 7, Position{3.0, 3.0}, die.static_offset({3.0, 3.0}), die, rng);
  }
  EXPECT_THROW(RoArraySoA::from_oscillators(ros), std::invalid_argument);
}

TEST_F(DelayKernelTest, EmptyArrayYieldsEmptySoA) {
  const RoArraySoA soa = RoArraySoA::from_oscillators({});
  EXPECT_EQ(soa.num_ros, 0);
  EXPECT_EQ(soa.size(), 0U);
}

TEST_F(DelayKernelTest, KernelValidatesSpanSizes) {
  const std::vector<RingOscillator> ros = make_ros(4);
  const RoArraySoA soa = RoArraySoA::from_oscillators(ros);
  std::vector<AgingShifts> shifts(3);  // one too few
  std::vector<double> freqs(4);
  EXPECT_THROW(compute_frequencies(soa, tech_, nominal_, shifts, freqs), std::invalid_argument);
  shifts.resize(4);
  freqs.resize(5);  // one too many
  EXPECT_THROW(compute_frequencies(soa, tech_, nominal_, shifts, freqs), std::invalid_argument);
}

TEST_F(DelayKernelTest, FreshSiliconMatchesReferenceBitwise) {
  const std::vector<RingOscillator> ros = make_ros();
  expect_bitwise_equal_backends(ros, nominal_);
}

TEST_F(DelayKernelTest, AgedSiliconMatchesReferenceBitwise) {
  std::vector<RingOscillator> ros = make_ros();
  age_unevenly(ros);
  expect_bitwise_equal_backends(ros, nominal_);
}

TEST_F(DelayKernelTest, OffNominalCornersMatchReferenceBitwise) {
  std::vector<RingOscillator> ros = make_ros();
  age_unevenly(ros);
  const OperatingPoint corners[] = {
      {tech_.vdd_nominal * 0.9, celsius(-40.0)},
      {tech_.vdd_nominal * 1.1, celsius(85.0)},
      {tech_.vdd_nominal, celsius(125.0)},
  };
  for (const OperatingPoint op : corners) {
    SCOPED_TRACE(::testing::Message() << "vdd=" << op.vdd << " T=" << op.temp);
    expect_bitwise_equal_backends(ros, op);
  }
}

// Stage counts that exercise the AVX2 main loop (multiples of 4 after the
// NAND stage) and scalar-tail combinations: 3 (pure tail), 5, 7, 13, 21.
TEST_F(DelayKernelTest, StageCountSweepMatchesReferenceBitwise) {
  for (const int stages : {3, 5, 7, 13, 21}) {
    SCOPED_TRACE(::testing::Message() << stages << " stages");
    std::vector<RingOscillator> ros = make_ros(5, stages);
    age_unevenly(ros);
    expect_bitwise_equal_backends(ros, nominal_);
  }
}

// Regression test for the overdrive floor: near (vdd = 0.39 V, barely above
// the nominal |Vth_p| of 0.38 V, so device-to-device variation pushes many
// overdrives below kMinOverdrive) and below (vdd = 0.30 V, under both
// nominal Vth values, every overdrive clamped) threshold, the batched/SIMD
// kernels must apply the same max(vdd - vth, kMinOverdrive) floor as
// DelayModel::edge_delay — frequencies stay finite, positive, and
// bit-identical to the per-RO walk.
TEST_F(DelayKernelTest, NearThresholdVddHonoursOverdriveFloorBitwise) {
  std::vector<RingOscillator> ros = make_ros();
  age_unevenly(ros);
  for (const double vdd : {0.39, 0.30}) {
    SCOPED_TRACE(::testing::Message() << "vdd=" << vdd);
    const OperatingPoint op{vdd, tech_.temp_nominal};
    const RoArraySoA soa = RoArraySoA::from_oscillators(ros);
    std::vector<double> freqs(ros.size());
    detail::frequencies_batched(soa, tech_, op, gather_shifts(ros), freqs);
    for (const double f : freqs) {
      EXPECT_TRUE(std::isfinite(f));
      EXPECT_GT(f, 0.0);
    }
    expect_bitwise_equal_backends(ros, op);
  }
}

TEST(DelayBackendTest, ToStringNamesEveryBackend) {
  EXPECT_STREQ(to_string(DelayBackend::kBatched), "batched");
  EXPECT_STREQ(to_string(DelayBackend::kSimd), "simd");
}

TEST(DelayBackendTest, SimdAvailableImpliesSimdCompiled) {
  if (simd_available()) {
    EXPECT_TRUE(simd_compiled());
  }
}

TEST(DelayBackendTest, CpuPicksTheBestAvailableBackend) {
  EXPECT_EQ(delay_backend(), simd_available() ? DelayBackend::kSimd : DelayBackend::kBatched);
}

}  // namespace
}  // namespace aropuf
