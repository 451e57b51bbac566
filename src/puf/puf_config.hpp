// PUF instance configuration: array geometry, measurement window, pairing
// strategy, and lifetime stress profile.
//
// The two designs the paper compares are two configurations of the same
// machinery:
//
//   PufConfig::conventional()  — distant pairing, ROs enabled for the whole
//                                lifetime (oscillating, accumulating NBTI at
//                                ~50 % duty and HCI continuously);
//   PufConfig::aro()           — adjacent pairing, enable/power gating so
//                                stress accrues only during evaluations,
//                                with NBTI recovery in the idle state.
//
// Every field is independently overridable, which is what the E8 ablation
// bench exploits (gating alone, pairing alone, recovery alone).
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "device/stress.hpp"
#include "puf/pairing.hpp"

namespace aropuf {

enum class PufDesign { kConventional, kAro, kCustom };

struct PufConfig {
  PufDesign design = PufDesign::kCustom;
  std::string label = "custom";

  /// Number of ring oscillators in the array (even; placed row-major on a
  /// grid of `array_width` columns).
  int num_ros = 256;
  /// Stages per RO (odd; stage 0 is the NAND enable stage).
  int stages = 13;
  int array_width = 16;

  /// Gate time of one frequency measurement.
  Seconds measurement_window = 20e-6;

  PairingStrategy pairing = PairingStrategy::kAdjacentDedicated;
  /// Seed for kRandomChallenge pairing (ignored otherwise).
  std::uint64_t challenge_seed = 0;

  /// How the ROs are stressed over the device lifetime.
  StressProfile lifetime_profile = StressProfile::aro_gated(20.0, 10e-3);

  /// Response length in bits under the configured pairing.
  [[nodiscard]] std::size_t response_bits() const {
    return pairing_bits(pairing, num_ros);
  }

  void validate() const;

  /// The paper's conventional RO-PUF baseline.
  static PufConfig conventional(int num_ros = 256, int stages = 13);

  /// The paper's aging-resistant ARO-PUF.  Default usage: 20 key
  /// evaluations per day, ~3 ms of oscillation each (one full-array
  /// measurement pass: 128 pairs x 20 us window) — the reference usage
  /// profile behind the 10-year reliability numbers.
  static PufConfig aro(int num_ros = 256, int stages = 13);
};

}  // namespace aropuf
