// RoPuf — one PUF instance on one die: the RO array, its pairing, the
// measurement machinery, and the aging state.
//
// A population study constructs many RoPuf objects from one RngFabric (one
// child fabric per die) and compares their responses; a lifetime study ages
// each instance with age_years() and re-evaluates.
//
// Both the conventional RO-PUF and the ARO-PUF are RoPuf objects — the
// behavioural difference is entirely in the PufConfig (pairing + stress
// profile), mirroring the paper's claim that the ARO design changes usage
// and layout discipline, not the oscillator itself.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "circuit/delay_kernel.hpp"
#include "circuit/measurement.hpp"
#include "circuit/operating_point.hpp"
#include "circuit/ring_oscillator.hpp"
#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "device/aging.hpp"
#include "device/technology.hpp"
#include "puf/puf_config.hpp"

namespace aropuf {

class RoPuf {
 public:
  /// Builds the die: draws every device's variation from `fabric`'s streams.
  /// Two RoPuf objects built from fabrics with different seeds model two
  /// different chips of the same design.
  RoPuf(const TechnologyParams& tech, PufConfig config, RngFabric fabric);

  /// The same die read as another design: copies `die`'s RO array (aging
  /// state included), its SoA snapshot, fabric and aging model, and takes
  /// the pairing, measurement window and stress profile from `config`.  A
  /// fresh `die` gives, bit for bit, the die a fresh build of `config` from
  /// the same fabric gives; an aged one gives that build aged through the
  /// same phases.  Throws std::invalid_argument unless `config` has `die`'s
  /// num_ros, stages and array_width, the fields that decide the silicon.
  /// A copy costs a few percent of a build.
  RoPuf(const RoPuf& die, PufConfig config);

  /// Measured response (counter-based, with noise).  `eval_index`
  /// distinguishes repeated evaluations: the same index replays the same
  /// noise (reproducibility); increment it to model re-measurement.
  [[nodiscard]] BitVector evaluate(OperatingPoint op, std::uint64_t eval_index = 0) const;

  /// Idealized response from true frequencies (no measurement noise).
  [[nodiscard]] BitVector noiseless_response(OperatingPoint op) const;

  /// Per-pair signed frequency differences f_a − f_b in Hz (analysis hook
  /// for the E1 bench and the entropy study).
  [[nodiscard]] std::vector<double> pair_frequency_differences(OperatingPoint op) const;

  /// Frequencies of all ROs at `op` including accumulated aging, in one pass
  /// of the CPU's delay kernel (delay_kernel.hpp).  frequencies[i] is
  /// bit-identical to oscillators()[i].frequency(op), the per-RO walk the
  /// tests hold every kernel to.
  [[nodiscard]] std::vector<double> ro_frequencies(OperatingPoint op) const;

  /// Same with aging ignored (enrollment-time / fresh silicon);
  /// frequencies[i] == oscillators()[i].fresh_frequency(op).
  [[nodiscard]] std::vector<double> fresh_ro_frequencies(OperatingPoint op) const;

  /// Advances the device lifetime by `y` years under the configured profile.
  void age_years(double y);

  /// Advances by an explicit (profile, duration) phase — burn-in studies and
  /// ablations with mixed usage.
  void age(const StressProfile& profile, Seconds duration);

  /// Returns this chip to fresh silicon (replays of the same die).
  void reset_aging();

  [[nodiscard]] const PufConfig& config() const noexcept { return config_; }
  [[nodiscard]] const TechnologyParams& technology() const noexcept { return *tech_; }
  [[nodiscard]] const std::vector<RingOscillator>& oscillators() const noexcept { return ros_; }
  [[nodiscard]] const std::vector<std::pair<int, int>>& pairs() const noexcept { return pairs_; }
  [[nodiscard]] std::size_t response_bits() const noexcept { return pairs_.size(); }
  [[nodiscard]] OperatingPoint nominal_op() const {
    return OperatingPoint{tech_->vdd_nominal, tech_->temp_nominal};
  }

 private:
  std::shared_ptr<const TechnologyParams> tech_;
  PufConfig config_;
  RngFabric fabric_;
  AgingModel aging_;
  FrequencyCounter counter_;
  std::vector<RingOscillator> ros_;
  std::vector<std::pair<int, int>> pairs_;
  /// SoA snapshot of the (immutable) device parameters for the batched delay
  /// kernel; built once at construction, reused by every evaluation.
  RoArraySoA soa_;
};

/// Builds a population of `count` chips of the same design, each with an
/// independent die (global shift, spatial field, mismatch) derived from
/// `master_fabric`.
[[nodiscard]] std::vector<RoPuf> make_population(const TechnologyParams& tech,
                                                 const PufConfig& config, int count,
                                                 const RngFabric& master_fabric);

}  // namespace aropuf
