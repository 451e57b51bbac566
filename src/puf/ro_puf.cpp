#include "puf/ro_puf.hpp"

#include <optional>

#include "common/check.hpp"
#include "sim/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "variation/process_variation.hpp"

namespace aropuf {

namespace {

/// One relaxed add per full-array evaluation (never per bit or per RO).
telemetry::Counter& evaluations_counter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::global().counter("puf.evaluations");
  return c;
}

}  // namespace

RoPuf::RoPuf(const TechnologyParams& tech, PufConfig config, RngFabric fabric)
    : tech_(std::make_shared<TechnologyParams>(tech)),
      config_(std::move(config)),
      fabric_(fabric),
      aging_(*tech_),
      counter_(*tech_, config_.measurement_window) {
  tech_->validate();
  config_.validate();
  const DieVariation die(*tech_, fabric_.derive("die-variation"));
  const auto num_ros = static_cast<std::size_t>(config_.num_ros);
  const auto width = static_cast<std::size_t>(config_.array_width);
  std::vector<Position> positions(num_ros);
  for (std::size_t i = 0; i < num_ros; ++i) {
    positions[i] = {static_cast<double>(i % width), static_cast<double>(i / width)};
  }
  // One spatial-field evaluation for the whole die, not one per RO.
  const std::vector<Volts> static_offsets = die.static_offsets(positions);
  ros_.reserve(num_ros);
  for (std::size_t i = 0; i < num_ros; ++i) {
    Xoshiro256 device_rng = fabric_.stream("devices", i);
    ros_.emplace_back(*tech_, config_.stages, positions[i], static_offsets[i], die, device_rng);
  }
  pairs_ = make_pairs(config_.pairing, config_.num_ros, config_.challenge_seed);
  soa_ = RoArraySoA::from_oscillators(ros_);
}

RoPuf::RoPuf(const RoPuf& die, PufConfig config)
    : tech_(die.tech_),
      config_(std::move(config)),
      fabric_(die.fabric_),
      aging_(die.aging_),
      counter_(*tech_, config_.measurement_window),
      ros_(die.ros_),
      soa_(die.soa_) {
  config_.validate();
  ARO_REQUIRE(config_.num_ros == die.config_.num_ros && config_.stages == die.config_.stages &&
                  config_.array_width == die.config_.array_width,
              "another design of a die needs its num_ros, stages and array_width");
  pairs_ = make_pairs(config_.pairing, config_.num_ros, config_.challenge_seed);
}

std::vector<double> RoPuf::ro_frequencies(OperatingPoint op) const {
  std::vector<double> freqs(ros_.size());
  std::vector<AgingShifts> shifts;
  shifts.reserve(ros_.size());
  for (const auto& ro : ros_) shifts.push_back(ro.aging_shifts());
  compute_frequencies(soa_, *tech_, op, shifts, freqs);
  return freqs;
}

std::vector<double> RoPuf::fresh_ro_frequencies(OperatingPoint op) const {
  std::vector<double> freqs(ros_.size());
  const std::vector<AgingShifts> shifts(ros_.size());  // all-zero: fresh silicon
  compute_frequencies(soa_, *tech_, op, shifts, freqs);
  return freqs;
}

BitVector RoPuf::evaluate(OperatingPoint op, std::uint64_t eval_index) const {
  evaluations_counter().add(1);
  const std::vector<double> freqs = ro_frequencies(op);
  BitVector response(pairs_.size());
  for (std::size_t b = 0; b < pairs_.size(); ++b) {
    Xoshiro256 noise_rng = fabric_.stream("noise", eval_index, b);
    const auto [ia, ib] = pairs_[b];
    const std::uint64_t ca =
        counter_.measure_frequency(freqs[static_cast<std::size_t>(ia)], noise_rng);
    const std::uint64_t cb =
        counter_.measure_frequency(freqs[static_cast<std::size_t>(ib)], noise_rng);
    response.set(b, compare_counts(ca, cb));
  }
  return response;
}

BitVector RoPuf::noiseless_response(OperatingPoint op) const {
  const std::vector<double> freqs = ro_frequencies(op);
  BitVector response(pairs_.size());
  for (std::size_t b = 0; b < pairs_.size(); ++b) {
    const auto [ia, ib] = pairs_[b];
    response.set(b, freqs[static_cast<std::size_t>(ia)] > freqs[static_cast<std::size_t>(ib)]);
  }
  return response;
}

std::vector<double> RoPuf::pair_frequency_differences(OperatingPoint op) const {
  const std::vector<double> freqs = ro_frequencies(op);
  std::vector<double> diffs;
  diffs.reserve(pairs_.size());
  for (const auto& [ia, ib] : pairs_) {
    diffs.push_back(freqs[static_cast<std::size_t>(ia)] - freqs[static_cast<std::size_t>(ib)]);
  }
  return diffs;
}

void RoPuf::age_years(double y) {
  ARO_REQUIRE(y >= 0.0, "years must be non-negative");
  age(config_.lifetime_profile, years(y));
}

void RoPuf::age(const StressProfile& profile, Seconds duration) {
  // One batched kernel pass yields every RO's current frequency at the
  // stress condition; each RO then advances with its own value — the same
  // number apply_stress(aging, profile, duration) would compute itself —
  // through one step whose profile-only factors are computed once per die.
  const std::vector<double> freqs =
      ro_frequencies(OperatingPoint{tech_->vdd_nominal, profile.stress_temperature});
  AgingStep step(aging_, profile, duration);
  for (std::size_t i = 0; i < ros_.size(); ++i) ros_[i].apply_stress(step, freqs[i]);
}

void RoPuf::reset_aging() {
  for (auto& ro : ros_) ro.reset_aging();
}

std::vector<RoPuf> make_population(const TechnologyParams& tech, const PufConfig& config,
                                   int count, const RngFabric& master_fabric) {
  ARO_REQUIRE(count >= 1, "population must have at least one chip");
  // Dies are independent (chip i draws only from the "chip"/i child fabric),
  // so construction parallelizes; staging through optionals sidesteps the
  // missing default constructor while keeping chips in index order.
  std::vector<std::optional<RoPuf>> staged(static_cast<std::size_t>(count));
  parallel_for_chips(staged.size(), [&](std::size_t i) {
    staged[i].emplace(tech, config, master_fabric.child("chip", static_cast<std::uint64_t>(i)));
  });
  std::vector<RoPuf> chips;
  chips.reserve(staged.size());
  for (auto& chip : staged) chips.push_back(std::move(*chip));
  return chips;
}

}  // namespace aropuf
