#include "circuit/ring_oscillator.hpp"

#include "common/check.hpp"
#include "device/technology.hpp"

namespace aropuf {

namespace {

// `static_offset` is the die's position-dependent (global + spatial +
// systematic) Vth component, hoisted out of the device loop: all 2*stages
// devices of an RO share one position, and the spatially correlated field is
// the most expensive variation component to evaluate (a 7x7 anchor
// convolution).  RoPuf goes one step further and evaluates the field for the
// whole array at once (DieVariation::static_offsets).  Neither hoist changes
// a bit: the per-device sum  static + local  keeps the historical
// association.
Transistor make_device(DeviceType type, const TechnologyParams& tech, Volts static_offset,
                       const DieVariation& die, Xoshiro256& rng) {
  Transistor t;
  t.type = type;
  const Volts nominal = (type == DeviceType::kPmos) ? tech.vth_p : tech.vth_n;
  t.vth_fresh = nominal + (static_offset + die.local_sample(rng));
  t.vth_tempco = tech.vth_tempco * (1.0 + tech.vth_tempco_mismatch_rel * rng.gaussian());
  // Stochastic aging sensitivities: log-normal-ish via clamped Gaussian so a
  // device can age much more than nominal but never "un-age".
  const double nbti_g = 1.0 + tech.nbti_sigma_rel * rng.gaussian();
  const double hci_g = 1.0 + tech.hci_sigma_rel * rng.gaussian();
  t.nbti_sensitivity = nbti_g > 0.05 ? nbti_g : 0.05;
  t.hci_sensitivity = hci_g > 0.05 ? hci_g : 0.05;
  return t;
}

}  // namespace

RingOscillator::RingOscillator(const TechnologyParams& tech, int num_stages, Position pos,
                               Volts static_offset, const DieVariation& die, Xoshiro256& rng)
    : tech_(&tech), delay_(tech), pos_(pos) {
  ARO_REQUIRE(num_stages >= 3 && num_stages % 2 == 1,
              "ring oscillator needs an odd stage count >= 3");
  stages_.reserve(static_cast<std::size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    Stage stage;
    stage.pmos = make_device(DeviceType::kPmos, tech, static_offset, die, rng);
    stage.nmos = make_device(DeviceType::kNmos, tech, static_offset, die, rng);
    stages_.push_back(stage);
  }
}

Hertz RingOscillator::frequency_with_shifts(OperatingPoint op, const AgingShifts& shifts) const {
  Seconds half_period = 0.0;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const double topology = (s == 0) ? tech_->nand_delay_factor : 1.0;
    half_period += delay_.stage_delay(stages_[s].pmos, stages_[s].nmos, op, shifts, topology);
  }
  ARO_ASSERT(half_period > 0.0, "non-positive RO period");
  return 1.0 / (2.0 * half_period);
}

Hertz RingOscillator::frequency(OperatingPoint op) const {
  return frequency_with_shifts(op, shifts_);
}

Hertz RingOscillator::fresh_frequency(OperatingPoint op) const {
  return frequency_with_shifts(op, AgingShifts{});
}

void RingOscillator::apply_stress(const AgingModel& aging, const StressProfile& profile,
                                  Seconds duration) {
  // Cycles accrue at the RO's own current frequency at the stress condition.
  const Hertz f_osc =
      frequency(OperatingPoint{tech_->vdd_nominal, profile.stress_temperature});
  AgingStep step(aging, profile, duration);
  apply_stress(step, f_osc);
}

void RingOscillator::apply_stress(const AgingStep& step, Hertz f_osc) {
  stress_ = step.advance(stress_, f_osc);
  shifts_ = step.model().shifts(stress_);
}

void RingOscillator::reset_aging() {
  stress_ = StressState{};
  shifts_ = AgingShifts{};
}

}  // namespace aropuf
