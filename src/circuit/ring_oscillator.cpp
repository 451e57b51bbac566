#include "circuit/ring_oscillator.hpp"

#include <algorithm>

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
// association.  `normal` holds the device's four standard normals in draw
// order: local mismatch, tempco, NBTI, HCI.
Transistor make_device(DeviceType type, const TechnologyParams& tech, Volts static_offset,
                       const DieVariation& die, const double* normal) {
  Transistor t;
  t.type = type;
  const Volts nominal = (type == DeviceType::kPmos) ? tech.vth_p : tech.vth_n;
  t.vth_fresh = nominal + (static_offset + die.local_sample(normal[0]));
  t.vth_tempco = tech.vth_tempco * (1.0 + tech.vth_tempco_mismatch_rel * normal[1]);
  // Stochastic aging sensitivities: log-normal-ish via clamped Gaussian so a
  // device can age much more than nominal but never "un-age".
  const double nbti_g = 1.0 + tech.nbti_sigma_rel * normal[2];
  const double hci_g = 1.0 + tech.hci_sigma_rel * normal[3];
  t.nbti_sensitivity = nbti_g > 0.05 ? nbti_g : 0.05;
  t.hci_sensitivity = hci_g > 0.05 ? hci_g : 0.05;
  return t;
}

/// An RO's normals from `rng` in one batch, sized before the stage count is
/// checked (a negative count draws none; the build then rejects it).
std::vector<double> draw_normals(int num_stages, Xoshiro256& rng) {
  std::vector<double> normals(static_cast<std::size_t>(RingOscillator::kNormalsPerStage) *
                              static_cast<std::size_t>(std::max(num_stages, 0)));
  rng.gaussians(normals);
  return normals;
}

}  // namespace

RingOscillator::RingOscillator(const TechnologyParams& tech, int num_stages, Position pos,
                               Volts static_offset, const DieVariation& die, Xoshiro256& rng)
    : RingOscillator(tech, num_stages, pos, static_offset, die, draw_normals(num_stages, rng)) {}

RingOscillator::RingOscillator(const TechnologyParams& tech, int num_stages, Position pos,
                               Volts static_offset, const DieVariation& die,
                               std::span<const double> normals)
    : tech_(&tech), delay_(tech), pos_(pos) {
  ARO_REQUIRE(num_stages >= 3 && num_stages % 2 == 1,
              "ring oscillator needs an odd stage count >= 3");
  const auto stages = static_cast<std::size_t>(num_stages);
  ARO_REQUIRE(normals.size() == kNormalsPerStage * stages,
              "ring oscillator needs 8 normals per stage");
  stages_.reserve(stages);
  for (std::size_t s = 0; s < stages; ++s) {
    const double* stage_normals = &normals[kNormalsPerStage * s];
    Stage stage;
    stage.pmos = make_device(DeviceType::kPmos, tech, static_offset, die, stage_normals);
    stage.nmos = make_device(DeviceType::kNmos, tech, static_offset, die, stage_normals + 4);
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
