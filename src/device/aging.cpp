#include "device/aging.hpp"

#include "common/check.hpp"
#include "device/technology.hpp"

namespace aropuf {

AgingModel::AgingModel(const TechnologyParams& tech) : nbti_(tech), hci_(tech) {}

StressState AgingModel::accumulate(const StressState& state, const StressProfile& profile,
                                   Seconds duration, Hertz f_osc) const {
  return AgingStep(*this, profile, duration).advance(state, f_osc);
}

AgingShifts AgingModel::shifts(const StressState& state) const {
  AgingShifts s;
  s.nbti = nbti_.delta_vth_weighted(state.nbti_effective);
  s.hci = hci_.delta_vth_weighted(state.switching_cycles);
  return s;
}

AgingStep::AgingStep(const AgingModel& model, const StressProfile& profile, Seconds duration)
    : model_(&model), duration_(duration), oscillation_fraction_(profile.oscillation_fraction) {
  ARO_REQUIRE(duration >= 0.0, "duration must be non-negative");
  profile.validate();
  nbti_increment_ =
      model.nbti().temperature_weight(profile.stress_temperature) *
      model.nbti().effective_stress(duration, profile.nbti_duty, profile.recovery_enabled);
  hci_weight_ = model.hci().temperature_weight(profile.stress_temperature);
}

StressState AgingStep::advance(const StressState& state, Hertz f_osc) const {
  ARO_REQUIRE(f_osc >= 0.0, "oscillation frequency must be non-negative");
  StressState next = state;
  next.elapsed += duration_;
  next.nbti_effective += nbti_increment_;
  // Keep ((w * f) * t) * fraction: another association would move bits.
  next.switching_cycles += hci_weight_ * f_osc * duration_ * oscillation_fraction_;
  return next;
}

}  // namespace aropuf
