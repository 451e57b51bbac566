#include "device/nbti.hpp"

#include "common/check.hpp"
#include "common/detmath.hpp"
#include "device/technology.hpp"

namespace aropuf {

NbtiModel::NbtiModel(const TechnologyParams& tech)
    : a_(tech.nbti_a),
      ea_(tech.nbti_ea),
      n_(tech.nbti_n),
      recovery_fraction_(tech.nbti_recovery_fraction),
      t_nominal_(tech.temp_nominal) {
  tech.validate();
}

Seconds NbtiModel::effective_stress(Seconds elapsed, double duty,
                                    bool recovery_enabled) const {
  ARO_REQUIRE(elapsed >= 0.0, "elapsed time must be non-negative");
  ARO_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty must be in [0, 1]");
  if (!recovery_enabled || duty >= 1.0) return elapsed * duty;
  // Relaxation during the (1 - duty) fraction recovers part of the damage.
  return elapsed * duty * (1.0 - recovery_fraction_ * (1.0 - duty));
}

Volts NbtiModel::delta_vth(Seconds effective_stress_seconds, Kelvin temp) const {
  ARO_REQUIRE(effective_stress_seconds >= 0.0, "stress time must be non-negative");
  ARO_REQUIRE(temp > 0.0, "temperature must be in kelvin");
  if (effective_stress_seconds == 0.0) return 0.0;
  const double arrhenius =
      detmath::exp(-(ea_ / constants::k_boltzmann_ev) * (1.0 / temp - 1.0 / t_nominal_));
  return a_ * arrhenius * detmath::pow(effective_stress_seconds, n_);
}

double NbtiModel::temperature_weight(Kelvin temp) const {
  ARO_REQUIRE(temp > 0.0, "temperature must be in kelvin");
  // arrhenius^(1/n): folding the temperature factor inside the power law.
  return detmath::exp(-(ea_ / (constants::k_boltzmann_ev * n_)) * (1.0 / temp - 1.0 / t_nominal_));
}

Volts NbtiModel::delta_vth_weighted(Seconds weighted_effective_seconds) const {
  ARO_REQUIRE(weighted_effective_seconds >= 0.0, "stress time must be non-negative");
  if (weighted_effective_seconds == 0.0) return 0.0;
  return a_ * detmath::pow(weighted_effective_seconds, n_);
}

Seconds NbtiModel::effective_stress_for_shift(Volts shift, Kelvin temp) const {
  ARO_REQUIRE(shift >= 0.0, "shift must be non-negative");
  ARO_REQUIRE(temp > 0.0, "temperature must be in kelvin");
  if (shift == 0.0) return 0.0;
  const double arrhenius =
      detmath::exp(-(ea_ / constants::k_boltzmann_ev) * (1.0 / temp - 1.0 / t_nominal_));
  ARO_ASSERT(a_ > 0.0, "inverting a zero-amplitude NBTI model");
  return detmath::pow(shift / (a_ * arrhenius), 1.0 / n_);
}

}  // namespace aropuf
