#include "device/hci.hpp"

#include "common/check.hpp"
#include "common/detmath.hpp"
#include "device/technology.hpp"

namespace aropuf {

HciModel::HciModel(const TechnologyParams& tech)
    : b_(tech.hci_b), ea_(tech.hci_ea), m_(tech.hci_m), t_nominal_(tech.temp_nominal) {
  tech.validate();
}

double HciModel::temperature_weight(Kelvin temp) const {
  ARO_REQUIRE(temp > 0.0, "temperature must be in kelvin");
  return detmath::exp(-(ea_ / (constants::k_boltzmann_ev * m_)) * (1.0 / temp - 1.0 / t_nominal_));
}

Volts HciModel::delta_vth_weighted(double weighted_cycles) const {
  ARO_REQUIRE(weighted_cycles >= 0.0, "switching cycles must be non-negative");
  if (weighted_cycles == 0.0) return 0.0;
  return b_ * detmath::pow(weighted_cycles / kReferenceCycles, m_);
}

Volts HciModel::delta_vth(double switching_cycles, Kelvin temp) const {
  ARO_REQUIRE(switching_cycles >= 0.0, "switching cycles must be non-negative");
  ARO_REQUIRE(temp > 0.0, "temperature must be in kelvin");
  if (switching_cycles == 0.0) return 0.0;
  const double arrhenius =
      detmath::exp(-(ea_ / constants::k_boltzmann_ev) * (1.0 / temp - 1.0 / t_nominal_));
  return b_ * arrhenius * detmath::pow(switching_cycles / kReferenceCycles, m_);
}

}  // namespace aropuf
