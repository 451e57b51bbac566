#include "device/technology.hpp"

#include "common/check.hpp"
#include "common/detmath.hpp"

namespace aropuf {

void TechnologyParams::validate() const {
  ARO_REQUIRE(vdd_nominal > 0.0, "vdd must be positive");
  ARO_REQUIRE(vth_n > 0.0 && vth_n < vdd_nominal, "vth_n must lie in (0, vdd)");
  ARO_REQUIRE(vth_p > 0.0 && vth_p < vdd_nominal, "vth_p must lie in (0, vdd)");
  ARO_REQUIRE(alpha >= 1.0 && alpha <= 2.0, "alpha-power exponent must be in [1, 2]");
  ARO_REQUIRE(delay_k > 0.0, "delay_k must be positive");
  ARO_REQUIRE(nand_delay_factor >= 1.0, "NAND stage cannot be faster than an inverter");
  ARO_REQUIRE(mobility_temp_exp > 0.0, "mobility temperature exponent must be positive");
  ARO_REQUIRE(temp_nominal > 0.0, "temperature must be in kelvin (> 0)");
  ARO_REQUIRE(sigma_vth_local >= 0.0 && sigma_vth_global >= 0.0 && sigma_vth_spatial >= 0.0,
              "variation sigmas must be non-negative");
  ARO_REQUIRE(spatial_correlation_length > 0.0, "correlation length must be positive");
  ARO_REQUIRE(layout_ripple_wavelength > 0.0, "ripple wavelength must be positive");
  ARO_REQUIRE(nbti_a >= 0.0 && hci_b >= 0.0, "aging prefactors must be non-negative");
  ARO_REQUIRE(nbti_n > 0.0 && nbti_n < 1.0, "NBTI time exponent must be in (0, 1)");
  ARO_REQUIRE(nbti_recovery_fraction >= 0.0 && nbti_recovery_fraction < 1.0,
              "recovery fraction must be in [0, 1)");
  ARO_REQUIRE(hci_m > 0.0 && hci_m < 1.0, "HCI exponent must be in (0, 1)");
  ARO_REQUIRE(nbti_sigma_rel >= 0.0 && hci_sigma_rel >= 0.0,
              "aging spreads must be non-negative");
  ARO_REQUIRE(jitter_cycle_rel >= 0.0 && noise_lowfreq_rel >= 0.0,
              "noise parameters must be non-negative");
  ARO_REQUIRE(counter_bits > 0 && counter_bits <= 32, "counter width must be in (0, 32]");
  ARO_REQUIRE(area_ge_um2 > 0.0 && area_ro_cell_ge > 0.0 && area_counter_bit_ge > 0.0,
              "area parameters must be positive");
}

Hertz TechnologyParams::nominal_ro_frequency(int stages) const {
  ARO_REQUIRE(stages >= 3 && stages % 2 == 1, "RO needs an odd stage count >= 3");
  const double tau_n = delay_k * vdd_nominal / detmath::pow(vdd_nominal - vth_n, alpha);
  const double tau_p = delay_k * vdd_nominal / detmath::pow(vdd_nominal - vth_p, alpha);
  const double tau_stage = 0.5 * (tau_n + tau_p);
  // One stage carries the NAND enable; the rest are inverters.
  const double period =
      2.0 * (static_cast<double>(stages - 1) * tau_stage + nand_delay_factor * tau_stage);
  return 1.0 / period;
}

TechnologyParams TechnologyParams::cmos90() {
  TechnologyParams t;
  t.name = "cmos90";
  t.vdd_nominal = 1.2;
  t.vth_n = 0.35;
  t.vth_p = 0.38;
  t.alpha = 1.3;
  // Calibrated for ~28 ps per inverter stage at nominal corner: a 13-stage RO
  // oscillates near 1.3 GHz before division; the measured macro output is
  // typically divided, which only rescales counts.
  t.delay_k = 20.5e-12;
  t.validate();
  return t;
}

TechnologyParams TechnologyParams::cmos65() {
  TechnologyParams t = cmos90();
  t.name = "cmos65";
  t.vdd_nominal = 1.1;
  t.vth_n = 0.32;
  t.vth_p = 0.35;
  t.delay_k = 14.0e-12;
  t.sigma_vth_local = 18e-3;
  t.sigma_vth_global = 24e-3;
  t.sigma_vth_spatial = 10e-3;
  t.nbti_a = 2.6e-3;  // thinner oxide, higher field: slightly faster BTI
  t.hci_b = 2.3e-3;
  t.area_ge_um2 = 1.6;
  t.validate();
  return t;
}

TechnologyParams TechnologyParams::cmos45() {
  TechnologyParams t = cmos90();
  t.name = "cmos45";
  t.vdd_nominal = 1.0;
  t.vth_n = 0.30;
  t.vth_p = 0.33;
  t.delay_k = 9.5e-12;
  t.sigma_vth_local = 22e-3;
  t.sigma_vth_global = 28e-3;
  t.sigma_vth_spatial = 12e-3;
  t.nbti_a = 3.0e-3;
  t.hci_b = 2.7e-3;
  t.area_ge_um2 = 0.8;
  t.validate();
  return t;
}

}  // namespace aropuf
