// Alpha-power-law stage delay.
//
//   tau_edge = K(T) * V_DD / (V_DD - Vth_eff)^alpha
//   K(T)     = delay_k * (T / T_nom)^mobility_exp        (mobility degradation)
//
// The rising edge is set by the PMOS (its Vth carries the NBTI shift), the
// falling edge by the NMOS (HCI shift); a stage's delay is the average of
// the two edges.  This captures exactly the sensitivities that decide PUF
// bits: dVth from variation or aging slows the oscillator monotonically,
// temperature acts through both Vth and mobility (with the realistic
// partial cancellation), and reduced V_DD amplifies Vth differences.
//
// The per-edge arithmetic is factored into free inline helpers
// (edge_scale / alpha_power_edge_delay) shared with the batched SoA kernel
// in circuit/delay_kernel.hpp, so the reference per-RO path and the batched
// path execute the same floating-point operations in the same order — the
// foundation of the bit-identity guarantee (DESIGN.md "Performance model").
#pragma once

#include <algorithm>

#include "circuit/operating_point.hpp"
#include "common/detmath.hpp"
#include "common/units.hpp"
#include "device/aging.hpp"
#include "device/technology.hpp"
#include "device/transistor.hpp"

namespace aropuf {

/// Below this gate overdrive (V_DD - Vth) the alpha-power model is outside
/// its validity region (near/sub-threshold); clamping keeps low-V_DD sweeps
/// well-defined while preserving monotonicity.  Every delay path — the
/// reference per-RO path, the batched kernel, and the explicit SIMD kernel —
/// applies this same floor (regression-tested in
/// tests/circuit/delay_kernel_test.cpp).
inline constexpr double kMinOverdrive = 0.05;

/// Operating-point-dependent prefactor of one edge delay:
/// `delay_k * (T/T_nom)^mobility_exp * V_DD`.  Pure in (tech, op), so callers
/// evaluating many devices at one operating point hoist it out of the loop;
/// the association `(delay_k * mobility) * vdd` matches the historical
/// expression exactly, keeping hoisted and unhoisted callers bit-identical.
[[nodiscard]] inline double edge_scale(const TechnologyParams& tech, OperatingPoint op) {
  const double mobility_factor =
      detmath::pow(op.temp / tech.temp_nominal, tech.mobility_temp_exp);
  return tech.delay_k * mobility_factor * op.vdd;
}

/// Delay of one edge with precomputed `scale` (see edge_scale): clamps the
/// overdrive to kMinOverdrive and applies the alpha-power law.
/// Shared by DelayModel::edge_delay and the batched kernel; the AVX2 kernel
/// runs the same pow four lanes wide (common/detmath_avx2.hpp).
[[nodiscard]] inline Seconds alpha_power_edge_delay(double scale, Volts vth, Volts vdd,
                                                    double alpha) {
  const double overdrive = std::max(vdd - vth, kMinOverdrive);
  return scale / detmath::pow(overdrive, alpha);
}

class DelayModel {
 public:
  explicit DelayModel(const TechnologyParams& tech);

  /// Delay of one inverting stage built from `pmos`/`nmos`, at operating
  /// point `op`, with the RO's deterministic aging shifts `shifts`.
  /// `topology_factor` is 1.0 for an inverter, > 1 for the NAND enable stage.
  [[nodiscard]] Seconds stage_delay(const Transistor& pmos, const Transistor& nmos,
                                    OperatingPoint op, const AgingShifts& shifts,
                                    double topology_factor = 1.0) const;

  /// Delay of one edge driven by a device with effective threshold `vth`.
  [[nodiscard]] Seconds edge_delay(Volts vth, OperatingPoint op) const;

  [[nodiscard]] const TechnologyParams& technology() const noexcept { return *tech_; }

 private:
  const TechnologyParams* tech_;
};

}  // namespace aropuf
