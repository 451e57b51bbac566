// AgingModel — facade combining NBTI and HCI over a stress profile.
//
// The lifetime simulator advances each RO's StressState through this class;
// the circuit model then queries the deterministic shifts and scales them by
// each transistor's stochastic sensitivity.
#pragma once

#include "common/units.hpp"
#include "device/hci.hpp"
#include "device/nbti.hpp"
#include "device/stress.hpp"

namespace aropuf {

struct TechnologyParams;

/// Deterministic (population-mean) Vth shifts for one RO's stress history.
struct AgingShifts {
  Volts nbti = 0.0;  ///< applies to PMOS devices
  Volts hci = 0.0;   ///< applies to NMOS devices
};

class AgingModel {
 public:
  explicit AgingModel(const TechnologyParams& tech);

  /// Extends `state` by `duration` wall-clock seconds of use under `profile`,
  /// for an RO whose oscillation frequency while active is `f_osc`.
  /// Stress is stored in *nominal-temperature-equivalent* units (the
  /// profile's stress temperature is folded in via the models' temperature
  /// weights), so phases at different temperatures accumulate exactly.
  /// One AgingStep applied once: the batched path applies one step to a
  /// whole array and gets the same bits.
  [[nodiscard]] StressState accumulate(const StressState& state, const StressProfile& profile,
                                       Seconds duration, Hertz f_osc) const;

  /// Deterministic shifts for an accumulated (nominal-equivalent) state.
  [[nodiscard]] AgingShifts shifts(const StressState& state) const;

  [[nodiscard]] const NbtiModel& nbti() const noexcept { return nbti_; }
  [[nodiscard]] const HciModel& hci() const noexcept { return hci_; }

 private:
  NbtiModel nbti_;
  HciModel hci_;
};

/// One (profile, duration) phase of use, with everything that does not
/// depend on the RO computed once: the profile's checks, both temperature
/// weights and the NBTI increment.  AgingModel::accumulate builds one per
/// call; RoPuf::age builds one per die and advances every RO through it.
class AgingStep {
 public:
  AgingStep(const AgingModel& model, const StressProfile& profile, Seconds duration);

  /// `state` extended by this step for an RO oscillating at `f_osc`.
  [[nodiscard]] StressState advance(const StressState& state, Hertz f_osc) const;

  /// The model the step was built from; an advanced RO takes its shifts
  /// from model().shifts(state), the one formula for every path.
  [[nodiscard]] const AgingModel& model() const noexcept { return *model_; }

 private:
  const AgingModel* model_;
  Seconds duration_;
  double oscillation_fraction_;
  Seconds nbti_increment_ = 0.0;
  double hci_weight_ = 0.0;
};

}  // namespace aropuf
