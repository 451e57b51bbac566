// Ring oscillator: an odd chain of inverting stages plus a NAND enable stage.
//
// Each stage owns a PMOS/NMOS pair whose fresh Vth includes all process-
// variation components; the RO tracks one shared StressState (its devices
// see the same usage) while each device keeps its own stochastic aging
// sensitivity.  Frequency is 1 / (2 * sum of stage delays) — the quantity
// whose pairwise comparison produces PUF response bits.
#pragma once

#include <vector>

#include "circuit/delay_model.hpp"
#include "circuit/operating_point.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "device/aging.hpp"
#include "device/stress.hpp"
#include "device/transistor.hpp"
#include "variation/process_variation.hpp"

namespace aropuf {

class RingOscillator {
 public:
  struct Stage {
    Transistor pmos;
    Transistor nmos;
  };

  /// Builds an RO of `num_stages` inverting stages (stage 0 is the NAND
  /// enable stage) at die position `pos`.  `static_offset` is the die's
  /// position-dependent Vth component there (DieVariation::static_offset, or
  /// one element of a whole array's DieVariation::static_offsets); each
  /// device adds its own variation drawn from `die` and `rng`.
  RingOscillator(const TechnologyParams& tech, int num_stages, Position pos, Volts static_offset,
                 const DieVariation& die, Xoshiro256& rng);

  /// Oscillation frequency at `op` including all accumulated aging, by the
  /// per-RO walk: the oracle the delay kernels (delay_kernel.hpp) are tested
  /// against bit for bit.  RoPuf evaluates a whole array through the kernel.
  [[nodiscard]] Hertz frequency(OperatingPoint op) const;

  /// Frequency with aging ignored (enrollment-time / fresh silicon); the
  /// oracle for RoPuf::fresh_ro_frequencies.
  [[nodiscard]] Hertz fresh_frequency(OperatingPoint op) const;

  /// Advances this RO's life by `duration` wall-clock seconds under `profile`.
  /// Oscillation cycles for HCI accrue at the RO's own (current) frequency.
  /// The oracle for RoPuf::age, which takes the step overload below.
  void apply_stress(const AgingModel& aging, const StressProfile& profile, Seconds duration);

  /// Advances this RO through `step`, with its oscillation frequency at the
  /// stress condition supplied by the caller — the batched-aging entry
  /// point: RoPuf computes all of a chip's frequencies in one delay-kernel
  /// pass, then advances every RO through one step with its own value.
  /// Passing the frequency this RO would compute itself makes the overload
  /// bit-identical to apply_stress(aging, profile, duration).
  void apply_stress(const AgingStep& step, Hertz f_osc);

  /// Discards all accumulated aging (used to replay alternative lifetimes of
  /// the same silicon in ablation studies).
  void reset_aging();

  [[nodiscard]] const StressState& stress() const noexcept { return stress_; }
  [[nodiscard]] const AgingShifts& aging_shifts() const noexcept { return shifts_; }
  [[nodiscard]] Position position() const noexcept { return pos_; }
  [[nodiscard]] int num_stages() const noexcept { return static_cast<int>(stages_.size()); }
  [[nodiscard]] const std::vector<Stage>& stages() const noexcept { return stages_; }

 private:
  [[nodiscard]] Hertz frequency_with_shifts(OperatingPoint op, const AgingShifts& shifts) const;

  const TechnologyParams* tech_;
  DelayModel delay_;
  std::vector<Stage> stages_;
  Position pos_;
  /// Nominal-temperature-equivalent accumulated stress: phases at different
  /// temperatures (mission profiles) add exactly — AgingModel folds each
  /// phase's Arrhenius acceleration in at accumulation time.
  StressState stress_{};
  AgingShifts shifts_{};
};

}  // namespace aropuf
