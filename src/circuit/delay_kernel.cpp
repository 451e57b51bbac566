#include "circuit/delay_kernel.hpp"

#include <cstdint>

#include "common/check.hpp"
#include "device/technology.hpp"
#include "telemetry/log.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {

namespace {

/// Batch-granular kernel instruments: two relaxed adds per compute call
/// (never per RO — a batch covers a whole chip's array).  Built on the
/// process's first batch, which also records the kernel that runs as a
/// manifest process field: the CPU picks it, so it holds for the whole
/// process and survives every reset_run_record().
struct KernelTelemetry {
  telemetry::Counter& batches;
  telemetry::Counter& ro_evals;

  static KernelTelemetry& get() {
    static KernelTelemetry t = make();
    return t;
  }

  static KernelTelemetry make() {
    const char* backend = to_string(delay_backend());
    telemetry::set_process_field("kernel_backend", JsonValue(backend));
    ARO_LOG_DEBUG("kernel", "delay kernel backend selected", {"backend", JsonValue(backend)});
    auto& reg = telemetry::MetricsRegistry::global();
    return KernelTelemetry{reg.counter("kernel.batches"), reg.counter("kernel.ro_evals")};
  }
};

}  // namespace

const char* to_string(DelayBackend backend) noexcept {
  switch (backend) {
    case DelayBackend::kBatched: return "batched";
    case DelayBackend::kSimd: return "simd";
  }
  return "unknown";
}

DelayBackend delay_backend() noexcept {
  return simd_available() ? DelayBackend::kSimd : DelayBackend::kBatched;
}

bool simd_compiled() noexcept {
#if defined(AROPUF_SIMD_ENABLED)
  return true;
#else
  return false;
#endif
}

bool simd_available() noexcept {
#if defined(AROPUF_SIMD_ENABLED)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

RoArraySoA RoArraySoA::from_oscillators(std::span<const RingOscillator> ros) {
  RoArraySoA soa;
  if (ros.empty()) return soa;
  soa.num_ros = static_cast<int>(ros.size());
  soa.stages = ros.front().num_stages();
  const std::size_t n = soa.size();
  soa.vth_p_fresh.reserve(n);
  soa.tempco_p.reserve(n);
  soa.nbti_sens.reserve(n);
  soa.vth_n_fresh.reserve(n);
  soa.tempco_n.reserve(n);
  soa.hci_sens.reserve(n);
  for (const RingOscillator& ro : ros) {
    ARO_REQUIRE(ro.num_stages() == soa.stages,
                "all ROs in a batched array must have the same stage count");
    for (const RingOscillator::Stage& stage : ro.stages()) {
      soa.vth_p_fresh.push_back(stage.pmos.vth_fresh);
      soa.tempco_p.push_back(stage.pmos.vth_tempco);
      soa.nbti_sens.push_back(stage.pmos.nbti_sensitivity);
      soa.vth_n_fresh.push_back(stage.nmos.vth_fresh);
      soa.tempco_n.push_back(stage.nmos.vth_tempco);
      soa.hci_sens.push_back(stage.nmos.hci_sensitivity);
    }
  }
  return soa;
}

namespace detail {

void frequencies_batched(const RoArraySoA& soa, const TechnologyParams& tech, OperatingPoint op,
                         std::span<const AgingShifts> shifts, std::span<double> frequencies) {
  ARO_REQUIRE(op.vdd > 0.0, "vdd must be positive");
  ARO_REQUIRE(op.temp > 0.0, "temperature must be in kelvin");
  ARO_REQUIRE(shifts.size() == static_cast<std::size_t>(soa.num_ros),
              "need one AgingShifts per RO");
  ARO_REQUIRE(frequencies.size() == static_cast<std::size_t>(soa.num_ros),
              "output span must have one slot per RO");
  // Hoisted once per (tech, op): same association as the per-edge walk's
  // expression, so hoisting changes cost, not bits.
  const double dtemp = op.temp - tech.temp_nominal;
  const double scale = edge_scale(tech, op);
  const double alpha = tech.alpha;
  const double nand_half = tech.nand_delay_factor * 0.5;
  const auto stages = static_cast<std::size_t>(soa.stages);
  for (std::size_t ro = 0; ro < static_cast<std::size_t>(soa.num_ros); ++ro) {
    const double nbti_shift = shifts[ro].nbti;
    const double hci_shift = shifts[ro].hci;
    const std::size_t base = ro * stages;
    // Serial stage-order reduction: keeps floating-point accumulation order
    // identical to the per-RO walk (RingOscillator::frequency_with_shifts).
    double half_period = 0.0;
    for (std::size_t s = 0; s < stages; ++s) {
      const std::size_t i = base + s;
      const Volts vth_p =
          effective_vth(soa.vth_p_fresh[i], soa.tempco_p[i], dtemp, soa.nbti_sens[i], nbti_shift);
      const Volts vth_n =
          effective_vth(soa.vth_n_fresh[i], soa.tempco_n[i], dtemp, soa.hci_sens[i], hci_shift);
      const Seconds rise = alpha_power_edge_delay(scale, vth_p, op.vdd, alpha);
      const Seconds fall = alpha_power_edge_delay(scale, vth_n, op.vdd, alpha);
      const double topology_half = (s == 0) ? nand_half : 0.5;
      half_period += topology_half * (rise + fall);
    }
    ARO_ASSERT(half_period > 0.0, "non-positive RO period");
    frequencies[ro] = 1.0 / (2.0 * half_period);
  }
}

}  // namespace detail

void compute_frequencies(const RoArraySoA& soa, const TechnologyParams& tech, OperatingPoint op,
                         std::span<const AgingShifts> shifts, std::span<double> frequencies) {
  KernelTelemetry& telem = KernelTelemetry::get();
  telem.batches.add(1);
  telem.ro_evals.add(static_cast<std::uint64_t>(soa.num_ros));
#if defined(AROPUF_SIMD_ENABLED)
  if (delay_backend() == DelayBackend::kSimd) {
    detail::frequencies_avx2(soa, tech, op, shifts, frequencies);
    return;
  }
#endif
  detail::frequencies_batched(soa, tech, op, shifts, frequencies);
}

}  // namespace aropuf
