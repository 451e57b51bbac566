// Batched structure-of-arrays delay/aging kernel — the vectorizable hot path
// under every E1–E14 Monte Carlo experiment.
//
// The per-RO walk (RingOscillator::frequency) evaluates one RO at a time
// through DelayModel, paying one mobility pow() per *edge* and touching
// devices through the array-of-structs Stage layout.  It stays in the
// library as the oracle the kernels are tested against; no production path
// takes it.  This kernel evaluates ALL ring oscillators of a chip in one pass
// over contiguous per-device arrays (fresh Vth, temperature coefficient,
// aging sensitivity), with the operating-point-dependent prefactor hoisted
// out of the loop — halving the pow() count, the dominant cost — and a
// memory layout the compiler can auto-vectorize.  An explicit AVX2 path
// (built whenever the compiler accepts -mavx2, runtime CPU dispatch, scalar
// fallback) vectorizes the Vth/overdrive assembly and runs pow four lanes
// wide.
//
// Bit-identity contract (enforced by tests/circuit/delay_kernel_test.cpp and
// tests/sim/kernel_equivalence_test.cpp): both kernels, batched and SIMD,
// produce the SAME bits for every frequency as the per-RO walk, so pair
// comparisons see the exact same values on every CPU.  This holds by
// construction:
//  * all three paths call the same inline per-element helpers
//    (effective_vth, alpha_power_edge_delay) with the same association;
//  * hoisted subexpressions (edge_scale, dtemp) preserve the historical
//    association, so hoisting changes cost, not bits;
//  * the per-RO stage reduction stays serial in stage order;
//  * pow is the library's own (common/detmath.hpp), not libm's, and the
//    AVX2 path's four-lane pow (common/detmath_avx2.hpp) performs the
//    scalar pow's operations in the same order, so each lane equals it;
//  * the AVX2 path otherwise uses only exactly-rounded element-wise
//    operations (sub/mul/add/div/max), and the build never enables FMA
//    and compiles with -ffp-contract=off, so no path contracts a mul+add
//    into a differently rounded fused op.
//
// Backend selection is a fact of the CPU: simd when compiled in and the CPU
// supports AVX2, else batched.  There is no switch; tests and bench_micro
// reach each kernel through detail::.
#pragma once

#include <span>
#include <vector>

#include "circuit/operating_point.hpp"
#include "circuit/ring_oscillator.hpp"
#include "common/units.hpp"
#include "device/aging.hpp"

namespace aropuf {

struct TechnologyParams;

/// Which kernel evaluates RO frequencies (see file comment).
enum class DelayBackend {
  kBatched,  ///< SoA one-pass kernel, compiler auto-vectorization
  kSimd,     ///< explicit AVX2 kernel
};

/// Human-readable backend name ("batched" / "simd").
[[nodiscard]] const char* to_string(DelayBackend backend) noexcept;

/// The kernel this CPU runs: simd when simd_available(), otherwise batched.
[[nodiscard]] DelayBackend delay_backend() noexcept;

/// True when the AVX2 kernel was compiled in (the compiler accepts -mavx2).
[[nodiscard]] bool simd_compiled() noexcept;

/// True when the AVX2 kernel is compiled in AND this CPU executes AVX2.
[[nodiscard]] bool simd_available() noexcept;

/// Structure-of-arrays snapshot of every device parameter the delay kernel
/// reads, flattened as index = ro * stages + stage.  Device parameters are
/// immutable after construction (aging state lives per-RO in AgingShifts),
/// so a chip builds this once and reuses it for every evaluation.
struct RoArraySoA {
  int num_ros = 0;
  int stages = 0;

  // PMOS (rising edge, carries the NBTI shift):
  std::vector<double> vth_p_fresh;  ///< fresh |Vth_p| incl. process variation
  std::vector<double> tempco_p;     ///< |Vth_p| tempco (V/K)
  std::vector<double> nbti_sens;    ///< stochastic NBTI multiplier
  // NMOS (falling edge, carries the HCI shift):
  std::vector<double> vth_n_fresh;  ///< fresh |Vth_n| incl. process variation
  std::vector<double> tempco_n;     ///< |Vth_n| tempco (V/K)
  std::vector<double> hci_sens;     ///< stochastic HCI multiplier

  /// Flattens `ros` (all with identical stage counts) into the SoA layout.
  [[nodiscard]] static RoArraySoA from_oscillators(std::span<const RingOscillator> ros);

  /// Total device pairs (= num_ros * stages).
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(num_ros) * static_cast<std::size_t>(stages);
  }
};

/// Evaluates the oscillation frequency of every RO in `soa` at `op` with the
/// given per-RO aging shifts, writing `frequencies[ro]`, through the kernel
/// delay_backend() names.  The process's first call records that kernel as
/// the manifest's "kernel_backend" process field.
///
/// @param soa          device-parameter snapshot (see RoArraySoA)
/// @param tech         technology the ROs were built from
/// @param op           supply/temperature evaluation corner
/// @param shifts       per-RO deterministic aging shifts, size == num_ros
///                     (pass all-zero shifts for fresh-silicon frequencies)
/// @param frequencies  output span, size == num_ros
void compute_frequencies(const RoArraySoA& soa, const TechnologyParams& tech, OperatingPoint op,
                         std::span<const AgingShifts> shifts, std::span<double> frequencies);

namespace detail {
/// Scalar/auto-vectorized batched implementation (always available).
void frequencies_batched(const RoArraySoA& soa, const TechnologyParams& tech, OperatingPoint op,
                         std::span<const AgingShifts> shifts, std::span<double> frequencies);
#if defined(AROPUF_SIMD_ENABLED)
/// Explicit AVX2 implementation (delay_kernel_avx2.cpp, compiled -mavx2).
void frequencies_avx2(const RoArraySoA& soa, const TechnologyParams& tech, OperatingPoint op,
                      std::span<const AgingShifts> shifts, std::span<double> frequencies);
#endif
}  // namespace detail

}  // namespace aropuf
