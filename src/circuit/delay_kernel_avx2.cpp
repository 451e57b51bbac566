// Explicit AVX2 lane of the batched delay kernel (see delay_kernel.hpp).
//
// Compiled with -mavx2 whenever the compiler accepts the flag (and only this
// TU gets it); callers dispatch at runtime via
// __builtin_cpu_supports, so a binary built with this TU still runs (on the
// batched path) on CPUs without AVX2.
//
// Bit-identity discipline: every vector operation used here (sub/mul/add/
// div/max) is an exactly-rounded IEEE-754 element-wise operation, i.e. it
// produces the same bits as the corresponding scalar op in the batched
// kernel.  pow is the library's own (common/detmath.hpp), and pow4 runs its
// scalar operation sequence four lanes wide, so each lane equals the
// batched kernel's detmath::pow by construction.  No TU enables FMA or uses
// a fused intrinsic, and the whole build has -ffp-contract=off, so no path
// fuses a mul+add into a differently rounded op.
#include "circuit/delay_kernel.hpp"

#if defined(AROPUF_SIMD_ENABLED) && defined(__AVX2__)

#include <immintrin.h>

#include "common/check.hpp"
#include "common/detmath_avx2.hpp"
#include "device/technology.hpp"

namespace aropuf::detail {

namespace {

/// Four edge delays: scale / max(vdd - vth, kMinOverdrive)^alpha.
inline __m256d edge_delays(__m256d scale, __m256d vth, __m256d vdd, __m256d min_overdrive,
                           double alpha) {
  const __m256d overdrive = _mm256_max_pd(_mm256_sub_pd(vdd, vth), min_overdrive);
  return _mm256_div_pd(scale, detmath::detail::pow4(overdrive, alpha));
}

/// Four effective Vth values: (vth_fresh - tempco * dtemp) + sens * shift.
inline __m256d effective_vth_lanes(const double* vth_fresh, const double* tempco, __m256d dtemp,
                                   const double* sens, __m256d shift) noexcept {
  const __m256d thermal =
      _mm256_sub_pd(_mm256_loadu_pd(vth_fresh), _mm256_mul_pd(_mm256_loadu_pd(tempco), dtemp));
  return _mm256_add_pd(thermal, _mm256_mul_pd(_mm256_loadu_pd(sens), shift));
}

}  // namespace

void frequencies_avx2(const RoArraySoA& soa, const TechnologyParams& tech, OperatingPoint op,
                      std::span<const AgingShifts> shifts, std::span<double> frequencies) {
  ARO_REQUIRE(op.vdd > 0.0, "vdd must be positive");
  ARO_REQUIRE(op.temp > 0.0, "temperature must be in kelvin");
  ARO_REQUIRE(shifts.size() == static_cast<std::size_t>(soa.num_ros),
              "need one AgingShifts per RO");
  ARO_REQUIRE(frequencies.size() == static_cast<std::size_t>(soa.num_ros),
              "output span must have one slot per RO");
  const double dtemp = op.temp - tech.temp_nominal;
  const double scale = edge_scale(tech, op);
  const double alpha = tech.alpha;
  const double nand_half = tech.nand_delay_factor * 0.5;
  const __m256d dtemp_v = _mm256_set1_pd(dtemp);
  const __m256d scale_v = _mm256_set1_pd(scale);
  const __m256d vdd_v = _mm256_set1_pd(op.vdd);
  const __m256d min_od_v = _mm256_set1_pd(kMinOverdrive);
  const auto stages = static_cast<std::size_t>(soa.stages);
  const std::size_t simd_stages = stages - stages % 4;

  for (std::size_t ro = 0; ro < static_cast<std::size_t>(soa.num_ros); ++ro) {
    const double nbti_shift = shifts[ro].nbti;
    const double hci_shift = shifts[ro].hci;
    const __m256d nbti_v = _mm256_set1_pd(nbti_shift);
    const __m256d hci_v = _mm256_set1_pd(hci_shift);
    const std::size_t base = ro * stages;
    // The reduction stays serial in stage order (lane extraction below), so
    // accumulation order — and therefore every bit — matches the batched
    // kernel and the per-RO walk.
    double half_period = 0.0;
    for (std::size_t s = 0; s < simd_stages; s += 4) {
      const std::size_t i = base + s;
      const __m256d vth_p = effective_vth_lanes(&soa.vth_p_fresh[i], &soa.tempco_p[i], dtemp_v,
                                                &soa.nbti_sens[i], nbti_v);
      const __m256d vth_n = effective_vth_lanes(&soa.vth_n_fresh[i], &soa.tempco_n[i], dtemp_v,
                                                &soa.hci_sens[i], hci_v);
      const __m256d rise = edge_delays(scale_v, vth_p, vdd_v, min_od_v, alpha);
      const __m256d fall = edge_delays(scale_v, vth_n, vdd_v, min_od_v, alpha);
      alignas(32) double rise_plus_fall[4];
      _mm256_store_pd(rise_plus_fall, _mm256_add_pd(rise, fall));
      for (std::size_t lane = 0; lane < 4; ++lane) {
        const double topology_half = (s + lane == 0) ? nand_half : 0.5;
        half_period += topology_half * rise_plus_fall[lane];
      }
    }
    for (std::size_t s = simd_stages; s < stages; ++s) {
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

}  // namespace aropuf::detail

#endif  // AROPUF_SIMD_ENABLED && __AVX2__
