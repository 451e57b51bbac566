// Counter-based frequency measurement and pairwise comparison.
//
// Real RO-PUFs do not read out frequency; they count rising edges in a fixed
// window and compare counts.  Two noise mechanisms are modelled:
//
//  * accumulated cycle-to-cycle thermal jitter — count error sigma grows as
//    sqrt(N) * jitter_cycle_rel;
//  * low-frequency (flicker / supply) noise — a per-evaluation relative
//    frequency error, the dominant term for practical windows.
//
// Counts saturate at the counter width (a real failure mode when the window
// is mis-sized for the technology; tests exercise it).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "device/technology.hpp"

namespace aropuf {

class FrequencyCounter {
 public:
  /// `window` — gate time of one measurement.
  FrequencyCounter(const TechnologyParams& tech, Seconds window);

  /// One noisy measurement of an RO oscillating at `f`; draws two Gaussians
  /// from `noise_rng`, the low-frequency one first, and counts through the
  /// overload below.  Callers read every frequency of a die in one
  /// delay-kernel pass (RoPuf::ro_frequencies) and feed them through here.
  [[nodiscard]] std::uint64_t measure_frequency(Hertz f, Xoshiro256& noise_rng) const;

  /// The same measurement from its two standard normals, drawn by the
  /// caller: `lowfreq` scales the window's relative frequency error and
  /// `jitter` the count's thermal jitter.  RoPuf::evaluate draws a whole
  /// read's normals in one batch (polar_normals) and counts through here.
  [[nodiscard]] std::uint64_t measure_frequency(Hertz f, double lowfreq, double jitter) const;

  /// Noise-free expected count for frequency `f` (before saturation).
  [[nodiscard]] double expected_count(Hertz f) const noexcept { return f * window_; }

  /// Largest representable count (counter saturation value).
  [[nodiscard]] std::uint64_t max_count() const noexcept { return max_count_; }

  [[nodiscard]] Seconds window() const noexcept { return window_; }

 private:
  const TechnologyParams* tech_;
  Seconds window_;
  std::uint64_t max_count_;
};

/// Response-bit convention used throughout the library: the bit is 1 when
/// the first RO of the pair is strictly faster (ties resolve to 0).
[[nodiscard]] inline bool compare_counts(std::uint64_t count_a, std::uint64_t count_b) noexcept {
  return count_a > count_b;
}

}  // namespace aropuf
