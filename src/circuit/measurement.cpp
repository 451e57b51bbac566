#include "circuit/measurement.hpp"

#include <cmath>

#include "common/check.hpp"
#include "device/technology.hpp"

namespace aropuf {

FrequencyCounter::FrequencyCounter(const TechnologyParams& tech, Seconds window)
    : tech_(&tech), window_(window) {
  tech.validate();
  ARO_REQUIRE(window > 0.0, "measurement window must be positive");
  max_count_ = (1ULL << tech.counter_bits) - 1ULL;
}

std::uint64_t FrequencyCounter::measure_frequency(Hertz f, Xoshiro256& noise_rng) const {
  // Low-frequency noise shifts the whole window's effective frequency.
  const double f_noisy = f * (1.0 + tech_->noise_lowfreq_rel * noise_rng.gaussian());
  const double expected = f_noisy * window_;
  // Accumulated thermal jitter over N cycles adds sqrt(N)-scaled count noise.
  const double jitter_sigma = tech_->jitter_cycle_rel * std::sqrt(std::max(expected, 0.0));
  const double with_jitter = expected + jitter_sigma * noise_rng.gaussian();
  if (with_jitter <= 0.0) return 0;
  const auto count = static_cast<std::uint64_t>(std::llround(with_jitter));
  return count > max_count_ ? max_count_ : count;
}

}  // namespace aropuf
