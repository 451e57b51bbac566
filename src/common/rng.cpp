#include "common/rng.hpp"

#include <cmath>

#include "common/detmath.hpp"

namespace aropuf {

double Xoshiro256::gaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * detmath::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

std::uint64_t Xoshiro256::bounded(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (l < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t RngFabric::derive(std::string_view name, std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) const noexcept {
  // FNV-1a over the name, then SplitMix64 mixing of the indices and seed.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 0x100000001b3ULL;
  }
  SplitMix64 mixer(h ^ master_seed_);
  std::uint64_t seed = mixer.next();
  seed ^= SplitMix64(seed ^ a).next();
  seed ^= SplitMix64(seed ^ b).next();
  seed ^= SplitMix64(seed ^ c).next();
  return seed;
}

}  // namespace aropuf
