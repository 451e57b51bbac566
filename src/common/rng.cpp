#include "common/rng.hpp"

#include <algorithm>
#include <cstddef>

#include "common/check.hpp"
#include "common/detmath.hpp"

namespace aropuf {

namespace {

/// Pairs a batch handles per detmath::polar_factors call: a 13-stage RO's
/// 104 draws are one batch, and the buffers stay on the stack.
constexpr std::size_t kPairsPerBatch = 64;

}  // namespace

PolarPair Xoshiro256::polar_pair() noexcept {
  PolarPair p{};
  do {
    p.u = uniform(-1.0, 1.0);
    p.v = uniform(-1.0, 1.0);
    p.s = p.u * p.u + p.v * p.v;
  } while (p.s >= 1.0 || p.s == 0.0);
  return p;
}

double Xoshiro256::gaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  const PolarPair p = polar_pair();
  const double factor = detmath::polar_factor(p.s);
  spare_ = p.v * factor;
  has_spare_ = true;
  return p.u * factor;
}

void Xoshiro256::gaussians(std::span<double> out) noexcept {
  std::size_t i = 0;
  if (has_spare_ && !out.empty()) {
    has_spare_ = false;
    out[i++] = spare_;
  }
  PolarPair pairs[kPairsPerBatch]{};
  while (i < out.size()) {
    const std::size_t wanted = std::min(kPairsPerBatch, (out.size() - i + 1) / 2);
    // polar_pair's loop without its data-dependent branch: every candidate
    // is stored, and only an accepted one advances the slot.
    for (std::size_t n = 0; n < wanted;) {
      PolarPair& p = pairs[n];
      p.u = uniform(-1.0, 1.0);
      p.v = uniform(-1.0, 1.0);
      p.s = p.u * p.u + p.v * p.v;
      n += static_cast<std::size_t>(p.s < 1.0) & static_cast<std::size_t>(p.s != 0.0);
    }
    // Pairs whose two deviates both land in `out`; after an odd count the
    // last pair's v * f stays pending, as gaussian() would keep it.
    const std::size_t whole = std::min(wanted, (out.size() - i) / 2);
    polar_normals({pairs, whole}, out.subspan(i, 2 * whole));
    i += 2 * whole;
    if (whole < wanted) {
      const PolarPair& last = pairs[whole];
      const double factor = detmath::polar_factor(last.s);
      out[i++] = last.u * factor;
      spare_ = last.v * factor;
      has_spare_ = true;
    }
  }
}

void polar_normals(std::span<const PolarPair> pairs, std::span<double> normals) {
  ARO_REQUIRE(normals.size() == 2 * pairs.size(), "polar_normals needs two normals per pair");
  double factors[kPairsPerBatch]{};
  for (std::size_t base = 0; base < pairs.size(); base += kPairsPerBatch) {
    const std::size_t n = std::min(kPairsPerBatch, pairs.size() - base);
    for (std::size_t k = 0; k < n; ++k) factors[k] = pairs[base + k].s;
    detmath::polar_factors({factors, n}, {factors, n});
    for (std::size_t k = 0; k < n; ++k) {
      normals[2 * (base + k)] = pairs[base + k].u * factors[k];
      normals[2 * (base + k) + 1] = pairs[base + k].v * factors[k];
    }
  }
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
