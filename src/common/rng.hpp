// Deterministic random-number fabric for Monte Carlo simulation.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table in EXPERIMENTS.md must regenerate bit-exactly from a master seed.
// Instead of sharing one global engine (whose stream would depend on
// evaluation order), the fabric derives an independent, named sub-stream for
// every die / device / purpose via SplitMix64 hashing of (master seed, path).
//
//   RngFabric fabric{42};
//   Xoshiro256 die_rng  = fabric.stream("die", die_index);
//   Xoshiro256 meas_rng = fabric.stream("measurement", die_index, eval_index);
//
// Xoshiro256** is used as the engine: it satisfies the C++ named requirement
// UniformRandomBitGenerator, so it composes with <random> distributions, and
// it is small enough to create per-object without heap traffic.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

namespace aropuf {

/// SplitMix64 — used for seeding and for hashing stream names.  Public because
/// tests and the variation substrate use it to derive per-coordinate hashes.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// One accepted draw of the Marsaglia polar method: (u, v) uniform on the
/// unit disc less its centre, and s = u^2 + v^2, a normal double in
/// [2^-104, 1).  Its two standard normals are u * f and v * f, f =
/// detmath::polar_factor(s).
struct PolarPair {
  double u;
  double v;
  double s;
};

/// Xoshiro256** engine (Blackman & Vigna).  Fast, 256-bit state, passes
/// BigCrush; plenty for circuit Monte Carlo.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a SplitMix64 of `seed`, per the
  /// reference implementation's recommendation.
  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& word : s_) word = sm.next();
  }

  constexpr std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal deviate (Marsaglia polar method — allocation-free and
  /// deterministic across platforms, unlike std::normal_distribution whose
  /// algorithm is implementation-defined).  Returns a pending spare if there
  /// is one; otherwise draws a PolarPair, returns u * f and keeps v * f as
  /// the spare.
  double gaussian() noexcept;

  /// Fills `out` with exactly what out.size() gaussian() calls return, and
  /// leaves the stream where they would, a pending spare after an odd
  /// count included.  The uniform pairs are drawn and tested one after
  /// another; their factors then come from detmath::polar_factors, four
  /// lanes wide where the CPU has AVX2.
  void gaussians(std::span<double> out) noexcept;

  /// Draws uniform pairs until one lands inside the unit disc (not at its
  /// centre): the draws one gaussian() call without a spare makes.
  PolarPair polar_pair() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double sigma) noexcept { return mean + sigma * gaussian(); }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  // Cached second deviate from the polar method.
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// normals[2i] and normals[2i + 1] are the two deviates gaussian() makes of
/// pairs[i], u * f and then v * f, with every f from detmath::polar_factors
/// (one call per 64 pairs).  RoPuf::evaluate draws each bit's pairs from
/// the bit's own stream and converts a whole read's at once.
void polar_normals(std::span<const PolarPair> pairs, std::span<double> normals);

/// Derives independent named sub-streams from one master seed.
///
/// Stream identity is the FNV-1a hash of the name mixed with up to three
/// integer indices; two streams collide only if their (name, indices) match.
class RngFabric {
 public:
  explicit constexpr RngFabric(std::uint64_t master_seed) noexcept
      : master_seed_(master_seed) {}

  [[nodiscard]] constexpr std::uint64_t master_seed() const noexcept { return master_seed_; }

  /// Returns a fresh engine for the sub-stream identified by (name, a, b, c).
  [[nodiscard]] Xoshiro256 stream(std::string_view name, std::uint64_t a = 0,
                                  std::uint64_t b = 0, std::uint64_t c = 0) const noexcept {
    return Xoshiro256(derive(name, a, b, c));
  }

  /// The derived 64-bit seed itself (used where only a seed is needed).
  [[nodiscard]] std::uint64_t derive(std::string_view name, std::uint64_t a = 0,
                                     std::uint64_t b = 0, std::uint64_t c = 0) const noexcept;

  /// A fabric whose streams are all distinct from this one's (used to give
  /// each chip in a population its own fabric).
  [[nodiscard]] RngFabric child(std::string_view name, std::uint64_t index = 0) const noexcept {
    return RngFabric(derive(name, index, 0x6368696c64ULL /* "child" */));
  }

 private:
  std::uint64_t master_seed_;
};

}  // namespace aropuf
