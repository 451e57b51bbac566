// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The fuzzy extractor compresses the reconstructed secret through a hash to
// produce the final cryptographic key (entropy extraction); this is the only
// cryptographic primitive the key-generation flow needs.
//
// Two compression functions compute the same bits: the portable C++ one
// below, and an SHA-NI one (sha256_shani.cpp, built whenever the compiler
// accepts -msha -msse4.1).  Each process picks one, once, from CPUID: SHA-NI
// when the CPU has SHA, SSSE3 and SSE4.1, else portable.  There is no switch;
// the portable path is the only one on other CPUs, on MSVC and on arm64, and
// it is the oracle the SHA-NI path is tested against.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace aropuf {

namespace detail {

/// SHA-256 chaining state: the eight 32-bit words H0..H7.
using Sha256State = std::array<std::uint32_t, 8>;

/// A compression function: folds `blocks` consecutive 64-byte blocks at
/// `data` into `state`.
using Sha256CompressFn = void (*)(Sha256State& state, const std::uint8_t* data,
                                  std::size_t blocks) noexcept;

/// The portable FIPS 180-4 compression (the oracle).
void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks) noexcept;

/// The SHA-NI compression, or nullptr when it is not compiled in or this CPU
/// lacks SHA, SSSE3 or SSE4.1.
[[nodiscard]] Sha256CompressFn sha256_compress_shani() noexcept;

}  // namespace detail

class Sha256 {
 public:
  static constexpr std::size_t kDigestBytes = 32;
  static constexpr std::size_t kBlockBytes = 64;
  using Digest = std::array<std::uint8_t, kDigestBytes>;

  Sha256();

  /// Streams `data` into the hash.
  void update(std::span<const std::uint8_t> data);

  /// Finishes and returns the digest; the object must not be reused after.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data);

  /// Lowercase hex rendering of a digest.
  [[nodiscard]] static std::string to_hex(const Digest& digest);

  /// The compression this process uses: "sha_ni" or "portable".
  [[nodiscard]] static const char* implementation() noexcept;

 private:
  detail::Sha256State state_;
  std::array<std::uint8_t, kBlockBytes> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace aropuf
