// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869), from scratch on Sha256.
//
// A PUF-derived device key is a *root* secret; applications need per-session
// and per-purpose keys derived from it without ever exposing it.  HKDF's
// extract-and-expand is the standard construction: the E9/auth examples use
// it to turn one reconstructed 256-bit key into any number of labelled
// subkeys.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "keygen/sha256.hpp"

namespace aropuf {

/// HMAC-SHA256 under one fixed key.  The constructor compresses the ipad and
/// opad blocks once; each mac() copies those two midstates, so a tag costs
/// the message's compressions plus one for the outer hash.  mac() is const
/// and touches no shared state, so one object may serve many threads.
class HmacSha256 {
 public:
  /// Keys the object (any key length; hashed first if longer than a block).
  explicit HmacSha256(std::span<const std::uint8_t> key);

  /// HMAC-SHA256(key, message).
  [[nodiscard]] Sha256::Digest mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;  // after the key ^ ipad block
  Sha256 outer_;  // after the key ^ opad block
};

/// HMAC-SHA256 of `message` under `key`: HmacSha256(key).mac(message).
[[nodiscard]] Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                                         std::span<const std::uint8_t> message);

/// HKDF-Extract: (salt, input keying material) -> pseudorandom key.
[[nodiscard]] Sha256::Digest hkdf_extract(std::span<const std::uint8_t> salt,
                                          std::span<const std::uint8_t> ikm);

/// HKDF-Expand: pseudorandom key + context info -> `length` output bytes
/// (length <= 255 * 32).
[[nodiscard]] std::vector<std::uint8_t> hkdf_expand(const Sha256::Digest& prk,
                                                    std::span<const std::uint8_t> info,
                                                    std::size_t length);

/// Convenience: derive a labelled subkey from a PUF root key.
[[nodiscard]] std::vector<std::uint8_t> derive_subkey(const Sha256::Digest& root_key,
                                                      std::string_view label,
                                                      std::size_t length = 32);

}  // namespace aropuf
