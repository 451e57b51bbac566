// HMAC-SHA256 (RFC 2104), from scratch on Sha256.
//
// The verifier tags every enrollment record and confirms every
// reconstructed key with it, so a caller with a fixed key keys one object
// and reuses its midstates.
#pragma once

#include <cstdint>
#include <span>

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

}  // namespace aropuf
