// Code-offset fuzzy extractor (Dodis et al.) over the concatenated ECC.
//
// Enrollment (in the fab / at first boot):
//   1. draw a random secret s of key_bits;
//   2. helper = PUF_response XOR Encode(s)          — public helper data;
//   3. key = SHA-256(s)                             — the device key.
//
// Reconstruction (in the field, possibly years later):
//   1. word = helper XOR PUF_response'              — a noisy codeword;
//   2. s = Decode(word)                             — ECC absorbs the flips;
//   3. key = SHA-256(s).
//
// The helper data reveals nothing about s beyond the code's redundancy
// (information-theoretic secure-sketch argument); the reproduction's E9
// bench measures reconstruction failure end-to-end against aged responses.
#pragma once

#include <optional>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "ecc/concatenated.hpp"
#include "keygen/sha256.hpp"

namespace aropuf {

struct Enrollment {
  BitVector helper_data;  ///< public; stored in NVM
  Sha256::Digest key;     ///< secret; never stored
};

class FuzzyExtractor {
 public:
  explicit FuzzyExtractor(const ConcatenatedScheme& scheme);

  /// Raw PUF response bits the extractor consumes per key.
  [[nodiscard]] std::size_t response_bits() const noexcept { return code_.raw_bits(); }

  /// Enrolls from a golden response; randomness for the secret comes from
  /// `rng` (in silicon: a TRNG or fab-side provisioning).
  [[nodiscard]] Enrollment enroll(const BitVector& golden_response, Xoshiro256& rng) const;

  /// Reconstructs the key from a (noisy / aged) response and helper data.
  /// std::nullopt when the error pattern exceeds the code's capability.
  [[nodiscard]] std::optional<Sha256::Digest> reconstruct(const BitVector& response,
                                                          const BitVector& helper_data) const;

  [[nodiscard]] const ConcatenatedCode& code() const noexcept { return code_; }

 private:
  [[nodiscard]] static Sha256::Digest derive_key(const BitVector& secret);

  ConcatenatedCode code_;
};

}  // namespace aropuf
