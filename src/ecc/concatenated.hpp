// Concatenated ECC scheme: inner repetition, outer BCH.
//
// The standard key-generation construction the paper's ECC/area analysis
// assumes: raw PUF bits are first majority-voted (repetition r), then the
// voted bits form shortened-BCH codewords.  The scheme's analytical failure
// probability (binomial tails at both levels) drives the E7 area search;
// encode/decode implement the same scheme concretely for the end-to-end
// fuzzy-extractor tests.
#pragma once

#include <cstddef>
#include <optional>

#include "common/bitvector.hpp"
#include "ecc/bch.hpp"
#include "ecc/repetition.hpp"

namespace aropuf {

struct ConcatenatedScheme {
  int repetition = 1;  ///< inner repetition factor (odd)
  int bch_m = 8;       ///< outer BCH field degree (n = 2^m − 1)
  int bch_t = 1;       ///< outer BCH correction capability
  int key_bits = 128;  ///< total secret bits to protect

  /// Outer code dimension k (0 if the (m, t) combination is void).
  [[nodiscard]] std::size_t bch_k() const { return BchCode::dimension(bch_m, bch_t); }
  [[nodiscard]] std::size_t bch_n() const { return (std::size_t{1} << bch_m) - 1; }

  /// Number of outer codewords needed to carry key_bits.
  [[nodiscard]] std::size_t blocks() const;

  /// Total raw PUF response bits consumed.
  [[nodiscard]] std::size_t raw_bits() const {
    return blocks() * bch_n() * static_cast<std::size_t>(repetition);
  }

  /// Probability one outer block fails to decode at raw bit-error rate `p`.
  [[nodiscard]] double block_failure_probability(double raw_ber) const;

  /// Probability the key fails to reconstruct at raw bit-error rate `p`.
  [[nodiscard]] double key_failure_probability(double raw_ber) const;

  void validate() const;
};

class ConcatenatedCode {
 public:
  explicit ConcatenatedCode(const ConcatenatedScheme& scheme);

  [[nodiscard]] const ConcatenatedScheme& scheme() const noexcept { return scheme_; }
  [[nodiscard]] const BchCode& bch() const noexcept { return bch_; }
  [[nodiscard]] const RepetitionCode& repetition() const noexcept { return rep_; }

  /// scheme().blocks() and scheme().raw_bits(), fixed at construction so
  /// encode/decode never rebuild the code's shape.
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::size_t raw_bits() const noexcept { return raw_bits_; }

  /// key_bits → raw_bits codeword (zero-padding inside the last block).
  [[nodiscard]] BitVector encode(const BitVector& key) const;

  /// raw_bits → key_bits; std::nullopt if any outer block fails.
  [[nodiscard]] std::optional<BitVector> decode(const BitVector& received) const;

 private:
  ConcatenatedScheme scheme_;
  RepetitionCode rep_;
  BchCode bch_;
  std::size_t blocks_ = 0;
  std::size_t raw_bits_ = 0;
};

}  // namespace aropuf
