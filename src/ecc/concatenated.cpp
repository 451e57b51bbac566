#include "ecc/concatenated.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/statistics.hpp"

namespace aropuf {

namespace {

std::size_t blocks_for(int key_bits, std::size_t k) {
  ARO_REQUIRE(k >= 1, "BCH (m, t) combination has no information bits");
  return (static_cast<std::size_t>(key_bits) + k - 1) / k;
}

}  // namespace

void ConcatenatedScheme::validate() const {
  ARO_REQUIRE(repetition >= 1 && repetition % 2 == 1, "repetition must be odd and >= 1");
  ARO_REQUIRE(key_bits >= 1, "key must have at least one bit");
  ARO_REQUIRE(bch_k() >= 1, "BCH (m, t) combination has no information bits");
}

std::size_t ConcatenatedScheme::blocks() const { return blocks_for(key_bits, bch_k()); }

double ConcatenatedScheme::block_failure_probability(double raw_ber) const {
  const RepetitionCode rep(repetition);
  const double inner_ber = rep.decoded_error_rate(raw_ber);
  return binomial_tail_greater(bch_n(), static_cast<std::uint64_t>(bch_t), inner_ber);
}

double ConcatenatedScheme::key_failure_probability(double raw_ber) const {
  const double p_block = block_failure_probability(raw_ber);
  const double blocks_d = static_cast<double>(blocks());
  // 1 - (1 - p)^B, computed stably for tiny p.
  return -std::expm1(blocks_d * std::log1p(-p_block));
}

ConcatenatedCode::ConcatenatedCode(const ConcatenatedScheme& scheme)
    : scheme_(scheme), rep_(scheme.repetition), bch_(scheme.bch_m, scheme.bch_t) {
  scheme_.validate();
  blocks_ = blocks_for(scheme_.key_bits, bch_.k());
  raw_bits_ = blocks_ * bch_.n() * static_cast<std::size_t>(rep_.r());
}

BitVector ConcatenatedCode::encode(const BitVector& key) const {
  ARO_REQUIRE(key.size() == static_cast<std::size_t>(scheme_.key_bits),
              "key length must match the scheme");
  const std::size_t k = bch_.k();
  BitVector out;
  for (std::size_t block = 0; block < blocks_; ++block) {
    // Block b carries key bits [b·k, b·k + k); the last one is zero-padded.
    const std::size_t begin = block * k;
    const std::size_t len = std::min(k, key.size() - begin);
    const BitVector message = key.slice(begin, len).concat(BitVector(k - len));
    out = out.concat(rep_.encode(bch_.encode(message)));
  }
  ARO_ASSERT(out.size() == raw_bits_, "encoded length mismatch");
  return out;
}

std::optional<BitVector> ConcatenatedCode::decode(const BitVector& received) const {
  ARO_REQUIRE(received.size() == raw_bits_, "received length must match the scheme");
  const std::size_t block_raw = bch_.n() * static_cast<std::size_t>(rep_.r());
  BitVector key;
  for (std::size_t block = 0; block < blocks_; ++block) {
    const auto corrected = bch_.decode(rep_.decode(received.slice(block * block_raw, block_raw)));
    if (!corrected.has_value()) return std::nullopt;
    key = key.concat(bch_.extract_message(*corrected));
  }
  // The last block's padding lies beyond key_bits.
  const auto key_bits = static_cast<std::size_t>(scheme_.key_bits);
  if (key.size() != key_bits) key = key.slice(0, key_bits);
  return key;
}

}  // namespace aropuf
