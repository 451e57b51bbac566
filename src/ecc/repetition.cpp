#include "ecc/repetition.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "common/statistics.hpp"

namespace aropuf {

RepetitionCode::RepetitionCode(int r) : r_(r) {
  ARO_REQUIRE(r >= 1 && r % 2 == 1, "repetition factor must be odd and >= 1");
}

BitVector RepetitionCode::encode(const BitVector& message) const {
  BitVector out(message.size() * static_cast<std::size_t>(r_));
  for (std::size_t i = 0; i < message.size(); ++i) {
    if (!message.get(i)) continue;
    for (int j = 0; j < r_; ++j) {
      out.set(i * static_cast<std::size_t>(r_) + static_cast<std::size_t>(j), true);
    }
  }
  return out;
}

BitVector RepetitionCode::decode(const BitVector& received) const {
  const auto r = static_cast<std::size_t>(r_);
  ARO_REQUIRE(received.size() % r == 0, "received length must be a multiple of r");
  const std::size_t bits = received.size() / r;
  const auto& words = received.words();
  BitVector out(bits);
  // Majority of the r copies of bit i, bits [i·r, i·r + r): a popcount of
  // the window, read a word at a time (r = 3 spans at most two words).
  for (std::size_t i = 0, begin = 0; i < bits; ++i, begin += r) {
    std::size_t ones = 0;
    for (std::size_t pos = begin, end = begin + r; pos < end;) {
      const std::size_t offset = pos % 64;
      const std::size_t take = std::min<std::size_t>(end - pos, 64 - offset);
      std::uint64_t chunk = words[pos / 64] >> offset;
      if (take < 64) chunk &= (std::uint64_t{1} << take) - 1;
      ones += static_cast<std::size_t>(std::popcount(chunk));
      pos += take;
    }
    if (2 * ones > r) out.set(i, true);
  }
  return out;
}

double RepetitionCode::decoded_error_rate(double p) const {
  // Majority fails when more than half the copies flip.
  return binomial_tail_greater(static_cast<std::uint64_t>(r_),
                               static_cast<std::uint64_t>(r_ / 2), p);
}

}  // namespace aropuf
