#include "ecc/repetition.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/statistics.hpp"

namespace aropuf {

namespace {

/// Set bits of a word.  A portable bit-parallel count: the baseline x86-64
/// target has no POPCNT, and there std::popcount is a libgcc call.
constexpr std::size_t ones_in(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

}  // namespace

RepetitionCode::RepetitionCode(int r) : r_(r) {
  ARO_REQUIRE(r >= 1 && r % 2 == 1, "repetition factor must be odd and >= 1");
}

BitVector RepetitionCode::encode(const BitVector& message) const {
  const auto r = static_cast<std::size_t>(r_);
  const std::size_t bits = message.size() * r;
  std::vector<std::uint64_t> out((bits + 63) / 64, 0);
  // Set message bit i fills the run [i·r, i·r + r), at most a word per step.
  const auto& in = message.words();
  for (std::size_t w = 0; w < in.size(); ++w) {
    for (std::uint64_t set = in[w]; set != 0; set &= set - 1) {
      std::size_t pos = (w * 64 + static_cast<std::size_t>(std::countr_zero(set))) * r;
      for (std::size_t left = r; left > 0;) {
        const std::size_t offset = pos % 64;
        const std::size_t take = std::min(left, 64 - offset);
        const std::uint64_t run = take == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << take) - 1;
        out[pos / 64] |= run << offset;
        pos += take;
        left -= take;
      }
    }
  }
  return BitVector::from_words(std::move(out), bits);
}

BitVector RepetitionCode::decode(const BitVector& received) const {
  const auto r = static_cast<std::size_t>(r_);
  ARO_REQUIRE(received.size() % r == 0, "received length must be a multiple of r");
  const std::size_t groups = received.size() / r;
  const auto& in = received.words();
  std::vector<std::uint64_t> out((groups + 63) / 64, 0);
  // Group g holds bits [g·r, g·r + r), so its ones are P(g·r + r) − P(g·r),
  // with P(x) the ones in bits [0, x): the ones of the whole words below x
  // plus those of x's word under bit x.  Each group costs one count, each
  // input word one more, for every r.
  std::size_t below = 0;  // P(start of the current group)
  std::size_t whole = 0;  // ones in words [0, word)
  std::size_t word = 0;
  for (std::size_t g = 0, end = r; g < groups; ++g, end += r) {
    for (; word < end / 64; ++word) whole += ones_in(in[word]);
    const std::size_t bit = end % 64;
    const std::size_t upto = whole + (bit == 0 ? 0 : ones_in(in[word] << (64 - bit)));
    out[g / 64] |= std::uint64_t{2 * (upto - below) > r} << (g % 64);
    below = upto;
  }
  return BitVector::from_words(std::move(out), groups);
}

double RepetitionCode::decoded_error_rate(double p) const {
  // Majority fails when more than half the copies flip.
  return binomial_tail_greater(static_cast<std::uint64_t>(r_),
                               static_cast<std::uint64_t>(r_ / 2), p);
}

}  // namespace aropuf
