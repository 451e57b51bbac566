#include "ecc/bch.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace aropuf {

namespace {

/// Exponents of the generator's roots: every conjugate class (cyclotomic
/// coset modulo n = 2^m − 1) that meets alpha^1 .. alpha^2t.
struct RootSet {
  std::vector<bool> member;  ///< member[e]: alpha^e is a root of g(x)
  std::size_t count = 0;
};

RootSet generator_roots(int t, std::uint32_t n) {
  RootSet roots{std::vector<bool>(n, false), 0};
  // Doubling walks the coset of i.  Cosets are disjoint cycles, so reaching
  // a marked exponent means the whole class is already in.
  const auto two_t = 2 * static_cast<std::uint64_t>(t);
  for (std::uint64_t i = 1; i <= two_t && roots.count < n; ++i) {
    for (auto x = static_cast<std::uint32_t>(i % n); !roots.member[x]; x = (2 * x) % n) {
      roots.member[x] = true;
      ++roots.count;
    }
  }
  return roots;
}

std::uint32_t mul(const GF2m& f, std::uint32_t a, std::uint32_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return f.exp_table(f.log_table(a) + f.log_table(b));
}

/// Syndrome-row layout: lane i of a row is the odd term for j = 2i + 1.
constexpr std::size_t kLaneBits = 16;  // alpha^e < 2^m <= 2^14
constexpr std::size_t kLanesPerWord = 64 / kLaneBits;
constexpr std::uint64_t kLaneMask = (std::uint64_t{1} << kLaneBits) - 1;

bool all_zero(const std::vector<std::uint64_t>& words) {
  return std::all_of(words.begin(), words.end(), [](std::uint64_t w) { return w == 0; });
}

}  // namespace

std::size_t BchCode::dimension(int m, int t) {
  ARO_REQUIRE(m >= 3 && m <= 14, "BCH supports m in [3, 14]");
  ARO_REQUIRE(t >= 1, "BCH needs t >= 1");
  const std::uint32_t n = (1U << m) - 1;
  const std::size_t roots = generator_roots(t, n).count;
  if (roots >= n) return 0;
  return n - roots;
}

BchCode::BchCode(int m, int t) : field_(m), t_(t), n_((1U << m) - 1) {
  ARO_REQUIRE(t >= 1, "BCH needs t >= 1");
  const auto n32 = static_cast<std::uint32_t>(n_);
  const RootSet roots = generator_roots(t, n32);
  ARO_REQUIRE(roots.count < n_, "design distance too large: empty code");
  k_ = n_ - roots.count;

  // g(x) = prod over root exponents e of (x - alpha^e), computed over
  // GF(2^m); the product of full conjugate classes has binary coefficients.
  std::vector<std::uint32_t> g{1};
  g.reserve(roots.count + 1);
  for (std::uint32_t e = 0; e < n32; ++e) {
    if (!roots.member[e]) continue;
    const std::uint32_t root = field_.alpha_pow(e);
    g.push_back(0);
    // g <- (x + root) g, highest coefficient first (char-2: add = xor).
    for (std::size_t i = g.size() - 1; i > 0; --i) g[i] = g[i - 1] ^ field_.mul(g[i], root);
    g[0] = field_.mul(g[0], root);
  }
  generator_ = BitVector(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    ARO_ASSERT(g[i] <= 1, "generator polynomial must be binary");
    generator_.set(i, g[i] == 1);
  }
  ARO_ASSERT(generator_.get(g.size() - 1), "generator must be monic");

  // Row p: lane i holds alpha^(j·p) for j = 2i + 1; the exponent j·p mod n
  // steps by 2p mod n from lane to lane.
  const auto lanes = static_cast<std::size_t>(t);
  row_words_ = (lanes + kLanesPerWord - 1) / kLanesPerWord;
  syndrome_rows_.assign(n_ * row_words_, 0);
  for (std::uint32_t p = 0; p < n32; ++p) {
    std::uint64_t* row = syndrome_rows_.data() + p * row_words_;
    const std::uint32_t step = (2 * p) % n32;
    std::uint32_t e = p;
    for (std::size_t i = 0; i < lanes; ++i) {
      row[i / kLanesPerWord] |= std::uint64_t{field_.exp_table(e)}
                                << (kLaneBits * (i % kLanesPerWord));
      e += step;
      if (e >= n32) e -= n32;
    }
  }
}

void BchCode::add_syndrome_row(std::size_t p, std::uint64_t* acc) const {
  const std::uint64_t* row = syndrome_rows_.data() + p * row_words_;
  for (std::size_t w = 0; w < row_words_; ++w) acc[w] ^= row[w];
}

void BchCode::add_syndrome_rows(const BitVector& word, std::uint64_t* acc) const {
  const auto& words = word.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      add_syndrome_row(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)), acc);
    }
  }
}

BitVector BchCode::encode(const BitVector& message) const {
  ARO_REQUIRE(message.size() == k_, "message length must equal k");
  const std::size_t parity_len = n_ - k_;
  ARO_ASSERT(parity_len >= 1, "BCH with t >= 1 always has parity bits");
  // remainder of x^(n-k) * m(x) modulo g(x): long division over GF(2), one
  // message bit per step from the highest power down, on a word-packed
  // remainder.  Each step shifts it up one place and, when the bit leaving
  // the top differs from the message bit, XORs in g(x).  Bits at and above
  // parity_len (g's leading 1, the shifted-out top) only ever move up, so
  // they never reach the remainder; from_words clears them.
  const std::size_t top = parity_len - 1;
  std::vector<std::uint64_t> rem((parity_len + 63) / 64, 0);
  const auto& g = generator_.words();
  const auto& msg = message.words();
  for (std::size_t i = k_; i-- > 0;) {
    const std::uint64_t feedback = ((msg[i / 64] >> (i % 64)) ^ (rem[top / 64] >> (top % 64))) & 1;
    for (std::size_t w = rem.size(); w-- > 1;) rem[w] = (rem[w] << 1) | (rem[w - 1] >> 63);
    rem[0] <<= 1;
    const std::uint64_t taps = 0 - feedback;  // all ones when feeding back
    for (std::size_t w = 0; w < rem.size(); ++w) rem[w] ^= g[w] & taps;
  }
  BitVector codeword = BitVector::from_words(std::move(rem), parity_len).concat(message);
  ARO_ASSERT(is_codeword(codeword), "systematic encoding produced a non-codeword");
  return codeword;
}

bool BchCode::is_codeword(const BitVector& word) const {
  ARO_REQUIRE(word.size() == n_, "word length must equal n");
  // The even syndromes are squares of the odd ones.
  std::vector<std::uint64_t> acc(row_words_, 0);
  add_syndrome_rows(word, acc.data());
  return all_zero(acc);
}

std::optional<BitVector> BchCode::decode(const BitVector& received) const {
  ARO_REQUIRE(received.size() == n_, "received length must equal n");
  const auto n = static_cast<std::uint32_t>(n_);
  const auto t = static_cast<std::size_t>(t_);
  const std::size_t two_t = 2 * t;
  // The received word's odd syndromes, packed as the rows are.
  std::vector<std::uint64_t> acc(row_words_, 0);
  add_syndrome_rows(received, acc.data());
  if (all_zero(acc)) return received;
  // One buffer per call: S_1 .. S_2t; Berlekamp–Massey's C(x), B(x) and the
  // copy of C(x) a length change keeps (each of degree <= 2t); then the
  // Chien terms and the error positions (at most t each).
  std::vector<std::uint32_t> work(two_t + 3 * (two_t + 1) + 3 * t, 0);
  std::uint32_t* s = work.data();
  for (std::size_t i = 0; i < t; ++i) {
    s[2 * i] = static_cast<std::uint32_t>(
        (acc[i / kLanesPerWord] >> (kLaneBits * (i % kLanesPerWord))) & kLaneMask);
  }
  // S_2j = S_j^2; S_j is in place before S_2j is written.
  for (std::size_t j = 1; j <= t; ++j) {
    const std::uint32_t sj = s[j - 1];
    s[2 * j - 1] = sj == 0 ? 0 : field_.exp_table(2 * field_.log_table(sj));
  }
  std::uint32_t* sigma = s + two_t;  // C(x), the error locator
  std::uint32_t* prev = sigma + two_t + 1;  // B(x)
  std::uint32_t* saved = prev + two_t + 1;
  std::uint32_t* term_exp = saved + two_t + 1;
  std::uint32_t* term_deg = term_exp + t;
  std::uint32_t* positions = term_deg + t;

  // Berlekamp–Massey: the shortest LFSR C(x) generating S_1 .. S_2t.  Every
  // coefficient of C and of x^shift B stays within degree l <= 2t.
  sigma[0] = 1;
  prev[0] = 1;
  std::size_t l = 0;
  std::size_t prev_l = 0;       // degree bound of B(x)
  std::size_t shift = 1;        // m in the classic formulation
  std::uint32_t prev_disc = 1;  // b
  for (std::size_t step = 0; step < two_t; ++step) {
    std::uint32_t disc = s[step];
    for (std::size_t i = 1; i <= l; ++i) disc ^= mul(field_, sigma[i], s[step - i]);
    if (disc == 0) {
      ++shift;
      continue;
    }
    const bool grows = 2 * l <= step;
    if (grows) std::copy_n(sigma, two_t + 1, saved);
    // C(x) -= (d / b) x^shift B(x), with log(d / b) in [0, n).
    std::uint32_t log_factor = field_.log_table(disc) + n - field_.log_table(prev_disc);
    if (log_factor >= n) log_factor -= n;
    for (std::size_t i = 0; i <= prev_l; ++i) {
      if (prev[i] == 0) continue;
      sigma[i + shift] ^= field_.exp_table(log_factor + field_.log_table(prev[i]));
    }
    if (grows) {
      std::swap(prev, saved);
      prev_l = l;
      prev_disc = disc;
      l = step + 1 - l;
      shift = 1;
    } else {
      ++shift;
    }
  }
  if (l > t) return std::nullopt;

  // Chien search: error at position p iff sigma(alpha^(-p)) == 0.  Term i's
  // exponent log(sigma_i) − i·p steps down by i per position; deg(sigma) <= l,
  // so the search may stop at the l-th root.
  std::size_t terms = 0;
  for (std::size_t i = 1; i <= l; ++i) {
    if (sigma[i] == 0) continue;
    term_exp[terms] = field_.log_table(sigma[i]);
    term_deg[terms] = static_cast<std::uint32_t>(i);
    ++terms;
  }
  std::size_t found = 0;
  for (std::uint32_t p = 0; p < n && found < l; ++p) {
    std::uint32_t value = sigma[0];
    for (std::size_t k = 0; k < terms; ++k) {
      value ^= field_.exp_table(term_exp[k]);
      term_exp[k] = term_exp[k] >= term_deg[k] ? term_exp[k] - term_deg[k]
                                               : term_exp[k] + n - term_deg[k];
    }
    if (value == 0) positions[found++] = p;
  }
  if (found != l) return std::nullopt;

  // The corrected word is a codeword iff the error positions' rows cancel
  // the received odd syndromes (the even ones are their squares).
  for (std::size_t e = 0; e < found; ++e) add_syndrome_row(positions[e], acc.data());
  if (!all_zero(acc)) return std::nullopt;
  BitVector corrected = received;
  for (std::size_t e = 0; e < found; ++e) corrected.flip(positions[e]);
  return corrected;
}

BitVector BchCode::extract_message(const BitVector& codeword) const {
  ARO_REQUIRE(codeword.size() == n_, "codeword length must equal n");
  return codeword.slice(n_ - k_, k_);
}

}  // namespace aropuf
