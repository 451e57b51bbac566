// Binary primitive BCH codes: construction, systematic encoding, and
// Berlekamp–Massey + Chien decoding.
//
// A BchCode(m, t) has length n = 2^m − 1 and corrects up to t bit errors;
// the dimension k = n − deg(g) falls out of the generator construction
// (LCM of the minimal polynomials of alpha^1 .. alpha^2t).  Shortening by s
// bits (prepending zero information bits that are never transmitted) yields
// the (n−s, k−s, t) codes the fuzzy extractor uses to match key sizes.
//
// This is a faithful implementation — syndromes, the error-locator via BM,
// and root search via Chien — not a behavioural stub, because the E7 area
// bench derives decoder complexity from the same (m, t) parameters that
// drive this decoder, and the keygen tests exercise real correction.  It is
// the key-reconstruct hot path (rep-3 + BCH(127,64,10) per verify_key).
//
// Syndromes come from a table built once per code: row p holds the t odd
// terms alpha^(j·p), j = 1, 3, .., 2t − 1, as 16-bit lanes (m <= 14), four
// to a 64-bit word, so a word's odd syndromes are the XOR of the rows of its
// set bits (n·ceil(t/4) words: 3 KB for BCH(127,64,10)).  The even ones are
// squares, S_2j = S_j².  The same rows serve is_codeword, the decoder's
// first step and its final check.  BM and Chien run on the field's
// log/antilog tables.  The encoder divides by g(x) a word at a time.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "ecc/gf2m.hpp"

namespace aropuf {

class BchCode {
 public:
  /// Primitive BCH over GF(2^m) correcting `t` errors.
  BchCode(int m, int t);

  [[nodiscard]] int m() const noexcept { return field_.m(); }
  [[nodiscard]] int t() const noexcept { return t_; }
  /// Code length n = 2^m − 1.
  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  /// Information length k = n − deg(g).
  [[nodiscard]] std::size_t k() const noexcept { return k_; }
  /// Generator polynomial, bit i = coefficient of x^i.
  [[nodiscard]] const BitVector& generator() const noexcept { return generator_; }

  /// Systematic encode: returns the n-bit codeword [parity | message].
  [[nodiscard]] BitVector encode(const BitVector& message) const;

  /// Bounded-distance decode of an n-bit word: the unique codeword within
  /// distance t of `received`, or std::nullopt when the decoder detects more
  /// than t errors (the locator is too long, its roots do not number its
  /// degree, or the corrected word is not a codeword).
  [[nodiscard]] std::optional<BitVector> decode(const BitVector& received) const;

  /// Extracts the message bits from a (corrected) codeword.
  [[nodiscard]] BitVector extract_message(const BitVector& codeword) const;

  /// True if `word` is a codeword (all syndromes zero).
  [[nodiscard]] bool is_codeword(const BitVector& word) const;

  /// Dimension k of BchCode(m, t) without building tables twice; returns 0
  /// if the code does not exist (deg(g) >= n).  Used by the code search.
  [[nodiscard]] static std::size_t dimension(int m, int t);

 private:
  /// XORs the syndrome rows of `word`'s set bits into `acc` (row_words_
  /// words): lane i then holds the odd syndrome S_(2i+1).
  void add_syndrome_rows(const BitVector& word, std::uint64_t* acc) const;
  /// XORs position p's row into `acc`.
  void add_syndrome_row(std::size_t p, std::uint64_t* acc) const;

  GF2m field_;
  int t_;
  std::size_t n_;
  std::size_t k_;
  BitVector generator_;
  std::size_t row_words_ = 0;                ///< ceil(t / 4) words per row
  std::vector<std::uint64_t> syndrome_rows_;  ///< n rows, row p at p·row_words_
};

}  // namespace aropuf
