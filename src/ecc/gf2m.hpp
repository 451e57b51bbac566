// GF(2^m) arithmetic via log/antilog tables.
//
// The field underpins BCH construction and decoding.  Elements are
// represented as unsigned integers in [0, 2^m): the polynomial basis, with
// bit i the coefficient of x^i.  Zero has no discrete log; the API checks.
#pragma once

#include <cstdint>
#include <vector>

namespace aropuf {

class GF2m {
 public:
  /// Field of size 2^m with the conventional primitive polynomial for m
  /// (supported m: 3..14).
  explicit GF2m(int m);

  /// Field with an explicit primitive polynomial (degree m, bit m set).
  GF2m(int m, std::uint32_t primitive_poly);

  [[nodiscard]] int m() const noexcept { return m_; }
  /// Field size 2^m.
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  /// Multiplicative-group order 2^m − 1.
  [[nodiscard]] std::uint32_t order() const noexcept { return size_ - 1; }
  [[nodiscard]] std::uint32_t primitive_poly() const noexcept { return poly_; }

  /// Addition = subtraction = XOR.
  [[nodiscard]] static std::uint32_t add(std::uint32_t a, std::uint32_t b) noexcept {
    return a ^ b;
  }

  [[nodiscard]] std::uint32_t mul(std::uint32_t a, std::uint32_t b) const;
  [[nodiscard]] std::uint32_t inv(std::uint32_t a) const;
  [[nodiscard]] std::uint32_t div(std::uint32_t a, std::uint32_t b) const;

  /// alpha^e for any integer exponent (reduced mod 2^m − 1).
  [[nodiscard]] std::uint32_t alpha_pow(std::int64_t e) const;

  /// Discrete log base alpha; requires a != 0.
  [[nodiscard]] std::uint32_t log(std::uint32_t a) const;

  /// a^e for field element a (e >= 0).
  [[nodiscard]] std::uint32_t pow(std::uint32_t a, std::uint64_t e) const;

  /// Unchecked table reads for decoder inner loops that keep their operands
  /// in range: alpha^e for e in [0, 2·order()), log(a) for a in [1, size()).
  [[nodiscard]] std::uint32_t exp_table(std::uint32_t e) const noexcept { return exp_[e]; }
  [[nodiscard]] std::uint32_t log_table(std::uint32_t a) const noexcept { return log_[a]; }

  /// The conventional primitive polynomial for m in [3, 14].
  [[nodiscard]] static std::uint32_t default_primitive_poly(int m);

 private:
  void build_tables();

  int m_;
  std::uint32_t size_;
  std::uint32_t poly_;
  std::vector<std::uint32_t> exp_;  // exp_[i] = alpha^i, doubled for cheap mul
  std::vector<std::uint32_t> log_;  // log_[a] for a in [1, 2^m)
};

}  // namespace aropuf
