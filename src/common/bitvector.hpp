// Dynamic bit vector used for PUF responses, ECC codewords, and keys.
//
// std::vector<bool> hides its storage, which makes popcount-based Hamming
// distance (the hottest metric in the population studies) slow and awkward;
// this class keeps explicit 64-bit words so HD is a word-wise XOR+popcount.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace aropuf {

class BitVector {
 public:
  BitVector() = default;

  /// Creates `size` bits, all zero.
  explicit BitVector(std::size_t size);

  /// Creates from a string of '0'/'1' characters (test convenience).
  static BitVector from_string(const std::string& bits);

  /// Inverse of to_bytes(): unpacks `bits` bits from LSB-first packed bytes.
  /// Reads ceil(bits / 8) bytes from `data`; stray bits in the final byte
  /// beyond `bits` are ignored.
  static BitVector from_bytes(const std::uint8_t* data, std::size_t bits);

  /// Takes `words` as the storage of `bits` bits, bit i at bit i % 64 of
  /// word i / 64 (the words() layout).  Requires ceil(bits / 64) words;
  /// bits beyond `bits` in the last word are cleared.
  static BitVector from_words(std::vector<std::uint64_t> words, std::size_t bits);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// Appends one bit.
  void push_back(bool value);

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Fraction of set bits (0 for the empty vector).
  [[nodiscard]] double ones_fraction() const noexcept;

  /// XOR of two equal-length vectors.
  [[nodiscard]] BitVector operator^(const BitVector& other) const;
  BitVector& operator^=(const BitVector& other);

  [[nodiscard]] bool operator==(const BitVector& other) const noexcept;

  /// Extracts bits [begin, begin+len).
  [[nodiscard]] BitVector slice(std::size_t begin, std::size_t len) const;

  /// Concatenates `other` after this vector, a word at a time.
  [[nodiscard]] BitVector concat(const BitVector& other) const;

  /// '0'/'1' rendering, index 0 first.
  [[nodiscard]] std::string to_string() const;

  /// Packs the bits into bytes, LSB-first within each byte (for hashing).
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  /// Raw word access (read-only) for the hot HD loops in metrics.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept { return words_; }

 private:
  void check_index(std::size_t i) const;
  /// Zeroes any bits beyond size_ in the last word (class invariant: padding
  /// bits are always zero so popcount/== work word-wise).
  void clear_padding() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Hamming distance between two equal-length bit vectors.
[[nodiscard]] std::size_t hamming_distance(const BitVector& a, const BitVector& b);

/// Hamming distance normalized by length (0 for empty vectors).
[[nodiscard]] double fractional_hamming_distance(const BitVector& a, const BitVector& b);

/// Number of set bits in a packed byte buffer, accumulated word-wise (eight
/// bytes per popcount).  Shared by every hot path that compares bit material
/// still sitting in serialized form (e.g. the mmap-ed enrollment store).
[[nodiscard]] std::size_t popcount_bytes(const std::uint8_t* data, std::size_t size);

/// Hamming distance between `a` and `bits` bits packed LSB-first at `packed`
/// (the to_bytes() layout), without materializing a second BitVector.  Runs
/// word-wise; stray bits in the final byte beyond `bits` are ignored.
/// Requires a.size() == bits.
[[nodiscard]] std::size_t hamming_distance_packed(const BitVector& a,
                                                  const std::uint8_t* packed,
                                                  std::size_t bits);

}  // namespace aropuf
