#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.hpp"

namespace aropuf {

namespace {
constexpr std::size_t kWordBits = 64;

constexpr std::size_t words_for(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

// Loads up to eight packed LSB-first bytes as the little-endian word they
// spell.  The full-width case is a single memcpy (plus a swap on big-endian
// hosts); short tails fall back to a byte loop.
std::uint64_t load_word_le(const std::uint8_t* p, std::size_t n) {
  if (n == 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    return w;
  }
  std::uint64_t w = 0;
  for (std::size_t i = 0; i < n; ++i) w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return w;
}

// Inverse of load_word_le: writes the low `n` bytes of `w` LSB-first.
void store_word_le(std::uint64_t w, std::uint8_t* p, std::size_t n) {
  if (n == 8) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    std::memcpy(p, &w, sizeof w);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(w >> (8 * i));
}
}  // namespace

BitVector::BitVector(std::size_t size) : words_(words_for(size), 0), size_(size) {}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    ARO_REQUIRE(c == '0' || c == '1', "bit string may contain only '0' and '1'");
    v.set(i, c == '1');
  }
  return v;
}

BitVector BitVector::from_bytes(const std::uint8_t* data, std::size_t bits) {
  ARO_REQUIRE(data != nullptr || bits == 0, "from_bytes with null data");
  BitVector v(bits);
  const std::size_t nbytes = (bits + 7) / 8;
  for (std::size_t w = 0; w < v.words_.size(); ++w) {
    const std::size_t off = w * 8;
    v.words_[w] = load_word_le(data + off, std::min<std::size_t>(8, nbytes - off));
  }
  v.clear_padding();
  return v;
}

BitVector BitVector::from_words(std::vector<std::uint64_t> words, std::size_t bits) {
  ARO_REQUIRE(words.size() == words_for(bits), "from_words needs ceil(bits / 64) words");
  BitVector v;
  v.words_ = std::move(words);
  v.size_ = bits;
  v.clear_padding();
  return v;
}

void BitVector::check_index(std::size_t i) const {
  ARO_REQUIRE(i < size_, "bit index out of range");
}

bool BitVector::get(std::size_t i) const {
  check_index(i);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVector::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVector::flip(std::size_t i) {
  check_index(i);
  words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

void BitVector::push_back(bool value) {
  if (size_ % kWordBits == 0) words_.push_back(0);
  ++size_;
  set(size_ - 1, value);
}

std::size_t BitVector::popcount() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

double BitVector::ones_fraction() const noexcept {
  if (size_ == 0) return 0.0;
  return static_cast<double>(popcount()) / static_cast<double>(size_);
}

void BitVector::clear_padding() noexcept {
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1ULL;
  }
}

BitVector BitVector::operator^(const BitVector& other) const {
  BitVector result = *this;
  result ^= other;
  return result;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  ARO_REQUIRE(size_ == other.size_, "XOR of bit vectors with different lengths");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;
}

bool BitVector::operator==(const BitVector& other) const noexcept {
  return size_ == other.size_ && words_ == other.words_;
}

BitVector BitVector::slice(std::size_t begin, std::size_t len) const {
  // Written so neither side can wrap: begin + len overflows near SIZE_MAX.
  ARO_REQUIRE(begin <= size_ && len <= size_ - begin, "slice out of range");
  BitVector out(len);
  const std::size_t first = begin / kWordBits;
  const std::size_t shift = begin % kWordBits;
  for (std::size_t w = 0; w < out.words_.size(); ++w) {
    std::uint64_t word = words_[first + w] >> shift;
    if (shift != 0 && first + w + 1 < words_.size()) {
      word |= words_[first + w + 1] << (kWordBits - shift);
    }
    out.words_[w] = word;
  }
  out.clear_padding();
  return out;
}

BitVector BitVector::concat(const BitVector& other) const {
  // Padding bits are zero, so `other` can be ORed in at bit offset size_:
  // each of its words lands in word first + w, its high bits spilling into
  // the next word when the offset is not word-aligned.
  BitVector out(size_ + other.size_);
  std::copy(words_.begin(), words_.end(), out.words_.begin());
  const std::size_t first = size_ / kWordBits;
  const std::size_t shift = size_ % kWordBits;
  for (std::size_t w = 0; w < other.words_.size(); ++w) {
    out.words_[first + w] |= other.words_[w] << shift;
    if (shift != 0 && first + w + 1 < out.words_.size()) {
      out.words_[first + w + 1] |= other.words_[w] >> (kWordBits - shift);
    }
  }
  return out;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) s[i] = '1';
  }
  return s;
}

std::vector<std::uint8_t> BitVector::to_bytes() const {
  // Word by word, the layout from_bytes reads; padding bits are zero, so the
  // final byte needs no masking.
  std::vector<std::uint8_t> bytes((size_ + 7) / 8);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::size_t off = w * 8;
    store_word_le(words_[w], bytes.data() + off, std::min<std::size_t>(8, bytes.size() - off));
  }
  return bytes;
}

std::size_t hamming_distance(const BitVector& a, const BitVector& b) {
  ARO_REQUIRE(a.size() == b.size(), "Hamming distance requires equal lengths");
  std::size_t total = 0;
  const auto& wa = a.words();
  const auto& wb = b.words();
  for (std::size_t w = 0; w < wa.size(); ++w) {
    total += static_cast<std::size_t>(std::popcount(wa[w] ^ wb[w]));
  }
  return total;
}

double fractional_hamming_distance(const BitVector& a, const BitVector& b) {
  if (a.size() == 0 && b.size() == 0) return 0.0;
  return static_cast<double>(hamming_distance(a, b)) / static_cast<double>(a.size());
}

std::size_t popcount_bytes(const std::uint8_t* data, std::size_t size) {
  ARO_REQUIRE(data != nullptr || size == 0, "popcount_bytes with null data");
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, sizeof w);  // byte order is irrelevant to popcount
    total += static_cast<std::size_t>(std::popcount(w));
  }
  if (i < size) {
    total += static_cast<std::size_t>(std::popcount(load_word_le(data + i, size - i)));
  }
  return total;
}

std::size_t hamming_distance_packed(const BitVector& a, const std::uint8_t* packed,
                                    std::size_t bits) {
  ARO_REQUIRE(a.size() == bits, "Hamming distance requires equal lengths");
  ARO_REQUIRE(packed != nullptr || bits == 0, "hamming_distance_packed with null data");
  const auto& wa = a.words();
  const std::size_t nbytes = (bits + 7) / 8;
  std::size_t total = 0;
  for (std::size_t w = 0; w < wa.size(); ++w) {
    const std::size_t off = w * 8;
    std::uint64_t pw = load_word_le(packed + off, std::min<std::size_t>(8, nbytes - off));
    if (w + 1 == wa.size()) {
      // BitVector keeps its padding bits zero; mask the packed side the same
      // way so stray bits in the final byte cannot inflate the distance.
      const std::size_t tail = bits % kWordBits;
      if (tail != 0) pw &= (std::uint64_t{1} << tail) - 1;
    }
    total += static_cast<std::size_t>(std::popcount(wa[w] ^ pw));
  }
  return total;
}

}  // namespace aropuf
