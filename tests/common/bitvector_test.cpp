#include "common/bitvector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace aropuf {
namespace {

TEST(BitVectorTest, DefaultIsEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0U);
  EXPECT_EQ(v.popcount(), 0U);
}

TEST(BitVectorTest, ConstructedZeroed) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130U);
  EXPECT_EQ(v.popcount(), 0U);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVectorTest, SetGetFlip) {
  BitVector v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_EQ(v.popcount(), 4U);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.set(0, false);
  EXPECT_EQ(v.popcount(), 2U);
}

TEST(BitVectorTest, IndexOutOfRangeThrows) {
  BitVector v(10);
  EXPECT_THROW((void)v.get(10), std::invalid_argument);
  EXPECT_THROW(v.set(10, true), std::invalid_argument);
  EXPECT_THROW(v.flip(10), std::invalid_argument);
}

TEST(BitVectorTest, FromStringRoundTrip) {
  const std::string s = "1011001110001111";
  const BitVector v = BitVector::from_string(s);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.popcount(), 10U);
}

TEST(BitVectorTest, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVector::from_string("10x1"), std::invalid_argument);
}

TEST(BitVectorTest, PushBackGrowsAcrossWords) {
  BitVector v;
  for (int i = 0; i < 130; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 130U);
  for (int i = 0; i < 130; ++i) EXPECT_EQ(v.get(static_cast<std::size_t>(i)), i % 3 == 0);
}

TEST(BitVectorTest, XorBehaves) {
  const BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("1010");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  BitVector c = a;
  c ^= b;
  EXPECT_EQ(c.to_string(), "0110");
  EXPECT_EQ((a ^ a).popcount(), 0U);
}

TEST(BitVectorTest, XorLengthMismatchThrows) {
  const BitVector a(4);
  const BitVector b(5);
  EXPECT_THROW(a ^ b, std::invalid_argument);
}

TEST(BitVectorTest, EqualityIncludesLength) {
  EXPECT_EQ(BitVector::from_string("101"), BitVector::from_string("101"));
  EXPECT_FALSE(BitVector::from_string("101") == BitVector::from_string("1010"));
  EXPECT_FALSE(BitVector::from_string("101") == BitVector::from_string("100"));
}

TEST(BitVectorTest, SliceExtractsRange) {
  const BitVector v = BitVector::from_string("0110100110");
  EXPECT_EQ(v.slice(2, 5).to_string(), "10100");
  EXPECT_EQ(v.slice(0, 0).size(), 0U);
  EXPECT_THROW(v.slice(6, 5), std::invalid_argument);
  EXPECT_THROW(v.slice(SIZE_MAX - 1, 3), std::invalid_argument);  // begin + len wraps

  // A range that starts mid-word and straddles word boundaries.
  std::string bits;
  for (int i = 0; i < 200; ++i) bits += (i % 3 == 0 || i % 7 == 0) ? '1' : '0';
  EXPECT_EQ(BitVector::from_string(bits).slice(61, 130).to_string(), bits.substr(61, 130));
}

TEST(BitVectorTest, ConcatPreservesOrder) {
  const BitVector a = BitVector::from_string("110");
  const BitVector b = BitVector::from_string("01");
  EXPECT_EQ(a.concat(b).to_string(), "11001");
  EXPECT_EQ(BitVector().concat(b).to_string(), "01");
}

TEST(BitVectorTest, ConcatJoinsAtEveryWordOffset) {
  // The left side's length is the bit offset of the join: word-aligned (0,
  // 64), just past a boundary (1, 65) or one short of it (63).
  Xoshiro256 rng(21);
  const auto random_bits = [&rng](std::size_t size) {
    BitVector v(size);
    for (std::size_t i = 0; i < size; ++i) v.set(i, rng.bernoulli(0.5));
    return v;
  };
  for (const std::size_t offset : {0UL, 1UL, 63UL, 64UL, 65UL}) {
    for (const std::size_t tail : {0UL, 1UL, 63UL, 64UL, 65UL, 130UL}) {
      const BitVector a = random_bits(offset);
      const BitVector b = random_bits(tail);
      const BitVector joined = a.concat(b);
      ASSERT_EQ(joined.size(), offset + tail);
      for (std::size_t i = 0; i < offset; ++i) ASSERT_EQ(joined.get(i), a.get(i));
      for (std::size_t i = 0; i < tail; ++i) {
        ASSERT_EQ(joined.get(offset + i), b.get(i)) << offset << "+" << tail << " bit " << i;
      }
      EXPECT_EQ(joined.popcount(), a.popcount() + b.popcount()) << offset << "+" << tail;
    }
  }
}

TEST(BitVectorTest, OnesFraction) {
  EXPECT_DOUBLE_EQ(BitVector().ones_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(BitVector::from_string("1100").ones_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(BitVector::from_string("1111").ones_fraction(), 1.0);
}

TEST(BitVectorTest, ToBytesLsbFirst) {
  // bits 0..7 = 10000000 -> byte 0x01; bit 8 set -> second byte 0x01.
  BitVector v(9);
  v.set(0, true);
  v.set(8, true);
  const auto bytes = v.to_bytes();
  ASSERT_EQ(bytes.size(), 2U);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x01);

  // Every length around byte and word edges, against a per-bit packing (a
  // round trip alone cannot catch to_bytes and from_bytes sharing a bug).
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (const std::size_t bits :
       {0UL, 1UL, 7UL, 8UL, 9UL, 63UL, 64UL, 65UL, 127UL, 128UL, 130UL, 200UL}) {
    BitVector w(bits);
    std::vector<std::uint8_t> reference((bits + 7) / 8, 0);
    for (std::size_t i = 0; i < bits; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((state >> 63) != 0) {
        w.set(i, true);
        reference[i / 8] |= static_cast<std::uint8_t>(1U << (i % 8));
      }
    }
    EXPECT_EQ(w.to_bytes(), reference) << bits << " bits";
  }
}

TEST(HammingDistanceTest, CountsDifferences) {
  const BitVector a = BitVector::from_string("110010");
  const BitVector b = BitVector::from_string("011010");
  EXPECT_EQ(hamming_distance(a, b), 2U);
  EXPECT_EQ(hamming_distance(a, a), 0U);
}

TEST(HammingDistanceTest, WorksAcrossWordBoundaries) {
  BitVector a(200);
  BitVector b(200);
  for (std::size_t i = 0; i < 200; i += 7) b.flip(i);
  EXPECT_EQ(hamming_distance(a, b), b.popcount());
}

TEST(HammingDistanceTest, LengthMismatchThrows) {
  EXPECT_THROW((void)hamming_distance(BitVector(3), BitVector(4)), std::invalid_argument);
}

TEST(FractionalHammingDistanceTest, NormalizesByLength) {
  const BitVector a = BitVector::from_string("1111");
  const BitVector b = BitVector::from_string("0011");
  EXPECT_DOUBLE_EQ(fractional_hamming_distance(a, b), 0.5);
  EXPECT_DOUBLE_EQ(fractional_hamming_distance(BitVector(), BitVector()), 0.0);
}

TEST(BitVectorTest, FromBytesRoundTripsToBytes) {
  for (const std::size_t bits : {0UL, 1UL, 7UL, 8UL, 63UL, 64UL, 65UL, 130UL, 200UL}) {
    BitVector v(bits);
    for (std::size_t i = 0; i < bits; i += 3) v.set(i, true);
    const std::vector<std::uint8_t> packed = v.to_bytes();
    EXPECT_EQ(BitVector::from_bytes(packed.data(), bits), v) << bits << " bits";
  }
}

TEST(BitVectorTest, FromBytesIgnoresStrayPaddingBits) {
  // Bits past `bits` in the final byte must not leak into the vector (the
  // padding-is-zero invariant), so popcount and equality stay exact.
  const std::uint8_t raw[] = {0xff, 0xff};
  const BitVector v = BitVector::from_bytes(raw, 10);
  EXPECT_EQ(v.size(), 10U);
  EXPECT_EQ(v.popcount(), 10U);
  EXPECT_EQ(v, BitVector::from_bytes(v.to_bytes().data(), 10));
}

/// Scalar reference: count set bits one by one.
std::size_t popcount_bytes_scalar(const std::uint8_t* data, std::size_t size) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < size; ++i) {
    for (int b = 0; b < 8; ++b) count += (data[i] >> b) & 1;
  }
  return count;
}

TEST(PopcountBytesTest, MatchesScalarReference) {
  std::vector<std::uint8_t> data;
  for (std::size_t i = 0; i < 41; ++i) {
    data.push_back(static_cast<std::uint8_t>((i * 37 + 11) & 0xff));
    EXPECT_EQ(popcount_bytes(data.data(), data.size()),
              popcount_bytes_scalar(data.data(), data.size()))
        << data.size() << " bytes";
  }
  EXPECT_EQ(popcount_bytes(data.data(), 0), 0U);
}

/// Scalar reference for the packed-HD hot path: bit-by-bit comparison.
std::size_t hamming_distance_packed_scalar(const BitVector& a, const std::uint8_t* packed,
                                           std::size_t bits) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    const bool pb = ((packed[i / 8] >> (i % 8)) & 1) != 0;
    count += a.get(i) != pb ? 1 : 0;
  }
  return count;
}

TEST(HammingDistancePackedTest, MatchesScalarReferenceAtAllLengths) {
  for (const std::size_t bits : {1UL, 7UL, 8UL, 63UL, 64UL, 65UL, 128UL, 200UL}) {
    BitVector a(bits);
    std::vector<std::uint8_t> packed((bits + 7) / 8, 0);
    for (std::size_t i = 0; i < bits; i += 3) a.set(i, true);
    for (std::size_t i = 0; i < packed.size(); ++i) {
      packed[i] = static_cast<std::uint8_t>((i * 73 + 29) & 0xff);
    }
    EXPECT_EQ(hamming_distance_packed(a, packed.data(), bits),
              hamming_distance_packed_scalar(a, packed.data(), bits))
        << bits << " bits";
  }
}

TEST(HammingDistancePackedTest, AgreesWithBitVectorHammingDistance) {
  BitVector a(130);
  BitVector b(130);
  for (std::size_t i = 0; i < 130; i += 5) a.flip(i);
  for (std::size_t i = 1; i < 130; i += 7) b.flip(i);
  const std::vector<std::uint8_t> packed = b.to_bytes();
  EXPECT_EQ(hamming_distance_packed(a, packed.data(), 130), hamming_distance(a, b));
}

TEST(HammingDistancePackedTest, StrayBitsInTheFinalPackedByteAreMasked) {
  // 10 bits leaves 6 padding bits in the second byte; set them all and the
  // distance must not change.
  const BitVector a(10);
  std::uint8_t packed[] = {0x03, 0x01};
  const std::size_t clean = hamming_distance_packed(a, packed, 10);
  packed[1] |= 0xfc;
  EXPECT_EQ(hamming_distance_packed(a, packed, 10), clean);
  EXPECT_EQ(clean, 3U);
}

TEST(HammingDistancePackedTest, LengthMismatchThrows) {
  const BitVector a(16);
  const std::uint8_t packed[2] = {0, 0};
  EXPECT_THROW((void)hamming_distance_packed(a, packed, 8), std::invalid_argument);
}

}  // namespace
}  // namespace aropuf
