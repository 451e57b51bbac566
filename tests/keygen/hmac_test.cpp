#include "keygen/hmac.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace aropuf {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t> repeated(std::uint8_t value, std::size_t count) {
  return std::vector<std::uint8_t>(count, value);
}

std::string hex(std::span<const std::uint8_t> data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0x0F]);
  }
  return out;
}

/// HmacSha256(key).mac(msg) as hex; also checks hmac_sha256 agrees.
std::string keyed_hex(const std::vector<std::uint8_t>& key, const std::vector<std::uint8_t>& msg) {
  const std::string keyed = Sha256::to_hex(HmacSha256(key).mac(msg));
  EXPECT_EQ(Sha256::to_hex(hmac_sha256(key, msg)), keyed);
  return keyed;
}

/// RFC 2104 from the definition, keyed afresh on every call:
/// H((K0 ^ opad) || H((K0 ^ ipad) || m)).
Sha256::Digest reference_hmac(const std::vector<std::uint8_t>& key,
                              const std::vector<std::uint8_t>& msg) {
  std::vector<std::uint8_t> k0 = key;
  if (k0.size() > 64) {
    const Sha256::Digest hashed = Sha256::hash(k0);
    k0.assign(hashed.begin(), hashed.end());
  }
  k0.resize(64, 0);
  std::vector<std::uint8_t> inner;
  std::vector<std::uint8_t> outer;
  for (const std::uint8_t b : k0) {
    inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Sha256::Digest inner_digest = Sha256::hash(inner);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::hash(outer);
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(seed + 37 * i);
  return out;
}

// --- RFC 4231 HMAC-SHA256 test vectors -------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  const auto key = repeated(0x0b, 20);
  const auto msg = bytes_of("Hi There");
  EXPECT_EQ(keyed_hex(key, msg),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const auto key = bytes_of("Jefe");
  const auto msg = bytes_of("what do ya want for nothing?");
  EXPECT_EQ(keyed_hex(key, msg),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const auto key = repeated(0xaa, 20);
  const auto msg = repeated(0xdd, 50);
  EXPECT_EQ(keyed_hex(key, msg),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  std::vector<std::uint8_t> key;
  for (std::uint8_t i = 0x01; i <= 0x19; ++i) key.push_back(i);
  const auto msg = repeated(0xcd, 50);
  EXPECT_EQ(keyed_hex(key, msg),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case5Truncated) {
  // The RFC gives only the first 128 bits for this case.
  const auto key = repeated(0x0c, 20);
  const auto msg = bytes_of("Test With Truncation");
  EXPECT_EQ(keyed_hex(key, msg).substr(0, 32), "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  // Key longer than the block size: hashed first.
  const auto key = repeated(0xaa, 131);
  const auto msg = bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(keyed_hex(key, msg),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  const auto key = repeated(0xaa, 131);
  const auto msg = bytes_of(
      "This is a test using a larger than block-size key and a larger than block-size "
      "data. The key needs to be hashed before being used by the HMAC algorithm.");
  EXPECT_EQ(keyed_hex(key, msg),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, KeyedObjectMatchesFreshlyKeyedReference) {
  // One keyed object per key serves every message: the copied midstates
  // must never leak one mac() into the next.
  constexpr std::size_t kKeyLengths[] = {0, 1, 32, 63, 64, 65, 131};
  for (const std::size_t key_len : kKeyLengths) {
    const auto key = pattern(key_len, static_cast<std::uint8_t>(key_len));
    const HmacSha256 keyed(key);
    for (std::size_t msg_len = 0; msg_len <= 200; ++msg_len) {
      const auto msg = pattern(msg_len, 0x5c);
      const std::string tag = Sha256::to_hex(keyed.mac(msg));
      ASSERT_EQ(tag, Sha256::to_hex(reference_hmac(key, msg)))
          << "key " << key_len << " B, message " << msg_len << " B";
      ASSERT_EQ(tag, Sha256::to_hex(hmac_sha256(key, msg)))
          << "key " << key_len << " B, message " << msg_len << " B";
    }
  }
}

TEST(HmacTest, SharedKeyedObjectGivesIdenticalTagsAcrossThreads) {
  // The Authenticator shares one keyed object among its verify() callers;
  // mac() must only read it (checked under TSan).
  const HmacSha256 keyed(pattern(32, 7));
  std::vector<Sha256::Digest> expected;
  for (std::size_t i = 0; i < 200; ++i) expected.push_back(keyed.mac(pattern(i, 3)));
  std::vector<int> mismatches(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (keyed.mac(pattern(i, 3)) != expected[i]) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

TEST(HmacTest, EmptyKeyAndMessageWork) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(hmac_sha256(empty, empty).size(), 32U);
}

// --- RFC 5869 HKDF test vectors ----------------------------------------------

TEST(HkdfTest, Rfc5869Case1) {
  const auto ikm = repeated(0x0b, 22);
  std::vector<std::uint8_t> salt;
  for (std::uint8_t i = 0; i <= 0x0c; ++i) salt.push_back(i);
  const auto prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(Sha256::to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");

  std::vector<std::uint8_t> info;
  for (std::uint8_t i = 0xf0; i <= 0xf9; ++i) info.push_back(i);
  const auto okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3ZeroSaltInfo) {
  const auto ikm = repeated(0x0b, 22);
  const auto prk = hkdf_extract({}, ikm);
  EXPECT_EQ(Sha256::to_hex(prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04");
  const auto okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, ExpandLengthLimits) {
  const Sha256::Digest prk{};
  EXPECT_THROW(hkdf_expand(prk, {}, 0), std::invalid_argument);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
  EXPECT_EQ(hkdf_expand(prk, {}, 100).size(), 100U);
}

TEST(DeriveSubkeyTest, LabelsSeparateKeys) {
  Sha256::Digest root{};
  root[0] = 0x42;
  const auto enc = derive_subkey(root, "encryption");
  const auto mac = derive_subkey(root, "mac");
  EXPECT_EQ(enc.size(), 32U);
  EXPECT_NE(hex(enc), hex(mac));
  // Deterministic per (root, label).
  EXPECT_EQ(hex(enc), hex(derive_subkey(root, "encryption")));
  // Different roots diverge.
  Sha256::Digest other{};
  other[0] = 0x43;
  EXPECT_NE(hex(enc), hex(derive_subkey(other, "encryption")));
}

}  // namespace
}  // namespace aropuf
