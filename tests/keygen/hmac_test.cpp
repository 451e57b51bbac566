#include "keygen/hmac.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace aropuf
