#include "keygen/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace aropuf {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string hash_hex(const std::string& s) {
  const auto b = bytes_of(s);
  return Sha256::to_hex(Sha256::hash(b));
}

std::vector<std::uint8_t> random_bytes(Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.bounded(256));
  return out;
}

/// Textbook FIPS 180-4 hash on the portable compression: the whole padded
/// message built up front, then compressed in one call.
Sha256::Digest reference_hash(const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> padded = message;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  detail::sha256_compress_portable(state, padded.data(), padded.size() / 64);
  Sha256::Digest digest;
  for (std::size_t i = 0; i < 32; ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, ExactBlockBoundary64Bytes) {
  const std::string s(64, 'a');
  EXPECT_EQ(hash_hex(s),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(Sha256::to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingEqualsOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (const char c : msg) {
    const auto byte = static_cast<std::uint8_t>(c);
    h.update({&byte, 1});
  }
  EXPECT_EQ(Sha256::to_hex(h.finish()), hash_hex(msg));
}

TEST(Sha256Test, StreamingAcrossBlockBoundary) {
  const std::string msg(130, 'x');
  Sha256 h;
  h.update(bytes_of(msg.substr(0, 63)));
  h.update(bytes_of(msg.substr(63, 2)));
  h.update(bytes_of(msg.substr(65)));
  EXPECT_EQ(Sha256::to_hex(h.finish()), hash_hex(msg));
}

TEST(Sha256Test, ReuseAfterFinishRejected) {
  Sha256 h;
  h.update(bytes_of("abc"));
  (void)h.finish();
  EXPECT_THROW(h.update(bytes_of("x")), std::invalid_argument);
  EXPECT_THROW((void)h.finish(), std::invalid_argument);
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(hash_hex("abc"), hash_hex("abd"));
  EXPECT_NE(hash_hex("abc"), hash_hex("abc "));
}

TEST(Sha256Test, StreamingMatchesReferenceAtEveryLength) {
  // Every padding case (0..300 bytes crosses the 55/56/64-byte boundaries
  // several times), fed in random-sized chunks through the dispatched path.
  Xoshiro256 rng(41);
  for (std::size_t n = 0; n <= 300; ++n) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, n);
    Sha256 h;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t take = std::min<std::size_t>(n - at, 1 + rng.bounded(150));
      h.update(std::span<const std::uint8_t>(msg).subspan(at, take));
      at += take;
    }
    const Sha256::Digest expected = reference_hash(msg);
    EXPECT_EQ(Sha256::to_hex(h.finish()), Sha256::to_hex(expected)) << "length " << n;
    EXPECT_EQ(Sha256::to_hex(Sha256::hash(msg)), Sha256::to_hex(expected)) << "length " << n;
  }
}

TEST(Sha256Test, ImplementationNamesTheDispatchedPath) {
  const std::string name = Sha256::implementation();
  EXPECT_EQ(name, detail::sha256_compress_shani() != nullptr ? "sha_ni" : "portable");
}

TEST(Sha256Test, ConcurrentFirstUseAgrees) {
  // Eight threads race to the process's first hash (each ctest entry is its
  // own process), so the compression choice is made under contention; it is
  // a one-time initialisation, read-only afterwards (checked under TSan).
  const std::vector<std::uint8_t> msg(1000, 0x5a);
  std::vector<std::string> digests(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < digests.size(); ++t) {
    threads.emplace_back([&, t] { digests[t] = Sha256::to_hex(Sha256::hash(msg)); });
  }
  for (auto& th : threads) th.join();
  for (const auto& d : digests) EXPECT_EQ(d, Sha256::to_hex(reference_hash(msg)));
}

TEST(Sha256ShaniTest, MatchesPortableCompression) {
  const detail::Sha256CompressFn shani = detail::sha256_compress_shani();
  if (shani == nullptr) GTEST_SKIP() << "SHA-NI compression not compiled in or CPU lacks SHA";
  Xoshiro256 rng(2014);
  for (int c = 0; c < 5000; ++c) {
    detail::Sha256State portable;
    for (auto& word : portable) word = static_cast<std::uint32_t>(rng());
    detail::Sha256State fast = portable;
    const std::size_t blocks = 1 + rng.bounded(4);
    const std::vector<std::uint8_t> data = random_bytes(rng, 64 * blocks);
    detail::sha256_compress_portable(portable, data.data(), blocks);
    shani(fast, data.data(), blocks);
    ASSERT_EQ(fast, portable) << "case " << c << ", " << blocks << " block(s)";
  }
}

TEST(Sha256Test, HexRenderingIsLowercase64Chars) {
  const auto d = Sha256::hash(bytes_of("x"));
  const std::string hex = Sha256::to_hex(d);
  EXPECT_EQ(hex.size(), 64U);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

}  // namespace
}  // namespace aropuf
