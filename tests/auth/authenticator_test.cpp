#include "auth/authenticator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "auth/store_binary.hpp"
#include "ecc/code_search.hpp"
#include "keygen/fuzzy_extractor.hpp"
#include "puf/ro_puf.hpp"

namespace aropuf {
namespace {

TEST(AuthPolicyTest, ValidationBounds) {
  AuthPolicy p;
  p.accept_threshold = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.accept_threshold = 0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.accept_threshold = 0.2;
  EXPECT_NO_THROW(p.validate());
}

TEST(AuthPolicyTest, FalseAcceptMatchesBinomialTail) {
  AuthPolicy p;
  p.accept_threshold = 0.25;
  // 128 bits: P[Bin(128, 0.5) <= 32].
  const double far = p.false_accept_probability(128);
  EXPECT_GT(far, 0.0);
  EXPECT_LT(far, 1e-7);
  // Looser threshold accepts more impostors.
  AuthPolicy loose;
  loose.accept_threshold = 0.45;
  EXPECT_GT(loose.false_accept_probability(128), far);
}

TEST(AuthPolicyTest, ForFalseAcceptRatePicksLargestSafeThreshold) {
  const auto policy = AuthPolicy::for_false_accept_rate(128, 1e-6);
  EXPECT_LE(policy.false_accept_probability(128), 1e-6);
  // One more bit of slack would blow the budget.
  AuthPolicy next;
  next.accept_threshold = policy.accept_threshold + 1.0 / 128.0;
  EXPECT_GT(next.false_accept_probability(128), 1e-6);
}

TEST(AuthPolicyTest, LongerResponsesAllowHigherThresholds) {
  const auto short_resp = AuthPolicy::for_false_accept_rate(64, 1e-6);
  const auto long_resp = AuthPolicy::for_false_accept_rate(512, 1e-6);
  EXPECT_GT(long_resp.accept_threshold, short_resp.accept_threshold);
}

// Regression: 8-bit responses against a 2% FAR budget used to return a
// threshold accepting HD <= 1, whose true FAR is (1 + 8)/256 ~ 3.5% — a
// silently degenerate policy.  The only compliant threshold is exact match
// (FAR 2^-8 ~ 0.39%).
TEST(AuthPolicyTest, ShortResponsesNeverGetDegenerateThresholds) {
  const auto policy = AuthPolicy::for_false_accept_rate(8, 0.02);
  EXPECT_LE(policy.false_accept_probability(8), 0.02);
  EXPECT_LT(policy.accept_threshold, 1.0 / 8.0);  // accepts exact match only
}

// Regression: when even exact match cannot meet the target FAR (2^-n >
// target), the old code looped to a nonsense threshold; now it throws.
TEST(AuthPolicyTest, UnreachableFarTargetThrows) {
  EXPECT_THROW(AuthPolicy::for_false_accept_rate(4, 1e-9), std::invalid_argument);
  EXPECT_THROW(AuthPolicy::for_false_accept_rate(16, 1e-12), std::invalid_argument);
}

TEST(AuthPolicyTest, ForFalseAcceptRateRejectsDegenerateInputs) {
  EXPECT_THROW(AuthPolicy::for_false_accept_rate(1, 0.01), std::invalid_argument);
  EXPECT_THROW(AuthPolicy::for_false_accept_rate(128, 0.0), std::invalid_argument);
  EXPECT_THROW(AuthPolicy::for_false_accept_rate(128, 0.5), std::invalid_argument);
  EXPECT_THROW(AuthPolicy::for_false_accept_rate(128, 1.0), std::invalid_argument);
}

TEST(AuthPolicyTest, SmallButAchievableTargetsStillResolve) {
  // 16 bits, 1% budget: HD <= 2 has FAR (1+16+120)/65536 ~ 0.21%, HD <= 3
  // would be ~1.06% — the picked threshold must accept exactly HD <= 2.
  const auto policy = AuthPolicy::for_false_accept_rate(16, 0.01);
  EXPECT_LE(policy.false_accept_probability(16), 0.01);
  EXPECT_GT(policy.accept_threshold * 16.0, 2.0);
  EXPECT_LT(policy.accept_threshold * 16.0, 3.0);
}

class AuthenticatorTest : public ::testing::Test {
 protected:
  AuthenticatorTest() : auth_(AuthPolicy::for_false_accept_rate(128, 1e-6)) {}

  RoPuf make_chip(std::uint64_t index) const {
    return RoPuf(TechnologyParams::cmos90(), PufConfig::aro(), RngFabric(5).child("chip", index));
  }

  Authenticator auth_;
};

TEST_F(AuthenticatorTest, UnknownDeviceIsNullopt) {
  auth_.enroll(DeviceId{1}, BitVector(128));
  EXPECT_FALSE(auth_.verify(DeviceId{999}, BitVector(128)).has_value());
  EXPECT_FALSE(auth_.knows(DeviceId{999}));
}

TEST_F(AuthenticatorTest, EnrolledDeviceAuthenticates) {
  const RoPuf chip = make_chip(0);
  const auto op = chip.nominal_op();
  auth_.enroll(DeviceId{10}, chip.evaluate(op, 0));
  EXPECT_TRUE(auth_.knows(DeviceId{10}));
  const auto result = auth_.verify(DeviceId{10}, chip.evaluate(op, 1));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted);
  EXPECT_GT(result->margin, 0.0);
}

TEST_F(AuthenticatorTest, ImpostorChipIsRejected) {
  const RoPuf genuine = make_chip(1);
  const RoPuf impostor = make_chip(2);
  const auto op = genuine.nominal_op();
  auth_.enroll(DeviceId{11}, genuine.evaluate(op, 0));
  const auto result = auth_.verify(DeviceId{11}, impostor.evaluate(op, 0));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->accepted);
  EXPECT_GT(result->fractional_distance, 0.3);
}

TEST_F(AuthenticatorTest, ReEnrollReplacesResponse) {
  const RoPuf chip = make_chip(3);
  const auto op = chip.nominal_op();
  auth_.enroll(DeviceId{12}, chip.evaluate(op, 0));
  auth_.enroll(DeviceId{12}, chip.evaluate(op, 5));
  EXPECT_EQ(auth_.enrolled_count(), 1U);
  EXPECT_TRUE(auth_.verify(DeviceId{12}, chip.evaluate(op, 6))->accepted);
}

TEST_F(AuthenticatorTest, AgedConventionalChipEventuallyFailsFixedThreshold) {
  Authenticator auth(AuthPolicy::for_false_accept_rate(128, 1e-6));
  RoPuf chip(TechnologyParams::cmos90(), PufConfig::conventional(),
             RngFabric(5).child("chip", 7));
  const auto op = chip.nominal_op();
  auth.enroll(DeviceId{13}, chip.evaluate(op, 0));
  chip.age_years(10.0);
  const auto result = auth.verify(DeviceId{13}, chip.evaluate(op, 1));
  ASSERT_TRUE(result.has_value());
  // ~33% flips vs a ~0.3 threshold: the conventional chip is locked out.
  EXPECT_FALSE(result->accepted);
}

TEST_F(AuthenticatorTest, AgedAroChipKeepsAuthenticating) {
  RoPuf chip(TechnologyParams::cmos90(), PufConfig::aro(), RngFabric(5).child("chip", 8));
  const auto op = chip.nominal_op();
  auth_.enroll(DeviceId{14}, chip.evaluate(op, 0));
  chip.age_years(10.0);
  const auto result = auth_.verify(DeviceId{14}, chip.evaluate(op, 1));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted);
}

TEST_F(AuthenticatorTest, RefreshPolicyFlagsThinMargins) {
  AuthResult comfy;
  comfy.accepted = true;
  comfy.margin = 0.15;
  AuthResult thin;
  thin.accepted = true;
  thin.margin = 0.02;
  AuthResult rejected;
  rejected.accepted = false;
  rejected.margin = -0.1;
  EXPECT_FALSE(auth_.needs_refresh(comfy, 0.05));
  EXPECT_TRUE(auth_.needs_refresh(thin, 0.05));
  EXPECT_FALSE(auth_.needs_refresh(rejected, 0.05));
}

TEST_F(AuthenticatorTest, RejectsDegenerateInputs) {
  EXPECT_THROW(auth_.enroll(DeviceId{20}, BitVector()), std::invalid_argument);
  auth_.enroll(DeviceId{20}, BitVector(16));
  EXPECT_THROW((void)auth_.verify(DeviceId{20}, BitVector(8)), std::invalid_argument);
  EXPECT_THROW((void)auth_.needs_refresh(AuthResult{}, -0.1), std::invalid_argument);
}

TEST_F(AuthenticatorTest, CachedAndUncachedDecisionsAgree) {
  const RoPuf chip = make_chip(4);
  const auto op = chip.nominal_op();
  auth_.enroll(DeviceId{30}, chip.evaluate(op, 0));
  const auto cold = auth_.verify(DeviceId{30}, chip.evaluate(op, 1));
  auth_.set_cache(8);
  const auto miss = auth_.verify(DeviceId{30}, chip.evaluate(op, 1));
  const auto hit = auth_.verify(DeviceId{30}, chip.evaluate(op, 1));
  ASSERT_TRUE(cold && miss && hit);
  EXPECT_EQ(cold->accepted, miss->accepted);
  EXPECT_DOUBLE_EQ(cold->fractional_distance, miss->fractional_distance);
  EXPECT_DOUBLE_EQ(miss->fractional_distance, hit->fractional_distance);
  ASSERT_NE(auth_.cache(), nullptr);
  EXPECT_EQ(auth_.cache()->hits(), 1U);
  EXPECT_EQ(auth_.cache()->misses(), 1U);
  auth_.set_cache(0);
  EXPECT_EQ(auth_.cache(), nullptr);
}

TEST_F(AuthenticatorTest, TamperedRecordFailsTheBindingTag) {
  Authenticator::VerifierKey key{};
  key[0] = 0x5a;
  auto store = std::make_shared<MemoryEnrollmentStore>();
  Authenticator auth(AuthPolicy::for_false_accept_rate(128, 1e-6), store, key);
  const RoPuf chip = make_chip(5);
  const BitVector golden = chip.evaluate(chip.nominal_op(), 0);
  auth.enroll(DeviceId{40}, golden);
  EXPECT_TRUE(auth.verify(DeviceId{40}, golden)->accepted);

  // Re-insert the same response bytes with a zeroed tag: the verifier must
  // refuse to match against unauthenticated store bytes.
  EnrollmentRecord tampered;
  tampered.response = golden;
  store->put(DeviceId{40}, tampered);
  EXPECT_THROW((void)auth.verify(DeviceId{40}, golden), AuthStoreError);
}

TEST_F(AuthenticatorTest, KeyModeEnrollAndConfirm) {
  const auto scheme = find_min_area_scheme(TechnologyParams::cmos90(), 0.05,
                                           CodeSearchConstraints{});
  ASSERT_TRUE(scheme.has_value());
  const FuzzyExtractor extractor(scheme->scheme);
  RngFabric fabric(77);
  Xoshiro256 rng = fabric.stream("enroll", 0);
  BitVector golden(extractor.response_bits());
  Xoshiro256 bits = fabric.stream("golden", 0);
  for (std::size_t i = 0; i < golden.size(); ++i) golden.set(i, bits.bernoulli(0.5));

  Authenticator auth(AuthPolicy::for_false_accept_rate(128, 1e-6));
  auth.enroll_key(DeviceId{50}, extractor, golden, rng);

  // Clean re-read reconstructs the key and the confirmation tag matches.
  const auto ok = auth.verify_key(DeviceId{50}, extractor, golden);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->decoded);
  EXPECT_TRUE(ok->accepted);

  // A different device's response fails (either decode or confirmation).
  BitVector other(extractor.response_bits());
  Xoshiro256 noise = fabric.stream("golden", 1);
  for (std::size_t i = 0; i < other.size(); ++i) other.set(i, noise.bernoulli(0.5));
  const auto bad = auth.verify_key(DeviceId{50}, extractor, other);
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->accepted);

  EXPECT_FALSE(auth.verify_key(DeviceId{51}, extractor, golden).has_value());
}

TEST(AuthenticatorKeyModeTest, VerifyingThreadsShareOneExtractor) {
  // Every verifying thread decodes through the extractor's one BCH code and
  // reads its syndrome rows; decisions must match the serial ones (and the
  // rows must only be read: checked under TSan).
  ConcatenatedScheme scheme;
  scheme.repetition = 3;
  scheme.bch_m = 7;
  scheme.bch_t = 10;
  scheme.key_bits = 128;
  const FuzzyExtractor extractor(scheme);
  Authenticator auth(AuthPolicy::for_false_accept_rate(128, 1e-6));
  RngFabric fabric(78);
  std::vector<BitVector> golden;
  for (std::uint64_t d = 0; d < 8; ++d) {
    Xoshiro256 bits = fabric.stream("golden", d);
    BitVector g(extractor.response_bits());
    for (std::size_t i = 0; i < g.size(); ++i) g.set(i, bits.bernoulli(0.5));
    Xoshiro256 rng = fabric.stream("enroll", d);
    auth.enroll_key(DeviceId{d}, extractor, g, rng);
    golden.push_back(std::move(g));
  }
  // Reads at the 10-year ARO raw BER; every twelfth claims another device.
  std::vector<BitVector> claims;
  Xoshiro256 noise = fabric.stream("noise", 0);
  for (std::size_t c = 0; c < 96; ++c) {
    BitVector claim = golden[(c + (c % 12 == 11 ? 1 : 0)) % golden.size()];
    for (std::size_t i = 0; i < claim.size(); ++i) {
      if (noise.bernoulli(0.079)) claim.flip(i);
    }
    claims.push_back(std::move(claim));
  }
  const auto decide = [&](std::size_t c) {
    const auto result = auth.verify_key(DeviceId{c % golden.size()}, extractor, claims[c]);
    return result.has_value() && result->accepted;
  };
  std::vector<char> expected;
  for (std::size_t c = 0; c < claims.size(); ++c) expected.push_back(decide(c) ? 1 : 0);
  EXPECT_GT(std::count(expected.begin(), expected.end(), 1), 80);
  EXPECT_GE(std::count(expected.begin(), expected.end(), 0), 8);

  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (std::size_t c = t; c < claims.size(); c += 2) {
          if ((decide(c) ? 1 : 0) != expected[c]) ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

}  // namespace
}  // namespace aropuf
