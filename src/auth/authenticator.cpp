#include "auth/authenticator.hpp"

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "auth/store_binary.hpp"
#include "common/check.hpp"
#include "common/statistics.hpp"
#include "keygen/hmac.hpp"

namespace aropuf {

namespace {

void append_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void append_u64le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

/// Constant-time tag comparison: no early exit on the first differing byte.
bool tag_equal(const std::uint8_t* a, const std::uint8_t* b) {
  unsigned diff = 0;
  for (std::size_t i = 0; i < kRecordTagBytes; ++i) diff |= static_cast<unsigned>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace

void AuthPolicy::validate() const {
  ARO_REQUIRE(accept_threshold > 0.0 && accept_threshold < 0.5,
              "accept threshold must be in (0, 0.5)");
}

double AuthPolicy::false_accept_probability(std::size_t response_bits) const {
  validate();
  ARO_REQUIRE(response_bits >= 1, "response must have bits");
  // A different chip's response is i.i.d. fair coin vs ours: accept iff
  // HD <= threshold * n, i.e. P[Bin(n, 1/2) <= floor(t n)].
  const auto n = static_cast<std::uint64_t>(response_bits);
  const auto limit = static_cast<std::uint64_t>(std::floor(
      accept_threshold * static_cast<double>(response_bits)));
  return 1.0 - binomial_tail_greater(n, limit, 0.5);
}

AuthPolicy AuthPolicy::for_false_accept_rate(std::size_t response_bits, double target_far) {
  ARO_REQUIRE(response_bits >= 2, "response must have at least 2 bits");
  ARO_REQUIRE(target_far > 0.0 && target_far < 0.5, "target FAR must be in (0, 0.5)");
  // Candidate thresholds (k + 0.5)/n accept HD <= k; FAR is monotone in k.
  // k = 0 (exact match only, FAR = 2^-n) is the floor: when even that misses
  // the target, there is no valid policy and we say so instead of returning
  // a degenerate threshold.
  std::optional<AuthPolicy> best;
  for (std::size_t k = 0; 2 * k + 1 < response_bits; ++k) {
    AuthPolicy candidate;
    candidate.accept_threshold =
        (static_cast<double>(k) + 0.5) / static_cast<double>(response_bits);
    if (candidate.false_accept_probability(response_bits) <= target_far) {
      best = candidate;
    } else {
      break;
    }
  }
  ARO_REQUIRE(best.has_value(), "response too short to meet the FAR target even at exact match");
  best->validate();
  return *best;
}

std::array<std::uint8_t, kRecordTagBytes> record_binding_tag(
    const HmacSha256& key, DeviceId id, std::uint32_t response_bits, std::uint32_t helper_bits,
    const std::uint8_t* response_bytes, const std::uint8_t* helper_bytes) {
  const std::size_t response_len = (response_bits + 7) / 8;
  const std::size_t helper_len = (helper_bits + 7) / 8;
  std::vector<std::uint8_t> message;
  message.reserve(16 + response_len + helper_len);
  append_u64le(message, id);
  append_u32le(message, response_bits);
  append_u32le(message, helper_bits);
  if (response_len > 0) message.insert(message.end(), response_bytes, response_bytes + response_len);
  if (helper_len > 0) message.insert(message.end(), helper_bytes, helper_bytes + helper_len);
  return key.mac(message);
}

std::array<std::uint8_t, kRecordTagBytes> record_binding_tag(
    const Authenticator::VerifierKey& key, DeviceId id, std::uint32_t response_bits,
    std::uint32_t helper_bits, const std::uint8_t* response_bytes,
    const std::uint8_t* helper_bytes) {
  return record_binding_tag(HmacSha256(key), id, response_bits, helper_bits, response_bytes,
                            helper_bytes);
}

std::array<std::uint8_t, kRecordTagBytes> key_confirmation_tag(const Sha256::Digest& device_key,
                                                               DeviceId id) {
  static constexpr char kLabel[] = "aropuf-key-confirm";
  std::vector<std::uint8_t> message;
  message.reserve(sizeof kLabel - 1 + 8);
  message.insert(message.end(), reinterpret_cast<const std::uint8_t*>(kLabel),
                 reinterpret_cast<const std::uint8_t*>(kLabel) + sizeof kLabel - 1);
  append_u64le(message, id);
  return hmac_sha256(device_key, message);
}

Authenticator::Authenticator(AuthPolicy policy, std::shared_ptr<EnrollmentStore> store,
                             VerifierKey key)
    : policy_(policy), store_(std::move(store)), key_(key) {
  policy_.validate();
  ARO_REQUIRE(store_ != nullptr, "authenticator needs a store");
}

Authenticator::Authenticator(AuthPolicy policy, std::shared_ptr<EnrollmentStore> store)
    : Authenticator(policy, std::move(store), VerifierKey{}) {}

Authenticator::Authenticator(AuthPolicy policy)
    : Authenticator(policy, std::make_shared<MemoryEnrollmentStore>(), VerifierKey{}) {}

void Authenticator::enroll(DeviceId id, BitVector response) {
  ARO_REQUIRE(!response.empty(), "enrollment response must be non-empty");
  EnrollmentRecord record;
  record.response = std::move(response);
  const std::vector<std::uint8_t> packed = record.response.to_bytes();
  record.tag = record_binding_tag(key_, id, static_cast<std::uint32_t>(record.response.size()),
                                  0, packed.data(), nullptr);
  store_->put(id, record);
}

void Authenticator::enroll_key(DeviceId id, const FuzzyExtractor& extractor,
                               const BitVector& golden_response, Xoshiro256& rng) {
  const Enrollment enrollment = extractor.enroll(golden_response, rng);
  EnrollmentRecord record;
  record.helper = enrollment.helper_data;
  record.tag = key_confirmation_tag(enrollment.key, id);
  store_->put(id, record);
}

std::shared_ptr<const RecordCache::Entry> Authenticator::load_record(DeviceId id,
                                                                     RecordView view) const {
  const std::uint32_t response_bits = static_cast<std::uint32_t>(store_->response_bits());
  const std::uint32_t helper_bits = static_cast<std::uint32_t>(store_->helper_bits());
  if (response_bits > 0) {
    // Re-check the binding tag before trusting store bytes (key-mode records
    // carry a key-confirmation tag instead, checked in verify_key).
    const auto expected =
        record_binding_tag(key_, id, response_bits, helper_bits, view.response, view.helper);
    if (!tag_equal(expected.data(), view.tag)) {
      throw AuthStoreError(AuthStoreErrc::kTagMismatch,
                           "record binding tag mismatch for device " + std::to_string(id));
    }
  }
  auto entry = std::make_shared<RecordCache::Entry>();
  if (response_bits > 0) entry->response = BitVector::from_bytes(view.response, response_bits);
  if (helper_bits > 0) entry->helper = BitVector::from_bytes(view.helper, helper_bits);
  return entry;
}

std::optional<AuthResult> Authenticator::verify(DeviceId id, const BitVector& response) const {
  const std::size_t bits = store_->response_bits();
  ARO_REQUIRE(bits > 0, "store holds no enrollment responses (key-mode store)");
  ARO_REQUIRE(response.size() == bits, "response length mismatch");

  std::size_t distance = 0;
  if (cache_ != nullptr) {
    if (const auto cached = cache_->find(id)) {
      distance = hamming_distance(cached->response, response);
    } else {
      const auto view = store_->find(id);
      if (!view) return std::nullopt;
      const auto entry = load_record(id, *view);
      distance = hamming_distance(entry->response, response);
      cache_->insert(id, entry);
    }
  } else {
    const auto view = store_->find(id);
    if (!view) return std::nullopt;
    const std::uint32_t response_bits = static_cast<std::uint32_t>(bits);
    const auto expected = record_binding_tag(
        key_, id, response_bits, static_cast<std::uint32_t>(store_->helper_bits()),
        view->response, view->helper);
    if (!tag_equal(expected.data(), view->tag)) {
      throw AuthStoreError(AuthStoreErrc::kTagMismatch,
                           "record binding tag mismatch for device " + std::to_string(id));
    }
    distance = hamming_distance_packed(response, view->response, bits);
  }

  AuthResult result;
  result.fractional_distance = static_cast<double>(distance) / static_cast<double>(bits);
  result.accepted = result.fractional_distance <= policy_.accept_threshold;
  result.margin = policy_.accept_threshold - result.fractional_distance;
  return result;
}

std::optional<KeyAuthResult> Authenticator::verify_key(DeviceId id,
                                                       const FuzzyExtractor& extractor,
                                                       const BitVector& response) const {
  const std::size_t helper_bits = store_->helper_bits();
  ARO_REQUIRE(helper_bits > 0, "store holds no helper data (threshold-mode store)");
  const auto view = store_->find(id);
  if (!view) return std::nullopt;
  const BitVector helper = BitVector::from_bytes(view->helper, helper_bits);
  KeyAuthResult result;
  const auto key = extractor.reconstruct(response, helper);
  if (!key) return result;  // drifted beyond the code's correction capability
  result.decoded = true;
  const auto expected = key_confirmation_tag(*key, id);
  result.accepted = tag_equal(expected.data(), view->tag);
  return result;
}

bool Authenticator::needs_refresh(const AuthResult& result, double refresh_margin) const {
  ARO_REQUIRE(refresh_margin >= 0.0, "refresh margin must be non-negative");
  return result.accepted && result.margin < refresh_margin;
}

void Authenticator::set_cache(std::size_t capacity) {
  cache_ = capacity > 0 ? std::make_unique<RecordCache>(capacity) : nullptr;
}

}  // namespace aropuf
