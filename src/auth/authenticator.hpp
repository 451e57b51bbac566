// PUF authentication service: threshold matching and key confirmation over a
// pluggable enrollment store, with aging-aware threshold policy.
//
// The key-generation flow (keygen/) gives exact keys; many deployments
// instead authenticate by *approximate* response matching: the verifier
// stores enrollment responses, the device answers a challenge, and the
// verifier accepts when the Hamming distance is below a threshold.  The
// threshold must sit between the intra-chip error tail (false rejects) and
// the inter-chip distance tail (false accepts) — and the intra-chip tail
// *moves* as the device ages, which is exactly the failure mode the
// ARO-PUF prevents.  E13 quantifies the authentication lifetime of both
// designs under a fixed-threshold policy and under re-enrollment.
//
// API (since the E15 service redesign): devices are 64-bit DeviceId handles
// and storage lives behind EnrollmentStore (enrollment_store.hpp), so the
// same verifier code runs against the in-memory map and the mmap-ed
// million-device ARPS store (store_binary.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "auth/enrollment_store.hpp"
#include "auth/lru_cache.hpp"
#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "keygen/fuzzy_extractor.hpp"
#include "keygen/hmac.hpp"

namespace aropuf {

/// Threshold-matching policy: accept/reject rule plus its analytic FAR.
struct AuthPolicy {
  /// Accept when fractional HD to the enrolled response is <= threshold.
  double accept_threshold = 0.20;

  /// Throws std::invalid_argument unless the threshold lies in (0, 0.5).
  void validate() const;

  /// False-accept probability of this threshold for an `n`-bit response
  /// against a *different* chip (inter-chip HD ~ Bin(n, 0.5)).
  [[nodiscard]] double false_accept_probability(std::size_t response_bits) const;

  /// Threshold placed to bound the false-accept rate at `target_far` for
  /// `response_bits`-bit responses (largest threshold meeting the bound;
  /// exact-match-only is the floor).  Throws std::invalid_argument when the
  /// target is not in (0, 0.5), when the response is shorter than two bits,
  /// or when even exact match cannot meet the target — never a silent
  /// degenerate threshold.
  static AuthPolicy for_false_accept_rate(std::size_t response_bits, double target_far);
};

/// Outcome of one threshold-matching verification.
struct AuthResult {
  /// True when the claim matched within the policy threshold.
  bool accepted = false;
  /// Fractional Hamming distance between claim and enrollment.
  double fractional_distance = 1.0;
  /// Margin to the threshold (positive = accepted with room to spare).
  double margin = 0.0;
};

/// Outcome of one key-confirmation verification (fuzzy-extractor mode).
struct KeyAuthResult {
  /// True when the reconstructed key matched the enrolled confirmation tag.
  bool accepted = false;
  /// True when the error-correcting decode itself succeeded; false means the
  /// response had drifted beyond the code's correction capability.
  bool decoded = false;
};

/// Verifier: matching policy + enrollment store + optional hot-device cache.
class Authenticator {
 public:
  /// Key material for record-binding HMAC tags.
  using VerifierKey = std::array<std::uint8_t, 32>;

  /// Verifier over an existing store.  `key` authenticates stored records:
  /// enroll() stamps each record with HMAC(key, id || layout || payload) and
  /// verify() re-checks the stamp before trusting store bytes.  The key is
  /// turned into HMAC midstates here, once.
  Authenticator(AuthPolicy policy, std::shared_ptr<EnrollmentStore> store, VerifierKey key);

  /// Verifier over an existing store with an all-zero verifier key.
  Authenticator(AuthPolicy policy, std::shared_ptr<EnrollmentStore> store);

  /// Verifier over a fresh in-memory store (the pre-redesign default).
  explicit Authenticator(AuthPolicy policy);

  /// The matching policy.
  [[nodiscard]] const AuthPolicy& policy() const noexcept { return policy_; }

  /// The backing store.
  [[nodiscard]] const EnrollmentStore& store() const noexcept { return *store_; }

  /// Registers (or refreshes) a device's enrollment response, stamping the
  /// record with this verifier's binding tag.  Requires a mutable store.
  void enroll(DeviceId id, BitVector response);

  /// Key-mode enrollment: runs the fuzzy extractor on the golden response
  /// and stores helper data plus a key-confirmation tag — the raw response
  /// and the key itself are never stored.  Requires a mutable store.
  void enroll_key(DeviceId id, const FuzzyExtractor& extractor, const BitVector& golden_response,
                  Xoshiro256& rng);

  /// True if the device has an enrollment on file.
  [[nodiscard]] bool knows(DeviceId id) const { return store_->contains(id); }

  /// Number of enrolled devices.
  [[nodiscard]] std::size_t enrolled_count() const { return store_->device_count(); }

  /// Verifies a response claim by threshold matching; std::nullopt when the
  /// device is unknown.  Cold lookups re-check the record's binding tag and
  /// throw AuthStoreError(kTagMismatch) on corrupted store bytes.
  [[nodiscard]] std::optional<AuthResult> verify(DeviceId id, const BitVector& response) const;

  /// Verifies a response claim by fuzzy-extractor key confirmation:
  /// reconstructs the key through the stored helper data and compares its
  /// confirmation tag.  std::nullopt when the device is unknown.
  [[nodiscard]] std::optional<KeyAuthResult> verify_key(DeviceId id,
                                                        const FuzzyExtractor& extractor,
                                                        const BitVector& response) const;

  /// Re-enrollment hygiene: returns true when the device authenticated but
  /// with less than `refresh_margin` of threshold headroom — the moment to
  /// refresh its stored response before aging drifts it out of reach.
  [[nodiscard]] bool needs_refresh(const AuthResult& result, double refresh_margin) const;

  /// Attaches a hot-device LRU cache of `capacity` records (0 detaches).
  /// Cached records were tag-checked on first load; the cache memoizes the
  /// record only, so decisions are identical with or without it.
  void set_cache(std::size_t capacity);

  /// The attached cache, or nullptr (for hit/miss reporting).
  [[nodiscard]] const RecordCache* cache() const noexcept { return cache_.get(); }

 private:
  [[nodiscard]] std::shared_ptr<const RecordCache::Entry> load_record(DeviceId id,
                                                                      RecordView view) const;

  AuthPolicy policy_;
  std::shared_ptr<EnrollmentStore> store_;
  HmacSha256 key_;  // keyed once; read-only, shared by concurrent verify()s
  // verify() is logically const; the cache is internally synchronized.
  mutable std::unique_ptr<RecordCache> cache_;
};

/// Binding tag enroll() stamps on a record and verify() re-checks:
/// HMAC-SHA256(verifier_key, id || response_bits || helper_bits ||
/// packed_response || packed_helper).  Exposed so out-of-process store
/// builders (the sharded fleet build) can stamp records identically.  `key`
/// is the verifier key already keyed into HMAC midstates.
[[nodiscard]] std::array<std::uint8_t, kRecordTagBytes> record_binding_tag(
    const HmacSha256& key, DeviceId id, std::uint32_t response_bits, std::uint32_t helper_bits,
    const std::uint8_t* response_bytes, const std::uint8_t* helper_bytes);

/// The same tag from the raw verifier key; keys an HmacSha256 per call.
[[nodiscard]] std::array<std::uint8_t, kRecordTagBytes> record_binding_tag(
    const Authenticator::VerifierKey& key, DeviceId id, std::uint32_t response_bits,
    std::uint32_t helper_bits, const std::uint8_t* response_bytes,
    const std::uint8_t* helper_bytes);

/// Key-confirmation tag for key-mode records: HMAC-SHA256(device_key,
/// "aropuf-key-confirm" || id).  Stored at enrollment; recomputed from the
/// reconstructed key at verification.
[[nodiscard]] std::array<std::uint8_t, kRecordTagBytes> key_confirmation_tag(
    const Sha256::Digest& device_key, DeviceId id);

}  // namespace aropuf
