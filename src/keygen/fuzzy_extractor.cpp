#include "keygen/fuzzy_extractor.hpp"

#include "common/check.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {

namespace {

/// Keygen health counters: a rising failure/attempt ratio is the first sign
/// that aging has pushed the BER past what the code corrects.
struct KeygenTelemetry {
  telemetry::Counter& enrollments;
  telemetry::Counter& decode_attempts;
  telemetry::Counter& decode_failures;

  static KeygenTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static KeygenTelemetry t{reg.counter("keygen.enrollments"),
                             reg.counter("ecc.decode_attempts"),
                             reg.counter("ecc.decode_failures")};
    return t;
  }
};

}  // namespace

FuzzyExtractor::FuzzyExtractor(const ConcatenatedScheme& scheme) : code_(scheme) {}

Sha256::Digest FuzzyExtractor::derive_key(const BitVector& secret) {
  const auto bytes = secret.to_bytes();
  return Sha256::hash(bytes);
}

Enrollment FuzzyExtractor::enroll(const BitVector& golden_response, Xoshiro256& rng) const {
  ARO_REQUIRE(golden_response.size() == response_bits(),
              "response length must match the scheme's raw bits");
  KeygenTelemetry::get().enrollments.add(1);
  BitVector secret(static_cast<std::size_t>(code_.scheme().key_bits));
  for (std::size_t i = 0; i < secret.size(); ++i) secret.set(i, rng.bernoulli(0.5));
  Enrollment e;
  e.helper_data = golden_response ^ code_.encode(secret);
  e.key = derive_key(secret);
  return e;
}

std::optional<Sha256::Digest> FuzzyExtractor::reconstruct(const BitVector& response,
                                                          const BitVector& helper_data) const {
  ARO_REQUIRE(response.size() == response_bits(),
              "response length must match the scheme's raw bits");
  ARO_REQUIRE(helper_data.size() == response_bits(), "helper data length mismatch");
  KeygenTelemetry& telem = KeygenTelemetry::get();
  telem.decode_attempts.add(1);
  const auto secret = code_.decode(response ^ helper_data);
  if (!secret.has_value()) {
    telem.decode_failures.add(1);
    return std::nullopt;
  }
  return derive_key(*secret);
}

}  // namespace aropuf
