// E15 — the fleet-scale enrollment/verification service.
//
// This module turns the paper's end-use (key material from an aging-
// resistant RO array) into a production workload: enroll millions of
// simulated devices into a sharded ARPS store, then drive a concurrent
// verification hot path (lookup -> threshold match or fuzzy-extractor
// reproduce -> HMAC compare) and measure auth/sec, tail latency, and the
// measured FAR/FRR operating point.
//
// Determinism contract (same as the Monte Carlo engine): every response and
// every request derives from its own named RngFabric sub-stream keyed by
// device/request index, so shard decomposition and thread count never change
// a single bit of the store or a single accept/reject decision.  The
// workload proves it by hashing the per-request decision vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "auth/authenticator.hpp"
#include "auth/store_binary.hpp"
#include "common/bitvector.hpp"
#include "keygen/sha256.hpp"

namespace aropuf {

/// How fleet device responses are produced.
enum class FleetModel : std::uint32_t {
  /// I.i.d. fair-coin responses per device with Bernoulli read noise — the
  /// statistical model behind the FAR analysis, cheap enough for 10^6+
  /// devices (the fleet-scale load generator).
  kSynthetic = 0,
  /// Full RoPuf circuit simulation (ARO pairing, cmos90) — paper-faithful,
  /// used at small scale in tests and demos.
  kSim = 1,
};

/// Identity of a simulated fleet: everything needed to regenerate any
/// device's enrollment or field response bit-exactly.
struct FleetConfig {
  /// Number of enrolled devices.
  std::uint64_t devices = 1000;
  /// Master seed; every device stream derives from it.
  std::uint64_t seed = 2014;
  /// Bits per enrollment response.
  std::uint32_t response_bits = 128;
  /// Response model.
  FleetModel model = FleetModel::kSynthetic;
};

/// Verifier key for a fleet, derived deterministically from the master seed
/// so shard builders and verifiers stamp/check identical binding tags.
[[nodiscard]] Authenticator::VerifierKey fleet_verifier_key(std::uint64_t seed);

/// DeviceId of device `index` (a SplitMix-derived 64-bit handle; scattered,
/// not sequential, so the sorted store index and the shard merge are
/// exercised for real).
[[nodiscard]] DeviceId fleet_device_id(const FleetConfig& fleet, std::uint64_t index);

/// The golden enrollment response of device `index`.
[[nodiscard]] BitVector fleet_enrollment_response(const FleetConfig& fleet, std::uint64_t index);

/// A field re-read of device `index`: the enrollment response with read
/// noise applied.  `eval_index` distinguishes repeated reads; `noise` is the
/// per-bit flip probability (ignored by kSim, which has its own measurement
/// noise model).
[[nodiscard]] BitVector fleet_field_response(const FleetConfig& fleet, std::uint64_t index,
                                             std::uint64_t eval_index, double noise);

/// ARPS header parameters describing this fleet's store.
[[nodiscard]] AuthStoreParams fleet_store_params(const FleetConfig& fleet);

/// Builds shard `shard_index` of the fleet's enrollment store — the devices
/// shard_range() assigns it — and writes it to `out_path` (id-sorted ARPS
/// file).  Device construction parallelizes over the global executor.
/// Returns the number of devices written.
std::uint64_t build_fleet_shard(const FleetConfig& fleet, std::size_t shard_index,
                                std::size_t shard_count, const std::string& out_path);

/// Shape of the verification request stream.
struct WorkloadConfig {
  /// Total verification requests.
  std::uint64_t requests = 100000;
  /// Fraction of requests presenting an impostor (random) response.
  double impostor_fraction = 0.1;
  /// Per-bit flip probability for genuine re-reads.
  double noise = 0.02;
  /// Fraction of the fleet forming the hot set (>= 1 device).
  double hot_fraction = 0.01;
  /// Probability a request targets the hot set (traffic skew).
  double hot_probability = 0.9;
  /// Seed of the request stream (independent of the fleet seed).
  std::uint64_t workload_seed = 7;
};

/// Measured outcome of one workload run.
struct WorkloadStats {
  /// Requests served.
  std::uint64_t requests = 0;
  /// Requests accepted.
  std::uint64_t accepted = 0;
  /// Genuine requests issued / rejected (false rejects).
  std::uint64_t genuine = 0;
  /// Genuine requests rejected.
  std::uint64_t false_rejects = 0;
  /// Impostor requests issued.
  std::uint64_t impostors = 0;
  /// Impostor requests accepted (false accepts).
  std::uint64_t false_accepts = 0;
  /// Wall-clock seconds for the whole request stream.
  double wall_seconds = 0.0;
  /// Requests per second.
  double auth_per_sec = 0.0;
  /// Median per-request verify latency, microseconds.
  double p50_us = 0.0;
  /// 99th-percentile per-request verify latency, microseconds.
  double p99_us = 0.0;
  /// Measured false-accept rate (false_accepts / impostors; 0 when none).
  double far_measured = 0.0;
  /// Measured false-reject rate (false_rejects / genuine; 0 when none).
  double frr_measured = 0.0;
  /// Cache hits observed during the run (0 without a cache).
  std::uint64_t cache_hits = 0;
  /// Cache misses observed during the run (0 without a cache).
  std::uint64_t cache_misses = 0;
  /// SHA-256 over the per-request accept/reject byte vector, in request
  /// order — the bit-identity witness across thread counts and cache modes.
  Sha256::Digest decisions_digest{};
};

/// Drives `cfg.requests` verifications against `auth` on the global
/// executor.  Per-request decisions depend only on (fleet, cfg), never on
/// thread count or cache state; latency and throughput of course do.
[[nodiscard]] WorkloadStats run_verify_workload(const Authenticator& auth,
                                                const FleetConfig& fleet,
                                                const WorkloadConfig& cfg);

}  // namespace aropuf
