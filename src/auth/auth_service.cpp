#include "auth/auth_service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"

namespace aropuf {

namespace {

/// Fills `bits` bits from 64-bit engine draws (LSB-first, matching the
/// packed layout) — one draw per word instead of one Bernoulli per bit.
BitVector random_bits(Xoshiro256& rng, std::uint32_t bits) {
  std::vector<std::uint8_t> bytes((bits + 7) / 8, 0);
  for (std::size_t off = 0; off < bytes.size(); off += 8) {
    const std::uint64_t word = rng();
    const std::size_t n = std::min<std::size_t>(8, bytes.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      bytes[off + i] = static_cast<std::uint8_t>((word >> (8 * i)) & 0xff);
    }
  }
  return BitVector::from_bytes(bytes.data(), bits);
}

RoPuf make_sim_chip(const FleetConfig& fleet, std::uint64_t index) {
  return RoPuf(TechnologyParams::cmos90(),
               PufConfig::aro(static_cast<int>(2 * fleet.response_bits)),
               RngFabric(fleet.seed).child("chip", index));
}

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

}  // namespace

Authenticator::VerifierKey fleet_verifier_key(std::uint64_t seed) {
  static constexpr char kLabel[] = "aropuf-verifier-key";
  std::vector<std::uint8_t> material;
  material.reserve(sizeof kLabel - 1 + 8);
  material.insert(material.end(), reinterpret_cast<const std::uint8_t*>(kLabel),
                  reinterpret_cast<const std::uint8_t*>(kLabel) + sizeof kLabel - 1);
  for (int i = 0; i < 8; ++i) material.push_back(static_cast<std::uint8_t>((seed >> (8 * i)) & 0xff));
  return Sha256::hash(material);
}

DeviceId fleet_device_id(const FleetConfig& fleet, std::uint64_t index) {
  return RngFabric(fleet.seed).derive("auth-device-id", index);
}

BitVector fleet_enrollment_response(const FleetConfig& fleet, std::uint64_t index) {
  ARO_REQUIRE(fleet.response_bits > 0, "fleet responses must have bits");
  if (fleet.model == FleetModel::kSim) {
    const RoPuf chip = make_sim_chip(fleet, index);
    return chip.evaluate(chip.nominal_op(), 0);
  }
  Xoshiro256 rng = RngFabric(fleet.seed).stream("auth-response", index);
  return random_bits(rng, fleet.response_bits);
}

BitVector fleet_field_response(const FleetConfig& fleet, std::uint64_t index,
                               std::uint64_t eval_index, double noise) {
  ARO_REQUIRE(noise >= 0.0 && noise < 0.5, "read noise must be in [0, 0.5)");
  if (fleet.model == FleetModel::kSim) {
    const RoPuf chip = make_sim_chip(fleet, index);
    return chip.evaluate(chip.nominal_op(), eval_index);
  }
  BitVector response = fleet_enrollment_response(fleet, index);
  if (noise > 0.0) {
    Xoshiro256 rng = RngFabric(fleet.seed).stream("auth-noise", index, eval_index);
    for (std::size_t i = 0; i < response.size(); ++i) {
      if (rng.bernoulli(noise)) response.flip(i);
    }
  }
  return response;
}

AuthStoreParams fleet_store_params(const FleetConfig& fleet) {
  AuthStoreParams params;
  params.response_bits = fleet.response_bits;
  params.helper_bits = 0;
  params.model = static_cast<std::uint32_t>(fleet.model);
  params.fleet_seed = fleet.seed;
  return params;
}

std::uint64_t build_fleet_shard(const FleetConfig& fleet, std::size_t shard_index,
                                std::size_t shard_count, const std::string& out_path) {
  ARO_REQUIRE(fleet.devices > 0, "fleet must have devices");
  const auto [first, last] =
      shard_range(static_cast<std::size_t>(fleet.devices), shard_index, shard_count);
  const std::size_t count = last - first;
  const HmacSha256 key(fleet_verifier_key(fleet.seed));

  std::vector<std::pair<DeviceId, EnrollmentRecord>> records(count);
  parallel_for_chips(count, [&](std::size_t j) {
    const std::uint64_t index = first + j;
    const DeviceId id = fleet_device_id(fleet, index);
    EnrollmentRecord record;
    record.response = fleet_enrollment_response(fleet, index);
    const std::vector<std::uint8_t> packed = record.response.to_bytes();
    record.tag = record_binding_tag(key, id, fleet.response_bits, 0, packed.data(), nullptr);
    records[j] = {id, std::move(record)};
  });
  write_enrollment_store(out_path, fleet_store_params(fleet), std::move(records));
  return count;
}

WorkloadStats run_verify_workload(const Authenticator& auth, const FleetConfig& fleet,
                                  const WorkloadConfig& cfg) {
  ARO_REQUIRE(cfg.requests > 0, "workload needs requests");
  ARO_REQUIRE(fleet.devices > 0, "fleet must have devices");
  ARO_REQUIRE(cfg.impostor_fraction >= 0.0 && cfg.impostor_fraction <= 1.0,
              "impostor fraction must be in [0, 1]");
  ARO_REQUIRE(cfg.hot_fraction > 0.0 && cfg.hot_fraction <= 1.0,
              "hot fraction must be in (0, 1]");
  ARO_REQUIRE(cfg.hot_probability >= 0.0 && cfg.hot_probability <= 1.0,
              "hot probability must be in [0, 1]");

  const auto hot_devices = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cfg.hot_fraction * static_cast<double>(fleet.devices)));
  const auto n = static_cast<std::size_t>(cfg.requests);
  std::vector<std::uint8_t> decisions(n, 0);
  std::vector<std::uint8_t> impostor(n, 0);
  std::vector<double> latency_us(n, 0.0);
  const RngFabric workload(cfg.workload_seed);

  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  parallel_for_chips(n, [&](std::size_t r) {
    // Every request draws from its own sub-stream and writes its own slots,
    // so decisions are bit-identical at any thread count.
    Xoshiro256 rng = workload.stream("auth-req", r);
    const bool hot = rng.bernoulli(cfg.hot_probability);
    const std::uint64_t index = hot ? rng.bounded(hot_devices) : rng.bounded(fleet.devices);
    const bool is_impostor = rng.bernoulli(cfg.impostor_fraction);
    BitVector claim;
    if (is_impostor) {
      claim = random_bits(rng, fleet.response_bits);  // inter-chip model: i.i.d. fair coin
    } else {
      claim = fleet_field_response(fleet, index, r, cfg.noise);
    }
    const DeviceId id = fleet_device_id(fleet, index);
    const auto start = Clock::now();
    const auto result = auth.verify(id, claim);
    const auto stop = Clock::now();
    ARO_ASSERT(result.has_value(), "workload targeted an unenrolled device");
    decisions[r] = result->accepted ? 1 : 0;
    impostor[r] = is_impostor ? 1 : 0;
    latency_us[r] =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(stop - start)
            .count();
  });
  const double wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - wall_start)
          .count();

  // Serial, index-ordered reduction.
  WorkloadStats stats;
  stats.requests = cfg.requests;
  for (std::size_t r = 0; r < n; ++r) {
    stats.accepted += decisions[r];
    if (impostor[r] != 0) {
      ++stats.impostors;
      stats.false_accepts += decisions[r];
    } else {
      ++stats.genuine;
      stats.false_rejects += decisions[r] == 0 ? 1 : 0;
    }
  }
  stats.wall_seconds = wall_seconds;
  stats.auth_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(cfg.requests) / wall_seconds : 0.0;
  stats.p50_us = percentile(latency_us, 0.50);
  stats.p99_us = percentile(latency_us, 0.99);
  if (stats.impostors > 0) {
    stats.far_measured =
        static_cast<double>(stats.false_accepts) / static_cast<double>(stats.impostors);
  }
  if (stats.genuine > 0) {
    stats.frr_measured =
        static_cast<double>(stats.false_rejects) / static_cast<double>(stats.genuine);
  }
  if (const RecordCache* cache = auth.cache()) {
    stats.cache_hits = cache->hits();
    stats.cache_misses = cache->misses();
  }
  stats.decisions_digest = Sha256::hash(decisions);
  return stats;
}

}  // namespace aropuf
