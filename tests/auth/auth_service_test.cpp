#include "auth/auth_service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "keygen/sha256.hpp"
#include "sim/parallel.hpp"

namespace aropuf {
namespace {

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (f != nullptr) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

FleetConfig small_fleet() {
  FleetConfig fleet;
  fleet.devices = 300;
  fleet.seed = 99;
  fleet.response_bits = 128;
  fleet.model = FleetModel::kSynthetic;
  return fleet;
}

TEST(FleetServiceTest, ShardRangesPartitionTheFleet) {
  // 100 devices over 7 shards: each shard store holds the next contiguous run
  // of device indices, sizes differ by at most one, and together they cover
  // the fleet exactly once.
  FleetConfig fleet = small_fleet();
  fleet.devices = 100;
  const std::string dir = ::testing::TempDir();
  std::uint64_t previous_end = 0;
  for (std::size_t s = 0; s < 7; ++s) {
    const std::string path = dir + "/svc-range-" + std::to_string(s) + ".arps";
    const std::uint64_t count = build_fleet_shard(fleet, s, 7, path);
    EXPECT_TRUE(count == 14 || count == 15) << "shard " << s << " has " << count;
    const auto store = BinaryEnrollmentStore::open(path);
    ASSERT_EQ(store->device_count(), count);
    for (std::uint64_t i = previous_end; i < previous_end + count; ++i) {
      EXPECT_TRUE(store->contains(fleet_device_id(fleet, i))) << "shard " << s << " device " << i;
    }
    previous_end += count;
    std::remove(path.c_str());
  }
  EXPECT_EQ(previous_end, fleet.devices);
  const std::string unused = dir + "/svc-range-bad.arps";
  EXPECT_THROW((void)build_fleet_shard(fleet, 3, 3, unused), std::invalid_argument);
  EXPECT_THROW((void)build_fleet_shard(fleet, 0, 0, unused), std::invalid_argument);
}

TEST(FleetServiceTest, ResponsesAreDeterministicPerDevice) {
  const FleetConfig fleet = small_fleet();
  EXPECT_EQ(fleet_enrollment_response(fleet, 5), fleet_enrollment_response(fleet, 5));
  EXPECT_NE(fleet_enrollment_response(fleet, 5), fleet_enrollment_response(fleet, 6));
  EXPECT_EQ(fleet_device_id(fleet, 5), fleet_device_id(fleet, 5));
  // Noiseless field read reproduces enrollment; noisy read drifts a little.
  EXPECT_EQ(fleet_field_response(fleet, 5, 1, 0.0), fleet_enrollment_response(fleet, 5));
  const BitVector noisy = fleet_field_response(fleet, 5, 1, 0.05);
  const std::size_t hd = hamming_distance(noisy, fleet_enrollment_response(fleet, 5));
  EXPECT_GT(hd, 0U);
  EXPECT_LT(hd, 32U);
}

TEST(FleetServiceTest, ShardedBuildMergesToTheSingleShardBytes) {
  const FleetConfig fleet = small_fleet();
  const std::string dir = ::testing::TempDir();

  const std::string single = dir + "/svc-single.arps";
  EXPECT_EQ(build_fleet_shard(fleet, 0, 1, single), fleet.devices);

  std::vector<std::string> shards;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string path = dir + "/svc-shard-" + std::to_string(s) + ".arps";
    total += build_fleet_shard(fleet, s, 3, path);
    shards.push_back(path);
  }
  EXPECT_EQ(total, fleet.devices);

  const std::string merged = dir + "/svc-merged.arps";
  EXPECT_EQ(merge_enrollment_stores(shards, merged), fleet.devices);
  EXPECT_EQ(read_file(merged), read_file(single));
}

TEST(FleetServiceTest, MergedStoreDigestIsPinned) {
  // The bytes of a 3-shard merged store, recorded before the word-level
  // BitVector::to_bytes: any change to ids, packed responses, tags or the
  // ARPS layout moves the digest.  (Synthetic responses are unpacked from
  // random bytes, so a packing bug shared by from_bytes and to_bytes cancels
  // here; BitVectorTest.ToBytesLsbFirst catches that one.)  Everything is
  // integer-only (SplitMix ids, xoshiro words, HMAC-SHA256 tags), so the
  // digest holds on every platform.
  FleetConfig fleet;
  fleet.devices = 2003;
  fleet.seed = 2014;
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> shards;
  for (std::size_t s = 0; s < 3; ++s) {
    shards.push_back(dir + "/svc-pinned-" + std::to_string(s) + ".arps");
    build_fleet_shard(fleet, s, 3, shards.back());
  }
  const std::string merged = dir + "/svc-pinned.arps";
  ASSERT_EQ(merge_enrollment_stores(shards, merged), fleet.devices);
  const std::string bytes = read_file(merged);
  const Sha256::Digest digest = Sha256::hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  EXPECT_EQ(Sha256::to_hex(digest),
            "89ab76df30e9e6776faaf2e11da7815070bb691d50eddd400811a547f60c1288");
}

class WorkloadDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { ParallelExecutor::set_global_thread_count(0); }
};

TEST_F(WorkloadDeterminismTest, DecisionsAreBitIdenticalAcrossThreadsAndCache) {
  const FleetConfig fleet = small_fleet();
  const std::string path = ::testing::TempDir() + "/svc-workload.arps";
  ASSERT_EQ(build_fleet_shard(fleet, 0, 1, path), fleet.devices);
  std::shared_ptr<BinaryEnrollmentStore> store = BinaryEnrollmentStore::open(path);

  const AuthPolicy policy = AuthPolicy::for_false_accept_rate(fleet.response_bits, 1e-6);
  WorkloadConfig cfg;
  cfg.requests = 2000;
  cfg.impostor_fraction = 0.25;
  cfg.noise = 0.03;

  std::vector<std::string> digests;
  std::vector<double> far;
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t cache : {std::size_t{0}, std::size_t{64}}) {
      ParallelExecutor::set_global_thread_count(threads);
      Authenticator auth(policy, store, fleet_verifier_key(fleet.seed));
      if (cache > 0) auth.set_cache(cache);
      const WorkloadStats stats = run_verify_workload(auth, fleet, cfg);
      EXPECT_EQ(stats.requests, cfg.requests);
      EXPECT_EQ(stats.genuine + stats.impostors, cfg.requests);
      digests.push_back(Sha256::to_hex(stats.decisions_digest));
      far.push_back(stats.far_measured);
      if (cache > 0) {
        EXPECT_GT(stats.cache_hits + stats.cache_misses, 0U);
      }
    }
  }
  for (std::size_t i = 1; i < digests.size(); ++i) {
    EXPECT_EQ(digests[i], digests[0]) << "config " << i;
    EXPECT_DOUBLE_EQ(far[i], far[0]);
  }
}

TEST_F(WorkloadDeterminismTest, OperatingPointIsSane) {
  // 3% read noise against a ~0.28 threshold: essentially no false rejects;
  // impostors are fair-coin and must basically never pass a 1e-6 policy.
  const FleetConfig fleet = small_fleet();
  const std::string path = ::testing::TempDir() + "/svc-oppoint.arps";
  ASSERT_EQ(build_fleet_shard(fleet, 0, 1, path), fleet.devices);
  std::shared_ptr<BinaryEnrollmentStore> store = BinaryEnrollmentStore::open(path);
  Authenticator auth(AuthPolicy::for_false_accept_rate(fleet.response_bits, 1e-6), store,
                     fleet_verifier_key(fleet.seed));
  WorkloadConfig cfg;
  cfg.requests = 3000;
  cfg.impostor_fraction = 0.3;
  cfg.noise = 0.03;
  const WorkloadStats stats = run_verify_workload(auth, fleet, cfg);
  EXPECT_GT(stats.impostors, 0U);
  EXPECT_EQ(stats.false_accepts, 0U);
  EXPECT_EQ(stats.false_rejects, 0U);
  EXPECT_EQ(stats.accepted, stats.genuine);
  EXPECT_GT(stats.auth_per_sec, 0.0);
  EXPECT_GE(stats.p99_us, stats.p50_us);
}

TEST(FleetServiceTest, SimModelBuildsAndVerifies) {
  FleetConfig fleet;
  fleet.devices = 6;
  fleet.seed = 11;
  fleet.response_bits = 128;
  fleet.model = FleetModel::kSim;
  const std::string path = ::testing::TempDir() + "/svc-sim.arps";
  ASSERT_EQ(build_fleet_shard(fleet, 0, 1, path), fleet.devices);
  std::shared_ptr<BinaryEnrollmentStore> store = BinaryEnrollmentStore::open(path);
  EXPECT_EQ(store->params().model, static_cast<std::uint32_t>(FleetModel::kSim));

  Authenticator auth(AuthPolicy::for_false_accept_rate(fleet.response_bits, 1e-6), store,
                     fleet_verifier_key(fleet.seed));
  // A genuine re-read (different eval index → fresh measurement noise) passes.
  const auto result =
      auth.verify(fleet_device_id(fleet, 2), fleet_field_response(fleet, 2, 9, 0.0));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted);
}

}  // namespace
}  // namespace aropuf
