// aropuf_auth — fleet enrollment-store builder and verification bench.
//
// Build mode: enroll an N-device fleet into an ARPS binary store, one
// seed-range shard after another in this process, then merge the shard
// stores deterministically (byte-identical for any --shards):
//
//   $ aropuf_auth --build --devices 1000000 --shards 4 --out runs/fleet-1m
//
// Verify mode: mmap a store and drive the concurrent verification hot path
// at each requested thread count, reporting auth/sec, p50/p99 latency, and
// the measured FAR/FRR.  The per-request decision vector is hashed; if any
// thread count (or the cached re-run) produces a different decision digest
// the tool exits 3 — the service twin of aropuf_shard's --check-single.
//
//   $ aropuf_auth --store runs/fleet-1m/store.arps --requests 200000 --threads 1,4 --cache 4096
//
// Exit codes: 0 ok, 1 failure, 2 usage error, 3 determinism mismatch.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "auth/auth_service.hpp"
#include "auth/authenticator.hpp"
#include "auth/store_binary.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"
#include "telemetry/manifest.hpp"

namespace {

using namespace aropuf;

struct Options {
  bool build = false;
  std::uint64_t devices = 10000;
  int shards = 1;
  std::uint64_t bits = 128;
  std::string model = "synthetic";
  std::uint64_t seed = 2014;
  std::string out_dir = "auth-out";
  bool keep_shards = false;

  std::string store_path;
  std::uint64_t requests = 100000;
  std::vector<int> threads = {0};
  std::uint64_t cache = 0;
  double impostors = 0.1;
  double noise = 0.02;
  double hot_frac = 0.01;
  double hot_prob = 0.9;
  double far_target = 1e-6;
  double threshold = 0.0;
  std::uint64_t workload_seed = 7;
  bool quiet = false;
};

bool parse_thread_list(const std::string& value, std::vector<int>* out) {
  std::vector<int> parsed;
  std::size_t pos = 0;
  while (pos < value.size()) {
    std::size_t next = value.find(',', pos);
    if (next == std::string::npos) next = value.size();
    const std::string item = value.substr(pos, next - pos);
    if (item.empty()) return false;
    char* end = nullptr;
    const long t = std::strtol(item.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || t < 0 || t > 1024) return false;
    parsed.push_back(static_cast<int>(t));
    pos = next + 1;
  }
  if (parsed.empty()) return false;
  *out = std::move(parsed);
  return true;
}

std::string shard_store_path(const Options& opt, int index) {
  return opt.out_dir + "/shard-" + std::to_string(index) + ".arps";
}

std::string merged_store_path(const Options& opt) { return opt.out_dir + "/store.arps"; }

FleetConfig fleet_from_options(const Options& opt) {
  FleetConfig fleet;
  fleet.devices = opt.devices;
  fleet.seed = opt.seed;
  fleet.response_bits = static_cast<std::uint32_t>(opt.bits);
  fleet.model = opt.model == "sim" ? FleetModel::kSim : FleetModel::kSynthetic;
  return fleet;
}

int run_build(const Options& opt) {
  const FleetConfig fleet = fleet_from_options(opt);

  std::error_code mkdir_error;
  std::filesystem::create_directories(opt.out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "aropuf_auth: cannot create %s: %s\n", opt.out_dir.c_str(),
                 mkdir_error.message().c_str());
    return 1;
  }

  const auto build_start = std::chrono::steady_clock::now();
  {
    telemetry::StageTimer timer("enroll_shards");
    for (int k = 0; k < opt.shards; ++k) {
      build_fleet_shard(fleet, static_cast<std::size_t>(k), static_cast<std::size_t>(opt.shards),
                        shard_store_path(opt, k));
      if (!opt.quiet) std::printf("aropuf_auth: shard %d/%d built\n", k + 1, opt.shards);
    }
  }

  std::uint64_t total = 0;
  {
    telemetry::StageTimer timer("merge_store");
    std::vector<std::string> shard_paths;
    for (int k = 0; k < opt.shards; ++k) shard_paths.push_back(shard_store_path(opt, k));
    total = merge_enrollment_stores(shard_paths, merged_store_path(opt));
    if (!opt.keep_shards) {
      for (const std::string& path : shard_paths) std::remove(path.c_str());
    }
  }
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - build_start)
          .count();
  const double enroll_per_sec = wall > 0.0 ? static_cast<double>(total) / wall : 0.0;
  if (!opt.quiet) {
    std::printf("aropuf_auth: enrolled %llu devices into %s (%.0f devices/s)\n",
                static_cast<unsigned long long>(total), merged_store_path(opt).c_str(),
                enroll_per_sec);
  }

  JsonValue::Object auth;
  auth["mode"] = "build";
  auth["devices"] = static_cast<std::uint64_t>(total);
  auth["shards"] = opt.shards;
  auth["response_bits"] = opt.bits;
  auth["model"] = opt.model;
  auth["seed"] = opt.seed;
  auth["store"] = merged_store_path(opt);
  auth["enroll_per_sec"] = enroll_per_sec;
  telemetry::set_runtime_field("auth", JsonValue(std::move(auth)));

  JsonValue::Object config;
  config["devices"] = opt.devices;
  config["shards"] = opt.shards;
  config["bits"] = opt.bits;
  config["model"] = opt.model;
  config["seed"] = opt.seed;
  return telemetry::finalize_run("auth_build", JsonValue(std::move(config)),
                                 opt.out_dir + "/build.manifest.json")
             ? 0
             : 1;
}

int run_verify(const Options& opt) {
  std::shared_ptr<BinaryEnrollmentStore> store = BinaryEnrollmentStore::open(opt.store_path);
  const AuthStoreParams params = store->params();
  if (params.response_bits == 0) {
    std::fprintf(stderr, "aropuf_auth: %s is a key-mode store; the verification bench needs "
                         "enrollment responses\n",
                 opt.store_path.c_str());
    return 1;
  }

  FleetConfig fleet;
  fleet.devices = store->device_count();
  fleet.seed = params.fleet_seed;
  fleet.response_bits = params.response_bits;
  fleet.model = params.model == static_cast<std::uint32_t>(FleetModel::kSim)
                    ? FleetModel::kSim
                    : FleetModel::kSynthetic;

  const AuthPolicy policy =
      opt.threshold > 0.0
          ? AuthPolicy{opt.threshold}
          : AuthPolicy::for_false_accept_rate(params.response_bits, opt.far_target);
  policy.validate();
  const double far_analytic = policy.false_accept_probability(params.response_bits);

  WorkloadConfig workload;
  workload.requests = opt.requests;
  workload.impostor_fraction = opt.impostors;
  workload.noise = opt.noise;
  workload.hot_fraction = opt.hot_frac;
  workload.hot_probability = opt.hot_prob;
  workload.workload_seed = opt.workload_seed;

  if (!opt.quiet) {
    std::printf("store %s: %llu devices, %u-bit responses, threshold %.4f (FAR %.2e)\n",
                opt.store_path.c_str(), static_cast<unsigned long long>(fleet.devices),
                params.response_bits, policy.accept_threshold, far_analytic);
    std::printf("%8s %14s %10s %10s %12s %10s %10s\n", "threads", "auth/s", "p50_us", "p99_us",
                "FAR", "FRR", "cache_hit%");
  }

  JsonValue::Array results;
  std::string reference_digest;
  bool digests_agree = true;
  for (const int threads : opt.threads) {
    ParallelExecutor::set_global_thread_count(threads);
    Authenticator auth(policy, store, fleet_verifier_key(fleet.seed));
    if (opt.cache > 0) auth.set_cache(static_cast<std::size_t>(opt.cache));
    const WorkloadStats stats = run_verify_workload(auth, fleet, workload);
    const std::string digest = Sha256::to_hex(stats.decisions_digest);
    if (reference_digest.empty()) {
      reference_digest = digest;
    } else if (digest != reference_digest) {
      digests_agree = false;
    }
    const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
    const double hit_pct =
        lookups > 0.0 ? 100.0 * static_cast<double>(stats.cache_hits) / lookups : 0.0;
    if (!opt.quiet) {
      std::printf("%8d %14.0f %10.2f %10.2f %12.2e %10.4f %10s\n",
                  threads == 0 ? ParallelExecutor::global().thread_count() : threads,
                  stats.auth_per_sec, stats.p50_us, stats.p99_us, stats.far_measured,
                  stats.frr_measured,
                  opt.cache > 0 ? (std::to_string(hit_pct).substr(0, 5)).c_str() : "-");
    }
    JsonValue::Object row;
    row["threads"] = threads;
    row["auth_per_sec"] = stats.auth_per_sec;
    row["p50_us"] = stats.p50_us;
    row["p99_us"] = stats.p99_us;
    row["far_measured"] = stats.far_measured;
    row["frr_measured"] = stats.frr_measured;
    row["false_accepts"] = stats.false_accepts;
    row["false_rejects"] = stats.false_rejects;
    row["impostors"] = stats.impostors;
    row["cache_hits"] = stats.cache_hits;
    row["cache_misses"] = stats.cache_misses;
    row["decisions_sha256"] = digest;
    results.push_back(JsonValue(std::move(row)));
  }

  JsonValue::Object auth_field;
  auth_field["mode"] = "verify";
  auth_field["store"] = opt.store_path;
  auth_field["devices"] = static_cast<std::uint64_t>(fleet.devices);
  auth_field["response_bits"] = static_cast<std::uint64_t>(params.response_bits);
  auth_field["requests"] = opt.requests;
  auth_field["accept_threshold"] = policy.accept_threshold;
  auth_field["far_analytic"] = far_analytic;
  auth_field["cache_capacity"] = opt.cache;
  auth_field["impostor_fraction"] = opt.impostors;
  auth_field["noise"] = opt.noise;
  auth_field["results"] = JsonValue(std::move(results));
  auth_field["thread_counts_bit_identical"] = digests_agree;
  telemetry::set_runtime_field("auth", JsonValue(std::move(auth_field)));

  JsonValue::Object config;
  config["store"] = opt.store_path;
  config["requests"] = opt.requests;
  config["cache"] = opt.cache;
  config["workload_seed"] = opt.workload_seed;
  const bool wrote = telemetry::finalize_run("auth_verify", JsonValue(std::move(config)));
  if (!digests_agree) {
    std::fprintf(stderr,
                 "aropuf_auth: decision digests differ across thread counts (determinism bug)\n");
    return 3;
  }
  return wrote ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string threads_value;
  cli::Parser parser("aropuf_auth",
                     "fleet enrollment-store builder and verification bench (E15)");
  parser.flag("--build", &opt.build, "build an enrollment store instead of verifying")
      .opt_uint64("--devices", &opt.devices, "N", "fleet size for --build")
      .opt_int("--shards", &opt.shards, "K", "store shards to build and merge", 1)
      .opt_uint64("--bits", &opt.bits, "B", "response bits per device")
      .opt_string("--model", &opt.model, "NAME", "response model: synthetic|sim")
      .opt_uint64("--seed", &opt.seed, "S", "fleet master seed")
      .opt_string("--out", &opt.out_dir, "DIR", "output directory for --build")
      .flag("--keep-shards", &opt.keep_shards, "keep per-shard stores after the merge")
      .opt_string("--store", &opt.store_path, "PATH", "ARPS store to verify against")
      .opt_uint64("--requests", &opt.requests, "M", "verification requests to drive")
      .opt_custom("--threads", "LIST", "comma-separated thread counts (0 = default)",
                  [&opt](const std::string& value) { return parse_thread_list(value, &opt.threads); })
      .opt_uint64("--cache", &opt.cache, "CAP", "hot-device LRU capacity (0 = off)")
      .opt_double("--impostors", &opt.impostors, "F", "impostor fraction of requests", 0.0)
      .opt_double("--noise", &opt.noise, "E", "per-bit flip rate for genuine re-reads", 0.0)
      .opt_double("--hot-frac", &opt.hot_frac, "F", "fraction of devices in the hot set", 0.0)
      .opt_double("--hot-prob", &opt.hot_prob, "P", "probability a request is hot", 0.0)
      .opt_double("--far", &opt.far_target, "FAR", "target false-accept rate for the policy", 0.0)
      .opt_double("--threshold", &opt.threshold, "T", "explicit accept threshold (overrides --far)",
                  0.0)
      .opt_uint64("--workload-seed", &opt.workload_seed, "W", "request-stream seed")
      .flag("--quiet", &opt.quiet, "suppress progress output");
  parser.with_env_help();

  switch (parser.parse(argc, argv)) {
    case cli::ParseStatus::kOk: break;
    case cli::ParseStatus::kHelp: return 0;
    case cli::ParseStatus::kError: return 2;
  }
  if (!opt.build && opt.store_path.empty()) {
    std::fprintf(stderr, "aropuf_auth: need --build or --store PATH (see --help)\n");
    return 2;
  }

  try {
    return opt.build ? run_build(opt) : run_verify(opt);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "aropuf_auth: %s\n", error.what());
    return 1;
  }
}
