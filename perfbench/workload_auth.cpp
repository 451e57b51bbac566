// Authentication workloads over an mmap-ed ARPS enrollment store:
//   auth_threshold — threshold matching of 128-bit synthetic responses with
//                    a hot-device LRU smaller than the hot set;
//   auth_key       — key reconstruction (rep-3 + BCH(127,64,10) fuzzy
//                    extractor) after 10 years of ARO aging.
//
// Requests are generated from the seed before timing; `nproc` client threads
// then call Authenticator::verify / verify_key directly in a closed loop,
// each client cycling over its own slice of the request pool.  Every decision
// is checked against the benchmark's own oracle.  The traced run serves half
// its window through the Authenticator and half through the same decision
// rebuilt from the store, HMAC, Hamming and fuzzy-extractor calls the
// Authenticator makes, with a span around each; the two decision vectors
// must be identical.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "auth/auth_service.hpp"
#include "auth/authenticator.hpp"
#include "auth/lru_cache.hpp"
#include "auth/store_binary.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "ecc/concatenated.hpp"
#include "keygen/fuzzy_extractor.hpp"
#include "keygen/sha256.hpp"
#include "sim/parallel.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

using namespace aropuf;
using trace::Span;

constexpr double kImpostorFraction = 0.1;

// auth_threshold: 1 % of devices take 90 % of the traffic; the LRU holds
// about half of that hot set, so hits and cold store reads both carry load.
constexpr std::uint64_t kThresholdDevices = 200000;
constexpr std::uint32_t kThresholdBits = 128;
constexpr double kThresholdNoise = 0.02;
constexpr double kHotFraction = 0.01;
constexpr double kHotProbability = 0.9;
constexpr std::size_t kCacheCapacity = 1024;
constexpr std::size_t kThresholdPool = std::size_t{1} << 18;
constexpr std::size_t kThresholdWarmup = 8192;

// auth_key: uniform traffic, no cache; genuine re-reads carry the ARO
// 10-year mean BER, where ~90 % of BCH blocks still hold errors after the
// rep-3 vote, so Berlekamp-Massey and the Chien search both run.
constexpr std::uint64_t kKeyDevices = 20000;
constexpr double kKeyNoise = 0.079;
constexpr std::size_t kKeyPool = std::size_t{1} << 14;
constexpr std::size_t kKeyWarmup = 256;

ConcatenatedScheme key_scheme() {
  ConcatenatedScheme scheme;
  scheme.repetition = 3;
  scheme.bch_m = 7;
  scheme.bch_t = 10;
  scheme.key_bits = 128;
  return scheme;
}

struct Request {
  DeviceId id = 0;
  bool impostor = false;
  /// The oracle's decision, computed from the benchmark's own data.
  bool expect_accept = false;
  BitVector claim;
};

BitVector random_bits(Xoshiro256& rng, std::size_t bits) {
  BitVector v(bits);
  for (std::size_t i = 0; i < bits; ++i) v.set(i, (rng() >> 63) != 0);
  return v;
}

/// Rounds the pool to a multiple of the client count so that each pool slot
/// belongs to exactly one client.
std::size_t pool_size(std::size_t want, int clients) {
  const auto c = static_cast<std::size_t>(clients);
  return (want + c - 1) / c * c;
}

std::string store_path(const Options& opts) { return output_path(opts, ".arps"); }

/// Reads one byte per page of the mapped store so the measured phase starts
/// with the file resident.
std::uint64_t touch_pages(const BinaryEnrollmentStore& store) {
  std::uint64_t sum = 0;
  const std::size_t n = store.device_count();
  const std::size_t stride = std::max<std::size_t>(1, 4096 / 8);
  for (std::size_t i = 0; i < n; i += stride) sum += store.device_id_at(i);
  const std::size_t record_stride =
      std::max<std::size_t>(1, 4096 / ((store.response_bits() + 7) / 8 +
                                       (store.helper_bits() + 7) / 8 + kRecordTagBytes));
  for (std::size_t i = 0; i < n; i += record_stride) sum += store.record_at(i).tag[0];
  return sum;
}

// --- the measured phase ----------------------------------------------------------

/// Decision codes stored per pool slot (the digest input).
constexpr std::uint8_t kUnserved = 0xff;
constexpr std::uint8_t kError = 2;

/// Serves one request.  `request_id` groups the spans of the request and
/// `parent` is the span that caused it (the clients' region; 0 untraced).
using VerifyFn =
    std::function<bool(const Request&, std::uint64_t request_id, std::uint64_t parent)>;

/// The window is cut into equal slices; throughput and latency quantiles are
/// taken per slice and the median slice is reported, so a burst from a noisy
/// neighbour on a shared host moves only the slices it overlaps.
constexpr std::size_t kSlices = 20;

struct PhaseResult {
  double wall_s = 0.0;
  double slice_s = 0.0;
  /// Requests served by the clients (the spans' population).
  std::uint64_t served = 0;
  /// Requests served in all, with the untimed completion of the pool.
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  /// Latencies of the requests started in each slice, over all clients.
  std::vector<LatencyHistogram> slices;
  /// Whether the host stole (almost) nothing during each slice.
  std::vector<bool> slice_clean;
  std::vector<std::uint8_t> decisions;
  /// Span totals of the timed window (empty when tracing is off).
  trace::Snapshot spans;

  [[nodiscard]] std::uint64_t samples() const {
    std::uint64_t n = 0;
    for (const auto& h : slices) n += h.count();
    return n;
  }
  [[nodiscard]] double median_slice(const std::function<double(const LatencyHistogram&)>& f) const {
    Samples values;
    for (std::size_t i = 0; i < slices.size(); ++i) values.add(f(slices[i]), slice_clean[i]);
    return median(values.values());
  }
  [[nodiscard]] double rate() const {
    return median_slice([&](const LatencyHistogram& h) {
      return static_cast<double>(h.count()) / slice_s;
    });
  }
};

/// One verification plus its oracle check; returns the decision code.
std::uint8_t serve(const VerifyFn& verify, const Request& r, std::uint64_t request_id,
                   std::uint64_t parent, std::uint64_t& failed) {
  try {
    const bool accepted = verify(r, request_id, parent);
    if (accepted != r.expect_accept) ++failed;
    return accepted ? 1 : 0;
  } catch (const std::exception&) {
    ++failed;
    return kError;
  }
}

/// Closed loop: `clients` threads, client c serving pool slots c, c+clients,
/// ... until `window_s` has elapsed.  Slots the window did not reach are then
/// served untimed so the decision vector always covers the whole pool.
PhaseResult run_clients(const std::vector<Request>& pool, int clients, double window_s,
                        const VerifyFn& verify) {
  PhaseResult phase;
  phase.decisions.assign(pool.size(), kUnserved);
  struct Client {
    std::vector<LatencyHistogram> slices = std::vector<LatencyHistogram>(kSlices);
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Client> state(static_cast<std::size_t>(clients));
  std::atomic<bool> stop{false};
  const auto window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  const std::uint64_t start = trace::now_ns();
  {
    const trace::Region region("auth.clients");
    const std::uint64_t parent = region.id();
    std::vector<std::jthread> threads;
    threads.reserve(state.size());
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Client& me = state[static_cast<std::size_t>(c)];
        std::size_t slot = static_cast<std::size_t>(c);
        std::uint64_t request_id = static_cast<std::uint64_t>(c) << 40;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t t0 = trace::now_ns();
          const std::uint8_t code = serve(verify, pool[slot], ++request_id, parent, me.failed);
          const std::uint64_t slice = (t0 - start) * kSlices / window_ns;
          if (slice < kSlices) me.slices[slice].add(trace::now_ns() - t0);
          ++me.done;
          phase.decisions[slot] = code;
          slot += static_cast<std::size_t>(clients);
          if (slot >= pool.size()) slot = static_cast<std::size_t>(c);
        }
      });
    }
    phase.slice_clean.resize(kSlices);
    const auto slice = std::chrono::duration<double>(window_s / kSlices);
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kSlices; ++i) {
      const std::uint64_t steal = steal_ticks();
      std::this_thread::sleep_until(begin + slice * static_cast<double>(i + 1));
      phase.slice_clean[i] = low_steal(steal, slice.count());
    }
    stop.store(true, std::memory_order_relaxed);
  }
  phase.wall_s = seconds_since(start);
  phase.slice_s = window_s / kSlices;
  if (trace::enabled()) phase.spans = trace::snapshot();
  phase.slices.resize(kSlices);
  for (const Client& c : state) {
    for (std::size_t i = 0; i < kSlices; ++i) phase.slices[i].merge(c.slices[i]);
    phase.served += c.done;
    phase.failed += c.failed;
  }
  phase.done = phase.served;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (phase.decisions[i] == kUnserved) {
      phase.decisions[i] = serve(verify, pool[i], i, 0, phase.failed);
      ++phase.done;
    }
  }
  return phase;
}

std::string digest_hex(const std::vector<std::uint8_t>& decisions) {
  return Sha256::to_hex(Sha256::hash(decisions)).substr(0, 16);
}

/// Records the phase's outcome and end-to-end metrics.
void account_phase(Outcome& out, const PhaseResult& phase, const char* what) {
  out.attempted += phase.done;
  out.failed += phase.failed;
  if (phase.failed > 0) {
    out.fail(std::string(what) + ": " + std::to_string(phase.failed) +
             " decisions disagree with the oracle or threw");
  }
  std::printf("perfbench: %s decisions digest %s over %zu pooled requests\n", what,
              digest_hex(phase.decisions).c_str(), phase.decisions.size());
}

void set_auth_metrics(Outcome& out, const PhaseResult& phase) {
  out.set("ops_per_s", phase.rate(), "1/s");
  out.set("op_p50_us", phase.median_slice([](const LatencyHistogram& h) {
    return h.quantile_us(0.50);
  }), "us");
  out.set("op_tail_us", phase.median_slice([](const LatencyHistogram& h) {
    return h.quantile_us(0.99);
  }), "us");
  const auto clean = static_cast<std::size_t>(
      std::count(phase.slice_clean.begin(), phase.slice_clean.end(), true));
  std::printf("perfbench: latency samples %llu in %zu slices of %.3f s (%zu clean)\n",
              static_cast<unsigned long long>(phase.samples()), kSlices, phase.slice_s, clean);
  std::printf("perfbench: per-slice requests/s, p50 us (* = stolen):");
  for (std::size_t i = 0; i < phase.slices.size(); ++i) {
    std::printf(" %.0f/%.2f%s", static_cast<double>(phase.slices[i].count()) / phase.slice_s,
                phase.slices[i].quantile_us(0.5), phase.slice_clean[i] ? "" : "*");
  }
  std::printf("\n");
}

/// Traced-run bookkeeping shared by both auth workloads: runs the traced
/// phase, checks its decisions against the untraced phase, and sets the
/// composition and overhead metrics.
PhaseResult traced_phase(Outcome& out, const Options& opts, const std::vector<Request>& pool,
                         int clients, double window, const PhaseResult& direct,
                         const VerifyFn& composed) {
  telemetry::start_trace(output_path(opts, ".json"));
  trace::enable(true);
  PhaseResult traced = run_clients(pool, clients, window, composed);
  trace::enable(false);
  telemetry::flush_trace();
  account_phase(out, traced, "traced composition");
  ++out.attempted;
  if (traced.decisions != direct.decisions) {
    ++out.failed;
    out.fail("traced composition decisions differ from Authenticator decisions");
  }
  out.set("trace_overhead_frac", direct.rate() / traced.rate() - 1.0, "fraction");
  report_composition(compose(traced.spans, traced.wall_s, clients), /*gap_is_idle=*/false, out);
  return traced;
}

double mean_ns(const trace::Totals& t) {
  return t.count > 0 ? t.total_s * 1e9 / static_cast<double>(t.count) : 0.0;
}

double per_request(const trace::Totals& t, const PhaseResult& phase) {
  return static_cast<double>(t.count) / static_cast<double>(phase.served);
}

bool tags_equal(const std::uint8_t* a, const std::uint8_t* b) {
  return std::memcmp(a, b, kRecordTagBytes) == 0;
}

// --- auth_threshold ----------------------------------------------------------------

struct ThresholdSetup {
  FleetConfig fleet;
  AuthPolicy policy;
  std::shared_ptr<BinaryEnrollmentStore> store;
  std::unique_ptr<Authenticator> auth;
  std::vector<Request> pool;
  double build_s = 0.0;
  double open_s = 0.0;
  double loadgen_s = 0.0;
};

std::vector<Request> threshold_requests(const FleetConfig& fleet, const AuthPolicy& policy,
                                        std::size_t count, std::uint64_t seed) {
  const auto hot = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(kHotFraction * static_cast<double>(fleet.devices)));
  const RngFabric fabric(seed);
  std::vector<Request> pool(count);
  parallel_for_chips(count, [&](std::size_t r) {
    Xoshiro256 rng = fabric.stream("perfbench-threshold-request", r);
    const std::uint64_t index =
        rng.bernoulli(kHotProbability) ? rng.bounded(hot) : rng.bounded(fleet.devices);
    Request& req = pool[r];
    req.id = fleet_device_id(fleet, index);
    req.impostor = rng.bernoulli(kImpostorFraction);
    const BitVector enrolled = fleet_enrollment_response(fleet, index);
    if (req.impostor) {
      req.claim = random_bits(rng, fleet.response_bits);
    } else {
      req.claim = enrolled;
      for (std::size_t i = 0; i < req.claim.size(); ++i) {
        if (rng.bernoulli(kThresholdNoise)) req.claim.flip(i);
      }
    }
    // Oracle: HD <= threshold on the unpacked enrollment response, bit by bit.
    std::size_t distance = 0;
    for (std::size_t i = 0; i < enrolled.size(); ++i) {
      distance += enrolled.get(i) != req.claim.get(i) ? 1 : 0;
    }
    req.expect_accept = static_cast<double>(distance) / static_cast<double>(enrolled.size()) <=
                        policy.accept_threshold;
  });
  return pool;
}

ThresholdSetup setup_threshold(const Options& opts, std::uint64_t devices, std::size_t pool_want,
                               std::size_t warmup, int clients) {
  ThresholdSetup s;
  s.fleet.devices = devices;
  s.fleet.seed = opts.seed;
  s.fleet.response_bits = kThresholdBits;
  s.policy = AuthPolicy::for_false_accept_rate(kThresholdBits, 1e-6);
  const std::string path = store_path(opts);

  std::uint64_t t0 = trace::now_ns();
  (void)build_fleet_shard(s.fleet, 0, 1, path);
  s.build_s = seconds_since(t0);

  t0 = trace::now_ns();
  s.store = BinaryEnrollmentStore::open(path);
  if (touch_pages(*s.store) == 0) throw std::runtime_error("empty enrollment store");
  s.open_s = seconds_since(t0);

  t0 = trace::now_ns();
  s.pool = threshold_requests(s.fleet, s.policy, pool_size(pool_want, clients), opts.seed);
  s.loadgen_s = seconds_since(t0);

  s.auth = std::make_unique<Authenticator>(s.policy, s.store, fleet_verifier_key(s.fleet.seed));
  s.auth->set_cache(kCacheCapacity);
  for (std::size_t i = 0; i < std::min(warmup, s.pool.size()); ++i) {
    (void)s.auth->verify(s.pool[i].id, s.pool[i].claim);
  }
  return s;
}

/// Authenticator::verify rebuilt from public calls (cache lookup, store
/// find, binding-tag HMAC, record decode, popcount), with spans.
class ThresholdComposed {
 public:
  explicit ThresholdComposed(const ThresholdSetup& s)
      : store_(*s.store),
        key_(fleet_verifier_key(s.fleet.seed)),
        threshold_(s.policy.accept_threshold),
        bits_(static_cast<std::uint32_t>(s.store->response_bits())),
        cache_(kCacheCapacity) {}

  bool verify(const Request& r, std::uint64_t request_id, std::uint64_t parent) {
    const Span request("auth.request", parent, request_id);
    std::shared_ptr<const RecordCache::Entry> entry;
    {
      const Span span("auth.cache.find");
      entry = cache_.find(r.id);
    }
    if (entry == nullptr) {
      std::optional<RecordView> view;
      {
        const Span span("auth.store.find");
        view = store_.find(r.id);
      }
      if (!view) throw std::runtime_error("request for an unenrolled device");
      {
        const Span span("auth.tag.check");
        const auto expected =
            record_binding_tag(key_, r.id, bits_, 0, view->response, view->helper);
        if (!tags_equal(expected.data(), view->tag)) {
          throw AuthStoreError(AuthStoreErrc::kTagMismatch, "record binding tag mismatch");
        }
      }
      auto fresh = std::make_shared<RecordCache::Entry>();
      {
        const Span span("auth.record.decode");
        fresh->response = BitVector::from_bytes(view->response, bits_);
      }
      const Span span("auth.cache.insert");
      cache_.insert(r.id, fresh);
      entry = std::move(fresh);
    }
    std::size_t distance = 0;
    {
      const Span span("common.popcount");
      distance = hamming_distance(entry->response, r.claim);
    }
    return static_cast<double>(distance) / static_cast<double>(bits_) <= threshold_;
  }

 private:
  const BinaryEnrollmentStore& store_;
  Authenticator::VerifierKey key_;
  double threshold_;
  std::uint32_t bits_;
  RecordCache cache_;
};

VerifyFn threshold_direct(const Authenticator& auth) {
  return [&auth](const Request& r, std::uint64_t, std::uint64_t) {
    const auto result = auth.verify(r.id, r.claim);
    if (!result) throw std::runtime_error("request for an unenrolled device");
    return result->accepted;
  };
}

// --- auth_key ------------------------------------------------------------------------

struct KeySetup {
  FleetConfig fleet;
  std::unique_ptr<FuzzyExtractor> extractor;
  std::vector<BitVector> golden;
  std::shared_ptr<BinaryEnrollmentStore> store;
  std::unique_ptr<Authenticator> auth;
  std::vector<Request> pool;
  double enroll_s = 0.0;
  double build_s = 0.0;
  double open_s = 0.0;
  double loadgen_s = 0.0;
};

/// Oracle for a genuine key-mode claim: accepted exactly when every BCH block
/// has at most t errors left after the rep-3 majority vote.
bool key_claim_decodes(const BitVector& noise, const ConcatenatedScheme& scheme) {
  const auto r = static_cast<std::size_t>(scheme.repetition);
  const std::size_t n = scheme.bch_n();
  for (std::size_t block = 0; block < scheme.blocks(); ++block) {
    int errors = 0;
    for (std::size_t g = 0; g < n; ++g) {
      std::size_t flipped = 0;
      for (std::size_t j = 0; j < r; ++j) flipped += noise.get((block * n + g) * r + j) ? 1 : 0;
      errors += 2 * flipped > r ? 1 : 0;
    }
    if (errors > scheme.bch_t) return false;
  }
  return true;
}

std::vector<Request> key_requests(const KeySetup& s, std::size_t count, std::uint64_t seed,
                                  const ConcatenatedScheme& scheme) {
  const RngFabric fabric(seed);
  const std::size_t bits = scheme.raw_bits();
  std::vector<Request> pool(count);
  parallel_for_chips(count, [&](std::size_t r) {
    Xoshiro256 rng = fabric.stream("perfbench-key-request", r);
    const std::uint64_t index = rng.bounded(s.fleet.devices);
    Request& req = pool[r];
    req.id = fleet_device_id(s.fleet, index);
    req.impostor = rng.bernoulli(kImpostorFraction);
    if (req.impostor) {
      req.claim = random_bits(rng, bits);
      req.expect_accept = false;
      return;
    }
    BitVector noise(bits);
    for (std::size_t i = 0; i < bits; ++i) noise.set(i, rng.bernoulli(kKeyNoise));
    req.claim = s.golden[index] ^ noise;
    req.expect_accept = key_claim_decodes(noise, scheme);
  });
  return pool;
}

KeySetup setup_key(const Options& opts, std::uint64_t devices, std::size_t pool_want,
                   std::size_t warmup, int clients) {
  KeySetup s;
  const ConcatenatedScheme scheme = key_scheme();
  s.fleet.devices = devices;
  s.fleet.seed = opts.seed;
  s.extractor = std::make_unique<FuzzyExtractor>(scheme);  // BCH tables
  const std::size_t bits = s.extractor->response_bits();
  const RngFabric fabric(opts.seed);

  std::uint64_t t0 = trace::now_ns();
  s.golden.resize(devices);
  std::vector<std::pair<DeviceId, EnrollmentRecord>> records(devices);
  parallel_for_chips(devices, [&](std::size_t i) {
    Xoshiro256 response_rng = fabric.stream("perfbench-key-golden", i);
    s.golden[i] = random_bits(response_rng, bits);
    Xoshiro256 secret_rng = fabric.stream("perfbench-key-secret", i);
    const Enrollment e = s.extractor->enroll(s.golden[i], secret_rng);
    const DeviceId id = fleet_device_id(s.fleet, i);
    EnrollmentRecord record;
    record.helper = e.helper_data;
    record.tag = key_confirmation_tag(e.key, id);
    records[i] = {id, std::move(record)};
  });
  s.enroll_s = seconds_since(t0);

  const std::string path = store_path(opts);
  t0 = trace::now_ns();
  AuthStoreParams params;
  params.helper_bits = static_cast<std::uint32_t>(bits);
  params.fleet_seed = opts.seed;
  write_enrollment_store(path, params, std::move(records));
  s.build_s = seconds_since(t0);

  t0 = trace::now_ns();
  s.store = BinaryEnrollmentStore::open(path);
  if (touch_pages(*s.store) == 0) throw std::runtime_error("empty enrollment store");
  s.open_s = seconds_since(t0);

  t0 = trace::now_ns();
  s.pool = key_requests(s, pool_size(pool_want, clients), opts.seed, scheme);
  s.loadgen_s = seconds_since(t0);

  s.auth = std::make_unique<Authenticator>(AuthPolicy{}, s.store);
  for (std::size_t i = 0; i < std::min(warmup, s.pool.size()); ++i) {
    (void)s.auth->verify_key(s.pool[i].id, *s.extractor, s.pool[i].claim);
  }
  return s;
}

/// Authenticator::verify_key rebuilt from public calls (store find, helper
/// decode, the concatenated decode, SHA-256 key derivation, confirmation
/// tag), with spans.
class KeyComposed {
 public:
  explicit KeyComposed(const KeySetup& s)
      : store_(*s.store),
        extractor_(*s.extractor),
        helper_bits_(s.store->helper_bits()) {}

  bool verify(const Request& r, std::uint64_t request_id, std::uint64_t parent) {
    const Span request("auth.request", parent, request_id);
    std::optional<RecordView> view;
    {
      const Span span("auth.store.find");
      view = store_.find(r.id);
    }
    if (!view) throw std::runtime_error("request for an unenrolled device");
    BitVector helper;
    {
      const Span span("auth.record.decode");
      helper = BitVector::from_bytes(view->helper, helper_bits_);
    }
    std::optional<Sha256::Digest> key;
    {
      const Span span("keygen.reconstruct");
      std::optional<BitVector> secret;
      {
        const Span decode("ecc.decode");
        secret = extractor_.code().decode(r.claim ^ helper);
      }
      if (!r.impostor) {
        genuine_.fetch_add(1, std::memory_order_relaxed);
        if (secret) genuine_decoded_.fetch_add(1, std::memory_order_relaxed);
      }
      if (secret) key = Sha256::hash(secret->to_bytes());
    }
    if (!key) return false;
    const Span span("keygen.confirm_tag");
    const auto expected = key_confirmation_tag(*key, r.id);
    return tags_equal(expected.data(), view->tag);
  }

  [[nodiscard]] double genuine_decode_ratio() const {
    const auto genuine = genuine_.load(std::memory_order_relaxed);
    return genuine > 0 ? static_cast<double>(genuine_decoded_.load(std::memory_order_relaxed)) /
                             static_cast<double>(genuine)
                       : 0.0;
  }

 private:
  const BinaryEnrollmentStore& store_;
  const FuzzyExtractor& extractor_;
  std::size_t helper_bits_;
  std::atomic<std::uint64_t> genuine_{0};
  std::atomic<std::uint64_t> genuine_decoded_{0};
};

VerifyFn key_direct(const Authenticator& auth, const FuzzyExtractor& extractor) {
  return [&auth, &extractor](const Request& r, std::uint64_t, std::uint64_t) {
    const auto result = auth.verify_key(r.id, extractor, r.claim);
    if (!result) throw std::runtime_error("request for an unenrolled device");
    return result->accepted;
  };
}

}  // namespace

Outcome run_auth_threshold(const Options& opts) {
  Outcome out;
  const int clients = nproc();
  const int threads = setup_pool();
  const ThresholdSetup s =
      setup_threshold(opts, kThresholdDevices, kThresholdPool, kThresholdWarmup, clients);
  const bool stop = setup_done(opts);
  out.set("auth.build_s", s.build_s, "s");
  out.set("auth.open_s", s.open_s, "s");
  out.set("loadgen_s", s.loadgen_s, "s");
  out.set("auth.store_mb",
          static_cast<double>(std::filesystem::file_size(store_path(opts))) / (1024.0 * 1024.0),
          "MiB");
  std::filesystem::remove(store_path(opts));  // the store stays mapped
  if (stop) return out;
  print_provenance(opts, threads);
  std::printf("perfbench: clients=%d devices=%llu pool=%zu cache=%zu\n", clients,
              static_cast<unsigned long long>(kThresholdDevices), s.pool.size(), kCacheCapacity);

  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::uint64_t hits0 = s.auth->cache()->hits();
  const std::uint64_t misses0 = s.auth->cache()->misses();
  const PhaseResult direct = run_clients(s.pool, clients, window, threshold_direct(*s.auth));
  account_phase(out, direct, "Authenticator::verify");
  set_auth_metrics(out, direct);
  const double hits = static_cast<double>(s.auth->cache()->hits() - hits0);
  const double misses = static_cast<double>(s.auth->cache()->misses() - misses0);
  const double hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  std::printf("perfbench: Authenticator cache hit ratio %.4f\n", hit_ratio);

  if (opts.trace) {
    ThresholdComposed composed(s);
    const PhaseResult traced = traced_phase(
        out, opts, s.pool, clients, window, direct,
        [&composed](const Request& r, std::uint64_t id, std::uint64_t parent) {
          return composed.verify(r, id, parent);
        });
    const trace::Snapshot& snap = traced.spans;
    const auto find = snap.span("auth.store.find");
    const auto tag = snap.span("auth.tag.check");
    out.set("auth.store.finds", per_request(find, traced), "per_req");
    out.set("auth.store.find_ns", mean_ns(find), "ns");
    out.set("auth.tag.checks", per_request(tag, traced), "per_req");
    out.set("auth.tag.check_us", mean_ns(tag) * 1e-3, "us");
    out.set("auth.cache.hit_ratio", hit_ratio, "fraction");
    out.set("common.popcount_ns", mean_ns(snap.span("common.popcount")), "ns");
  }
  return out;
}

Outcome run_auth_key(const Options& opts) {
  Outcome out;
  const int clients = nproc();
  const int threads = setup_pool();
  const KeySetup s = setup_key(opts, kKeyDevices, kKeyPool, kKeyWarmup, clients);
  const bool stop = setup_done(opts);
  out.set("keygen.enroll_s", s.enroll_s, "s");
  out.set("auth.build_s", s.build_s, "s");
  out.set("auth.open_s", s.open_s, "s");
  out.set("loadgen_s", s.loadgen_s, "s");
  out.set("auth.store_mb",
          static_cast<double>(std::filesystem::file_size(store_path(opts))) / (1024.0 * 1024.0),
          "MiB");
  std::filesystem::remove(store_path(opts));  // the store stays mapped
  if (stop) return out;
  print_provenance(opts, threads);
  std::printf("perfbench: clients=%d devices=%llu pool=%zu raw_bits=%zu\n", clients,
              static_cast<unsigned long long>(kKeyDevices), s.pool.size(),
              s.extractor->response_bits());

  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  const PhaseResult direct =
      run_clients(s.pool, clients, window, key_direct(*s.auth, *s.extractor));
  account_phase(out, direct, "Authenticator::verify_key");
  set_auth_metrics(out, direct);

  if (opts.trace) {
    KeyComposed composed(s);
    const PhaseResult traced = traced_phase(
        out, opts, s.pool, clients, window, direct,
        [&composed](const Request& r, std::uint64_t id, std::uint64_t parent) {
          return composed.verify(r, id, parent);
        });
    const trace::Snapshot& snap = traced.spans;
    const auto find = snap.span("auth.store.find");
    out.set("auth.store.finds", per_request(find, traced), "per_req");
    out.set("auth.store.find_ns", mean_ns(find), "ns");
    out.set("ecc.decode_us", mean_ns(snap.span("ecc.decode")) * 1e-3, "us");
    out.set("ecc.decode_ok_ratio", composed.genuine_decode_ratio(), "fraction");
    out.set("keygen.reconstruct_us", mean_ns(snap.span("keygen.reconstruct")) * 1e-3, "us");
    out.set("keygen.confirm_tag_us", mean_ns(snap.span("keygen.confirm_tag")) * 1e-3, "us");
  }
  return out;
}

bool self_check_auth() {
  bool ok = true;
  const auto expect = [&](bool caught, const char* what) {
    std::fprintf(stderr, "self-check: %-52s %s\n", what, caught ? "ok" : "MISSED");
    ok = ok && caught;
  };
  const int clients = setup_pool();
  Options opts;
  opts.workload = "self_check";
  opts.seed = 7;

  const ThresholdSetup t = setup_threshold(opts, 2000, 4000, 0, clients);
  const VerifyFn threshold = threshold_direct(*t.auth);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < t.pool.size(); ++i) (void)serve(threshold, t.pool[i], i, 0, failed);
  expect(failed == 0, "threshold oracle agrees with every clean decision");
  const VerifyFn flipped = [&](const Request& r, std::uint64_t id, std::uint64_t parent) {
    return id == 17 ? !threshold(r, id, parent) : threshold(r, id, parent);
  };
  failed = 0;
  for (std::size_t i = 0; i < t.pool.size(); ++i) (void)serve(flipped, t.pool[i], i, 0, failed);
  expect(failed == 1, "one injected wrong threshold decision is caught");
  const VerifyFn throws = [&](const Request& r, std::uint64_t id, std::uint64_t parent) {
    if (id == 5) throw std::runtime_error("injected");
    return threshold(r, id, parent);
  };
  failed = 0;
  for (std::size_t i = 0; i < t.pool.size(); ++i) (void)serve(throws, t.pool[i], i, 0, failed);
  expect(failed == 1, "an exception counts as a failure");
  std::filesystem::remove(store_path(opts));

  const KeySetup k = setup_key(opts, 200, 400, 0, clients);
  const VerifyFn key = key_direct(*k.auth, *k.extractor);
  failed = 0;
  for (std::size_t i = 0; i < k.pool.size(); ++i) (void)serve(key, k.pool[i], i, 0, failed);
  expect(failed == 0, "key-mode oracle agrees with every clean decision");
  const VerifyFn accept_all = [&](const Request& r, std::uint64_t id, std::uint64_t parent) {
    return r.impostor ? true : key(r, id, parent);
  };
  failed = 0;
  std::uint64_t impostors = 0;
  for (std::size_t i = 0; i < k.pool.size(); ++i) {
    impostors += k.pool[i].impostor ? 1 : 0;
    (void)serve(accept_all, k.pool[i], i, 0, failed);
  }
  expect(impostors > 0 && failed == impostors, "accepted impostors are caught");
  std::filesystem::remove(store_path(opts));
  return ok;
}

}  // namespace perfbench
