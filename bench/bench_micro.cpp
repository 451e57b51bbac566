// Micro-benchmarks (google-benchmark) for the simulation's hot kernels.
//
// These guard the throughput that makes the Monte Carlo studies cheap:
// RO frequency evaluation, full-chip response evaluation, BCH decode, key
// reconstruction, population uniqueness, and the parallel Monte Carlo
// engine's scaling (BM_AgingSeries200 at 1/2/8 threads is the
// serial-vs-parallel speedup record for run_aging_series; target >= 4x at 8
// threads on 8 cores).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "auth/auth_service.hpp"
#include "circuit/delay_kernel.hpp"
#include "ecc/bch.hpp"
#include "fold_bench_util.hpp"
#include "gate_normalizer.hpp"
#include "keygen/fuzzy_extractor.hpp"
#include "keygen/sha256.hpp"
#include "metrics/uniqueness.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"
#include "sim/scenarios.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/prof.hpp"

namespace {

using namespace aropuf;

const TechnologyParams& tech() {
  static const TechnologyParams t = TechnologyParams::cmos90();
  return t;
}

/// Publishes a reader's hardware-counter delta as google-benchmark user
/// counters so --benchmark_format=json carries IPC / cache-miss-rate / GHz
/// columns for scripts/perf_gate.py.  Silently a no-op where counters are
/// unavailable (AROPUF_PROF off, paranoid kernel, no PMU) — the gate skips
/// the check when the columns are absent.
void attach_hw_counters(benchmark::State& state, const telemetry::CounterReader& reader) {
  const telemetry::CounterDelta d = reader.sample();
  if (!d.counters_valid) return;
  state.counters["ipc"] = benchmark::Counter(d.ipc());
  state.counters["ghz"] = benchmark::Counter(d.ghz());
  state.counters["cycles"] = benchmark::Counter(static_cast<double>(d.cycles));
  state.counters["instructions"] = benchmark::Counter(static_cast<double>(d.instructions));
  if (d.cache_valid) {
    state.counters["cache_miss_rate"] = benchmark::Counter(d.cache_miss_rate());
  }
  if (d.branch_valid) {
    state.counters["branch_misses"] = benchmark::Counter(static_cast<double>(d.branch_misses));
  }
}

void BM_RoFrequency(benchmark::State& state) {
  const DieVariation die(tech(), 1);
  Xoshiro256 rng(2);
  const RingOscillator ro(tech(), static_cast<int>(state.range(0)), {0.0, 0.0},
                          die.static_offset({0.0, 0.0}), die, rng);
  const OperatingPoint op{tech().vdd_nominal, tech().temp_nominal};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ro.frequency(op));
  }
}
BENCHMARK(BM_RoFrequency)->Arg(5)->Arg(13)->Arg(31);

/// Kernel-level benchmark: one pass of each delay kernel over a fresh 256-RO
/// die's SoA, called through detail::, so each row times its own kernel
/// whichever one the CPU dispatches to.  Both give the per-RO walk's bits
/// (tests enforce it), so they differ only in time — the per-kernel record
/// for the delay kernel itself, independent of construction cost.
void BM_KernelFrequencies(benchmark::State& state, DelayBackend backend) {
  if (backend == DelayBackend::kSimd && !simd_available()) {
    state.SkipWithError("AVX2 kernel not available in this build/CPU");
    return;
  }
  auto* kernel = &detail::frequencies_batched;
#if defined(AROPUF_SIMD_ENABLED)
  if (backend == DelayBackend::kSimd) kernel = &detail::frequencies_avx2;
#endif
  const RoPuf chip(tech(), PufConfig::aro(256), RngFabric(7).child("chip", 0));
  const RoArraySoA soa = RoArraySoA::from_oscillators(chip.oscillators());
  const std::vector<AgingShifts> shifts(chip.oscillators().size());
  std::vector<double> freqs(shifts.size());
  const auto op = chip.nominal_op();
  const telemetry::CounterReader counters;
  for (auto _ : state) {
    kernel(soa, chip.technology(), op, shifts, freqs);
    benchmark::DoNotOptimize(freqs.data());
    benchmark::ClobberMemory();
  }
  attach_hw_counters(state, counters);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK_CAPTURE(BM_KernelFrequencies, batched, DelayBackend::kBatched);
BENCHMARK_CAPTURE(BM_KernelFrequencies, simd, DelayBackend::kSimd);

void BM_ChipConstruction(benchmark::State& state) {
  const PufConfig cfg = PufConfig::aro(static_cast<int>(state.range(0)));
  const RngFabric fabric(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoPuf(tech(), cfg, fabric.child("chip", 0)));
  }
}
BENCHMARK(BM_ChipConstruction)->Arg(64)->Arg(256);

void BM_ChipEvaluate(benchmark::State& state) {
  const RoPuf chip(tech(), PufConfig::aro(static_cast<int>(state.range(0))),
                   RngFabric(7).child("chip", 0));
  const auto op = chip.nominal_op();
  std::uint64_t eval = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chip.evaluate(op, eval++));
  }
}
BENCHMARK(BM_ChipEvaluate)->Arg(64)->Arg(256);

void BM_ChipAgeOneYear(benchmark::State& state) {
  RoPuf chip(tech(), PufConfig::conventional(256), RngFabric(9).child("chip", 0));
  for (auto _ : state) {
    chip.age_years(1.0);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ChipAgeOneYear);

void BM_BchEncode(benchmark::State& state) {
  const BchCode code(8, static_cast<int>(state.range(0)));
  Xoshiro256 rng(3);
  BitVector msg(code.k());
  for (std::size_t i = 0; i < msg.size(); ++i) msg.set(i, rng.bernoulli(0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(msg));
  }
}
BENCHMARK(BM_BchEncode)->Arg(4)->Arg(18);

/// BchCode(m, t) decode of a word with up to t flips; (7, 10) is the
/// key-mode code BCH(127, 64, 10).
void BM_BchDecode(benchmark::State& state) {
  const int t = static_cast<int>(state.range(1));
  const BchCode code(static_cast<int>(state.range(0)), t);
  Xoshiro256 rng(4);
  BitVector msg(code.k());
  for (std::size_t i = 0; i < msg.size(); ++i) msg.set(i, rng.bernoulli(0.5));
  BitVector noisy = code.encode(msg);
  for (int e = 0; e < t; ++e) {
    noisy.flip(static_cast<std::size_t>(rng.bounded(noisy.size())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(noisy));
  }
}
BENCHMARK(BM_BchDecode)->Args({8, 4})->Args({8, 18})->Args({7, 10});

/// FuzzyExtractor::reconstruct on the key-mode scheme (rep-3 +
/// BCH(127, 64, 10), 128-bit key, 762 raw bits) at the ARO 10-year raw BER
/// of 7.9 %: XOR with the helper data, rep-3 vote, two BCH decodes, SHA-256.
/// The gated row of the key-reconstruct path.
void BM_KeyReconstruct(benchmark::State& state) {
  ConcatenatedScheme scheme;
  scheme.repetition = 3;
  scheme.bch_m = 7;
  scheme.bch_t = 10;
  scheme.key_bits = 128;
  const FuzzyExtractor extractor(scheme);
  Xoshiro256 rng(6);
  BitVector golden(extractor.response_bits());
  for (std::size_t i = 0; i < golden.size(); ++i) golden.set(i, rng.bernoulli(0.5));
  const Enrollment enrollment = extractor.enroll(golden, rng);
  std::vector<BitVector> reads;
  for (int r = 0; r < 256; ++r) {
    BitVector read = golden;
    for (std::size_t i = 0; i < read.size(); ++i) {
      if (rng.bernoulli(0.079)) read.flip(i);
    }
    reads.push_back(std::move(read));
  }
  std::uint64_t recovered = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto key = extractor.reconstruct(reads[next], enrollment.helper_data);
    next = (next + 1) % reads.size();
    recovered += key.has_value() && *key == enrollment.key ? 1 : 0;
    benchmark::DoNotOptimize(recovered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KeyReconstruct);

std::vector<std::uint8_t> sha_input_1kib() {
  std::vector<std::uint8_t> data(1024);
  Xoshiro256 rng(5);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.bounded(256));
  return data;
}

/// The library's SHA-256 on 1 KiB.  Ungated: its speed depends on which
/// compression this CPU runs, so the row labels itself sha_ni or portable.
void BM_Sha256_1KiB(benchmark::State& state) {
  const std::vector<std::uint8_t> data = sha_input_1kib();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
  state.SetLabel(Sha256::implementation());
}
BENCHMARK(BM_Sha256_1KiB);

/// The perf gate's normaliser: the frozen portable SHA-256
/// (gate_normalizer.hpp) on the same 1 KiB.  scripts/perf_gate.py divides
/// every gated row by this one.
void BM_GateNormalizer_1KiB(benchmark::State& state) {
  const std::vector<std::uint8_t> data = sha_input_1kib();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::GateNormalizerSha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_GateNormalizer_1KiB);

/// One threshold verification against a state.range(0)-device binary store:
/// binary-search lookup, HMAC binding-tag check, packed Hamming distance.
/// This is the auth service's hot path (tools/aropuf_auth drives it at fleet
/// scale); the gated 4096-device row keeps its cost pinned in CI.
void BM_AuthVerify(benchmark::State& state) {
  FleetConfig fleet;
  fleet.devices = static_cast<std::uint64_t>(state.range(0));
  fleet.seed = 17;
  std::vector<std::pair<DeviceId, EnrollmentRecord>> records;
  const Authenticator::VerifierKey key = fleet_verifier_key(fleet.seed);
  for (std::uint64_t i = 0; i < fleet.devices; ++i) {
    EnrollmentRecord record;
    record.response = fleet_enrollment_response(fleet, i);
    const std::vector<std::uint8_t> packed = record.response.to_bytes();
    record.tag = record_binding_tag(key, fleet_device_id(fleet, i), fleet.response_bits, 0,
                                    packed.data(), nullptr);
    records.push_back({fleet_device_id(fleet, i), std::move(record)});
  }
  std::shared_ptr<BinaryEnrollmentStore> store = BinaryEnrollmentStore::parse(
      encode_enrollment_store(fleet_store_params(fleet), std::move(records)));
  const Authenticator auth(AuthPolicy::for_false_accept_rate(fleet.response_bits, 1e-6),
                           store, key);
  // Pre-generate the request mix so the loop times verify() alone, not the
  // synthetic response model.
  Xoshiro256 pick(3);
  std::vector<std::pair<DeviceId, BitVector>> requests;
  for (int r = 0; r < 256; ++r) {
    const std::uint64_t index = pick.bounded(fleet.devices);
    requests.push_back({fleet_device_id(fleet, index), fleet_field_response(fleet, index, 1, 0.0)});
  }
  std::uint64_t accepted = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [id, claim] = requests[next];
    next = (next + 1) % requests.size();
    const auto result = auth.verify(id, claim);
    accepted += result && result->accepted ? 1 : 0;
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AuthVerify)->Arg(4096);

/// Per-thread-count state.range(0) run of the E2 engine at 200 chips and a
/// 10-year checkpoint: the speedup benchmark the ISSUE/ROADMAP track.  The
/// result is bit-identical at every thread count (see parallel.hpp), so the
/// rows differ only in wall-clock time.
void BM_AgingSeries200(benchmark::State& state) {
  const int previous_threads = aropuf::ParallelExecutor::global().thread_count();
  aropuf::ParallelExecutor::set_global_thread_count(static_cast<int>(state.range(0)));
  PopulationConfig pop;
  pop.tech = tech();
  pop.chips = 200;
  pop.seed = 2014;
  const double checkpoints[] = {10.0};
  const telemetry::CounterReader counters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_aging_series(pop, PufConfig::aro(), checkpoints));
  }
  attach_hw_counters(state, counters);
  aropuf::ParallelExecutor::set_global_thread_count(previous_threads);
}
BENCHMARK(BM_AgingSeries200)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_MakePopulation(benchmark::State& state) {
  const PufConfig cfg = PufConfig::aro();
  const RngFabric fabric(2014);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_population(tech(), cfg, static_cast<int>(state.range(0)), fabric));
  }
}
BENCHMARK(BM_MakePopulation)->Arg(40)->Arg(200)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_UniquenessPopulation(benchmark::State& state) {
  Xoshiro256 rng(6);
  std::vector<BitVector> responses;
  for (int c = 0; c < static_cast<int>(state.range(0)); ++c) {
    BitVector r(128);
    for (std::size_t i = 0; i < r.size(); ++i) r.set(i, rng.bernoulli(0.5));
    responses.push_back(std::move(r));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_uniqueness(responses));
  }
}
BENCHMARK(BM_UniquenessPopulation)->Arg(20)->Arg(100);

// --- shard-manifest fold throughput: JSON vs binary transport ---------------
//
// One synthetic shard (Arg chips, 10 sample series — the shape of a real
// study manifest at Arg/40 times the default population) written once per
// format, then repeatedly loaded and folded through AggregateBuilder.  The
// pair is gated as a *speedup*: bench/baseline.json requires binary to fold
// at least 5x the chips/sec of JSON (see scripts/perf_gate.py "speedups").

constexpr std::size_t kFoldBenchSeries = 10;

std::string fold_bench_path(bool binary, std::size_t chips) {
  namespace fs = std::filesystem;
  static std::map<std::pair<bool, std::size_t>, std::string> cache;
  auto [it, fresh] = cache.try_emplace({binary, chips});
  if (!fresh) return it->second;
  const bench::SyntheticShard shard = bench::make_synthetic_shard(chips, kFoldBenchSeries);
  const fs::path dir = fs::temp_directory_path() / "aropuf-fold-bench";
  fs::create_directories(dir);
  const fs::path path =
      dir / ("shard-" + std::to_string(chips) + (binary ? ".manifest.bin" : ".manifest.json"));
  if (binary) {
    if (!telemetry::write_binary_shard_manifest(path.string(), shard.metadata, shard.series)) {
      throw std::runtime_error("fold bench: cannot write " + path.string());
    }
  } else {
    std::ofstream out(path, std::ios::trunc);
    out << bench::to_json_transport(shard).dump(2) << '\n';
    if (!out) throw std::runtime_error("fold bench: cannot write " + path.string());
  }
  it->second = path.string();
  return it->second;
}

void fold_bench(benchmark::State& state, bool binary) {
  const std::size_t chips = static_cast<std::size_t>(state.range(0));
  const std::string path = fold_bench_path(binary, chips);
  for (auto _ : state) {
    telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kDropAfterCheck);
    builder.add(telemetry::load_shard_input(path));
    benchmark::DoNotOptimize(builder.finalize());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * chips));
  state.counters["chips_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * chips),
                         benchmark::Counter::kIsRate);
}

void BM_FoldShardJson(benchmark::State& state) { fold_bench(state, /*binary=*/false); }
void BM_FoldShardBinary(benchmark::State& state) { fold_bench(state, /*binary=*/true); }
BENCHMARK(BM_FoldShardJson)->Arg(4000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FoldShardBinary)->Arg(4000)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main) so bench_micro accepts the same
// --threads knob as the experiment binaries; the flag is consumed before
// google-benchmark parses the rest.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    } else if (std::strcmp(arg, "--threads") == 0 && i + 1 < argc) {
      value = argv[++i];
    }
    if (value != nullptr) {
      const int threads = std::atoi(value);
      if (threads >= 1) aropuf::ParallelExecutor::set_global_thread_count(threads);
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  // AROPUF_PROF=on puts the whole bench under the profiling layer (whole-run
  // counters + resource sampler) — the profiling-smoke CI leg measures the
  // on-vs-off overhead of exactly this configuration via perf_gate overhead.
  aropuf::telemetry::start_process_profile();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return aropuf::telemetry::stop_process_profile() ? 0 : 1;
}
