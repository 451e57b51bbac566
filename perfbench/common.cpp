#ifdef __linux__
#include <sched.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.hpp"
#include "circuit/delay_kernel.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/prof.hpp"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

std::string output_path(const Options& opts, const char* extension) {
  std::filesystem::create_directories(opts.out_dir);
  return opts.out_dir + "/" + opts.workload + "-seed" + std::to_string(opts.seed) + extension;
}

double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(trace::now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                            &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

bool low_steal(std::uint64_t steal_before, double wall_s) {
#ifdef __linux__
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
#else
  constexpr double ticks_per_s = 100.0;
#endif
  const double stolen_s = static_cast<double>(steal_ticks() - steal_before) / ticks_per_s;
  return stolen_s <= 0.02 * wall_s * nproc();
}

void Samples::add(double value, bool clean) {
  all_.push_back(value);
  if (clean) clean_.push_back(value);
}

void Samples::time(const std::function<void()>& fn) {
  const std::uint64_t steal0 = steal_ticks();
  const std::uint64_t t0 = trace::now_ns();
  fn();
  const double wall = seconds_since(t0);
  add(wall, low_steal(steal0, wall));
}

const std::vector<double>& Samples::values() const {
  return clean_.size() >= std::min<std::size_t>(3, all_.size()) ? clean_ : all_;
}

std::string Samples::summary() const {
  return std::to_string(clean_.size()) + " of " + std::to_string(all_.size()) + " clean";
}

bool setup_done(const Options& opts) {
  std::printf("%s\n", kSetupDoneLine);
  std::fflush(stdout);
  return opts.setup_only;
}

namespace {

constexpr std::size_t kSubBuckets = 1024;
constexpr int kMaxExponent = 26;  // values clamp at ~137 ms, far beyond any call

// Bucket index = e * 1024 + (ns >> e), where e shifts ns into [1024, 2048):
// values below 2048 map to themselves, exponent e >= 1 to
// [(e + 1) * 1024, (e + 2) * 1024).
std::size_t bucket_of(std::uint64_t ns) noexcept {
  const int width = std::bit_width(ns);
  const int e = std::clamp(width - 11, 0, kMaxExponent);
  return static_cast<std::size_t>(e) * kSubBuckets +
         static_cast<std::size_t>(std::min<std::uint64_t>(ns >> e, 2 * kSubBuckets - 1));
}

double bucket_mid_ns(std::size_t b) noexcept {
  if (b < 2 * kSubBuckets) return static_cast<double>(b);
  const std::size_t e = b / kSubBuckets - 1;
  const std::size_t mantissa = b - e * kSubBuckets;
  return std::ldexp(static_cast<double>(mantissa) + 0.5, static_cast<int>(e));
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_((kMaxExponent + 2) * kSubBuckets, 0) {}

void LatencyHistogram::add(std::uint64_t ns) noexcept {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return bucket_mid_ns(b) * 1e-3;
  }
  return bucket_mid_ns(buckets_.size() - 1) * 1e-3;
}

Composition compose(const trace::Snapshot& snap, double wall_s, int threads) {
  Composition c;
  const double capacity = wall_s * threads;
  if (capacity <= 0.0) return c;
  double task_s = 0.0;
  double serial_s = 0.0;
  for (const auto& [name, t] : snap.spans) {
    const std::string layer = name.substr(0, name.find('.'));
    c.layer_share[layer] += (t.self_task_s + t.self_serial_s * threads) / capacity;
    task_s += t.self_task_s;
    serial_s += t.self_serial_s;
  }
  const double region_s = snap.region_wall_s();
  c.gap_share = std::max(0.0, region_s * threads - task_s) / capacity;
  c.residual_share = (wall_s - region_s - serial_s) * threads / capacity;
  return c;
}

void report_composition(Composition c, bool gap_is_idle, Outcome& out) {
  if (!gap_is_idle) {
    c.residual_share += c.gap_share;
    c.gap_share = 0.0;
  }
  std::fprintf(stderr, "perfbench: layer composition of the traced phase\n");
  double sum = 0.0;
  for (const auto& [layer, share] : c.layer_share) {
    std::fprintf(stderr, "  %-12s %7.3f %%\n", layer.c_str(), share * 100.0);
    out.set("share." + layer, share, "fraction");
    sum += share;
  }
  if (gap_is_idle) {
    std::fprintf(stderr, "  %-12s %7.3f %%\n", "(pool idle)", c.gap_share * 100.0);
    sum += c.gap_share;
  }
  std::fprintf(stderr, "  %-12s %7.3f %%\n", "(residual)", c.residual_share * 100.0);
  sum += c.residual_share;
  std::fprintf(stderr, "  %-12s %7.3f %%\n", "total", sum * 100.0);
  out.set("residual_frac", c.residual_share, "fraction");
}

int nproc() {
#ifdef __linux__
  // Like nproc(1): the CPUs this process may run on, not every CPU online.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int setup_pool() {
  aropuf::ParallelExecutor::set_global_thread_count(nproc());
  return aropuf::ParallelExecutor::global().thread_count();
}

void print_provenance(const Options& opts, int threads) {
  const aropuf::JsonValue manifest =
      aropuf::telemetry::build_manifest("perfbench", aropuf::JsonValue(aropuf::JsonValue::Object{}));
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%d threads=%d "
               "kernel=%s counters=%s build=%s git=%s\n",
               opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0, nproc(), threads,
               aropuf::to_string(aropuf::delay_backend()),
               aropuf::telemetry::prof_mode_name(aropuf::telemetry::prof_status().mode),
               manifest.at("build").string_or("type", "unknown").c_str(),
               manifest.string_or("git_sha", "unknown").c_str());
}

}  // namespace perfbench
