// Shared plumbing of the benchmark binary: options, the result record each
// workload fills, timing statistics and the layer-composition table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set up, print the set-up marker and stop (run.py times set-up over
  /// several fresh processes).
  bool setup_only = false;
  /// Directory for trace files and enrollment stores.
  std::string out_dir = ".bench_build/traces";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  Workloads set every metric they measure;
/// main() prints them all and run.py keeps the set BENCHMARK.json names for
/// the mode.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

/// `<out_dir>/<workload>-seed<n><extension>`, creating the directory: where
/// a run writes its trace and its enrollment store.
[[nodiscard]] std::string output_path(const Options& opts, const char* extension);

/// Seconds since `start_ns` (a trace::now_ns() reading).
[[nodiscard]] double seconds_since(std::uint64_t start_ns) noexcept;

[[nodiscard]] double median(std::vector<double> values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// The q-quantile (0 <= q <= 1), interpolating linearly between order
/// statistics; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Host interference: the steal column of /proc/stat (time the hypervisor
/// ran other guests while this one was runnable), summed over CPUs, in
/// clock ticks.  0 where unavailable, so every sample then counts as clean.
[[nodiscard]] std::uint64_t steal_ticks();

/// True when, since the `steal_before` reading, the host stole at most 2 %
/// of `wall_s` on each of the process's CPUs.
[[nodiscard]] bool low_steal(std::uint64_t steal_before, double wall_s);

/// Timing samples, each tagged clean when the host stole (almost) nothing
/// while it ran.  On a shared host steal comes in bursts that stretch wall
/// time up to 2x for tens of seconds; statistics are taken over the clean
/// samples when there are at least three (or all samples are clean).
class Samples {
 public:
  void add(double value, bool clean);
  /// Runs `fn` and adds its wall time in seconds.
  void time(const std::function<void()>& fn);
  [[nodiscard]] const std::vector<double>& values() const;
  [[nodiscard]] std::size_t size() const noexcept { return all_.size(); }
  /// "k of n clean", for the run's log.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<double> all_;
  std::vector<double> clean_;
};

/// The line a run prints on stdout when its set-up is complete, just before
/// the first timed call; run.py times `setup_s` from process start to it.
inline constexpr const char* kSetupDoneLine = "perfbench: set-up done";

/// Prints kSetupDoneLine and flushes stdout.  Returns true when the run is
/// set-up only and the workload should stop here.
bool setup_done(const Options& opts);

/// Per-call latency histogram: exact below 2048 ns, then 1024 sub-buckets
/// per power of two (relative resolution < 0.1 %).  Not thread-safe; each
/// client owns one and they are merged after the clients have joined.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(std::uint64_t ns) noexcept;
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Nearest-rank quantile in microseconds (0 when empty).
  [[nodiscard]] double quantile_us(double q) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Layer composition of a measured phase.  Time is in thread-seconds:
/// `threads` × `wall_s` is the capacity; spans inside parallel tasks count
/// their self time, spans on the orchestrating thread count their self time
/// times `threads` (the other threads wait for it), and the capacity of
/// parallel regions that no task span covers is `gap_share`.  Whatever else
/// no span covers is the residual.  Shares are grouped by layer (the span
/// name up to the first '.').
struct Composition {
  std::map<std::string, double> layer_share;
  double gap_share = 0.0;
  double residual_share = 0.0;
};

[[nodiscard]] Composition compose(const trace::Snapshot& snap, double wall_s, int threads);

/// Prints the composition table to stderr and sets one `share.<layer>`
/// metric per layer plus `residual_frac` on `out`.  `gap_is_idle`: the
/// region gaps are pool idle time (studies) and get their own row; otherwise
/// (client loops between requests) they count as residual.
void report_composition(Composition c, bool gap_is_idle, Outcome& out);

/// Provenance line on stdout: nproc, threads, kernel backend, counter mode,
/// build type, seed, git sha.
void print_provenance(const Options& opts, int threads);

/// Hardware threads available to the process (>= 1).
[[nodiscard]] int nproc();

/// (Re)creates the global thread pool with nproc() threads; returns its size.
int setup_pool();

Outcome run_aging10y(const Options& opts);
Outcome run_shard_study(const Options& opts);
Outcome run_auth_threshold(const Options& opts);
Outcome run_auth_key(const Options& opts);

/// Tiny-size check that the correctness oracles flag injected errors.
/// Returns true when every injection was caught.
bool self_check_studies();
bool self_check_auth();

}  // namespace perfbench
