// Hardware-counter and resource profiling: the machine view under a run.
//
// Three layers, each degrading gracefully where the one below is missing:
//
//  * CounterReader — opens a Linux perf_event counter set (cycles,
//    instructions, branch-misses, cache-references/misses, task-clock) for
//    the calling process (inherit=1, so worker threads are counted) and
//    reads scaled deltas.  Where perf_event_open is forbidden
//    (perf_event_paranoid, containers without a PMU, macOS, Windows) the
//    reader still measures wall + rusage CPU time — `CounterDelta` says
//    which fields are real via `counters_valid`.
//  * StageTimer (manifest.hpp) embeds a CounterReader: whenever counters
//    are live, its stage entry in the run manifest and its trace span grow
//    a "counters" object (IPC, cache-miss rate, GHz), and whenever
//    profiling is on, record_counter_metrics() files the delta in the
//    sharded metrics registry ("prof.*").
//  * ResourceSampler — a background thread polling /proc/self/statm +
//    getrusage on a configurable cadence, emitting a resource.jsonl
//    timeline (validated by scripts/validate_manifest.py --resource) and
//    Chrome counter ("C"-phase) events into the active trace session.
//
// Profiling is off unless AROPUF_PROF=on (or a path in
// AROPUF_PROF_RESOURCE starts just the sampler).  The resolved mode and —
// for the fallback path — the reason counters are unavailable are recorded
// in every run manifest's "profile" section, so a downgraded run is
// distinguishable from a never-profiled one.  DESIGN.md §11 documents the
// counter set, sampling cadence, overhead budget, and fallback matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.hpp"

namespace aropuf::telemetry {

/// Resolved profiling mode for this process.
enum class ProfMode {
  kOff,       ///< AROPUF_PROF unset/off: stages measure wall/CPU only.
  kCounters,  ///< perf_event counters are live.
  kFallback,  ///< Requested but unavailable: rusage/steady-clock only.
};

[[nodiscard]] const char* prof_mode_name(ProfMode mode) noexcept;

struct ProfStatus {
  ProfMode mode = ProfMode::kOff;
  /// Why counters are unavailable ("perf_event_open(cycles) failed: ..."),
  /// empty in kOff/kCounters.
  std::string fallback_reason;
};

/// The process-wide mode, resolved once from AROPUF_PROF (+ a probe of
/// perf_event_open) on first call and cached.
[[nodiscard]] const ProfStatus& prof_status();

/// Drops the cached status and any process profile so tests can flip
/// AROPUF_PROF / AROPUF_PROF_FORCE_FALLBACK between cases.  Not for
/// production code paths.
void prof_reset_for_test();

/// Peak resident set size in KiB from getrusage.  ru_maxrss is KiB on
/// Linux but *bytes* on macOS — this helper normalizes (0 on Windows).
[[nodiscard]] long peak_rss_kib() noexcept;

/// Current resident set size in KiB from /proc/self/statm; falls back to
/// peak_rss_kib() where /proc is unavailable.
[[nodiscard]] long current_rss_kib() noexcept;

/// A counter delta between two points on one reader.  Wall/CPU fields are
/// always real; the hardware fields only when counters_valid.
struct CounterDelta {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< rusage user+system CPU.
  bool counters_valid = false;
  bool cache_valid = false;   ///< cache_references/cache_misses are real.
  bool branch_valid = false;  ///< branch_misses is real.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  double task_clock_ms = 0.0;

  /// Instructions per cycle; 0 when invalid.
  [[nodiscard]] double ipc() const noexcept;
  /// cache_misses / cache_references; 0 when invalid.
  [[nodiscard]] double cache_miss_rate() const noexcept;
  /// cycles / task-clock — the effective clock the counted work ran at.
  [[nodiscard]] double ghz() const noexcept;

  /// {"cycles": ..., "instructions": ..., "ipc": ..., ...} for manifests
  /// and trace args; hardware keys only when the matching *_valid is set.
  [[nodiscard]] JsonValue::Object to_json() const;
};

/// Opens the perf counter set at construction (a no-op unless
/// prof_status().mode == kCounters) and reads multiplex-scaled deltas.
/// Cheap to construct in kOff/kFallback: two clock reads, no syscalls
/// beyond getrusage.
class CounterReader {
 public:
  CounterReader();
  ~CounterReader();

  CounterReader(const CounterReader&) = delete;
  CounterReader& operator=(const CounterReader&) = delete;

  /// True when hardware counters were successfully opened.
  [[nodiscard]] bool counters_active() const noexcept;

  /// Delta from construction to now.  Callable repeatedly.
  [[nodiscard]] CounterDelta sample() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Records a CounterDelta into the sharded metrics registry: always
/// "prof.scopes" (counter) + "prof.scope_wall_ms" (histogram) so the
/// fallback path still produces wall-time metrics; when counters_valid
/// additionally "prof.cycles"/"prof.instructions"/... (counters, summed
/// across shards) and "prof.ipc"/"prof.cache_miss_rate"/"prof.ghz"
/// (gauges, last-write).
void record_counter_metrics(const CounterDelta& delta);

/// Background thread sampling process resources on a fixed cadence.
class ResourceSampler {
 public:
  struct Options {
    /// JSONL timeline path; empty = no file (trace/gauges only).
    std::string jsonl_path;
    /// Sampling cadence; clamped to >= 10 ms.
    double interval_ms = 250.0;
    /// Emit Chrome "C" counter events into the active trace session.
    bool chrome_counters = true;
  };

  explicit ResourceSampler(Options opts);
  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Stops the thread (taking one final sample) and closes the file.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Samples taken so far.
  [[nodiscard]] std::size_t samples() const noexcept;

  /// False once the JSONL stream has failed (disk full, bad path) — the
  /// failure is latched, mirroring CsvWriter, so drivers can exit non-zero.
  [[nodiscard]] bool ok() const noexcept;

  /// The resolved jsonl path ("" when file output is off).
  [[nodiscard]] const std::string& path() const noexcept;

  /// The clamped sampling cadence actually in use.
  [[nodiscard]] double interval_ms() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Starts the env-driven process profile: a whole-run CounterReader, plus a
/// ResourceSampler when AROPUF_PROF=on or AROPUF_PROF_RESOURCE is set
/// (cadence from AROPUF_PROF_INTERVAL_MS).  Idempotent.  Drivers (benches,
/// aropuf_shard, aropuf_auth) call this once after CLI parsing; library
/// code never does.
void start_process_profile();

/// Stops the process profile's sampler (final sample, file closed) and
/// freezes the whole-run counter totals.  Returns false when the resource
/// timeline failed to write.  Idempotent; safe without a prior start.
bool stop_process_profile();

/// The manifest "profile" section — always well-formed so the schema can
/// require it: {"mode", "fallback_reason", "peak_rss_kib"} plus, when the
/// process profile ran, "counters" (live or frozen whole-run totals) and
/// "sampler" ({"interval_ms", "samples", "path", "ok"}).
[[nodiscard]] JsonValue profile_manifest_section();

}  // namespace aropuf::telemetry
