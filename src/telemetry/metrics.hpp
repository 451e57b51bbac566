// Process-wide metrics registry: counters, gauges, and sharded histograms.
//
// The Monte Carlo engine increments these from every worker thread, so the
// write paths are built for contention:
//  * Counter / Gauge — one relaxed atomic op, no locks;
//  * ShardedHistogram — each thread records into its own shard (created on
//    first use, owned by the histogram), so recording never takes the
//    registry lock; snapshot() merges the shards with RunningStats::merge,
//    the same reduction pattern the scenario loops use.
//
// Names are dotted strings ("parallel.chunk_ms").  Instruments live for the
// lifetime of the registry (never deleted), so hot paths cache references in
// function-local statics; reset() zeroes values in place and keeps every
// reference valid — that is what the tests rely on.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/statistics.hpp"

namespace aropuf::telemetry {

/// Monotonic counter (resets only via MetricsRegistry::reset).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
///
/// Cross-process merge semantics (the sharded-run aggregator in
/// telemetry/aggregate.hpp): a gauge is a point-in-time fact, so summing or
/// averaging values from different shards is meaningless.  The aggregator
/// resolves every gauge to its max across shards ("policy": "max") and
/// always retains every shard's value alongside the resolved one, keyed by
/// the shard index the manifest self-reports.  A merged manifest therefore
/// never silently averages (or drops) per-shard gauge readings.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged view of a histogram at one point in time.
struct HistogramSnapshot {
  RunningStats stats;               ///< count/mean/stddev/min/max over all samples
  double lo = 0.0;                  ///< bin range lower edge
  double hi = 0.0;                  ///< bin range upper edge
  std::vector<std::uint64_t> bins;  ///< out-of-range samples clamp to the edge bins
};

/// Fixed-range histogram sharded per recording thread.  record() touches only
/// the calling thread's shard; snapshot() merges shards in creation order.
class ShardedHistogram {
 public:
  ShardedHistogram(double lo, double hi, std::size_t bins);
  ~ShardedHistogram();

  ShardedHistogram(const ShardedHistogram&) = delete;
  ShardedHistogram& operator=(const ShardedHistogram&) = delete;

  /// Lock-free after the calling thread's first record (shard creation takes
  /// the shard-list mutex once per thread).
  void record(double x) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Zeroes every shard in place (concurrent record() calls may survive).
  void reset() noexcept;

 private:
  struct Shard;
  Shard& local_shard() noexcept;

  const double lo_;
  const double hi_;
  const std::size_t bins_;
  const std::uint64_t id_;  ///< process-unique, never reused (thread-local cache key)

  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Registry of named instruments.  Lookup takes a mutex; hot paths should
/// look up once and keep the returned reference.
class MetricsRegistry {
 public:
  [[nodiscard]] static MetricsRegistry& global();

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// The (lo, hi, bins) shape is fixed by the first caller; later callers get
  /// the same instrument regardless of the shape they pass.
  [[nodiscard]] ShardedHistogram& histogram(const std::string& name, double lo, double hi,
                                            std::size_t bins);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean,
  /// stddev, m2, min, max, lo, hi, bins[]}}} — embedded in run manifests.
  /// When a shard index has been declared (set_shard_index), the snapshot
  /// also carries {"shard": k} so the shard-merge aggregator can attribute
  /// every gauge reading to its producing process.  `m2` is the raw Welford
  /// second moment: it round-trips exactly (stddev does not), which is what
  /// lets the aggregator merge histogram stats via RunningStats::merge.
  [[nodiscard]] JsonValue snapshot_json() const;

  /// Declares which shard of a multi-process run this process is (>= 0).
  /// Unset (-1) by default; single-process runs never call this.
  void set_shard_index(int shard) noexcept { shard_index_.store(shard, std::memory_order_relaxed); }
  [[nodiscard]] int shard_index() const noexcept {
    return shard_index_.load(std::memory_order_relaxed);
  }

  /// Zeroes every instrument in place.  References stay valid.
  void reset();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mutex_;
  std::atomic<int> shard_index_{-1};
  // std::map keeps snapshot output sorted by name (canonical manifests).
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ShardedHistogram>> histograms_;
};

}  // namespace aropuf::telemetry
