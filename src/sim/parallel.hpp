// ParallelExecutor — the Monte Carlo execution engine behind the scenario
// loops (E1..E14), uniqueness, and the ECC code search.
//
// Chips in a population study are embarrassingly parallel, so the engine is a
// persistent thread pool with chunked dynamic scheduling: workers claim chunks
// of the index space from a shared atomic cursor, which load-balances uneven
// work (e.g. uniqueness rows of shrinking length) the same way work stealing
// does, without per-task queues.
//
// Determinism is non-negotiable (see DESIGN.md and common/rng.hpp): every
// result must be bit-identical at any thread count.  The engine guarantees
// this by construction, not by luck:
//   * each index's work draws only from its own RngFabric sub-streams and
//     mutates only its own slot, so per-index values never depend on
//     execution order; and
//   * callers reduce per-index results serially in index order (see
//     parallel_map_chips), so floating-point accumulation order is fixed.
//
// Thread count resolution order: explicit constructor argument, else the
// AROPUF_THREADS environment variable, else std::thread::hardware_concurrency.
// AROPUF_THREADS=1 disables the pool entirely — every task runs inline on the
// calling thread, which is also the fallback for nested parallel_for calls.
//
// Exceptions thrown by tasks are captured (first one wins), remaining chunks
// are abandoned, and the exception is rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace aropuf {

class ParallelExecutor {
 public:
  /// `threads` <= 0 selects default_thread_count().  A count of 1 never
  /// spawns workers: parallel_for degenerates to a serial loop.
  explicit ParallelExecutor(int threads = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] int thread_count() const noexcept;

  /// Runs fn(i) for every i in [0, n), distributing chunks over the pool
  /// (the calling thread participates).  Blocks until all indices complete
  /// or a task throws; the first exception is rethrown here.  Nested calls
  /// from inside a task run serially inline.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The process-wide executor used by the scenario engine.  Created lazily
  /// with default_thread_count(); replaced by set_global_thread_count().
  [[nodiscard]] static ParallelExecutor& global();

  /// Replaces the global pool with one of `threads` threads (<= 0 resets to
  /// the default).  Used by the bench binaries' --threads flag and the
  /// determinism tests.  Not safe concurrently with running parallel_for.
  static void set_global_thread_count(int threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Thread count implied by the environment: AROPUF_THREADS when set to a
/// positive integer, otherwise std::thread::hardware_concurrency() (>= 1).
[[nodiscard]] int default_thread_count();

/// Balanced contiguous split of `count` items over `shards`: returns shard
/// `index`'s [lo, hi).  Ranges of all shards exactly tile [0, count).  The
/// one split behind the study shards' chip and pair ranges and the fleet
/// enrollment-store shards.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(std::size_t count,
                                                              std::size_t index,
                                                              std::size_t shards);

/// Convenience entry point used by the Monte Carlo loops:
/// ParallelExecutor::global().parallel_for(n, fn).
void parallel_for_chips(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Computes fn(i) for every index into an index-ordered vector.  The caller
/// reduces the vector serially in index order, which keeps floating-point
/// accumulation bit-identical at any thread count.
template <typename F>
[[nodiscard]] auto parallel_map_chips(std::size_t n, F&& fn) {
  using T = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<T> out(n);
  parallel_for_chips(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace aropuf
