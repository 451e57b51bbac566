#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/cli.hpp"
#include "telemetry/log.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace aropuf {

namespace {

/// True while the current thread is executing inside a parallel_for task;
/// nested calls detect this and run inline to avoid deadlocking the pool.
thread_local bool tls_inside_task = false;

/// Engine instruments, resolved once (registry lookups take a lock; the
/// references are stable for the life of the process).  Counters are relaxed
/// atomics; the histograms shard per worker thread, so recording a chunk
/// time or queue wait never contends.
struct PoolTelemetry {
  telemetry::Counter& jobs;
  telemetry::Counter& chunks;
  telemetry::Counter& indices;
  telemetry::ShardedHistogram& chunk_ms;
  telemetry::ShardedHistogram& queue_wait_us;

  static PoolTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static PoolTelemetry t{
        reg.counter("parallel.jobs"),
        reg.counter("parallel.chunks"),
        reg.counter("parallel.indices"),
        reg.histogram("parallel.chunk_ms", 0.0, 50.0, 50),
        reg.histogram("parallel.queue_wait_us", 0.0, 1000.0, 50),
    };
    return t;
  }
};

int clamp_threads(int threads) {
  if (threads < 1) threads = 1;
  // More threads than indices never helps, but a generous ceiling keeps the
  // knob honest on big machines while bounding accidental "AROPUF_THREADS=1e9".
  constexpr int kMaxThreads = 256;
  return threads > kMaxThreads ? kMaxThreads : threads;
}

}  // namespace

int default_thread_count() {
  if (const char* env = cli::env_value("AROPUF_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1) {
      return clamp_threads(static_cast<int>(parsed));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return clamp_threads(hw == 0 ? 1 : static_cast<int>(hw));
}

struct ParallelExecutor::Impl {
  explicit Impl(int threads) : thread_count(clamp_threads(threads)) {
    workers.reserve(static_cast<std::size_t>(thread_count - 1));
    for (int t = 0; t < thread_count - 1; ++t) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    work_cv.notify_all();
    for (auto& w : workers) w.join();
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stopping || generation != seen_generation; });
        if (stopping) return;
        seen_generation = generation;
      }
      // Dispatch latency: time from job submission to this worker picking it
      // up.  A fat tail here means workers are parked too deep (or the OS is
      // oversubscribed), not that the work itself is slow.
      const std::uint64_t submitted = job_submit_us.load(std::memory_order_acquire);
      PoolTelemetry::get().queue_wait_us.record(
          static_cast<double>(telemetry::steady_now_us() - submitted));
      run_chunks();
      if (active_workers.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }

  /// Claims chunks from the shared cursor until the index space (or the job,
  /// after an exception) is exhausted.  Runs on workers and the caller alike.
  void run_chunks() {
    tls_inside_task = true;
    PoolTelemetry& telem = PoolTelemetry::get();
    for (;;) {
      if (job_failed.load(std::memory_order_acquire)) break;
      const std::size_t begin = next_index.fetch_add(chunk_size, std::memory_order_relaxed);
      if (begin >= job_n) break;
      const std::size_t end = begin + chunk_size < job_n ? begin + chunk_size : job_n;
      telem.chunks.add(1);
      const std::uint64_t chunk_start_us = telemetry::steady_now_us();
      const telemetry::TraceScope span(
          "chunk", "parallel",
          {{"begin", JsonValue(static_cast<std::uint64_t>(begin))},
           {"end", JsonValue(static_cast<std::uint64_t>(end))}});
      try {
        for (std::size_t i = begin; i < end; ++i) (*job_fn)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(exception_mutex);
          if (!job_exception) job_exception = std::current_exception();
        }
        job_failed.store(true, std::memory_order_release);
        break;
      }
      telem.chunk_ms.record(
          static_cast<double>(telemetry::steady_now_us() - chunk_start_us) / 1000.0);
    }
    tls_inside_task = false;
  }

  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    // Nested (inline) calls are not separate jobs; count only top-level ones.
    if (!tls_inside_task) {
      PoolTelemetry& telem = PoolTelemetry::get();
      telem.jobs.add(1);
      telem.indices.add(n);
    }
    if (thread_count == 1 || tls_inside_task || n == 1) {
      // Serial fallback: AROPUF_THREADS=1, nested call, or trivial span.
      // Exceptions propagate naturally from the caller's own frame.
      const bool was_inside = tls_inside_task;
      tls_inside_task = true;
      try {
        for (std::size_t i = 0; i < n; ++i) fn(i);
      } catch (...) {
        tls_inside_task = was_inside;
        throw;
      }
      tls_inside_task = was_inside;
      return;
    }

    // One job at a time; a second caller thread queues behind this mutex.
    std::lock_guard<std::mutex> job_lock(job_mutex);
    const telemetry::TraceScope job_span(
        "parallel_for", "parallel",
        {{"n", JsonValue(static_cast<std::uint64_t>(n))},
         {"threads", JsonValue(thread_count)}});
    job_fn = &fn;
    job_n = n;
    // ~16 chunks per thread balances scheduling overhead (one atomic claim a
    // chunk) against the tail: a job ends when its last chunk does, and the
    // shard study's chip pass mixes a chip's whole aged life with bare
    // build-and-read tasks, on hosts where a thread can stall mid-chunk.
    const std::size_t target_chunks = static_cast<std::size_t>(thread_count) * 16;
    chunk_size = n / target_chunks > 0 ? n / target_chunks : 1;
    next_index.store(0, std::memory_order_relaxed);
    job_failed.store(false, std::memory_order_relaxed);
    job_exception = nullptr;
    job_submit_us.store(telemetry::steady_now_us(), std::memory_order_release);
    active_workers.store(thread_count - 1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++generation;
    }
    work_cv.notify_all();

    run_chunks();  // the calling thread pulls chunks too

    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] { return active_workers.load(std::memory_order_acquire) == 0; });
    }
    job_fn = nullptr;
    if (job_exception) std::rethrow_exception(job_exception);
  }

  const int thread_count;
  std::vector<std::thread> workers;

  // Job hand-off (guarded by `mutex` for the generation/stop signal).
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  bool stopping = false;
  std::atomic<int> active_workers{0};

  // Current job (valid while generation is live; serialized by job_mutex).
  std::mutex job_mutex;
  const std::function<void(std::size_t)>* job_fn = nullptr;
  std::size_t job_n = 0;
  std::size_t chunk_size = 1;
  std::atomic<std::uint64_t> job_submit_us{0};
  std::atomic<std::size_t> next_index{0};
  std::atomic<bool> job_failed{false};
  std::mutex exception_mutex;
  std::exception_ptr job_exception;
};

ParallelExecutor::ParallelExecutor(int threads)
    : impl_(std::make_unique<Impl>(threads > 0 ? threads : default_thread_count())) {}

ParallelExecutor::~ParallelExecutor() = default;

int ParallelExecutor::thread_count() const noexcept { return impl_->thread_count; }

void ParallelExecutor::parallel_for(std::size_t n,
                                    const std::function<void(std::size_t)>& fn) {
  impl_->parallel_for(n, fn);
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ParallelExecutor> g_global_executor;

}  // namespace

namespace {

/// The global pool's size is provenance: manifests record it as a process
/// field (it outlives every run-record reset, so each in-process shard
/// states it), and the log line answers "how many workers actually ran"
/// without attaching a tracer.
void announce_global_pool(int threads) {
  telemetry::set_process_field("threads", JsonValue(threads));
  ARO_LOG_DEBUG("parallel", "global executor ready", {"threads", JsonValue(threads)});
}

}  // namespace

ParallelExecutor& ParallelExecutor::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_executor) {
    g_global_executor = std::make_unique<ParallelExecutor>();
    announce_global_pool(g_global_executor->thread_count());
  }
  return *g_global_executor;
}

void ParallelExecutor::set_global_thread_count(int threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_executor = std::make_unique<ParallelExecutor>(threads);
  announce_global_pool(g_global_executor->thread_count());
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t count, std::size_t index,
                                                std::size_t shards) {
  ARO_REQUIRE(shards >= 1 && index < shards, "shard index out of range");
  const std::size_t base = count / shards;
  const std::size_t rem = count % shards;
  const std::size_t lo = index * base + std::min(index, rem);
  const std::size_t hi = lo + base + (index < rem ? 1 : 0);
  return {lo, hi};
}

void parallel_for_chips(std::size_t n, const std::function<void(std::size_t)>& fn) {
  ParallelExecutor::global().parallel_for(n, fn);
}

}  // namespace aropuf
