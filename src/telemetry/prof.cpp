#include "telemetry/prof.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/cli.hpp"
#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#if !defined(_WIN32)
#include <sys/resource.h>
#include <unistd.h>
#endif

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>

#include <cerrno>
#define AROPUF_HAVE_PERF_EVENT 1
#endif

namespace aropuf::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Clock / rusage primitives shared by readers and the sampler.

double process_cpu_ms() noexcept {
#if !defined(_WIN32)
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 + static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
#else
  return static_cast<double>(std::clock()) * 1000.0 / static_cast<double>(CLOCKS_PER_SEC);
#endif
}

void split_cpu_ms(double& user_ms, double& sys_ms) noexcept {
#if !defined(_WIN32)
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 + static_cast<double>(tv.tv_usec) / 1000.0;
  };
  user_ms = tv_ms(ru.ru_utime);
  sys_ms = tv_ms(ru.ru_stime);
#else
  user_ms = process_cpu_ms();
  sys_ms = 0.0;
#endif
}

/// Threads in this process from /proc/self/status; 0 where unavailable.
int thread_count() noexcept {
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<int>(std::strtol(line.c_str() + 8, nullptr, 10));
    }
  }
#endif
  return 0;
}

// ---------------------------------------------------------------------------
// perf_event plumbing (Linux only).

#if defined(AROPUF_HAVE_PERF_EVENT)

/// One counter spec: type + config + which CounterDelta field it feeds.
struct PerfSpec {
  std::uint32_t type;
  std::uint64_t config;
  const char* name;
};

// Order matters: indexes into CounterReader fd/start arrays.  cycles,
// instructions and task-clock are required for a valid delta; the branch
// and cache counters are best-effort (some PMUs expose only a subset).
constexpr PerfSpec kPerfSpecs[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch-misses"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES, "cache-references"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "cache-misses"},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task-clock"},
};
constexpr int kNumPerfSpecs = 6;
constexpr int kIdxCycles = 0;
constexpr int kIdxInstructions = 1;
constexpr int kIdxBranchMisses = 2;
constexpr int kIdxCacheRefs = 3;
constexpr int kIdxCacheMisses = 4;
constexpr int kIdxTaskClock = 5;

/// Opens one counter for this process, all CPUs it runs on.  inherit=1
/// counts worker threads too — which forbids grouped reads
/// (PERF_FORMAT_GROUP), so counters are opened individually and read
/// per-fd, each with its own TIME_ENABLED/TIME_RUNNING multiplex scaling.
int open_perf_counter(const PerfSpec& spec) noexcept {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;
  attr.inherit = 1;
  attr.exclude_kernel = 1;  // required under perf_event_paranoid >= 1
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      ::syscall(__NR_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1, /*group_fd=*/-1, 0UL));
}

/// Multiplex-scaled counter value; NaN-free (returns raw value when the
/// kernel reports zero running time).
double read_scaled_counter(int fd) noexcept {
  std::uint64_t buf[3] = {0, 0, 0};  // value, time_enabled, time_running
  if (fd < 0) return 0.0;
  const ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n != static_cast<ssize_t>(sizeof(buf))) return 0.0;
  const double value = static_cast<double>(buf[0]);
  if (buf[2] == 0 || buf[1] == buf[2]) return value;
  return value * (static_cast<double>(buf[1]) / static_cast<double>(buf[2]));
}

int read_perf_event_paranoid() noexcept {
  std::ifstream in("/proc/sys/kernel/perf_event_paranoid");
  int level = -2;
  if (in) in >> level;
  return level;
}

#endif  // AROPUF_HAVE_PERF_EVENT

// ---------------------------------------------------------------------------
// Mode resolution.

bool env_truthy(const char* value) noexcept {
  return value != nullptr && (std::strcmp(value, "on") == 0 || std::strcmp(value, "1") == 0 ||
                              std::strcmp(value, "true") == 0);
}

ProfStatus resolve_prof_status() {
  ProfStatus status;
  const char* prof = cli::env_value("AROPUF_PROF");
  if (!env_truthy(prof)) {
    if (prof != nullptr && std::strcmp(prof, "off") != 0 && std::strcmp(prof, "0") != 0 &&
        std::strcmp(prof, "false") != 0) {
      ARO_LOG_WARN("prof", "unrecognized AROPUF_PROF value, profiling stays off",
                   {"value", JsonValue(std::string(prof))});
    }
    return status;  // kOff
  }
  if (cli::env_value("AROPUF_PROF_FORCE_FALLBACK") != nullptr) {
    status.mode = ProfMode::kFallback;
    status.fallback_reason = "forced by AROPUF_PROF_FORCE_FALLBACK";
    return status;
  }
#if defined(AROPUF_HAVE_PERF_EVENT)
  // Probe the two counters a valid delta requires; any refusal (paranoid
  // level, missing PMU in a VM, seccomp) downgrades the whole process.
  for (const int idx : {kIdxCycles, kIdxInstructions}) {
    const int fd = open_perf_counter(kPerfSpecs[idx]);
    if (fd < 0) {
      const int err = errno;
      status.mode = ProfMode::kFallback;
      status.fallback_reason = std::string("perf_event_open(") + kPerfSpecs[idx].name +
                               ") failed: " + std::strerror(err) +
                               " (perf_event_paranoid=" + std::to_string(read_perf_event_paranoid()) +
                               ")";
      return status;
    }
    ::close(fd);
  }
  status.mode = ProfMode::kCounters;
  return status;
#else
  status.mode = ProfMode::kFallback;
  status.fallback_reason = "perf_event unavailable on this platform";
  return status;
#endif
}

struct ProfStatusCache {
  std::mutex mutex;
  bool resolved = false;
  ProfStatus status;
};

ProfStatusCache& status_cache() {
  static ProfStatusCache c;
  return c;
}

}  // namespace

const char* prof_mode_name(ProfMode mode) noexcept {
  switch (mode) {
    case ProfMode::kCounters:
      return "counters";
    case ProfMode::kFallback:
      return "fallback";
    case ProfMode::kOff:
      break;
  }
  return "off";
}

const ProfStatus& prof_status() {
  ProfStatusCache& c = status_cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  if (!c.resolved) {
    c.status = resolve_prof_status();
    c.resolved = true;
    if (c.status.mode == ProfMode::kFallback) {
      ARO_LOG_WARN("prof", "hardware counters unavailable, rusage fallback",
                   {"reason", JsonValue(c.status.fallback_reason)});
    }
  }
  return c.status;
}

// ---------------------------------------------------------------------------
// RSS helpers (shared with bench_fold_throughput).

long peak_rss_kib() noexcept {
#if defined(_WIN32)
  return 0;
#else
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;  // bytes on macOS
#else
  return ru.ru_maxrss;  // KiB on Linux
#endif
#endif
}

long current_rss_kib() noexcept {
#if defined(__linux__)
  // statm field 2 is resident pages.
  std::ifstream in("/proc/self/statm");
  long size_pages = 0;
  long resident_pages = 0;
  if (in >> size_pages >> resident_pages) {
    const long page_kib = ::sysconf(_SC_PAGESIZE) / 1024;
    return resident_pages * page_kib;
  }
#endif
  return peak_rss_kib();
}

// ---------------------------------------------------------------------------
// CounterDelta.

double CounterDelta::ipc() const noexcept {
  if (!counters_valid || cycles == 0) return 0.0;
  return static_cast<double>(instructions) / static_cast<double>(cycles);
}

double CounterDelta::cache_miss_rate() const noexcept {
  if (!counters_valid || !cache_valid || cache_references == 0) return 0.0;
  return static_cast<double>(cache_misses) / static_cast<double>(cache_references);
}

double CounterDelta::ghz() const noexcept {
  if (!counters_valid || task_clock_ms <= 0.0) return 0.0;
  return static_cast<double>(cycles) / (task_clock_ms * 1e6);
}

JsonValue::Object CounterDelta::to_json() const {
  JsonValue::Object obj;
  obj["wall_ms"] = JsonValue(wall_ms);
  obj["cpu_ms"] = JsonValue(cpu_ms);
  if (!counters_valid) return obj;
  obj["cycles"] = JsonValue(cycles);
  obj["instructions"] = JsonValue(instructions);
  obj["ipc"] = JsonValue(ipc());
  obj["ghz"] = JsonValue(ghz());
  obj["task_clock_ms"] = JsonValue(task_clock_ms);
  if (branch_valid) obj["branch_misses"] = JsonValue(branch_misses);
  if (cache_valid) {
    obj["cache_references"] = JsonValue(cache_references);
    obj["cache_misses"] = JsonValue(cache_misses);
    obj["cache_miss_rate"] = JsonValue(cache_miss_rate());
  }
  return obj;
}

// ---------------------------------------------------------------------------
// CounterReader.

struct CounterReader::Impl {
  std::uint64_t start_us = 0;
  double cpu_start_ms = 0.0;
  bool counters = false;
#if defined(AROPUF_HAVE_PERF_EVENT)
  int fds[kNumPerfSpecs] = {-1, -1, -1, -1, -1, -1};
  double start_vals[kNumPerfSpecs] = {0, 0, 0, 0, 0, 0};
#endif
};

CounterReader::CounterReader() : impl_(new Impl) {
  impl_->start_us = steady_now_us();
  impl_->cpu_start_ms = process_cpu_ms();
#if defined(AROPUF_HAVE_PERF_EVENT)
  if (prof_status().mode == ProfMode::kCounters) {
    for (int i = 0; i < kNumPerfSpecs; ++i) impl_->fds[i] = open_perf_counter(kPerfSpecs[i]);
    impl_->counters = impl_->fds[kIdxCycles] >= 0 && impl_->fds[kIdxInstructions] >= 0 &&
                      impl_->fds[kIdxTaskClock] >= 0;
    if (impl_->counters) {
      for (int i = 0; i < kNumPerfSpecs; ++i) {
        impl_->start_vals[i] = read_scaled_counter(impl_->fds[i]);
      }
    }
  }
#endif
}

CounterReader::~CounterReader() {
#if defined(AROPUF_HAVE_PERF_EVENT)
  for (const int fd : impl_->fds) {
    if (fd >= 0) ::close(fd);
  }
#endif
}

bool CounterReader::counters_active() const noexcept { return impl_->counters; }

CounterDelta CounterReader::sample() const {
  CounterDelta d;
  d.wall_ms = static_cast<double>(steady_now_us() - impl_->start_us) / 1000.0;
  d.cpu_ms = process_cpu_ms() - impl_->cpu_start_ms;
  if (d.cpu_ms < 0.0) d.cpu_ms = 0.0;
#if defined(AROPUF_HAVE_PERF_EVENT)
  if (impl_->counters) {
    double deltas[kNumPerfSpecs];
    for (int i = 0; i < kNumPerfSpecs; ++i) {
      deltas[i] = impl_->fds[i] >= 0
                      ? read_scaled_counter(impl_->fds[i]) - impl_->start_vals[i]
                      : -1.0;
      if (deltas[i] < 0.0 && impl_->fds[i] >= 0) deltas[i] = 0.0;
    }
    const auto as_u64 = [](double v) {
      return v > 0.0 ? static_cast<std::uint64_t>(v) : std::uint64_t{0};
    };
    d.counters_valid = true;
    d.cycles = as_u64(deltas[kIdxCycles]);
    d.instructions = as_u64(deltas[kIdxInstructions]);
    d.task_clock_ms = deltas[kIdxTaskClock] > 0.0 ? deltas[kIdxTaskClock] / 1e6 : 0.0;
    d.branch_valid = impl_->fds[kIdxBranchMisses] >= 0;
    d.branch_misses = as_u64(deltas[kIdxBranchMisses]);
    d.cache_valid = impl_->fds[kIdxCacheRefs] >= 0 && impl_->fds[kIdxCacheMisses] >= 0;
    d.cache_references = as_u64(deltas[kIdxCacheRefs]);
    d.cache_misses = as_u64(deltas[kIdxCacheMisses]);
  }
#endif
  return d;
}

// ---------------------------------------------------------------------------
// Metrics.

void record_counter_metrics(const CounterDelta& delta) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("prof.scopes").add(1);
  reg.histogram("prof.scope_wall_ms", 0.0, 1000.0, 50).record(delta.wall_ms);
  if (!delta.counters_valid) return;
  reg.counter("prof.cycles").add(delta.cycles);
  reg.counter("prof.instructions").add(delta.instructions);
  reg.gauge("prof.ipc").set(delta.ipc());
  reg.gauge("prof.ghz").set(delta.ghz());
  if (delta.branch_valid) reg.counter("prof.branch_misses").add(delta.branch_misses);
  if (delta.cache_valid) {
    reg.counter("prof.cache_references").add(delta.cache_references);
    reg.counter("prof.cache_misses").add(delta.cache_misses);
    reg.gauge("prof.cache_miss_rate").set(delta.cache_miss_rate());
  }
}

// ---------------------------------------------------------------------------
// ResourceSampler.

struct ResourceSampler::Impl {
  Options opts;
  std::ofstream out;
  std::thread thread;
  std::mutex mutex;
  std::condition_variable cv;
  bool stopping = false;
  bool stopped = false;
  std::atomic<std::size_t> samples{0};
  std::atomic<bool> ok{true};
  double epoch_unix_ms = 0.0;
  double prev_wall_ms = 0.0;
  double prev_cpu_ms = 0.0;

  void take_sample() {
    // Wall time derived from the steady clock so validator monotonicity
    // holds even across NTP steps.
    const double wall_ms = static_cast<double>(steady_now_us()) / 1000.0;
    double user_ms = 0.0;
    double sys_ms = 0.0;
    split_cpu_ms(user_ms, sys_ms);
    const double cpu_ms = user_ms + sys_ms;
    const long rss = current_rss_kib();
    // ru_maxrss can lag /proc/self/statm by a few pages on some kernels
    // (container memory accounting); clamp so the timeline invariant
    // peak >= current holds by construction.
    const long peak = std::max(peak_rss_kib(), rss);
    const int threads = thread_count();
    const double dt = wall_ms - prev_wall_ms;
    const double cpu_pct = dt > 0.0 ? 100.0 * (cpu_ms - prev_cpu_ms) / dt : 0.0;
    prev_wall_ms = wall_ms;
    prev_cpu_ms = cpu_ms;

    MetricsRegistry& reg = MetricsRegistry::global();
    reg.gauge("proc.rss_kib").set(static_cast<double>(rss));
    reg.gauge("proc.peak_rss_kib").set(static_cast<double>(peak));
    reg.gauge("proc.cpu_pct").set(cpu_pct > 0.0 ? cpu_pct : 0.0);

    if (opts.chrome_counters && trace_enabled()) {
      trace_counter("resource.rss_mib", {{"rss_mib", static_cast<double>(rss) / 1024.0}});
      trace_counter("resource.cpu_ms", {{"user", user_ms}, {"sys", sys_ms}});
      trace_counter("resource.threads", {{"threads", static_cast<double>(threads)}});
    }

    if (out.is_open()) {
      JsonValue::Object line;
      line["ts_unix_ms"] = JsonValue(epoch_unix_ms + wall_ms);
      line["rss_kib"] = JsonValue(static_cast<double>(rss));
      line["peak_rss_kib"] = JsonValue(static_cast<double>(peak));
      line["cpu_user_ms"] = JsonValue(user_ms);
      line["cpu_sys_ms"] = JsonValue(sys_ms);
      line["cpu_pct"] = JsonValue(cpu_pct > 0.0 ? cpu_pct : 0.0);
      line["threads"] = JsonValue(threads);
      out << JsonValue(std::move(line)).dump(/*indent=*/0) << '\n';
      out.flush();
      if (!out) ok.store(false, std::memory_order_relaxed);
    }
    samples.fetch_add(1, std::memory_order_relaxed);
  }

  void run() {
    // The constructor already took the immediate first sample, so the
    // thread sleeps before each of its own.
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      if (cv.wait_for(lock, std::chrono::duration<double, std::milli>(opts.interval_ms),
                      [this] { return stopping; })) {
        break;
      }
      lock.unlock();
      take_sample();
      lock.lock();
    }
  }
};

ResourceSampler::ResourceSampler(Options opts) : impl_(new Impl) {
  impl_->opts = std::move(opts);
  if (impl_->opts.interval_ms < 10.0) impl_->opts.interval_ms = 10.0;
  impl_->epoch_unix_ms = trace_epoch_unix_ms();
  if (!impl_->opts.jsonl_path.empty()) {
    // Timelines are routinely pointed into a run's output directory before
    // the driver has created it (the sampler starts at process startup, the
    // driver makes its --out dir later); create missing parents instead of
    // latching a spurious failure.  Errors fall through to the open below.
    const std::filesystem::path parent =
        std::filesystem::path(impl_->opts.jsonl_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
    impl_->out.open(impl_->opts.jsonl_path, std::ios::trunc);
    if (!impl_->out.is_open()) {
      ARO_LOG_ERROR("prof", "cannot open resource timeline",
                    {"path", JsonValue(impl_->opts.jsonl_path)});
      impl_->ok.store(false, std::memory_order_relaxed);
    }
  }
  // Immediate first sample on the caller's thread: even a run shorter than
  // one interval gets a start-state line (plus stop()'s end-state line).
  impl_->take_sample();
  impl_->thread = std::thread([this] { impl_->run(); });
}

ResourceSampler::~ResourceSampler() { stop(); }

void ResourceSampler::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopped) return;
    impl_->stopped = true;
    impl_->stopping = true;
  }
  impl_->cv.notify_all();
  if (impl_->thread.joinable()) impl_->thread.join();
  // Final sample so short runs still record an end-state line.
  impl_->take_sample();
  if (impl_->out.is_open()) impl_->out.close();
}

std::size_t ResourceSampler::samples() const noexcept {
  return impl_->samples.load(std::memory_order_relaxed);
}

bool ResourceSampler::ok() const noexcept { return impl_->ok.load(std::memory_order_relaxed); }

const std::string& ResourceSampler::path() const noexcept { return impl_->opts.jsonl_path; }

double ResourceSampler::interval_ms() const noexcept { return impl_->opts.interval_ms; }

// ---------------------------------------------------------------------------
// Process profile.

namespace {

struct ProcessProfile {
  std::mutex mutex;
  bool started = false;
  bool stopped = false;
  bool frozen_valid = false;
  CounterDelta frozen;
  std::unique_ptr<CounterReader> reader;
  std::unique_ptr<ResourceSampler> sampler;

  // Destroys the sampler thread at static destruction if a driver forgot
  // to call stop_process_profile().
  ~ProcessProfile() { sampler.reset(); }
};

ProcessProfile& process_profile() {
  static ProcessProfile p;
  return p;
}

}  // namespace

namespace {

/// "%p" in the AROPUF_PROF_RESOURCE path expands to the pid so processes
/// that share one environment don't clobber one timeline.
std::string expand_pid_placeholder(std::string path) {
  const std::size_t pos = path.find("%p");
  if (pos == std::string::npos) return path;
#if !defined(_WIN32)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path.replace(pos, 2, std::to_string(pid));
}

}  // namespace

void start_process_profile() {
  const ProfStatus& status = prof_status();
  const char* resource_path = cli::env_value("AROPUF_PROF_RESOURCE");
  if (status.mode == ProfMode::kOff && resource_path == nullptr) return;

  ProcessProfile& p = process_profile();
  std::lock_guard<std::mutex> lock(p.mutex);
  if (p.started) return;
  p.started = true;
  p.reader = std::make_unique<CounterReader>();
  ResourceSampler::Options opts;
  if (resource_path != nullptr) opts.jsonl_path = expand_pid_placeholder(resource_path);
  if (const char* interval = cli::env_value("AROPUF_PROF_INTERVAL_MS")) {
    const double ms = std::strtod(interval, nullptr);
    if (ms > 0.0) opts.interval_ms = ms;
  }
  p.sampler = std::make_unique<ResourceSampler>(std::move(opts));
  ARO_LOG_INFO("prof", "process profile started",
               {"mode", JsonValue(prof_mode_name(status.mode))},
               {"interval_ms", JsonValue(p.sampler->interval_ms())},
               {"resource_path", JsonValue(p.sampler->path())});
}

bool stop_process_profile() {
  ProcessProfile& p = process_profile();
  std::lock_guard<std::mutex> lock(p.mutex);
  if (!p.started || p.stopped) return true;
  p.stopped = true;
  if (p.reader) {
    p.frozen = p.reader->sample();
    p.frozen_valid = true;
  }
  bool ok = true;
  if (p.sampler) {
    p.sampler->stop();
    ok = p.sampler->ok();
    if (!ok) {
      ARO_LOG_ERROR("prof", "resource timeline write failed",
                    {"path", JsonValue(p.sampler->path())});
    }
  }
  return ok;
}

JsonValue profile_manifest_section() {
  const ProfStatus& status = prof_status();
  JsonValue::Object profile;
  profile["mode"] = JsonValue(prof_mode_name(status.mode));
  profile["fallback_reason"] = JsonValue(status.fallback_reason);
  profile["peak_rss_kib"] = JsonValue(static_cast<double>(peak_rss_kib()));

  ProcessProfile& p = process_profile();
  std::lock_guard<std::mutex> lock(p.mutex);
  if (p.started) {
    const CounterDelta totals = p.frozen_valid ? p.frozen
                                : p.reader     ? p.reader->sample()
                                               : CounterDelta{};
    profile["counters"] = JsonValue(totals.to_json());
    if (p.sampler) {
      JsonValue::Object sampler;
      sampler["interval_ms"] = JsonValue(p.sampler->interval_ms());
      sampler["samples"] = JsonValue(static_cast<std::uint64_t>(p.sampler->samples()));
      sampler["path"] = JsonValue(p.sampler->path());
      sampler["ok"] = JsonValue(p.sampler->ok());
      profile["sampler"] = JsonValue(std::move(sampler));
    }
  }
  return JsonValue(std::move(profile));
}

void prof_reset_for_test() {
  {
    ProcessProfile& p = process_profile();
    std::lock_guard<std::mutex> lock(p.mutex);
    p.sampler.reset();
    p.reader.reset();
    p.started = false;
    p.stopped = false;
    p.frozen_valid = false;
  }
  ProfStatusCache& c = status_cache();
  std::lock_guard<std::mutex> lock(c.mutex);
  c.resolved = false;
}

}  // namespace aropuf::telemetry
