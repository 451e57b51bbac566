#include "telemetry/trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <set>
#include <vector>

#include "common/cli.hpp"
#include "telemetry/log.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#else
#include <process.h>
#endif

namespace aropuf::telemetry {

namespace {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase = 'X';  // 'X' complete span, 'C' counter sample
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;
  int tid = 0;
  JsonValue::Object args;
};

/// The OS pid, so traces of several processes loaded together stay distinct.
int trace_pid() noexcept {
#if !defined(_WIN32)
  return static_cast<int>(::getpid());
#else
  return ::_getpid();
#endif
}

struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mutex;
  std::string path;
  std::vector<TraceEvent> events;

  TraceState() {
    if (const char* env = cli::env_value("AROPUF_TRACE")) {
      path = env;
      events.reserve(1024);
      enabled.store(true, std::memory_order_release);
      // Write whatever was collected even if the program never calls
      // flush_trace() itself (bench binaries get tracing "for free").
      std::atexit([] { flush_trace(); });
    }
  }
};

TraceState& state() {
  // Intentionally leaked.  The constructor registers a std::atexit flush,
  // and atexit handlers run in reverse registration order — a plain static
  // would register its destructor *after* that handler (the destructor is
  // enrolled once the constructor body finishes), so ~TraceState would run
  // first and the exit-time flush would read destroyed events.  Leaking
  // keeps the buffer alive until the flush has written it.
  static TraceState* s = new TraceState();
  return *s;
}

int next_thread_id() noexcept {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// One "M" metadata record.  Carries ts/tid too so consumers (and the CI
/// validator) can require those fields on every event.
JsonValue metadata_event(const char* kind, int pid, int tid, const std::string& label) {
  JsonValue::Object meta;
  meta["name"] = JsonValue(kind);
  meta["ph"] = JsonValue("M");
  meta["ts"] = JsonValue(std::uint64_t{0});
  meta["pid"] = JsonValue(pid);
  meta["tid"] = JsonValue(tid);
  JsonValue::Object meta_args;
  meta_args["name"] = JsonValue(label);
  meta["args"] = JsonValue(std::move(meta_args));
  return JsonValue(std::move(meta));
}

JsonValue events_to_json(const std::vector<TraceEvent>& events) {
  const int pid = trace_pid();
  JsonValue::Array trace_events;
  trace_events.reserve(events.size() + 2);
  // Process/thread naming metadata makes the timeline readable in
  // chrome://tracing and Perfetto: a named process row and "thread <tid>"
  // lanes.
  trace_events.emplace_back(metadata_event("process_name", pid, 0, "aropuf"));
  std::set<int> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  for (const int tid : tids) {
    trace_events.emplace_back(
        metadata_event("thread_name", pid, tid, "thread " + std::to_string(tid)));
  }
  for (const TraceEvent& e : events) {
    JsonValue::Object obj;
    obj["name"] = JsonValue(e.name);
    obj["cat"] = JsonValue(e.category);
    obj["ph"] = JsonValue(std::string(1, e.phase));
    obj["ts"] = JsonValue(e.ts_us);
    if (e.phase == 'X') obj["dur"] = JsonValue(e.dur_us);
    obj["pid"] = JsonValue(pid);
    obj["tid"] = JsonValue(e.tid);
    if (!e.args.empty()) obj["args"] = JsonValue(e.args);
    trace_events.emplace_back(std::move(obj));
  }
  JsonValue::Object root;
  root["traceEvents"] = JsonValue(std::move(trace_events));
  root["displayTimeUnit"] = JsonValue("ms");
  return JsonValue(std::move(root));
}

}  // namespace

bool trace_enabled() noexcept { return state().enabled.load(std::memory_order_relaxed); }

std::uint64_t steady_now_us() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock::now() - start).count());
}

int trace_thread_id() noexcept {
  thread_local const int tid = next_thread_id();
  return tid;
}

void start_trace(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.path = path;
  s.events.clear();
  s.events.reserve(1024);
  s.enabled.store(true, std::memory_order_release);
}

void start_trace_buffered() { start_trace(std::string()); }

std::size_t trace_event_count() noexcept {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.events.size();
}

JsonValue::Array drain_trace_events() {
  TraceState& s = state();
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.enabled.load(std::memory_order_relaxed)) return {};
    events.swap(s.events);
  }
  JsonValue::Array out;
  out.reserve(events.size());
  for (TraceEvent& e : events) {
    JsonValue::Object obj;
    obj["name"] = JsonValue(std::move(e.name));
    obj["cat"] = JsonValue(std::move(e.category));
    obj["ph"] = JsonValue(std::string(1, e.phase));
    obj["ts"] = JsonValue(e.ts_us);
    if (e.phase == 'X') obj["dur"] = JsonValue(e.dur_us);
    obj["tid"] = JsonValue(e.tid);
    if (!e.args.empty()) obj["args"] = JsonValue(std::move(e.args));
    out.emplace_back(std::move(obj));
  }
  return out;
}

double trace_epoch_unix_ms() {
  const double now_unix_ms =
      static_cast<double>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count());
  return now_unix_ms - static_cast<double>(steady_now_us()) / 1000.0;
}

bool flush_trace() {
  TraceState& s = state();
  std::vector<TraceEvent> events;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.enabled.load(std::memory_order_relaxed)) return true;
    s.enabled.store(false, std::memory_order_release);
    events.swap(s.events);
    path.swap(s.path);
  }
  // Buffer-only session: the caller drained what it wanted; ending the
  // session discards whatever was never drained.
  if (path.empty()) return true;
  const std::string json = events_to_json(events).dump(/*indent=*/0);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    ARO_LOG_ERROR("trace", "cannot open trace output file", {"path", JsonValue(path)});
    return false;
  }
  out << json << '\n';
  out.flush();
  if (!out) {
    ARO_LOG_ERROR("trace", "trace write failed", {"path", JsonValue(path)},
                  {"events", JsonValue(static_cast<std::uint64_t>(events.size()))});
    return false;
  }
  ARO_LOG_INFO("trace", "trace written", {"path", JsonValue(path)},
               {"events", JsonValue(static_cast<std::uint64_t>(events.size()))});
  return true;
}

namespace {

void append_event(TraceEvent e) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  s.events.push_back(std::move(e));
}

}  // namespace

void trace_counter(std::string_view name, std::initializer_list<TraceCounterValue> values) {
  if (!trace_enabled()) return;
  TraceEvent e;
  e.name.assign(name);
  e.category = "resource";
  e.phase = 'C';
  e.ts_us = steady_now_us();
  e.tid = trace_thread_id();
  for (const auto& [series, value] : values) e.args[std::string(series)] = JsonValue(value);
  append_event(std::move(e));
}

void trace_complete(std::string_view name, std::string_view category, std::uint64_t start_us,
                    JsonValue::Object args) {
  if (!trace_enabled()) return;
  const std::uint64_t end_us = steady_now_us();
  TraceEvent e;
  e.name.assign(name);
  e.category.assign(category);
  e.ts_us = start_us;
  e.dur_us = end_us > start_us ? end_us - start_us : 0;
  e.tid = trace_thread_id();
  e.args = std::move(args);
  append_event(std::move(e));
}

TraceScope::TraceScope(std::string_view name, std::string_view category)
    : TraceScope(name, category, {}) {}

TraceScope::TraceScope(std::string_view name, std::string_view category,
                       std::initializer_list<TraceArg> args) {
  if (!trace_enabled()) return;
  active_ = true;
  start_us_ = steady_now_us();
  name_.assign(name);
  category_.assign(category);
  for (const auto& [key, value] : args) args_[std::string(key)] = value;
}

TraceScope::~TraceScope() {
  if (!active_) return;
  const std::uint64_t end_us = steady_now_us();
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  // The session may have flushed while the span was open; drop it then.
  if (!s.enabled.load(std::memory_order_relaxed)) return;
  TraceEvent e;
  e.name = std::move(name_);
  e.category = std::move(category_);
  e.ts_us = start_us_;
  e.dur_us = end_us - start_us_;
  e.tid = trace_thread_id();
  e.args = std::move(args_);
  s.events.push_back(std::move(e));
}

}  // namespace aropuf::telemetry
