#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "telemetry/trace.hpp"

namespace perfbench::trace {

namespace {

struct Acc {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_task_ns = 0;
  std::uint64_t self_serial_ns = 0;
};

// Keyed by the name literal's address: no hashing of strings on the hot path.
// The same name from two translation units may have two addresses; snapshot()
// merges by string.
using AccMap = std::unordered_map<const char*, Acc>;

struct ThreadStats {
  AccMap spans;
  AccMap regions;
};

struct State {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::int64_t> event_budget{0};
  /// telemetry::steady_now_us() minus now_ns() / 1000: maps span starts onto
  /// the trace channel's time base.
  std::int64_t trace_offset_us = 0;
  std::mutex mutex;  // guards `threads` (registration and snapshots)
  std::vector<std::unique_ptr<ThreadStats>> threads;
};

// Never destroyed: pool threads may still hold their ThreadStats at exit.
State& state() {
  static State* s = new State;
  return *s;
}

thread_local ThreadStats* tls_stats = nullptr;
thread_local Span* tls_top = nullptr;

ThreadStats& local_stats() {
  if (tls_stats == nullptr) {
    auto stats = std::make_unique<ThreadStats>();
    tls_stats = stats.get();
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.threads.push_back(std::move(stats));
  }
  return *tls_stats;
}

void emit(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns, std::uint64_t id,
          std::uint64_t parent, std::uint64_t request) {
  State& s = state();
  if (!aropuf::telemetry::trace_enabled()) return;
  if (s.event_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) return;
  aropuf::JsonValue::Object args;
  args["id"] = aropuf::JsonValue(id);
  args["parent"] = aropuf::JsonValue(parent);
  if (request != 0) args["request"] = aropuf::JsonValue(request);
  args["ns"] = aropuf::JsonValue(dur_ns);
  const auto start_us = static_cast<std::int64_t>(start_ns / 1000) + s.trace_offset_us;
  aropuf::telemetry::trace_complete(name, "perfbench",
                                    static_cast<std::uint64_t>(std::max<std::int64_t>(0, start_us)),
                                    std::move(args));
}

Totals to_totals(const Acc& a) {
  Totals t;
  t.count = a.count;
  t.total_s = static_cast<double>(a.total_ns) * 1e-9;
  t.self_task_s = static_cast<double>(a.self_task_ns) * 1e-9;
  t.self_serial_s = static_cast<double>(a.self_serial_ns) * 1e-9;
  return t;
}

void merge_into(std::map<std::string, Totals>& out, const AccMap& in) {
  for (const auto& [name, acc] : in) {
    const Totals t = to_totals(acc);
    Totals& dst = out[name];
    dst.count += t.count;
    dst.total_s += t.total_s;
    dst.self_task_s += t.self_task_s;
    dst.self_serial_s += t.self_serial_s;
  }
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

void enable(bool on, std::size_t event_budget) {
  State& s = state();
  s.event_budget.store(static_cast<std::int64_t>(event_budget), std::memory_order_relaxed);
  s.trace_offset_us = static_cast<std::int64_t>(aropuf::telemetry::steady_now_us()) -
                      static_cast<std::int64_t>(now_ns() / 1000);
  reset();
  s.on.store(on, std::memory_order_release);
}

bool enabled() noexcept { return state().on.load(std::memory_order_relaxed); }

void reset() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& t : s.threads) {
    t->spans.clear();
    t->regions.clear();
  }
}

Snapshot snapshot() {
  State& s = state();
  Snapshot snap;
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& t : s.threads) {
    merge_into(snap.spans, t->spans);
    merge_into(snap.regions, t->regions);
  }
  return snap;
}

Totals Snapshot::span(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? Totals{} : it->second;
}

double Snapshot::region_wall_s() const {
  double wall = 0.0;
  for (const auto& [name, t] : regions) wall += t.total_s;
  return wall;
}

Span::Span(const char* name, std::uint64_t parent, std::uint64_t request) noexcept
    : name_(name) {
  if (!enabled()) return;
  id_ = state().next_id.fetch_add(1, std::memory_order_relaxed);
  request_ = request;
  Span* const top = tls_top;
  if (parent != 0) {
    parent_id_ = parent;
    in_task_ = true;
  } else if (top != nullptr) {
    parent_id_ = top->id_;
    in_task_ = top->in_task_;
    if (request_ == 0) request_ = top->request_;
  }
  outer_ = top;
  tls_top = this;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  tls_top = outer_;
  // Only a same-thread parent's time contains this span; a task span's
  // parent is a region on another thread (or the caller's region wall).
  if (outer_ != nullptr && outer_->id_ == parent_id_) outer_->child_ns_ += dur;
  Acc& acc = local_stats().spans[name_];
  ++acc.count;
  acc.total_ns += dur;
  const std::uint64_t self = dur - std::min(child_ns_, dur);
  (in_task_ ? acc.self_task_ns : acc.self_serial_ns) += self;
  emit(name_, start_ns_, dur, id_, parent_id_, request_);
}

Region::Region(const char* name) noexcept : name_(name) {
  if (!enabled()) return;
  id_ = state().next_id.fetch_add(1, std::memory_order_relaxed);
  if (tls_top != nullptr) parent_id_ = tls_top->id_;
  start_ns_ = now_ns();
}

Region::~Region() {
  if (id_ == 0) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  // The region's wall is accounted on its own; keep it out of the enclosing
  // serial span's self time.
  if (tls_top != nullptr && !tls_top->in_task_) tls_top->child_ns_ += dur;
  Acc& acc = local_stats().regions[name_];
  ++acc.count;
  acc.total_ns += dur;
  emit(name_, start_ns_, dur, id_, parent_id_, 0);
}

}  // namespace perfbench::trace
