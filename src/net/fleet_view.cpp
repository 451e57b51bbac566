#include "net/fleet_view.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace aropuf::net {

namespace {

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string prom_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void prom_metric(std::string* out, const std::string& name, const std::string& help,
                 const std::vector<std::pair<std::string, double>>& samples) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " gauge\n";
  for (const auto& [labels, value] : samples) {
    *out += name + labels + " " + JsonValue(value).dump() + "\n";
  }
}

}  // namespace

FleetView::FleetView(int total_jobs, std::string run, std::string trace_id,
                     std::int64_t start_unix_ms)
    : total_jobs_(total_jobs),
      run_(std::move(run)),
      trace_id_(std::move(trace_id)),
      start_unix_ms_(start_unix_ms) {}

std::size_t FleetView::worker_index(const std::string& name, std::int64_t now_unix_ms) {
  const auto it = index_by_name_.find(name);
  if (it != index_by_name_.end()) {
    workers_[it->second].last_seen_unix_ms = now_unix_ms;
    return it->second;
  }
  WorkerView w;
  w.name = name;
  // Synthetic pid: the coordinator is process 1, workers 2+k in first-seen
  // order — stable across renders and independent of real host pids, which
  // can collide across machines.
  w.pid = 2 + static_cast<int>(workers_.size());
  w.connected = true;
  w.first_seen_unix_ms = now_unix_ms;
  w.last_seen_unix_ms = now_unix_ms;
  workers_.push_back(std::move(w));
  index_by_name_[name] = workers_.size() - 1;
  return workers_.size() - 1;
}

void FleetView::push_history(const std::string& event, int shard, const std::string& detail,
                             std::int64_t now_unix_ms) {
  if (history_.size() >= kFleetHistoryCap) {
    history_.erase(history_.begin());
  }
  history_.push_back({now_unix_ms, event, shard, detail});
}

void FleetView::note_event(const std::string& event, int shard, const std::string& detail,
                           std::int64_t now_unix_ms) {
  push_history(event, shard, detail, now_unix_ms);
  if (event == "connect") {
    workers_[worker_index(detail, now_unix_ms)].connected = true;
    return;
  }
  if (event == "dispatch") {
    const std::size_t w = worker_index(detail, now_unix_ms);
    WorkerView& worker = workers_[w];
    ++worker.jobs_assigned;
    worker.busy_shard = shard;
    worker.dispatch_unix_ms = now_unix_ms;
    // The new job has reported no progress yet; the last job's stage would
    // read as this one's.
    worker.last_stage.clear();
    worker.stage_done = 0;
    worker.stage_total = 0;
    owner_by_shard_[shard] = w;
    if (dispatches_by_shard_[shard]++ >= 1) ++reassignments_;
    return;
  }
  if (event == "retry" || event == "fail") {
    // `detail` is the reason, not the worker — the shard-ownership map set
    // at dispatch attributes the failed attempt to the right worker.
    const auto owner = owner_by_shard_.find(shard);
    if (owner != owner_by_shard_.end()) {
      WorkerView& worker = workers_[owner->second];
      ++worker.failed_attempts;
      if (worker.busy_shard == shard) worker.busy_shard = -1;
      owner_by_shard_.erase(owner);
    }
    if (event == "fail") ++shards_failed_;
    return;
  }
  if (event == "disconnect" || event == "bye") {
    // disconnect details read "<name>: <why>"; bye carries the bare name.
    std::string name = detail;
    const std::size_t sep = detail.find(": ");
    if (index_by_name_.find(name) == index_by_name_.end() && sep != std::string::npos) {
      name = detail.substr(0, sep);
    }
    const auto it = index_by_name_.find(name);
    if (it != index_by_name_.end()) workers_[it->second].connected = false;
    return;
  }
  // "timeout" and future events: history entry only; the follow-up retry or
  // fail event does the per-worker charging.
}

void FleetView::note_result(int shard, const std::string& worker, std::int64_t now_unix_ms) {
  const std::size_t w = worker_index(worker, now_unix_ms);
  WorkerView& view = workers_[w];
  ++view.jobs_done;
  if (view.busy_shard == shard) view.busy_shard = -1;
  if (view.dispatch_unix_ms > 0) {
    completed_job_ms_.push_back(static_cast<double>(now_unix_ms - view.dispatch_unix_ms));
  }
  owner_by_shard_.erase(shard);
  ++shards_done_;
}

void FleetView::note_heartbeat(const telemetry::Heartbeat& beat, const std::string& worker,
                               std::int64_t now_unix_ms) {
  WorkerView& view = workers_[worker_index(worker, now_unix_ms)];
  view.last_stage = beat.stage;
  view.stage_done = beat.done;
  view.stage_total = beat.total;
  if (beat.elapsed_ms > 0.0) {
    view.units_per_sec = static_cast<double>(beat.done) / (beat.elapsed_ms / 1000.0);
  }
}

void FleetView::note_metrics(const MetricsMsg& msg, const std::string& worker,
                             double clock_offset_ms, std::int64_t now_unix_ms) {
  const std::size_t w = worker_index(worker, now_unix_ms);
  WorkerView& view = workers_[w];
  view.clock_offset_ms = clock_offset_ms;
  view.offset_known = true;
  ++view.snapshots;
  if (msg.metrics.is_object()) view.metrics = msg.metrics;
  for (const JsonValue& span : msg.spans) {
    if (!span.is_object()) continue;
    if (span.string_or("name", "") == "fleet.job") {
      view.busy_ms += span.number_or("dur", 0.0) / 1000.0;
    }
    RawSpan raw;
    raw.unix_us = msg.trace_epoch_unix_ms * 1000.0 + span.number_or("ts", 0.0);
    raw.event = span;
    raw.worker = static_cast<int>(w);
    spans_.push_back(std::move(raw));
  }
}

void FleetView::add_local_events(JsonValue::Array events, double epoch_unix_ms,
                                 const std::string& label) {
  coordinator_label_ = label;
  for (JsonValue& span : events) {
    if (!span.is_object()) continue;
    RawSpan raw;
    raw.unix_us = epoch_unix_ms * 1000.0 + span.number_or("ts", 0.0);
    raw.event = std::move(span);
    raw.worker = -1;
    spans_.push_back(std::move(raw));
  }
}

JsonValue FleetView::merged_trace_json() const {
  struct Corrected {
    double ts_us = 0.0;
    int pid = 1;
    const JsonValue* event = nullptr;
  };
  std::vector<Corrected> corrected;
  corrected.reserve(spans_.size());
  for (const RawSpan& raw : spans_) {
    Corrected c;
    c.event = &raw.event;
    if (raw.worker >= 0) {
      const WorkerView& w = workers_[static_cast<std::size_t>(raw.worker)];
      c.pid = w.pid;
      // Rebasing happens at render time with the final offset estimate, so
      // spans shipped before the estimate settled still line up.
      c.ts_us = raw.unix_us + w.clock_offset_ms * 1000.0;
    } else {
      c.ts_us = raw.unix_us;
    }
    corrected.push_back(c);
  }
  double t0_us = 0.0;
  if (!corrected.empty()) {
    t0_us = corrected.front().ts_us;
    for (const Corrected& c : corrected) t0_us = std::min(t0_us, c.ts_us);
  }
  std::stable_sort(corrected.begin(), corrected.end(),
                   [](const Corrected& a, const Corrected& b) { return a.ts_us < b.ts_us; });

  JsonValue::Array trace_events;
  trace_events.reserve(corrected.size() + 2 * (workers_.size() + 1));
  // Naming metadata first: one process row per participant, named threads.
  std::map<std::pair<int, int>, std::string> thread_names;
  auto meta = [&trace_events](const char* kind, int pid, int tid, const std::string& name) {
    JsonValue::Object m;
    m["name"] = JsonValue(kind);
    m["ph"] = JsonValue("M");
    m["ts"] = JsonValue(0.0);
    m["pid"] = JsonValue(pid);
    m["tid"] = JsonValue(tid);
    JsonValue::Object args;
    args["name"] = JsonValue(name);
    m["args"] = JsonValue(std::move(args));
    trace_events.emplace_back(std::move(m));
  };
  meta("process_name", 1, 0, coordinator_label_);
  for (std::size_t k = 0; k < workers_.size(); ++k) {
    meta("process_name", workers_[k].pid, 0,
         "worker[" + std::to_string(k) + "] " + workers_[k].name);
  }
  for (const Corrected& c : corrected) {
    const int tid = static_cast<int>(c.event->number_or("tid", 0.0));
    const std::string tname = c.event->string_or("tname", "");
    auto& slot = thread_names[{c.pid, tid}];
    if (slot.empty()) slot = tname.empty() ? "thread " + std::to_string(tid) : tname;
  }
  for (const auto& [key, name] : thread_names) {
    meta("thread_name", key.first, key.second, name);
  }
  for (const Corrected& c : corrected) {
    JsonValue::Object obj = c.event->as_object();
    obj.erase("tname");
    obj["pid"] = JsonValue(c.pid);
    obj["ts"] = JsonValue(std::max(0.0, c.ts_us - t0_us));
    if (!obj.count("tid")) obj["tid"] = JsonValue(0);
    trace_events.emplace_back(std::move(obj));
  }

  JsonValue::Object root;
  root["traceEvents"] = JsonValue(std::move(trace_events));
  root["displayTimeUnit"] = JsonValue("ms");
  root["trace_id"] = JsonValue(trace_id_);
  root["run"] = JsonValue(run_);
  return JsonValue(std::move(root));
}

JsonValue FleetView::fleet_metrics_json(std::int64_t now_unix_ms) const {
  const double elapsed_ms = static_cast<double>(now_unix_ms - start_unix_ms_);
  double mean_job_ms = 0.0;
  for (const double d : completed_job_ms_) mean_job_ms += d;
  if (!completed_job_ms_.empty()) mean_job_ms /= static_cast<double>(completed_job_ms_.size());
  // Straggler flag: a busy worker whose current job has run well past the
  // mean completed-job duration (2× with a 1 s floor so short smoke runs
  // never false-positive).
  const double straggle_after_ms = std::max(2.0 * mean_job_ms, 1000.0);

  JsonValue::Object root;
  root["schema"] = JsonValue("aropuf-fleet-metrics");
  root["schema_version"] = JsonValue(1);
  root["run"] = JsonValue(run_);
  root["trace_id"] = JsonValue(trace_id_);
  root["created_unix_ms"] = JsonValue(static_cast<double>(now_unix_ms));
  root["started_unix_ms"] = JsonValue(static_cast<double>(start_unix_ms_));
  root["elapsed_ms"] = JsonValue(elapsed_ms);

  JsonValue::Object shards;
  shards["total"] = JsonValue(total_jobs_);
  shards["done"] = JsonValue(shards_done_);
  shards["failed"] = JsonValue(shards_failed_);
  shards["reassigned"] = JsonValue(reassignments_);
  shards["in_flight"] = JsonValue(static_cast<int>(owner_by_shard_.size()));
  shards["queued"] = JsonValue(std::max(
      0, total_jobs_ - shards_done_ - shards_failed_ - static_cast<int>(owner_by_shard_.size())));
  root["shards"] = JsonValue(std::move(shards));

  JsonValue::Array workers;
  workers.reserve(workers_.size());
  for (const WorkerView& w : workers_) {
    JsonValue::Object obj;
    obj["name"] = JsonValue(w.name);
    obj["pid"] = JsonValue(w.pid);
    obj["connected"] = JsonValue(w.connected);
    obj["jobs_assigned"] = JsonValue(w.jobs_assigned);
    obj["jobs_done"] = JsonValue(w.jobs_done);
    obj["failed_attempts"] = JsonValue(w.failed_attempts);
    obj["busy_shard"] = JsonValue(w.busy_shard);
    obj["snapshots"] = JsonValue(static_cast<double>(w.snapshots));
    obj["clock_offset_ms"] = JsonValue(w.offset_known ? w.clock_offset_ms : 0.0);
    obj["clock_offset_known"] = JsonValue(w.offset_known);
    obj["last_stage"] = JsonValue(w.last_stage);
    obj["stage_done"] = JsonValue(static_cast<double>(w.stage_done));
    obj["stage_total"] = JsonValue(static_cast<double>(w.stage_total));
    obj["units_per_sec"] = JsonValue(w.units_per_sec);
    obj["busy_ms"] = JsonValue(w.busy_ms);
    obj["utilization"] =
        JsonValue(elapsed_ms > 0.0 ? std::min(1.0, std::max(0.0, w.busy_ms / elapsed_ms)) : 0.0);
    const double job_elapsed_ms =
        w.busy_shard >= 0 ? static_cast<double>(now_unix_ms - w.dispatch_unix_ms) : 0.0;
    obj["job_elapsed_ms"] = JsonValue(job_elapsed_ms);
    obj["straggler"] = JsonValue(w.busy_shard >= 0 && job_elapsed_ms > straggle_after_ms);
    obj["first_seen_unix_ms"] = JsonValue(static_cast<double>(w.first_seen_unix_ms));
    obj["last_seen_unix_ms"] = JsonValue(static_cast<double>(w.last_seen_unix_ms));
    obj["metrics"] = w.metrics.is_object() ? w.metrics : JsonValue(JsonValue::Object{});
    workers.emplace_back(std::move(obj));
  }
  root["workers"] = JsonValue(std::move(workers));

  JsonValue::Array history;
  history.reserve(history_.size());
  for (const FleetHistoryEntry& e : history_) {
    JsonValue::Object obj;
    obj["ts_unix_ms"] = JsonValue(static_cast<double>(e.ts_unix_ms));
    obj["event"] = JsonValue(e.event);
    obj["shard"] = JsonValue(e.shard);
    obj["detail"] = JsonValue(e.detail);
    history.emplace_back(std::move(obj));
  }
  root["history"] = JsonValue(std::move(history));
  return JsonValue(std::move(root));
}

std::string FleetView::prometheus_text() const {
  std::string out;
  prom_metric(&out, "aropuf_fleet_shards_total", "shard jobs in the plan",
              {{"", static_cast<double>(total_jobs_)}});
  prom_metric(&out, "aropuf_fleet_shards_done", "shard jobs whose result was folded",
              {{"", static_cast<double>(shards_done_)}});
  prom_metric(&out, "aropuf_fleet_shards_failed", "shard jobs that exhausted the retry budget",
              {{"", static_cast<double>(shards_failed_)}});
  prom_metric(&out, "aropuf_fleet_reassignments", "dispatches beyond each shard's first attempt",
              {{"", static_cast<double>(reassignments_)}});
  prom_metric(&out, "aropuf_fleet_workers", "workers that completed the HELLO handshake",
              {{"", static_cast<double>(workers_.size())}});

  std::vector<std::pair<std::string, double>> done, assigned, failed, offset, busy, snaps;
  for (const WorkerView& w : workers_) {
    const std::string labels = "{worker=\"" + prom_escape(w.name) + "\"}";
    done.emplace_back(labels, static_cast<double>(w.jobs_done));
    assigned.emplace_back(labels, static_cast<double>(w.jobs_assigned));
    failed.emplace_back(labels, static_cast<double>(w.failed_attempts));
    offset.emplace_back(labels, w.offset_known ? w.clock_offset_ms : 0.0);
    busy.emplace_back(labels, w.busy_ms);
    snaps.emplace_back(labels, static_cast<double>(w.snapshots));
  }
  prom_metric(&out, "aropuf_fleet_worker_jobs_done", "accepted results per worker", done);
  prom_metric(&out, "aropuf_fleet_worker_jobs_assigned", "dispatches per worker", assigned);
  prom_metric(&out, "aropuf_fleet_worker_failed_attempts",
              "dispatches charged back per worker", failed);
  prom_metric(&out, "aropuf_fleet_worker_clock_offset_ms",
              "coordinator-minus-worker clock estimate", offset);
  prom_metric(&out, "aropuf_fleet_worker_busy_ms", "summed fleet.job span duration", busy);
  prom_metric(&out, "aropuf_fleet_worker_metrics_snapshots", "METRICS frames received", snaps);

  // Hot profiling instruments ("prof.*" hardware counters / "proc.*"
  // resource gauges) from each worker's latest METRICS snapshot, exported
  // with a metric label so scrapers see fleet-wide IPC and RSS without a
  // per-instrument metric family.
  std::vector<std::pair<std::string, double>> profile;
  for (const WorkerView& w : workers_) {
    if (!w.metrics.is_object()) continue;
    for (const char* kind : {"counters", "gauges"}) {
      if (!w.metrics.contains(kind) || !w.metrics.at(kind).is_object()) continue;
      for (const auto& [name, v] : w.metrics.at(kind).as_object()) {
        if (!v.is_number()) continue;
        if (name.rfind("prof.", 0) != 0 && name.rfind("proc.", 0) != 0) continue;
        profile.emplace_back("{worker=\"" + prom_escape(w.name) + "\",metric=\"" +
                                 prom_escape(name) + "\"}",
                             v.as_number());
      }
    }
  }
  if (!profile.empty()) {
    prom_metric(&out, "aropuf_fleet_worker_profile",
                "profiling-layer counters/gauges from the last METRICS snapshot", profile);
  }
  return out;
}

}  // namespace aropuf::net
