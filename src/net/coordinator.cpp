#include "net/coordinator.hpp"

#include <chrono>
#include <deque>
#include <list>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "telemetry/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#if !defined(_WIN32)
#include <poll.h>
#endif

namespace aropuf::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::int64_t now_unix_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Per-connection protocol state (DESIGN.md §11.4, coordinator's view of the
/// worker):  kAwaitingHello → kIdle ⇄ kBusy → closed.
struct Connection {
  enum class State { kAwaitingHello, kIdle, kBusy };
  Socket socket;
  FrameDecoder decoder;
  State state = State::kAwaitingHello;
  std::string name = "<handshaking>";
  int shard = -1;  ///< job owned while kBusy
  Clock::time_point last_frame = Clock::now();
  /// Clock-offset estimate for this worker (coordinator − worker, ms).
  /// Every timestamped frame yields one sample (local receive time minus the
  /// sender's embedded wall clock); the minimum filters queueing delay away,
  /// so the estimate carries at most one one-way latency of bias.
  double clock_offset_ms = 0.0;
  bool offset_known = false;

  void note_remote_ts(std::int64_t remote_unix_ms) {
    if (remote_unix_ms <= 0) return;
    const double sample = static_cast<double>(now_unix_ms() - remote_unix_ms);
    if (!offset_known || sample < clock_offset_ms) clock_offset_ms = sample;
    offset_known = true;
  }
};

struct Coordinator::Impl {
  CoordinatorConfig config;
  CoordinatorCallbacks callbacks;
  Listener listener;

  // Job bookkeeping, keyed by shard index: attempts count dispatches, the
  // retry budget is `retries` extra attempts.
  enum class JobPhase { kPending, kRunning, kDone, kFailed };
  struct Job {
    JobPhase phase = JobPhase::kPending;
    int attempts = 0;
  };
  std::map<int, Job> jobs;
  std::deque<int> pending;
  std::list<Connection> connections;
  FleetSummary summary;

  void event(const std::string& name, int shard, const std::string& detail) {
    if (callbacks.on_event) callbacks.on_event(name, shard, detail);
  }

  [[nodiscard]] std::size_t unfinished() const {
    std::size_t n = 0;
    for (const auto& [shard, j] : jobs) {
      if (j.phase == JobPhase::kPending || j.phase == JobPhase::kRunning) ++n;
    }
    return n;
  }

  /// Sends one job to an idle worker.  A send failure marks the connection
  /// dead (caller erases it) and requeues the job.
  bool dispatch(Connection& conn, int shard) {
    JobMsg job = config.job_template;
    job.shard = shard;
    job.attempt = jobs[shard].attempts + 1;
    // Trace context: the template's trace_id rides unchanged; the parent-span
    // label pins this specific dispatch so reassigned attempts stay distinct
    // in the merged timeline.
    if (!job.trace_id.empty()) {
      job.parent_span = "dispatch/" + std::to_string(shard) + "#" + std::to_string(job.attempt);
    }
    try {
      conn.socket.send_all(encode_job(job));
    } catch (const std::exception& e) {
      ARO_LOG_WARN("fleet", "job dispatch failed", {"worker", JsonValue(conn.name)},
                   {"error", JsonValue(std::string(e.what()))});
      return false;
    }
    Job& state = jobs[shard];
    ++state.attempts;
    if (state.attempts > 1) ++summary.reassignments;
    state.phase = JobPhase::kRunning;
    conn.state = Connection::State::kBusy;
    conn.shard = shard;
    telemetry::MetricsRegistry::global().counter("fleet.dispatches").add(1);
    event("dispatch", shard, conn.name);
    return true;
  }

  /// Returns an in-flight job to the queue (disconnect, timeout, ERROR
  /// frame, or a fold that threw).  Exhausting the retry budget marks the
  /// job failed; the run keeps going so every other job still lands.
  void requeue_job(int shard, const std::string& why) {
    Job& job = jobs[shard];
    if (job.phase != JobPhase::kRunning) return;
    if (job.attempts <= config.retries) {
      job.phase = JobPhase::kPending;
      pending.push_back(shard);
      telemetry::MetricsRegistry::global().counter("fleet.retries").add(1);
      event("retry", shard, why);
    } else {
      job.phase = JobPhase::kFailed;
      ++summary.jobs_failed;
      event("fail", shard, why + " (retry budget exhausted)");
    }
  }

  /// requeue_job via a connection that owns a job (clears ownership first).
  void reclaim_job(Connection& conn, const std::string& why) {
    if (conn.state != Connection::State::kBusy || conn.shard < 0) return;
    const int shard = conn.shard;
    conn.shard = -1;
    requeue_job(shard, why);
  }

  void drop_connection(std::list<Connection>::iterator it, const std::string& why) {
    event("disconnect", it->shard, it->name + ": " + why);
    reclaim_job(*it, why);
    connections.erase(it);
  }

  /// Handles every complete frame buffered on one connection.  Returns false
  /// when the connection must be dropped (protocol violation, version
  /// mismatch, BYE).
  bool drain_frames(Connection& conn) {
    Frame frame;
    while (true) {
      try {
        if (!conn.decoder.next(&frame)) return true;
      } catch (const FrameError& e) {
        // Poisoned stream: tell the peer why (best effort), then drop.
        try {
          conn.socket.send_all(encode_error({"bad-frame", e.what(), conn.shard}));
        } catch (const std::exception&) {
        }
        ARO_LOG_WARN("fleet", "protocol violation from worker",
                     {"worker", JsonValue(conn.name)},
                     {"error", JsonValue(std::string(e.what()))});
        return false;
      }
      conn.last_frame = Clock::now();
      try {
        if (!handle_frame(conn, frame)) return false;
      } catch (const FrameError& e) {
        try {
          conn.socket.send_all(encode_error({"bad-frame", e.what(), conn.shard}));
        } catch (const std::exception&) {
        }
        return false;
      }
    }
  }

  bool handle_frame(Connection& conn, Frame& frame) {
    switch (frame.type) {
      case FrameType::kHello: {
        const HelloMsg hello = hello_from_json(frame_payload_json(frame));
        if (conn.state != Connection::State::kAwaitingHello) {
          throw FrameError(FrameErrc::kBadPayload, "duplicate HELLO");
        }
        if (hello.protocol != kProtocolVersion) {
          try {
            conn.socket.send_all(encode_error(
                {"version-mismatch",
                 "coordinator speaks protocol " + std::to_string(kProtocolVersion), -1}));
          } catch (const std::exception&) {
          }
          return false;
        }
        conn.name = hello.worker;
        conn.state = Connection::State::kIdle;
        conn.note_remote_ts(hello.ts_unix_ms);
        ++summary.workers_seen;
        telemetry::MetricsRegistry::global().counter("fleet.connects").add(1);
        event("connect", -1, conn.name);
        return true;
      }
      case FrameType::kHeartbeat: {
        if (conn.state == Connection::State::kAwaitingHello) {
          throw FrameError(FrameErrc::kBadPayload, "HEARTBEAT before HELLO");
        }
        telemetry::Heartbeat beat;
        try {
          beat = telemetry::heartbeat_from_json(frame_payload_json(frame));
        } catch (const FrameError&) {
          throw;
        } catch (const std::exception& e) {
          throw FrameError(FrameErrc::kBadPayload,
                           std::string("HEARTBEAT schema: ") + e.what());
        }
        conn.note_remote_ts(beat.ts_unix_ms);
        if (callbacks.on_heartbeat) callbacks.on_heartbeat(beat, conn.name);
        return true;
      }
      case FrameType::kMetrics: {
        if (conn.state == Connection::State::kAwaitingHello) {
          throw FrameError(FrameErrc::kBadPayload, "METRICS before HELLO");
        }
        const MetricsMsg msg = metrics_from_json(frame_payload_json(frame));
        conn.note_remote_ts(msg.ts_unix_ms);
        telemetry::MetricsRegistry::global().counter("fleet.metrics_frames").add(1);
        if (callbacks.on_metrics) callbacks.on_metrics(msg, conn.name, conn.clock_offset_ms);
        return true;
      }
      case FrameType::kResult: {
        if (conn.state != Connection::State::kBusy || conn.shard < 0) {
          throw FrameError(FrameErrc::kBadPayload, "RESULT without an owned job");
        }
        const int shard = conn.shard;
        const telemetry::TraceScope span("fleet.fold", "fleet",
                                         {{"shard", JsonValue(shard)}});
        conn.state = Connection::State::kIdle;
        conn.shard = -1;
        try {
          if (callbacks.on_result) callbacks.on_result(shard, std::move(frame.payload), conn.name);
        } catch (const std::exception& e) {
          // A result that will not fold consumes this attempt, exactly like a
          // worker that crashed before answering.
          ARO_LOG_WARN("fleet", "shard result rejected", {"shard", JsonValue(shard)},
                       {"error", JsonValue(std::string(e.what()))});
          requeue_job(shard, std::string("result rejected: ") + e.what());
          return true;
        }
        jobs[shard].phase = JobPhase::kDone;
        ++summary.jobs_done;
        telemetry::MetricsRegistry::global().counter("fleet.folds").add(1);
        return true;
      }
      case FrameType::kError: {
        const ErrorMsg err = error_from_json(frame_payload_json(frame));
        ARO_LOG_WARN("fleet", "worker reported error", {"worker", JsonValue(conn.name)},
                     {"code", JsonValue(err.code)},
                     {"message", JsonValue(err.message)});
        if (conn.state == Connection::State::kBusy) {
          const std::string why = "worker error " + err.code;
          reclaim_job(conn, why);
          conn.state = Connection::State::kIdle;
          conn.shard = -1;
        }
        return true;
      }
      case FrameType::kBye: {
        event("bye", conn.shard, conn.name);
        return false;  // orderly close; reclaim (if busy) happens in drop
      }
      case FrameType::kJob:
        throw FrameError(FrameErrc::kBadPayload, "JOB frames flow coordinator → worker only");
    }
    return false;
  }
};

Coordinator::Coordinator(Listener listener, CoordinatorConfig config,
                         CoordinatorCallbacks callbacks)
    : impl_(std::make_unique<Impl>()) {
  if (config.jobs.empty()) throw std::runtime_error("fleet: need at least one job");
  for (const int shard : config.jobs) {
    if (shard < 0 || shard >= config.job_template.shards) {
      throw std::runtime_error("fleet: job shard " + std::to_string(shard) + " out of range");
    }
    if (!impl_->jobs.emplace(shard, Impl::Job{}).second) {
      throw std::runtime_error("fleet: job shard " + std::to_string(shard) + " listed twice");
    }
    impl_->pending.push_back(shard);
  }
  impl_->config = std::move(config);
  impl_->callbacks = std::move(callbacks);
  impl_->listener = std::move(listener);
}

Coordinator::~Coordinator() = default;

std::uint16_t Coordinator::port() const { return impl_->listener.port(); }

FleetSummary Coordinator::run() {
#if defined(_WIN32)
  throw std::runtime_error("net: fleet coordinator requires POSIX sockets");
#else
  Impl& impl = *impl_;
  const telemetry::TraceScope span("fleet.coordinate", "fleet",
                                   {{"jobs", JsonValue(static_cast<int>(impl.jobs.size()))}});
  const Clock::time_point t0 = Clock::now();
  Clock::time_point attended = t0;  // last moment a worker was attached

  while (impl.unfinished() > 0) {
    if (impl.config.total_timeout_s > 0 && seconds_since(t0) > impl.config.total_timeout_s) {
      impl.summary.timed_out = true;
      break;
    }

    // Assign queued jobs to idle workers.
    for (auto it = impl.connections.begin(); it != impl.connections.end() && !impl.pending.empty();) {
      if (it->state != Connection::State::kIdle) {
        ++it;
        continue;
      }
      const int shard = impl.pending.front();
      impl.pending.pop_front();
      if (impl.dispatch(*it, shard)) {
        ++it;
      } else {
        // The send already failed, so this connection is dead: put the job
        // back at the head of the queue and cut the worker loose.
        impl.pending.push_front(shard);
        auto doomed = it++;
        impl.drop_connection(doomed, "job send failed");
      }
    }

    // poll(): listener + every connection, 100 ms tick for timeout scans.
    std::vector<struct pollfd> fds;
    fds.push_back({impl.listener.fd(), POLLIN, 0});
    std::vector<std::list<Connection>::iterator> order;
    for (auto it = impl.connections.begin(); it != impl.connections.end(); ++it) {
      fds.push_back({it->socket.fd(), POLLIN, 0});
      order.push_back(it);
    }
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) throw std::runtime_error("fleet: poll failed");

    if (rc > 0 && (fds[0].revents & POLLIN) != 0) {
      try {
        Connection conn;
        conn.socket = impl.listener.accept_connection();
        impl.connections.push_back(std::move(conn));
      } catch (const std::exception& e) {
        ARO_LOG_WARN("fleet", "accept failed", {"error", JsonValue(std::string(e.what()))});
      }
    }

    for (std::size_t i = 0; i < order.size(); ++i) {
      auto it = order[i];
      const short revents = fds[i + 1].revents;
      if (revents == 0) continue;
      bool alive = true;
      std::string why = "peer closed";
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[64 * 1024];
        try {
          const std::size_t n = it->socket.recv_some(buf, sizeof buf);
          if (n == 0) {
            alive = false;
          } else {
            it->decoder.feed(buf, n);
            alive = it->decoder.buffered() <= kMaxResultPayload + kFrameHeaderSize &&
                    impl.drain_frames(*it);
            if (!alive) why = "protocol close";
          }
        } catch (const std::exception& e) {
          alive = false;
          why = e.what();
        }
      }
      if (!alive) impl.drop_connection(it, why);
    }

    // Heartbeat timeout: a busy worker that has sent nothing for too long is
    // presumed dead; its job is reassigned and the connection cut.
    if (impl.config.heartbeat_timeout_s > 0) {
      for (auto it = impl.connections.begin(); it != impl.connections.end();) {
        if (it->state == Connection::State::kBusy &&
            seconds_since(it->last_frame) > impl.config.heartbeat_timeout_s) {
          telemetry::MetricsRegistry::global().counter("fleet.heartbeat_timeouts").add(1);
          impl.event("timeout", it->shard, it->name);
          auto doomed = it++;
          impl.drop_connection(doomed, "heartbeat timeout");
        } else {
          ++it;
        }
      }
      // The same deadline with no worker attached at all: the run is stalled
      // (every worker died before connecting, or none was started).  Say so
      // once per interval; the caller decides whether to keep waiting.
      if (!impl.connections.empty()) {
        attended = Clock::now();
      } else if (seconds_since(attended) > impl.config.heartbeat_timeout_s) {
        attended = Clock::now();
        impl.event("timeout", -1, "no worker connected");
      }
    }
  }

  // Grace drain before the BYE: a worker sends the METRICS snapshot carrying
  // its last job's trace span right AFTER that job's RESULT, so when the
  // final fold ends the loop above those frames are still in flight.  A few
  // short poll rounds pick them up — without this the merged fleet timeline
  // would always be missing the last span of every worker.
  for (int round = 0; round < 4 && !impl.connections.empty(); ++round) {
    std::vector<struct pollfd> fds;
    std::vector<std::list<Connection>::iterator> order;
    for (auto it = impl.connections.begin(); it != impl.connections.end(); ++it) {
      fds.push_back({it->socket.fd(), POLLIN, 0});
      order.push_back(it);
    }
    const int rc = ::poll(fds.data(), fds.size(), 50);
    if (rc <= 0) break;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto it = order[i];
      bool alive = true;
      std::string why = "peer closed";
      char buf[64 * 1024];
      try {
        const std::size_t n = it->socket.recv_some(buf, sizeof buf);
        if (n == 0) {
          alive = false;
        } else {
          it->decoder.feed(buf, n);
          alive = impl.drain_frames(*it);
          if (!alive) why = "protocol close";
        }
      } catch (const std::exception& e) {
        alive = false;
        why = e.what();
      }
      if (!alive) impl.drop_connection(it, why);
    }
  }

  // Orderly shutdown: every surviving worker gets a BYE.
  for (Connection& conn : impl.connections) {
    try {
      conn.socket.send_all(encode_bye());
    } catch (const std::exception&) {
    }
  }
  impl.connections.clear();

  impl.summary.ok = !impl.summary.timed_out && impl.summary.jobs_failed == 0 &&
                    impl.summary.jobs_done == static_cast<int>(impl.jobs.size());
  return impl.summary;
#endif
}

}  // namespace aropuf::net
