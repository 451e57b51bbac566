#include "net/worker.hpp"

#include <chrono>
#include <exception>

#include "net/socket.hpp"
#include "telemetry/log.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace aropuf::net {

namespace {

std::int64_t now_unix_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string default_worker_name(const WorkerConfig& config) {
  if (!config.name.empty()) return config.name;
#if !defined(_WIN32)
  return config.host + ":worker." + std::to_string(::getpid());
#else
  return config.host + ":worker";
#endif
}

/// Sends one HEARTBEAT frame carrying the heartbeat schema
/// (telemetry/progress.hpp).  Send failures are swallowed: progress is
/// advisory and a dead socket will surface on the next blocking read anyway.
void send_heartbeat(Socket& socket, int shard, const std::string& stage, std::int64_t done,
                    std::int64_t total, std::int64_t start_ms) {
  telemetry::Heartbeat beat;
  beat.ts_unix_ms = now_unix_ms();
  beat.shard = shard;
  beat.stage = stage;
  beat.done = done;
  beat.total = total;
  beat.elapsed_ms = static_cast<double>(beat.ts_unix_ms - start_ms);
  try {
    socket.send_all(
        encode_frame(FrameType::kHeartbeat, telemetry::heartbeat_to_json(beat).dump()));
  } catch (const std::exception&) {
  }
}

/// Sends one METRICS frame: registry snapshot plus every trace span buffered
/// since the previous send.  Advisory like heartbeats — failures are
/// swallowed, the socket's real state surfaces on the next blocking read.
void send_metrics(Socket& socket, std::int64_t seq, int jobs_done, int jobs_in_flight) {
  MetricsMsg msg;
  msg.ts_unix_ms = now_unix_ms();
  msg.seq = seq;
  msg.trace_epoch_unix_ms = telemetry::trace_epoch_unix_ms();
  msg.jobs_done = jobs_done;
  msg.jobs_in_flight = jobs_in_flight;
  msg.metrics = telemetry::MetricsRegistry::global().snapshot_json();
  msg.spans = telemetry::drain_trace_events();
  try {
    socket.send_all(encode_metrics(msg));
  } catch (const std::exception&) {
  }
}

}  // namespace

WorkerExit run_worker(const WorkerConfig& config, const JobRunner& runner) {
  const std::string worker_name = default_worker_name(config);
  // Observability plane: spans must exist to ship, so open a buffer-only
  // session when the operator did not request a trace file of their own.
  if (!telemetry::trace_enabled()) telemetry::start_trace_buffered();
  telemetry::set_trace_process_label("worker " + worker_name);
  telemetry::set_trace_thread_label("worker main");

  Socket socket;
  try {
    const telemetry::TraceScope span("fleet.connect", "fleet",
                                     {{"host", JsonValue(config.host)}});
    socket = tcp_connect(config.host, config.port, config.connect_timeout_s);
    socket.send_all(
        encode_hello({kProtocolVersion, worker_name, config.threads, now_unix_ms()}));
  } catch (const std::exception& e) {
    ARO_LOG_ERROR("fleet", "worker cannot reach coordinator",
                  {"host", JsonValue(config.host)},
                  {"error", JsonValue(std::string(e.what()))});
    return WorkerExit::kLost;
  }

  // Snapshot counters: seq orders frames per connection; the initial send
  // right after HELLO carries the connect span, so even a worker that dies
  // on its first job has contributed to the merged timeline.
  std::int64_t metrics_seq = 0;
  int jobs_done = 0;
  std::uint64_t last_metrics_us = telemetry::steady_now_us();
  send_metrics(socket, metrics_seq++, jobs_done, 0);

  FrameDecoder decoder;
  bool ran_a_job = false;
  char buf[64 * 1024];
  while (true) {
    Frame frame;
    bool have_frame = false;
    try {
      while (!(have_frame = decoder.next(&frame))) {
        const std::size_t n = socket.recv_some(buf, sizeof buf);
        if (n == 0) {
          ARO_LOG_WARN("fleet", "coordinator closed the connection");
          return WorkerExit::kLost;
        }
        decoder.feed(buf, n);
      }
    } catch (const FrameError& e) {
      ARO_LOG_ERROR("fleet", "protocol violation from coordinator",
                    {"error", JsonValue(std::string(e.what()))});
      return WorkerExit::kProtocol;
    } catch (const std::exception& e) {
      ARO_LOG_ERROR("fleet", "connection lost", {"error", JsonValue(std::string(e.what()))});
      return WorkerExit::kLost;
    }

    switch (frame.type) {
      case FrameType::kJob: {
        JobMsg job;
        try {
          job = job_from_json(frame_payload_json(frame));
        } catch (const FrameError& e) {
          ARO_LOG_ERROR("fleet", "malformed JOB frame",
                        {"error", JsonValue(std::string(e.what()))});
          return WorkerExit::kProtocol;
        }
        if (config.abort_first_job && !ran_a_job) {
          // Test hook: die like a SIGKILLed worker — hard close, no farewell.
          socket.close();
          return WorkerExit::kAborted;
        }
        ran_a_job = true;
        telemetry::MetricsRegistry::global().counter("fleet.jobs_run").add(1);
        const std::int64_t start_ms = now_unix_ms();
        std::string result;
        bool failed = false;
        std::string failure;
        {
          // The job span closes before the post-job METRICS send below, so
          // the frame that announces the finished job also carries its span.
          const telemetry::TraceScope span("fleet.job", "fleet",
                                           {{"shard", JsonValue(job.shard)},
                                            {"attempt", JsonValue(job.attempt)},
                                            {"trace_id", JsonValue(job.trace_id)},
                                            {"parent", JsonValue(job.parent_span)}});
          try {
            result = runner(job, [&](const std::string& stage, std::int64_t done,
                                     std::int64_t total) {
              send_heartbeat(socket, job.shard, stage, done, total, start_ms);
              // Periodic snapshot, time-gated so tight progress loops never
              // flood the coordinator with registry dumps.
              const std::uint64_t now_us = telemetry::steady_now_us();
              if (config.metrics_interval_s > 0 &&
                  static_cast<double>(now_us - last_metrics_us) >=
                      config.metrics_interval_s * 1e6) {
                last_metrics_us = now_us;
                send_metrics(socket, metrics_seq++, jobs_done, 1);
              }
            });
          } catch (const std::exception& e) {
            failed = true;
            failure = e.what();
          }
        }
        if (failed) {
          ARO_LOG_ERROR("fleet", "shard job failed", {"shard", JsonValue(job.shard)},
                        {"error", JsonValue(failure)});
          try {
            socket.send_all(encode_error({"job-failed", failure, job.shard}));
          } catch (const std::exception&) {
            return WorkerExit::kLost;
          }
          send_metrics(socket, metrics_seq++, jobs_done, 0);
          break;
        }
        try {
          socket.send_all(encode_frame(FrameType::kResult, result));
        } catch (const std::exception& e) {
          ARO_LOG_ERROR("fleet", "result send failed", {"shard", JsonValue(job.shard)},
                        {"error", JsonValue(std::string(e.what()))});
          return WorkerExit::kLost;
        }
        ++jobs_done;
        last_metrics_us = telemetry::steady_now_us();
        send_metrics(socket, metrics_seq++, jobs_done, 0);
        break;
      }
      case FrameType::kBye:
        ARO_LOG_INFO("fleet", "dismissed by coordinator");
        return WorkerExit::kBye;
      case FrameType::kError: {
        ErrorMsg err;
        try {
          err = error_from_json(frame_payload_json(frame));
        } catch (const FrameError&) {
          return WorkerExit::kProtocol;
        }
        ARO_LOG_ERROR("fleet", "coordinator reported error", {"code", JsonValue(err.code)},
                      {"message", JsonValue(err.message)});
        if (err.code == "version-mismatch") return WorkerExit::kProtocol;
        break;  // advisory; keep serving
      }
      case FrameType::kHello:
      case FrameType::kHeartbeat:
      case FrameType::kResult:
      case FrameType::kMetrics:
        ARO_LOG_ERROR("fleet", "unexpected frame from coordinator",
                      {"type", JsonValue(std::string(frame_type_name(frame.type)))});
        return WorkerExit::kProtocol;
    }
  }
}

}  // namespace aropuf::net
