// ARPF framed messages: the wire protocol between the study coordinator and
// its workers (tools/aropuf_shard.cpp).
//
// A fleet run moves two kinds of payload over TCP: small JSON control
// documents (job assignment, heartbeats, errors) and whole shard-manifest
// containers coming back from workers (the same bytes the coordinator
// persists to disk — ARPB binary or JSON text, sniffed downstream).  Both ride
// in length-prefixed frames so a stream reader never guesses at message
// boundaries.
//
// Frame layout (all integers little-endian; DESIGN.md §11 is the normative
// spec this header implements — keep them in lockstep):
//
//   offset  size  field
//   0       4     magic "ARPF"
//   4       2     protocol version (currently 1)
//   6       1     message type (FrameType, 1..7)
//   7       1     reserved, must be zero
//   8       4     payload length N
//   12      N     payload bytes
//
// Payload rules by type: HELLO/JOB/HEARTBEAT/ERROR/METRICS carry a UTF-8 JSON
// object (≤ kMaxControlPayload); BYE carries an empty payload; RESULT carries
// an opaque shard-manifest container (≤ kMaxResultPayload) that is NOT parsed at
// this layer.  The decoder is a bounds-checked incremental parser over
// untrusted bytes: it validates every header field before trusting the
// declared length, never lets a length drive an allocation beyond the cap,
// and reports every defect as a typed FrameError — never UB.  A short buffer
// is not an error ("need more bytes"), which is what lets one decoder
// instance sit on a socket and absorb arbitrary packetization.
//
// Versioning: readers accept exactly the versions they know (same policy as
// the ARPB container).  New optional content goes into the JSON payloads,
// which tolerate unknown keys; the 12-byte prefix is law.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

/// TCP fleet transport: ARPF framing, socket primitives, and the
/// coordinator/worker protocol loops (normative spec: DESIGN.md §11).
namespace aropuf::net {

/// First four bytes of every frame; anything else fails fast as kBadMagic.
inline constexpr char kFrameMagic[4] = {'A', 'R', 'P', 'F'};
/// Wire protocol version this build speaks (exact-match policy, see above).
inline constexpr std::uint16_t kProtocolVersion = 1;
/// Fixed header size: magic + version + type + reserved + payload length.
inline constexpr std::size_t kFrameHeaderSize = 12;
/// Control payloads are small JSON documents; anything bigger is hostile.
inline constexpr std::uint32_t kMaxControlPayload = 1u << 20;  // 1 MiB
/// RESULT carries a whole shard manifest; sized for million-chip series.
inline constexpr std::uint32_t kMaxResultPayload = 1u << 30;  // 1 GiB

/// Message types.  Values are wire bytes — never renumber, only append.
enum class FrameType : std::uint8_t {
  kHello = 1,      ///< worker → coordinator: introduce + protocol handshake
  kJob = 2,        ///< coordinator → worker: one shard-job assignment
  kHeartbeat = 3,  ///< worker → coordinator: liveness + stage progress
  kResult = 4,     ///< worker → coordinator: completed shard manifest bytes
  kError = 5,      ///< either direction: structured failure report
  kBye = 6,        ///< either direction: orderly shutdown of the connection
  kMetrics = 7,    ///< worker → coordinator: metrics snapshot + trace spans
};

/// Human-readable name for a frame type ("HELLO", ...; "?" when unknown).
[[nodiscard]] const char* frame_type_name(FrameType type);

/// Typed decode failure codes — the fuzz harness treats FrameError as the one
/// acceptable outcome on garbage input; anything else is a finding.
enum class FrameErrc {
  kBadMagic,            ///< first four bytes are not "ARPF"
  kUnsupportedVersion,  ///< version field is not one this reader knows
  kBadType,             ///< type byte outside FrameType's defined values
  kReservedNonzero,     ///< reserved header byte must be zero
  kOversizedPayload,    ///< declared length exceeds the per-type cap
  kBadPayload,          ///< payload violates the type's schema (not JSON, ...)
};

/// Stable token for a failure code ("bad-magic", ...), used in what() text.
[[nodiscard]] const char* frame_errc_name(FrameErrc code);

/// The one exception the frame layer throws: a typed decode/encode rejection.
class FrameError : public std::runtime_error {
 public:
  /// Builds the what() string as "<errc-name>: <detail>".
  FrameError(FrameErrc code, const std::string& what)
      : std::runtime_error(std::string(frame_errc_name(code)) + ": " + what), code_(code) {}
  /// The machine-readable failure category.
  [[nodiscard]] FrameErrc code() const { return code_; }

 private:
  FrameErrc code_;
};

/// One decoded frame: the type byte plus the raw payload bytes (owned).
struct Frame {
  FrameType type = FrameType::kBye;  ///< validated message type
  std::string payload;               ///< raw payload bytes (may be binary)
};

/// Serializes one frame (header + payload).  Throws FrameError
/// (kOversizedPayload) when the payload exceeds the cap for `type`.
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame decoder over an untrusted byte stream.  feed() appends
/// whatever arrived; next() pops the earliest complete frame.  The header of
/// a partially buffered frame is validated as soon as its 12 bytes exist, so
/// a poisoned stream fails fast instead of waiting for a length that will
/// never arrive.
class FrameDecoder {
 public:
  /// Appends raw bytes from the transport.
  void feed(const char* data, std::size_t size);
  /// Convenience overload over a string_view of transport bytes.
  void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

  /// Pops the earliest complete frame into *frame and returns true; returns
  /// false when more bytes are needed.  Throws FrameError when the buffered
  /// prefix is not a valid frame — the stream is poisoned and the connection
  /// must be dropped (no resynchronization is attempted).
  bool next(Frame* frame);

  /// Bytes currently buffered (partial frame residue).
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Parses a control frame's payload as a JSON object.  Throws FrameError
/// (kBadPayload) on malformed JSON, a non-object root, or a RESULT frame
/// (whose payload is opaque container bytes, never JSON at this layer).
[[nodiscard]] JsonValue frame_payload_json(const Frame& frame);

// --- typed control messages -------------------------------------------------
//
// Thin JSON codecs for the control payloads.  Unknown keys are ignored on
// decode (forward compatibility); missing required keys throw FrameError
// (kBadPayload).  DESIGN.md §11 lists every field normatively.

/// HELLO: the worker's opening message after connecting.
struct HelloMsg {
  std::uint16_t protocol = kProtocolVersion;  ///< worker's protocol version
  std::string worker;                         ///< display name ("host:pid")
  int threads = 0;                            ///< worker thread setting (0 = default)
  /// Worker wall clock at send time (0 = not reported).  First clock-offset
  /// sample for the coordinator's skew estimator (DESIGN.md §11.8).
  std::int64_t ts_unix_ms = 0;
};

/// JOB: one shard assignment.  Carries the full study parameterization so a
/// worker needs no out-of-band configuration (the same property aropuf_shard
/// worker argv has: the job is reproducible from the message alone).
struct JobMsg {
  int shard = 0;                    ///< shard index to run
  int shards = 1;                   ///< total shard count
  int chips = 0;                    ///< total chip population
  std::uint64_t seed = 0;           ///< master RNG seed
  std::vector<double> checkpoints;  ///< aging years, strictly increasing
  std::string run;                  ///< run name echoed into the manifest
  std::string format;               ///< "binary" or "json" result transport
  int attempt = 1;                  ///< 1-based dispatch attempt (telemetry)
  /// Trace context (optional; empty = untraced).  The coordinator stamps its
  /// run-wide trace id and a parent-span label ("dispatch/<shard>#<attempt>")
  /// so worker spans land under the fleet timeline.  Workers that predate
  /// these keys ignore them (unknown-key tolerance).
  std::string trace_id;     ///< fleet-wide trace identifier (hex token)
  std::string parent_span;  ///< coordinator-side parent-span label
};

/// ERROR: structured failure report.  `code` is a stable machine-readable
/// token (DESIGN.md §11.5); `message` is for humans.
struct ErrorMsg {
  std::string code;     ///< stable token: "version-mismatch", "bad-frame", "job-failed"
  std::string message;  ///< free-form human-readable detail
  int shard = -1;       ///< affected shard, or -1 when not job-specific
};

/// METRICS: one worker observability snapshot (DESIGN.md §11.8).  Sent right
/// after HELLO, after every finished job, and periodically while a job runs;
/// always advisory — a coordinator may ignore it, losing one never stalls a
/// run.  `metrics` is the worker's metrics-registry snapshot (the same
/// document shape the run manifest embeds); `spans` are drained Chrome "X"
/// trace events on the worker's steady-clock base, rebased by the receiver
/// via `trace_epoch_unix_ms` plus its clock-offset estimate.
struct MetricsMsg {
  std::int64_t ts_unix_ms = 0;      ///< worker wall clock at snapshot time
  std::int64_t seq = 0;             ///< 0-based snapshot counter per connection
  double trace_epoch_unix_ms = 0.0; ///< worker wall clock at its steady-clock zero
  int jobs_done = 0;                ///< jobs this worker has completed so far
  int jobs_in_flight = 0;           ///< jobs currently running (0 or 1)
  JsonValue metrics;                ///< metrics-registry snapshot (JSON object)
  JsonValue::Array spans;           ///< drained trace events (may be empty)
};

/// Encodes a HELLO payload as a JSON object.
[[nodiscard]] JsonValue hello_to_json(const HelloMsg& msg);
/// Decodes a HELLO payload; throws FrameError (kBadPayload) on schema violation.
[[nodiscard]] HelloMsg hello_from_json(const JsonValue& doc);

/// Encodes a JOB payload as a JSON object.
[[nodiscard]] JsonValue job_to_json(const JobMsg& msg);
/// Decodes a JOB payload; throws FrameError (kBadPayload) on schema violation
/// (out-of-range shard index, non-positive chips, empty checkpoints, ...).
[[nodiscard]] JobMsg job_from_json(const JsonValue& doc);

/// Encodes an ERROR payload as a JSON object.
[[nodiscard]] JsonValue error_to_json(const ErrorMsg& msg);
/// Decodes an ERROR payload; throws FrameError (kBadPayload) on schema violation.
[[nodiscard]] ErrorMsg error_from_json(const JsonValue& doc);

/// Encodes a METRICS payload as a JSON object.
[[nodiscard]] JsonValue metrics_to_json(const MetricsMsg& msg);
/// Decodes a METRICS payload; throws FrameError (kBadPayload) on schema
/// violation (non-positive timestamp, negative counters, non-object
/// `metrics`, non-array `spans`, ...).
[[nodiscard]] MetricsMsg metrics_from_json(const JsonValue& doc);

/// Convenience encoders: typed message → framed bytes ready for the socket.
[[nodiscard]] std::string encode_hello(const HelloMsg& msg);
[[nodiscard]] std::string encode_job(const JobMsg& msg);
[[nodiscard]] std::string encode_error(const ErrorMsg& msg);
[[nodiscard]] std::string encode_metrics(const MetricsMsg& msg);
[[nodiscard]] std::string encode_bye();

}  // namespace aropuf::net
