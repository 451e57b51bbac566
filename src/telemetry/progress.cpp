#include "telemetry/progress.hpp"

#include <stdexcept>
#include <utility>

namespace aropuf::telemetry {

JsonValue heartbeat_to_json(const Heartbeat& beat) {
  JsonValue::Object obj;
  obj["ts_unix_ms"] = JsonValue(static_cast<double>(beat.ts_unix_ms));
  obj["shard"] = JsonValue(beat.shard);
  obj["stage"] = JsonValue(beat.stage);
  obj["done"] = JsonValue(static_cast<double>(beat.done));
  obj["total"] = JsonValue(static_cast<double>(beat.total));
  obj["elapsed_ms"] = JsonValue(beat.elapsed_ms);
  return JsonValue(std::move(obj));
}

Heartbeat heartbeat_from_json(const JsonValue& line) {
  Heartbeat beat;
  beat.ts_unix_ms = static_cast<std::int64_t>(line.at("ts_unix_ms").as_number());
  beat.shard = static_cast<int>(line.at("shard").as_number());
  beat.stage = line.at("stage").as_string();
  beat.done = static_cast<std::int64_t>(line.at("done").as_number());
  beat.total = static_cast<std::int64_t>(line.at("total").as_number());
  beat.elapsed_ms = line.number_or("elapsed_ms", 0.0);
  if (beat.shard < 0 || beat.done < 0 || beat.total < 0 || beat.done > beat.total) {
    throw std::runtime_error("heartbeat fields out of range");
  }
  return beat;
}

double EtaEstimator::eta_seconds(double done, double total, double elapsed_s) const noexcept {
  // Only the work performed THIS run carries rate information.
  const double fresh_done = done - baseline_;
  const double fresh_total = total - baseline_;
  if (!(fresh_total > 0.0) || !(fresh_done > 0.0) || !(elapsed_s > 0.0)) return -1.0;
  const double frac = fresh_done / fresh_total;
  if (frac <= 0.01) return -1.0;  // too little signal for a stable estimate
  if (frac >= 1.0) return 0.0;
  return elapsed_s * (fresh_total - fresh_done) / fresh_done;
}

}  // namespace aropuf::telemetry
