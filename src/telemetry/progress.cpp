#include "telemetry/progress.hpp"

namespace aropuf::telemetry {

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
