#include "puf/puf_config.hpp"

#include "common/check.hpp"

namespace aropuf {

void PufConfig::validate() const {
  ARO_REQUIRE(num_ros >= 2 && num_ros % 2 == 0, "RO count must be even and >= 2");
  ARO_REQUIRE(stages >= 3 && stages % 2 == 1, "stage count must be odd and >= 3");
  ARO_REQUIRE(array_width >= 1, "array width must be positive");
  ARO_REQUIRE(measurement_window > 0.0, "measurement window must be positive");
  lifetime_profile.validate();
}

PufConfig PufConfig::conventional(int num_ros, int stages) {
  PufConfig c;
  c.design = PufDesign::kConventional;
  c.label = "conventional";
  c.num_ros = num_ros;
  c.stages = stages;
  c.pairing = PairingStrategy::kDistantDedicated;
  c.lifetime_profile = StressProfile::conventional_always_on();
  c.validate();
  return c;
}

PufConfig PufConfig::aro(int num_ros, int stages) {
  PufConfig c;
  c.design = PufDesign::kAro;
  c.label = "ARO";
  c.num_ros = num_ros;
  c.stages = stages;
  c.pairing = PairingStrategy::kAdjacentDedicated;
  // One key evaluation measures all 128 pairs at a 20 us window each:
  // ~10 ms of oscillation per evaluation (measurement plus repeats), 20 evaluations per day.
  c.lifetime_profile = StressProfile::aro_gated(20.0, 10e-3);
  c.validate();
  return c;
}

}  // namespace aropuf
