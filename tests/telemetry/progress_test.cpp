#include "telemetry/progress.hpp"

#include <gtest/gtest.h>

namespace aropuf::telemetry {
namespace {

TEST(EtaEstimatorTest, FreshRunMatchesLinearExtrapolation) {
  EtaEstimator eta;
  // Half the work done in 10s → 10s remain.
  EXPECT_DOUBLE_EQ(eta.eta_seconds(50.0, 100.0, 10.0), 10.0);
  // A quarter done in 30s → 90s remain.
  EXPECT_DOUBLE_EQ(eta.eta_seconds(25.0, 100.0, 30.0), 90.0);
}

TEST(EtaEstimatorTest, BaselineExcludesResumedWorkFromTheRate) {
  // Regression for the stale --resume ETA: 50 of 100 units were already
  // complete when tracking began (resumed shards).  After 10s this run has
  // performed 25 fresh units with 25 left → the honest ETA is 10s.
  EtaEstimator eta;
  eta.add_baseline(50.0);
  EXPECT_DOUBLE_EQ(eta.eta_seconds(75.0, 100.0, 10.0), 10.0);

  // The pre-fix formula credited all 75 units to the 10s elapsed and printed
  // 10 * (1 - 0.75) / 0.75 ≈ 3.3s — a rate inflated 3x by work this run
  // never performed.  Make sure that stale value can never come back.
  EXPECT_GT(eta.eta_seconds(75.0, 100.0, 10.0), 9.9);
}

TEST(EtaEstimatorTest, NoEstimateWithoutFreshProgress) {
  EtaEstimator eta;
  eta.add_baseline(50.0);
  // Only resumed work so far: no rate information, no estimate.
  EXPECT_LT(eta.eta_seconds(50.0, 100.0, 10.0), 0.0);
  // Under 1% fresh progress: too little signal.
  EXPECT_LT(eta.eta_seconds(50.1, 100.0, 10.0), 0.0);
  // Degenerate inputs never divide by zero.
  EXPECT_LT(eta.eta_seconds(0.0, 0.0, 0.0), 0.0);
  EXPECT_LT(eta.eta_seconds(10.0, 100.0, 0.0), 0.0);
}

TEST(EtaEstimatorTest, CompleteWorkReportsZero) {
  EtaEstimator eta;
  eta.add_baseline(10.0);
  EXPECT_DOUBLE_EQ(eta.eta_seconds(100.0, 100.0, 5.0), 0.0);
}

}  // namespace
}  // namespace aropuf::telemetry
