#include "sim/experiment_config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace aropuf {
namespace {

TEST(TechnologyJsonTest, RoundTripsEveryField) {
  TechnologyParams t = TechnologyParams::cmos65();
  t.nbti_a *= 1.5;
  t.counter_bits = 20;
  const TechnologyParams back = technology_from_json(to_json(t));
  EXPECT_EQ(back.name, t.name);
  EXPECT_DOUBLE_EQ(back.vdd_nominal, t.vdd_nominal);
  EXPECT_DOUBLE_EQ(back.nbti_a, t.nbti_a);
  EXPECT_DOUBLE_EQ(back.sigma_vth_local, t.sigma_vth_local);
  EXPECT_EQ(back.counter_bits, 20);
  EXPECT_DOUBLE_EQ(back.delay_k, t.delay_k);
  EXPECT_DOUBLE_EQ(back.layout_systematic_amplitude, t.layout_systematic_amplitude);
}

TEST(TechnologyJsonTest, NamedNodeIsCompleteConfig) {
  const auto t = technology_from_json(JsonValue::parse(R"({"name": "cmos45"})"));
  const auto reference = TechnologyParams::cmos45();
  EXPECT_DOUBLE_EQ(t.vdd_nominal, reference.vdd_nominal);
  EXPECT_DOUBLE_EQ(t.nbti_a, reference.nbti_a);
}

TEST(TechnologyJsonTest, OverridesApplyOnTopOfNode) {
  const auto t = technology_from_json(
      JsonValue::parse(R"({"name": "cmos90", "sigma_vth_local": 0.02})"));
  EXPECT_DOUBLE_EQ(t.sigma_vth_local, 0.02);
  EXPECT_DOUBLE_EQ(t.vdd_nominal, TechnologyParams::cmos90().vdd_nominal);
}

TEST(TechnologyJsonTest, LoadedConfigIsValidated) {
  EXPECT_THROW(technology_from_json(JsonValue::parse(R"({"vth_n": 5.0})")),
               std::invalid_argument);
}

TEST(PopulationJsonTest, FileRoundTrip) {
  PopulationConfig pop;
  pop.tech = TechnologyParams::cmos65();
  pop.chips = 17;
  pop.seed = 424242;
  const std::string path = std::string(::testing::TempDir()) + "/pop.json";
  save_population_config(pop, path);
  const PopulationConfig back = load_population_config(path);
  EXPECT_EQ(back.chips, 17);
  EXPECT_EQ(back.seed, 424242U);
  EXPECT_EQ(back.tech.name, "cmos65");
  EXPECT_DOUBLE_EQ(back.tech.vdd_nominal, pop.tech.vdd_nominal);
}

TEST(PopulationJsonTest, IntegerKeysMustHoldExactInRangeIntegers) {
  // chips in [1, INT_MAX], seed in [0, 2^53]; counter_bits must fit an int
  // before validate() checks its width.
  const PopulationConfig edge =
      population_from_json(JsonValue::parse(R"({"chips": 2147483647, "seed": 9007199254740992})"));
  EXPECT_EQ(edge.chips, 2147483647);
  EXPECT_EQ(edge.seed, 9007199254740992U);
  EXPECT_EQ(population_from_json(JsonValue::parse(R"({"chips": 1, "seed": 0})")).seed, 0U);
  for (const char* doc :
       {R"({"chips": 2.5, "seed": -1})", R"({"chips": 2.5})", R"({"chips": 0})",
        R"({"chips": -3})", R"({"chips": 2147483648})", R"({"chips": 1e300})",
        R"({"seed": -1})", R"({"seed": 0.5})", R"({"seed": 9007199254740994})",
        R"({"seed": 1e20})", R"({"technology": {"counter_bits": 8.5}})",
        R"({"technology": {"counter_bits": 1e10}})",
        R"({"technology": {"counter_bits": -1e10}})"}) {
    EXPECT_THROW(population_from_json(JsonValue::parse(doc)), std::invalid_argument) << doc;
  }
  // The writer refuses a seed it could only round: 2^53 + 1 reads back as 2^53.
  PopulationConfig big;
  big.seed = (std::uint64_t{1} << 53) + 1;
  EXPECT_THROW((void)to_json(big), std::invalid_argument);
}

TEST(PopulationJsonTest, MissingFileThrows) {
  EXPECT_THROW(load_population_config("/no/such/file.json"), std::runtime_error);
}

TEST(PopulationJsonTest, ConfigDrivesIdenticalResults) {
  // A config that round-trips through disk must reproduce the experiment
  // bit-exactly.
  PopulationConfig pop;
  pop.chips = 6;
  pop.seed = 99;
  const std::string path = std::string(::testing::TempDir()) + "/exp.json";
  save_population_config(pop, path);
  const PopulationConfig loaded = load_population_config(path);
  const auto direct = run_uniqueness(pop, PufConfig::aro(64));
  const auto via_file = run_uniqueness(loaded, PufConfig::aro(64));
  EXPECT_DOUBLE_EQ(direct.uniqueness.stats.mean(), via_file.uniqueness.stats.mean());
}

}  // namespace
}  // namespace aropuf
