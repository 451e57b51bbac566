// Reproducibility invariants: every result in EXPERIMENTS.md must regenerate
// bit-exactly from (master seed, config).  These tests pin the properties
// that make that true.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "keygen/sha256.hpp"
#include "puf/ro_puf.hpp"
#include "sim/scenarios.hpp"
#include "sim/shard_study.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {
namespace {

/// SHA-256 over a stream of integers, doubles (by bit pattern) and strings,
/// each serialized little-endian so the digest does not depend on the host's
/// byte order.
class Digest {
 public:
  void add(std::uint64_t v) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    sha_.update(bytes);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    sha_.update({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  [[nodiscard]] std::string hex() { return Sha256::to_hex(sha_.finish()); }

 private:
  Sha256 sha_;
};

void add_device(Digest& d, const Transistor& t) {
  d.add(static_cast<std::uint64_t>(t.type == DeviceType::kPmos ? 1 : 0));
  d.add(t.vth_fresh);
  d.add(t.vth_tempco);
  d.add(t.nbti_sensitivity);
  d.add(t.hci_sensitivity);
}

TEST(DeterminismTest, ChipConstructionIsPure) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  const RngFabric fabric(123);
  const RoPuf a(tech, PufConfig::aro(64), fabric.child("chip", 0));
  const RoPuf b(tech, PufConfig::aro(64), fabric.child("chip", 0));
  for (std::size_t i = 0; i < a.oscillators().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.oscillators()[i].frequency(a.nominal_op()),
                     b.oscillators()[i].frequency(b.nominal_op()));
  }
}

TEST(DeterminismTest, EvaluationOrderDoesNotMatter) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  const RoPuf chip(tech, PufConfig::aro(64), RngFabric(5).child("chip", 0));
  const auto op = chip.nominal_op();
  // Evaluating index 7 first, then 3, equals evaluating 3 then 7: streams
  // are derived from (eval index, bit), not from call order.
  const BitVector r7_first = chip.evaluate(op, 7);
  const BitVector r3_second = chip.evaluate(op, 3);
  const BitVector r3_first = chip.evaluate(op, 3);
  const BitVector r7_second = chip.evaluate(op, 7);
  EXPECT_EQ(r7_first, r7_second);
  EXPECT_EQ(r3_first, r3_second);
}

TEST(DeterminismTest, AgingDoesNotPerturbRngStreams) {
  const TechnologyParams tech = TechnologyParams::cmos90();
  RoPuf chip(tech, PufConfig::aro(64), RngFabric(6).child("chip", 0));
  const auto op = chip.nominal_op();
  const BitVector before = chip.evaluate(op, 9);
  chip.age_years(10.0);
  chip.reset_aging();
  EXPECT_EQ(chip.evaluate(op, 9), before);
}

TEST(DeterminismTest, PopulationsAreIndexStable) {
  // Chip i of an N-chip population equals chip i of an M-chip population:
  // growing a study never silently reshuffles existing dies.
  const TechnologyParams tech = TechnologyParams::cmos90();
  const RngFabric fabric(77);
  const auto small = make_population(tech, PufConfig::aro(64), 3, fabric);
  const auto large = make_population(tech, PufConfig::aro(64), 6, fabric);
  const auto op = small[0].nominal_op();
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].evaluate(op, 0), large[i].evaluate(op, 0));
  }
}

TEST(DeterminismTest, ScenarioResultsAreBitExactAcrossRuns) {
  PopulationConfig pop;
  pop.chips = 6;
  pop.seed = 99;
  const auto u1 = run_uniqueness(pop, PufConfig::conventional(128));
  const auto u2 = run_uniqueness(pop, PufConfig::conventional(128));
  EXPECT_DOUBLE_EQ(u1.uniqueness.stats.mean(), u2.uniqueness.stats.mean());
  EXPECT_DOUBLE_EQ(u1.uniformity.mean(), u2.uniformity.mean());
  EXPECT_DOUBLE_EQ(u1.aliasing.stddev(), u2.aliasing.stddev());
}

/// Bit patterns of a device's fields, for exact comparison.
std::array<std::uint64_t, 5> device_bits(const Transistor& t) {
  return {static_cast<std::uint64_t>(t.type == DeviceType::kPmos ? 1 : 0),
          std::bit_cast<std::uint64_t>(t.vth_fresh), std::bit_cast<std::uint64_t>(t.vth_tempco),
          std::bit_cast<std::uint64_t>(t.nbti_sensitivity),
          std::bit_cast<std::uint64_t>(t.hci_sensitivity)};
}

TEST(DeterminismTest, DesignsShareSiliconUnderSameFabric) {
  // The conventional vs ARO comparison is paired: built from the same chip
  // fabric, the two designs' RO arrays carry identical process variation
  // (only pairing and stress differ), device for device and bit for bit.
  // The shard study relies on it: it builds each die once and reads it as
  // both designs.
  const RngFabric fabric(31);
  for (const TechnologyParams& tech :
       {TechnologyParams::cmos90(), TechnologyParams::cmos65(), TechnologyParams::cmos45()}) {
    SCOPED_TRACE(tech.name);
    const RoPuf conv(tech, PufConfig::conventional(), fabric.child("chip", 2));
    const RoPuf aro(tech, PufConfig::aro(), fabric.child("chip", 2));
    ASSERT_EQ(conv.oscillators().size(), 256U);
    ASSERT_EQ(aro.oscillators().size(), 256U);
    std::size_t devices = 0;
    for (std::size_t i = 0; i < conv.oscillators().size(); ++i) {
      const RingOscillator& a = conv.oscillators()[i];
      const RingOscillator& b = aro.oscillators()[i];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.position().x),
                std::bit_cast<std::uint64_t>(b.position().x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.position().y),
                std::bit_cast<std::uint64_t>(b.position().y));
      ASSERT_EQ(a.stages().size(), b.stages().size());
      for (std::size_t s = 0; s < a.stages().size(); ++s) {
        EXPECT_EQ(device_bits(a.stages()[s].pmos), device_bits(b.stages()[s].pmos))
            << "RO " << i << " stage " << s;
        EXPECT_EQ(device_bits(a.stages()[s].nmos), device_bits(b.stages()[s].nmos))
            << "RO " << i << " stage " << s;
        devices += 2;
      }
    }
    EXPECT_EQ(devices, 256U * 13U * 2U);
  }
}

// The digests below pin simulated bits ACROSS commits (the tests above only
// compare within one build): any rewrite of chip construction, of the
// scenarios or of the shard study must reproduce them exactly.  They hold on
// every platform: each exp, log, sin, cos and pow on these paths is the
// library's own (common/detmath.hpp, fixed tables, plain IEEE arithmetic),
// sqrt is exactly rounded, and the build never fuses a*b + c into one FMA
// rounding (-ffp-contract=off), so neither a libm nor a CPU can move a bit.

TEST(DeterminismTest, ChipConstructionDigestIsPinned) {
  // Every device parameter of a few chips per technology and design shape.
  // The width-7 array is 37 rows tall, so its dies touch a taller anchor
  // grid of the spatial field than the square 16-wide arrays.
  PufConfig tall = PufConfig::aro();
  tall.array_width = 7;
  const PufConfig configs[] = {PufConfig::conventional(), PufConfig::aro(), PufConfig::aro(64, 5),
                               tall};
  Digest digest;
  std::uint64_t devices = 0;
  for (const TechnologyParams& tech :
       {TechnologyParams::cmos90(), TechnologyParams::cmos65(), TechnologyParams::cmos45()}) {
    for (const PufConfig& config : configs) {
      const RngFabric fabric(4242);
      for (std::uint64_t c = 0; c < 3; ++c) {
        const RoPuf chip(tech, config, fabric.child("chip", c));
        for (const RingOscillator& ro : chip.oscillators()) {
          for (const RingOscillator::Stage& stage : ro.stages()) {
            add_device(digest, stage.pmos);
            add_device(digest, stage.nmos);
            devices += 2;
          }
        }
      }
    }
  }
  EXPECT_EQ(devices, 3U * 3U * (2U * 256U * 13U + 64U * 5U + 256U * 13U) * 2U);
  EXPECT_EQ(digest.hex(), "4efb564a2568046592d5acc9e51fe22010a8fab59c693c1c15dc3f512b368559");
}

TEST(DeterminismTest, ShardStudyDigestIsPinned) {
  // Every per-chip series value and every golden response of a 40-chip,
  // 4-shard E2+E3 study, as the shards ship them.
  ShardStudyConfig cfg;
  cfg.pop.chips = 40;
  cfg.pop.seed = 2014;
  Digest digest;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    const ShardStudyResult r = run_shard_study(cfg, shard, 4);
    digest.add(static_cast<std::uint64_t>(r.chip_lo));
    digest.add(static_cast<std::uint64_t>(r.chip_hi));
    for (const SampleSeries& s : r.samples) {
      digest.add(s.name);
      digest.add(static_cast<std::uint64_t>(s.offset));
      digest.add(static_cast<std::uint64_t>(s.total));
      for (const double v : s.values) digest.add(v);
    }
    for (const ResponseSet& set : r.responses) {
      digest.add(set.name);
      digest.add(static_cast<std::uint64_t>(set.offset));
      for (const BitVector& response : set.responses) digest.add(response.to_string());
    }
  }
  EXPECT_EQ(digest.hex(), "52b68956b380c94362bfc31d7d5921f7ba493ebdc6676b8dcaf921fbdbb78fdf");
}

TEST(DeterminismTest, MergedShardStudyDigestIsPinned) {
  // The aggregate results section (raw values kept) of the 40-chip study,
  // folded from 1, 3 and 4 shards over the binary transport: every merged
  // series and pair tally, whatever the shards ship to produce them.
  ShardStudyConfig cfg;
  cfg.pop.chips = 40;
  cfg.pop.seed = 2014;
  std::vector<std::string> digests;
  for (const int shards : {1, 3, 4}) {
    telemetry::AggregateBuilder builder(telemetry::RawSeriesPolicy::kKeep);
    for (int k = 0; k < shards; ++k) {
      builder.add(telemetry::decode_shard_input(
          run_shard_job(cfg, k, shards, "merged_digest", /*binary=*/true), "<memory>"));
    }
    Digest digest;
    digest.add(builder.finalize().manifest.at("results").dump());
    digests.push_back(digest.hex());
  }
  telemetry::MetricsRegistry::global().set_shard_index(-1);
  telemetry::reset_run_record();
  EXPECT_EQ(digests[1], digests[0]) << "3 shards";
  EXPECT_EQ(digests[2], digests[0]) << "4 shards";
  EXPECT_EQ(digests[0], "feae0f935ab02eda9c76aba39495d32bb6a4d8db8e38952ecc427f595f4fe75f");
}

void add_stats(Digest& d, const RunningStats& s) {
  d.add(static_cast<std::uint64_t>(s.count()));
  for (const double v : {s.mean(), s.m2(), s.min(), s.max()}) d.add(v);
}

void add_flips(Digest& d, const AgingSeries& s) {
  d.add(s.label);
  for (const auto* column : {&s.years, &s.mean_flip_percent, &s.max_flip_percent}) {
    for (const double v : *column) d.add(v);
  }
}

TEST(DeterminismTest, ScenarioDigestIsPinned) {
  // Every output of every population scenario (E1, E2, E3, E5, E6, E8, E10,
  // E14 and the end-of-life BER) on a 10-chip population of 128-bit designs.
  PopulationConfig pop;
  pop.chips = 10;
  pop.seed = 2014;
  const PufConfig designs[] = {PufConfig::conventional(128), PufConfig::aro(128)};
  const double checkpoints[] = {1.0, 4.0, 10.0};
  Digest digest;
  for (const PufConfig& puf : designs) {
    const FrequencySeries e1 = run_frequency_degradation(pop, puf, checkpoints);
    digest.add(e1.label);
    for (const double v : e1.years) digest.add(v);
    for (const double v : e1.mean_freq_shift_percent) digest.add(v);
    add_flips(digest, run_aging_series(pop, puf, checkpoints));

    const UniquenessExperimentResult e3 = run_uniqueness(pop, puf);
    digest.add(e3.label);
    add_stats(digest, e3.uniqueness.stats);
    for (std::size_t b = 0; b < e3.uniqueness.histogram.bins(); ++b) {
      digest.add(static_cast<std::uint64_t>(e3.uniqueness.histogram.count(b)));
    }
    add_stats(digest, e3.uniformity);
    add_stats(digest, e3.aliasing);

    const BerStats eol = measure_eol_ber(pop, puf, 10.0);
    for (const double v : {eol.mean, eol.stddev, eol.max}) digest.add(v);
  }

  StressProfile oven = StressProfile::conventional_always_on();
  oven.stress_temperature = celsius(125.0);
  add_flips(digest, run_aging_series_with_burnin(pop, designs[0], oven, years(1.0 / 12.0),
                                                 checkpoints));
  for (const bool gated : {true, false}) {
    add_flips(digest, run_mission(pop, designs[gated ? 1 : 0], MissionProfile::automotive(gated),
                                  checkpoints));
  }

  const double temps[] = {-20.0, 25.0, 85.0};
  const double vdds[] = {1.08, 1.2, 1.32};
  for (const auto& sweep : {run_temperature_sweep(pop, designs[1], temps),
                            run_voltage_sweep(pop, designs[1], vdds)}) {
    for (const SweepPoint& p : sweep) {
      for (const double v : {p.value, p.mean_ber_percent, p.max_ber_percent}) digest.add(v);
    }
  }
  for (const bool full_corners : {true, false}) {
    const MaskingStudyResult e10 = run_masking_study(pop, designs[1], full_corners, 3, 10.0);
    for (const double v : {e10.stable_fraction, e10.unmasked_ber, e10.masked_ber}) {
      digest.add(v);
    }
  }
  EXPECT_EQ(digest.hex(), "ef7a8c12112480e32d3417d298217b98f5bb4a02a28be92d4cfd27c4eaca1601");
}

}  // namespace
}  // namespace aropuf
