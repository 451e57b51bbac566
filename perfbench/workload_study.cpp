// Study workloads: aging10y (E2 through run_aging_series) and shard_study
// (the 4-shard E2+E3 study through run_shard_job -> ARPB bytes ->
// decode_shard_input -> AggregateBuilder, in one process).
//
// The untraced run times the library entry points as a user calls them.  The
// traced run rebuilds the same computation from the public calls underneath
// (RoPuf construction, age_years, evaluate, Hamming distances, the manifest
// encode and the fold) with a span around each, and checks the result is
// bit-identical to the entry point's.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "circuit/operating_point.hpp"
#include "common/statistics.hpp"
#include "puf/ro_puf.hpp"
#include "sim/parallel.hpp"
#include "sim/scenarios.hpp"
#include "sim/shard_study.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/binfmt.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

using namespace aropuf;
using trace::Region;
using trace::Span;

// Population sizes: a pass takes about half a second on four threads, so a
// window holds some 40 passes (a steady median and p75), and the headline
// means sit well inside their calibration bands for any seed.
constexpr int kAgingChips = 150;
constexpr int kShardChips = 120;
constexpr int kShards = 4;
/// run_shard_study's pair-work chunking (8 chunks per shard and design).
constexpr std::size_t kPairChunks = 8;
/// parallel_for's partition: n indices in chunks of n / (4 x threads).
constexpr std::size_t kChunksPerThread = 4;
/// Direct library passes traced on the library's own engine spans for
/// sim.parallel.idle_frac.
constexpr int kIdlePasses = 3;

const std::vector<double> kAgingYears = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
const std::vector<double> kShardYears = {1, 2, 5, 10};

// --- correctness oracle ------------------------------------------------------

struct Headlines {
  double conv_flips = NAN;
  double aro_flips = NAN;
  double conv_hd = NAN;
  double aro_hd = NAN;
};

struct Band {
  const char* name;
  double Headlines::*field;
  double lo;
  double hi;
  double paper;
};

/// Calibration bands (percent) and the paper's values.
constexpr Band kBands[] = {
    {"conventional 10-year flips", &Headlines::conv_flips, 25.0, 40.0, 32.0},
    {"ARO 10-year flips", &Headlines::aro_flips, 4.0, 12.0, 7.7},
    {"conventional inter-chip HD", &Headlines::conv_hd, 40.0, 47.5, 45.0},
    {"ARO inter-chip HD", &Headlines::aro_hd, 48.5, 51.5, 49.67},
};

std::vector<std::string> band_violations(const Headlines& h) {
  std::vector<std::string> out;
  for (const Band& b : kBands) {
    const double v = h.*b.field;
    if (std::isnan(v)) continue;
    if (!(v >= b.lo && v <= b.hi)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %.4f %% outside [%g, %g]", b.name, v, b.lo, b.hi);
      out.emplace_back(buf);
    }
  }
  return out;
}

double paper_err_pp(const Headlines& h) {
  double worst = 0.0;
  for (const Band& b : kBands) {
    const double v = h.*b.field;
    if (!std::isnan(v)) worst = std::max(worst, std::fabs(v - b.paper));
  }
  return worst;
}

/// Checks one pass: headlines in band, and (after the first pass) the same
/// simulated output as the reference pass.
void check_pass(Outcome& out, const Headlines& h, bool identical, const char* what) {
  ++out.attempted;
  bool ok = true;
  for (const std::string& v : band_violations(h)) {
    out.fail(std::string(what) + ": " + v);
    ok = false;
  }
  if (!identical) {
    out.fail(std::string(what) + ": output differs from the reference pass");
    ok = false;
  }
  if (!ok) ++out.failed;
}

// --- traced composition helpers ---------------------------------------------

/// parallel_for_chips with a region span around the loop and a task span
/// around each index.
template <typename F>
void traced_for(const char* region, std::size_t n, F&& fn) {
  const Region r(region);
  const std::uint64_t parent = r.id();
  parallel_for_chips(n, [&](std::size_t i) {
    const Span task("sim.task", parent);
    fn(i);
  });
}

template <typename F>
auto traced_map(const char* region, std::size_t n, F&& fn) {
  std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
  traced_for(region, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Chips [lo, hi) of the population, drawn as make_population draws them.
std::vector<RoPuf> construct_chips(const PopulationConfig& pop, const PufConfig& puf,
                                   std::size_t lo, std::size_t hi) {
  const RngFabric fabric(pop.seed);
  std::vector<std::optional<RoPuf>> staged(hi - lo);
  traced_for("sim.parallel.construct", staged.size(), [&](std::size_t i) {
    const Span span("puf.construct");
    staged[i].emplace(pop.tech, puf, fabric.child("chip", static_cast<std::uint64_t>(lo + i)));
  });
  const Span span("sim.gather");
  std::vector<RoPuf> chips;
  chips.reserve(staged.size());
  for (auto& chip : staged) chips.push_back(std::move(*chip));
  return chips;
}

std::vector<BitVector> enroll_golden(const std::vector<RoPuf>& chips, OperatingPoint op) {
  return traced_map("sim.parallel.enroll", chips.size(), [&](std::size_t c) {
    const Span span("puf.evaluate");
    return chips[c].evaluate(op, /*eval_index=*/0);
  });
}

/// The E2 checkpoint walk: per checkpoint, every chip ages incrementally and
/// is re-read with the next eval index; returns per-chip flip percentages.
std::vector<std::vector<double>> flip_checkpoints(std::vector<RoPuf>& chips,
                                                  const std::vector<BitVector>& golden,
                                                  OperatingPoint op,
                                                  const std::vector<double>& years) {
  std::vector<std::vector<double>> flips;
  double previous = 0.0;
  std::uint64_t eval_index = 1;
  for (const double y : years) {
    flips.push_back(traced_map("sim.parallel.checkpoint", chips.size(), [&](std::size_t c) {
      {
        const Span span("puf.age");
        chips[c].age_years(y - previous);
      }
      BitVector response;
      {
        const Span span("puf.evaluate");
        response = chips[c].evaluate(op, eval_index);
      }
      const Span span("metrics.flip_hd");
      return fractional_hamming_distance(golden[c], response) * 100.0;
    }));
    previous = y;
    ++eval_index;
  }
  return flips;
}

/// Median time of one full-array kernel pass (RoPuf::ro_frequencies) at the
/// corners the studies evaluate: the nominal read corner and each design's
/// stress corner.
double kernel_pass_us(const PopulationConfig& pop) {
  constexpr int kReps = 100;
  std::vector<double> samples;
  double sink = 0.0;
  for (const PufConfig& puf : {PufConfig::conventional(), PufConfig::aro()}) {
    const RoPuf chip(pop.tech, puf, RngFabric(pop.seed).child("chip", 0));
    const OperatingPoint corners[] = {
        nominal_operating_point(pop.tech),
        OperatingPoint{pop.tech.vdd_nominal, puf.lifetime_profile.stress_temperature}};
    for (const OperatingPoint& corner : corners) {
      for (int i = 0; i < kReps; ++i) {
        const std::uint64_t t0 = trace::now_ns();
        sink += chip.ro_frequencies(corner).front();
        samples.push_back(static_cast<double>(trace::now_ns() - t0) * 1e-3);
      }
    }
  }
  if (!(sink > 0.0)) throw std::runtime_error("kernel probe produced no frequencies");
  return median(samples);
}

// --- shared study plumbing ----------------------------------------------------

/// Work counts of one direct library pass, from the library's own
/// MetricsRegistry counters.
struct LibraryCounts {
  double evaluations = 0.0;  ///< puf.evaluations
  double pairs = 0.0;        ///< study.pair_hds
};

std::uint64_t counter_value(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

/// Pool idle share over `passes` runs of `pass`, from the engine spans the
/// library's parallel_for emits on the telemetry trace channel: each job's
/// "parallel_for" span is the caller's wall time, its "chunk" spans the
/// tasks' busy time.
template <typename F>
double library_idle_frac(int threads, int passes, F&& pass) {
  telemetry::start_trace_buffered();
  double job_us = 0.0;
  double chunk_us = 0.0;
  for (int i = 0; i < passes; ++i) {
    pass();
    for (const JsonValue& e : telemetry::drain_trace_events()) {
      if (e.string_or("cat", "") != "parallel") continue;
      const std::string name = e.string_or("name", "");
      if (name == "parallel_for") job_us += e.number_or("dur", 0.0);
      if (name == "chunk") chunk_us += e.number_or("dur", 0.0);
    }
  }
  telemetry::flush_trace();  // ends the buffer-only session
  return job_us > 0.0 ? 1.0 - chunk_us / (threads * job_us) : 0.0;
}

void set_study_metrics(Outcome& out, const Samples& passes) {
  const std::vector<double>& pass_s = passes.values();
  // Passes per second of pass time: unlike the median it includes the slow
  // passes.
  out.set("ops_per_s", 1.0 / mean(pass_s), "1/s");
  out.set("op_p50_us", median(pass_s) * 1e6, "us");
  out.set("op_tail_us", quantile(pass_s, 0.75) * 1e6, "us");
  std::printf("perfbench: study passes (%s), seconds:", passes.summary().c_str());
  for (const double s : pass_s) std::printf(" %.4f", s);
  std::printf("\n");
}

/// Repeats `pass` until `window_s` has elapsed (at least once), timing each.
template <typename F>
Samples run_window(double window_s, F&& pass) {
  Samples passes;
  const std::uint64_t start = trace::now_ns();
  do {
    passes.time(pass);
  } while (seconds_since(start) < window_s);
  return passes;
}

/// Per-layer metrics common to both studies: work counts from the library's
/// counters (`lib`, per direct pass) where it keeps them, span times (and the
/// construction and aging counts, which the library does not count in full)
/// per traced pass.
void set_traced_study_metrics(Outcome& out, const trace::Snapshot& snap, std::size_t passes,
                              double traced_wall_s, int threads, const PopulationConfig& pop,
                              const LibraryCounts& lib, double idle_frac) {
  const double n = static_cast<double>(passes);
  const auto per_pass = [&](const char* span, const char* seconds_name, const char* count_name) {
    const trace::Totals t = snap.span(span);
    out.set(seconds_name, t.total_s / n, "s");
    if (count_name != nullptr) out.set(count_name, static_cast<double>(t.count) / n, "count");
  };
  per_pass("puf.construct", "puf.construct_s", "puf.construct.chips");
  per_pass("puf.age", "puf.age_s", "puf.age.calls");
  per_pass("puf.evaluate", "puf.evaluate_s", nullptr);
  out.set("puf.evaluate.calls", lib.evaluations, "count");

  // Every evaluate() and every age_years() runs one full-array kernel pass.
  const double kernel_passes =
      lib.evaluations + static_cast<double>(snap.span("puf.age").count) / n;
  const double pass_us = kernel_pass_us(pop);
  out.set("circuit.kernel.passes", kernel_passes, "count");
  out.set("circuit.kernel.pass_us", pass_us, "us");
  out.set("circuit.kernel.share", kernel_passes * n * pass_us * 1e-6 / (threads * traced_wall_s),
          "fraction");
  out.set("sim.parallel.idle_frac", idle_frac, "fraction");

  report_composition(compose(snap, traced_wall_s, threads), /*gap_is_idle=*/true, out);
}

// --- aging10y -------------------------------------------------------------------

struct AgingPair {
  AgingSeries conventional;
  AgingSeries aro;
};

bool same_series(const AgingSeries& a, const AgingSeries& b) {
  return a.label == b.label && a.years == b.years && a.mean_flip_percent == b.mean_flip_percent &&
         a.max_flip_percent == b.max_flip_percent;
}

bool same_pair(const AgingPair& a, const AgingPair& b) {
  return same_series(a.conventional, b.conventional) && same_series(a.aro, b.aro);
}

Headlines aging_headlines(const AgingPair& p) {
  Headlines h;
  h.conv_flips = p.conventional.mean_flip_percent.back();
  h.aro_flips = p.aro.mean_flip_percent.back();
  return h;
}

AgingPair aging_pass_library(const PopulationConfig& pop, LibraryCounts* counts = nullptr) {
  const std::uint64_t evaluations = counter_value("puf.evaluations");
  AgingPair p{run_aging_series(pop, PufConfig::conventional(), kAgingYears),
              run_aging_series(pop, PufConfig::aro(), kAgingYears)};
  if (counts != nullptr) {
    counts->evaluations = static_cast<double>(counter_value("puf.evaluations") - evaluations);
  }
  return p;
}

AgingSeries aging_series_traced(const PopulationConfig& pop, const PufConfig& puf) {
  auto chips = construct_chips(pop, puf, 0, static_cast<std::size_t>(pop.chips));
  const OperatingPoint op = nominal_operating_point(pop.tech);
  const std::vector<BitVector> golden = enroll_golden(chips, op);
  const auto flips = flip_checkpoints(chips, golden, op, kAgingYears);
  const Span span("metrics.reduce");
  AgingSeries series;
  series.label = puf.label;
  for (std::size_t k = 0; k < kAgingYears.size(); ++k) {
    RunningStats stats;
    for (const double f : flips[k]) stats.add(f);
    series.years.push_back(kAgingYears[k]);
    series.mean_flip_percent.push_back(stats.mean());
    series.max_flip_percent.push_back(stats.max());
  }
  return series;
}

AgingPair aging_pass_traced(const PopulationConfig& pop) {
  return {aging_series_traced(pop, PufConfig::conventional()),
          aging_series_traced(pop, PufConfig::aro())};
}

// --- shard_study -------------------------------------------------------------------

std::string format_year(double y) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", y);
  return buf;
}

ShardStudyConfig shard_config(std::uint64_t seed, int chips) {
  ShardStudyConfig cfg;
  cfg.pop.chips = chips;
  cfg.pop.seed = seed;
  cfg.checkpoints = kShardYears;
  return cfg;
}

/// Folds shard containers into the merged study results.
class Fold {
 public:
  void add(std::string bytes) {
    telemetry::DecodedShard shard;
    {
      const Span span("telemetry.decode");
      shard = telemetry::decode_shard_input(std::move(bytes), "<memory>");
    }
    const Span span("telemetry.fold");
    builder_.add(std::move(shard));
  }

  JsonValue results() {
    const Span span("telemetry.fold");
    return builder_.finalize().manifest.at("results");
  }

 private:
  telemetry::AggregateBuilder builder_{telemetry::RawSeriesPolicy::kKeep};
};

JsonValue shard_pass_library(const ShardStudyConfig& cfg, int shards,
                             LibraryCounts* counts = nullptr) {
  Fold fold;
  if (counts != nullptr) *counts = LibraryCounts{};
  for (int i = 0; i < shards; ++i) {
    std::string bytes = run_shard_job(cfg, i, shards, "perfbench", /*binary=*/true);
    // run_shard_job resets the registry first: the counters hold this job's work.
    if (counts != nullptr) {
      counts->evaluations += static_cast<double>(counter_value("puf.evaluations"));
      counts->pairs += static_cast<double>(counter_value("study.pair_hds"));
    }
    fold.add(std::move(bytes));
  }
  return fold.results();
}

Headlines shard_headlines(const JsonValue& results) {
  const auto sample_mean = [&](const std::string& name) {
    return results.at("samples").at(name).number_or("mean", NAN);
  };
  const auto tally_mean = [&](const std::string& name) {
    return results.at("tallies").at(name).number_or("mean", NAN) * 100.0;
  };
  const std::string last = format_year(kShardYears.back());
  Headlines h;
  h.conv_flips = sample_mean("e2.conventional.flip_percent.y" + last);
  h.aro_flips = sample_mean("e2.aro.flip_percent.y" + last);
  h.conv_hd = tally_mean("e3.conventional.pair_hd");
  h.aro_hd = tally_mean("e3.aro.pair_hd");
  return h;
}

/// run_shard_study rebuilt from public calls, with spans.
ShardStudyResult shard_study_traced(const ShardStudyConfig& cfg, std::size_t index,
                                    std::size_t count, int threads) {
  const auto chips_total = static_cast<std::size_t>(cfg.pop.chips);
  const auto [chip_lo, chip_hi] = shard_range(chips_total, index, count);
  const std::size_t pairs_total = chips_total * (chips_total - 1) / 2;
  const auto [pair_lo, pair_hi] = shard_range(pairs_total, index, count);
  const OperatingPoint op = nominal_operating_point(cfg.pop.tech);
  const RngFabric fabric(cfg.pop.seed);

  ShardStudyResult result;
  result.chip_lo = chip_lo;
  result.chip_hi = chip_hi;
  const std::pair<std::string, PufConfig> designs[] = {{"conventional", PufConfig::conventional()},
                                                       {"aro", PufConfig::aro()}};
  for (const auto& [key, puf] : designs) {
    // E2 over the shard's chips.
    auto chips = construct_chips(cfg.pop, puf, chip_lo, chip_hi);
    const std::vector<BitVector> golden = enroll_golden(chips, op);
    auto flips = flip_checkpoints(chips, golden, op, cfg.checkpoints);
    for (std::size_t k = 0; k < cfg.checkpoints.size(); ++k) {
      SampleSeries series;
      series.name = "e2." + key + ".flip_percent.y" + format_year(cfg.checkpoints[k]);
      series.offset = chip_lo;
      series.total = chips_total;
      series.hist_lo = 0.0;
      series.hist_hi = 100.0;
      series.hist_bins = 50;
      series.values = std::move(flips[k]);
      result.samples.push_back(std::move(series));
    }

    // E3: every chip's golden response, then the shard's pair range.
    const std::vector<BitVector> responses =
        traced_map("sim.parallel.responses", chips_total, [&](std::size_t i) {
          std::optional<RoPuf> chip;
          {
            const Span span("puf.construct");
            chip.emplace(cfg.pop.tech, puf, fabric.child("chip", static_cast<std::uint64_t>(i)));
          }
          const Span span("puf.evaluate");
          return chip->evaluate(op, /*eval_index=*/0);
        });
    const std::size_t bits = responses.front().size();

    std::vector<std::size_t> row_offset(chips_total);
    {
      const Span span("metrics.uniformity");
      SampleSeries uniformity;
      uniformity.name = "e3." + key + ".uniformity";
      uniformity.offset = chip_lo;
      uniformity.total = chips_total;
      uniformity.hist_lo = 0.0;
      uniformity.hist_hi = 1.0;
      uniformity.hist_bins = 50;
      for (std::size_t c = chip_lo; c < chip_hi; ++c) {
        uniformity.values.push_back(responses[c].ones_fraction());
      }
      result.samples.push_back(std::move(uniformity));
      for (std::size_t i = 0, k = 0; i < chips_total; ++i) {
        row_offset[i] = k;
        k += chips_total - 1 - i;
      }
    }

    PairTally tally;
    tally.name = "e3." + key + ".pair_hd";
    tally.offset = pair_lo;
    tally.total = pairs_total;
    tally.denom = bits;
    tally.bins.assign(50, 0);
    Histogram hist(0.0, 1.0, tally.bins.size());
    bool first_value = true;
    const std::size_t owned = pair_hi - pair_lo;
    for (std::size_t chunk = 0; chunk < kPairChunks; ++chunk) {
      const auto [c_lo, c_hi] = shard_range(owned, chunk, kPairChunks);
      const std::size_t n = c_hi - c_lo;
      if (n == 0) continue;
      std::vector<std::uint64_t> hds(n);
      // The library maps one index per pair; parallel_for cuts those into
      // chunks of n / (4 x threads) pairs that the pool claims one at a time.
      // One task per such chunk schedules the same work units, with one span
      // each (a span per pair would cost more than its Hamming distance).
      const std::size_t per_block =
          std::max<std::size_t>(1, n / (static_cast<std::size_t>(threads) * kChunksPerThread));
      const std::size_t blocks = (n + per_block - 1) / per_block;
      traced_for("sim.parallel.pairs", blocks, [&](std::size_t b) {
        const std::size_t b_lo = b * per_block;
        const std::size_t b_hi = std::min(n, b_lo + per_block);
        const Span span("metrics.pair_hd");
        for (std::size_t t = b_lo; t < b_hi; ++t) {
          const std::size_t k = pair_lo + c_lo + t;
          const auto row = static_cast<std::size_t>(
              std::upper_bound(row_offset.begin(), row_offset.end(), k) - row_offset.begin() - 1);
          const std::size_t col = row + 1 + (k - row_offset[row]);
          hds[t] = static_cast<std::uint64_t>(hamming_distance(responses[row], responses[col]));
        }
      });
      const Span span("metrics.tally");
      for (const std::uint64_t hd : hds) {
        ++tally.count;
        tally.sum += hd;
        tally.sum_sq += hd * hd;
        tally.min = first_value ? hd : std::min(tally.min, hd);
        tally.max = first_value ? hd : std::max(tally.max, hd);
        first_value = false;
        hist.add(static_cast<double>(hd) / static_cast<double>(bits));
      }
    }
    for (std::size_t b = 0; b < tally.bins.size(); ++b) tally.bins[b] = hist.count(b);
    result.tallies.push_back(std::move(tally));
  }
  return result;
}

/// run_shard_job's manifest encode, from public calls.
std::string encode_shard_traced(const ShardStudyConfig& cfg, int index, int count,
                                ShardStudyResult result) {
  const Span span("telemetry.encode");
  telemetry::reset_run_record();
  telemetry::MetricsRegistry::global().reset();
  telemetry::MetricsRegistry::global().set_shard_index(index);
  telemetry::set_runtime_field("shard", study_shard_descriptor(cfg, index, count));
  telemetry::set_runtime_field("results", study_results_to_json(result, /*include_values=*/false));
  const JsonValue doc = telemetry::build_manifest("perfbench", study_config_json(cfg));
  return telemetry::encode_shard_manifest(doc, study_series_binary(std::move(result)));
}

JsonValue shard_pass_traced(const ShardStudyConfig& cfg, int threads, double& shard_bytes) {
  Fold fold;
  for (int i = 0; i < kShards; ++i) {
    std::string bytes = encode_shard_traced(
        cfg, i, kShards, shard_study_traced(cfg, static_cast<std::size_t>(i), kShards, threads));
    shard_bytes += static_cast<double>(bytes.size());
    fold.add(std::move(bytes));
  }
  return fold.results();
}

}  // namespace

Outcome run_aging10y(const Options& opts) {
  Outcome out;
  PopulationConfig pop;
  pop.chips = kAgingChips;
  pop.seed = opts.seed;

  // Set-up: the thread pool, the population config and one full-size
  // warm-up study (page faults, allocator growth, code paths).
  const int threads = setup_pool();
  (void)aging_pass_library(pop);
  if (setup_done(opts)) return out;
  print_provenance(opts, threads);

  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::optional<AgingPair> reference;
  LibraryCounts counts;
  const Samples passes = run_window(window, [&] {
    AgingPair p = aging_pass_library(pop, &counts);
    check_pass(out, aging_headlines(p), !reference || same_pair(p, *reference), "aging10y");
    if (!reference) reference = std::move(p);
  });
  set_study_metrics(out, passes);
  out.set("paper_err_pp", paper_err_pp(aging_headlines(*reference)), "pp");
  if (!opts.trace) return out;

  const double idle = library_idle_frac(threads, kIdlePasses, [&] { (void)aging_pass_library(pop); });
  telemetry::start_trace(output_path(opts, ".json"));
  trace::enable(true);
  const std::uint64_t start = trace::now_ns();
  const Samples traced = run_window(window, [&] {
    const AgingPair p = aging_pass_traced(pop);
    check_pass(out, aging_headlines(p), same_pair(p, *reference), "aging10y traced composition");
  });
  const double traced_wall = seconds_since(start);
  const trace::Snapshot snap = trace::snapshot();
  trace::enable(false);
  telemetry::flush_trace();

  set_traced_study_metrics(out, snap, traced.size(), traced_wall, threads, pop, counts, idle);
  out.set("trace_overhead_frac",
          median(traced.values()) / median(passes.values()) - 1.0, "fraction");
  return out;
}

Outcome run_shard_study(const Options& opts) {
  Outcome out;
  const ShardStudyConfig cfg = shard_config(opts.seed, kShardChips);

  const int threads = setup_pool();
  (void)shard_pass_library(cfg, kShards);
  if (setup_done(opts)) return out;
  print_provenance(opts, threads);

  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::optional<std::string> reference;
  Headlines headlines;
  LibraryCounts counts;
  const Samples passes = run_window(window, [&] {
    const JsonValue results = shard_pass_library(cfg, kShards, &counts);
    std::string dump = results.dump();
    headlines = shard_headlines(results);
    check_pass(out, headlines, !reference || dump == *reference, "shard_study");
    if (!reference) reference = std::move(dump);
  });
  set_study_metrics(out, passes);
  out.set("paper_err_pp", paper_err_pp(headlines), "pp");
  if (!opts.trace) return out;

  // The merged 4-shard results must equal a 1-shard fold of the same study.
  check_pass(out, headlines, shard_pass_library(cfg, 1).dump() == *reference,
             "shard_study 1-shard fold");

  const double idle =
      library_idle_frac(threads, kIdlePasses, [&] { (void)shard_pass_library(cfg, kShards); });
  telemetry::start_trace(output_path(opts, ".json"));
  trace::enable(true);
  double shard_bytes = 0.0;
  const std::uint64_t start = trace::now_ns();
  const Samples traced = run_window(window, [&] {
    const JsonValue results = shard_pass_traced(cfg, threads, shard_bytes);
    check_pass(out, shard_headlines(results), results.dump() == *reference,
               "shard_study traced composition");
  });
  const double traced_wall = seconds_since(start);
  const trace::Snapshot snap = trace::snapshot();
  trace::enable(false);
  telemetry::flush_trace();

  const double n = static_cast<double>(traced.size());
  set_traced_study_metrics(out, snap, traced.size(), traced_wall, threads, cfg.pop, counts, idle);
  out.set("metrics.pairs", counts.pairs, "count");
  out.set("metrics.pair_hd_s", snap.span("metrics.pair_hd").total_s / n, "s");
  out.set("telemetry.shard_bytes", shard_bytes / n, "bytes");
  out.set("telemetry.encode_s", snap.span("telemetry.encode").total_s / n, "s");
  out.set("telemetry.decode_s", snap.span("telemetry.decode").total_s / n, "s");
  out.set("telemetry.fold_s", snap.span("telemetry.fold").total_s / n, "s");
  out.set("trace_overhead_frac",
          median(traced.values()) / median(passes.values()) - 1.0, "fraction");
  return out;
}

bool self_check_studies() {
  bool ok = true;
  const auto expect = [&](bool caught, const char* what) {
    std::fprintf(stderr, "self-check: %-52s %s\n", what, caught ? "ok" : "MISSED");
    ok = ok && caught;
  };
  setup_pool();
  const PopulationConfig pop;  // the standard 40-chip population
  const AgingPair p = aging_pass_library(pop);
  const Headlines clean = aging_headlines(p);

  Outcome o1;
  check_pass(o1, clean, true, "self-check clean pass");
  expect(o1.failed == 0, "clean 40-chip E2 headlines pass (no false alarm)");

  Headlines high = clean;
  high.conv_flips += 20.0;
  Outcome o2;
  check_pass(o2, high, true, "self-check injected");
  expect(o2.failed == 1, "conventional flips pushed out of band are caught");

  Headlines hd = clean;
  hd.aro_hd = 45.0;
  Outcome o3;
  check_pass(o3, hd, true, "self-check injected");
  expect(o3.failed == 1, "ARO inter-chip HD outside its band is caught");

  AgingPair changed = p;
  changed.aro.max_flip_percent.back() += 1e-9;
  Outcome o4;
  check_pass(o4, clean, same_pair(changed, p), "self-check injected");
  expect(o4.failed == 1, "one simulated value changed between passes is caught");
  return ok;
}

}  // namespace perfbench
