#include "sim/study_report.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"

namespace aropuf {

JsonValue build_study_section(const JsonValue& merged, const ShardStudyConfig& cfg) {
  JsonValue::Object study;
  const double final_year = cfg.checkpoints.back();
  const std::string final_suffix = checkpoint_series_suffix(final_year);
  study["final_year"] = JsonValue(final_year);

  const JsonValue& samples = merged.at("results").at("samples");
  const JsonValue& tallies = merged.at("results").at("tallies");

  double p90_ber[2] = {0.0, 0.0};
  const char* design_keys[2] = {"conventional", "aro"};
  JsonValue::Object designs;
  for (int d = 0; d < 2; ++d) {
    const std::string key = design_keys[d];
    JsonValue::Object entry;
    const std::string e2_name = "e2." + key + ".flip_percent." + final_suffix;
    if (samples.contains(e2_name)) {
      const JsonValue& s = samples.at(e2_name);
      BerStats ber;
      ber.mean = s.number_or("mean", 0.0) / 100.0;
      ber.stddev = s.number_or("stddev", 0.0) / 100.0;
      ber.max = s.number_or("max", 0.0) / 100.0;
      p90_ber[d] = std::max(0.0, ber.p90());
      entry["eol_flip_percent_mean"] = JsonValue(s.number_or("mean", 0.0));
      entry["eol_flip_percent_max"] = JsonValue(s.number_or("max", 0.0));
      entry["eol_ber_p90"] = JsonValue(p90_ber[d]);
    }
    const std::string e3_name = "e3." + key + ".pair_hd";
    if (tallies.contains(e3_name)) {
      const JsonValue& t = tallies.at(e3_name);
      entry["uniqueness_percent"] = JsonValue(t.number_or("mean", 0.0) * 100.0);
      entry["uniqueness_stddev_percent"] = JsonValue(t.number_or("stddev", 0.0) * 100.0);
    }
    const std::string uniform_name = "e3." + key + ".uniformity";
    if (samples.contains(uniform_name)) {
      entry["uniformity_mean"] = JsonValue(samples.at(uniform_name).number_or("mean", 0.0));
    }
    designs[key] = JsonValue(std::move(entry));
  }
  study["designs"] = JsonValue(std::move(designs));

  // ECC/area comparison at the merged p90 BERs (paper's E7 on study data).
  JsonValue::Object ecc;
  try {
    const CodeSearchConstraints constraints;
    const EccComparison cmp =
        run_ecc_comparison(cfg.pop.tech, p90_ber[0], p90_ber[1], constraints);
    const auto scheme_json = [](const CodeSearchResult& r) {
      JsonValue::Object s;
      s["repetition"] = JsonValue(r.scheme.repetition);
      s["bch_m"] = JsonValue(r.scheme.bch_m);
      s["bch_t"] = JsonValue(r.scheme.bch_t);
      s["raw_bits"] = JsonValue(static_cast<std::uint64_t>(r.scheme.raw_bits()));
      s["area_ge"] = JsonValue(r.area.total_ge());
      s["key_failure"] = JsonValue(r.key_failure);
      return JsonValue(std::move(s));
    };
    ecc["status"] = JsonValue("ok");
    ecc["conventional"] = scheme_json(cmp.conventional);
    ecc["aro"] = scheme_json(cmp.aro);
    ecc["area_ratio"] = JsonValue(cmp.area_ratio());
  } catch (const std::exception& e) {
    ecc["status"] = JsonValue("failed");
    ecc["error"] = JsonValue(std::string(e.what()));
  }
  study["ecc"] = JsonValue(std::move(ecc));
  return JsonValue(std::move(study));
}

bool check_merged_against_single(const ShardStudyConfig& cfg, const std::string& run_name,
                                 const JsonValue& merged, telemetry::RawSeriesPolicy policy) {
  std::printf("check-single: running the full population in-process...\n");
  std::fflush(stdout);

  telemetry::reset_run_record();
  telemetry::MetricsRegistry::global().reset();
  telemetry::MetricsRegistry::global().set_shard_index(0);
  const ShardStudyResult result = run_shard_study(cfg, 0, 1);
  telemetry::set_runtime_field("shard", study_shard_descriptor(cfg, 0, 1));
  telemetry::set_runtime_field("results", study_results_to_json(result));
  JsonValue doc = telemetry::build_manifest(run_name, study_config_json(cfg));

  std::vector<telemetry::ShardManifest> single_set;
  single_set.push_back(telemetry::wrap_shard_manifest(std::move(doc), "<single>"));
  const telemetry::AggregateResult single =
      telemetry::aggregate_shards(std::move(single_set), policy);

  bool ok = true;
  for (const char* section : {"results", "config"}) {
    const std::string a = merged.at(section).dump();
    const std::string b = single.manifest.at(section).dump();
    if (a != b) {
      ok = false;
      std::fprintf(stderr,
                   "check-single: section '%s' differs between the sharded and the "
                   "single-process run\n",
                   section);
      // Locate the first divergence so the failure is actionable.
      std::size_t at = 0;
      while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
      const std::size_t lo = at > 60 ? at - 60 : 0;
      std::fprintf(stderr,
                   "  first divergence at byte %zu:\n    sharded: ...%.120s\n    single:  ...%.120s\n",
                   at, a.substr(lo, 120).c_str(), b.substr(lo, 120).c_str());
    }
  }
  if (ok) std::printf("check-single: merged statistics are bit-identical\n");
  return ok;
}

}  // namespace aropuf
