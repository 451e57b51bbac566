#include "sim/experiment_config.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace aropuf {

namespace {

/// 2^53: seeds up to it are the integers a JSON double holds exactly.
constexpr std::uint64_t kMaxJsonSeed = std::uint64_t{1} << 53;

/// Reads `key` as an integer in [lo, hi], or `fallback` when absent.  JSON
/// numbers are doubles, so a fractional or out-of-range value is an error
/// rather than a truncating (or undefined) cast.
double integer_or(const JsonValue& v, const std::string& key, double fallback, double lo,
                  double hi) {
  const double x = v.number_or(key, fallback);
  if (!(x >= lo && x <= hi) || x != std::floor(x)) {
    throw std::invalid_argument(key + " must be an integer in [" + JsonValue(lo).dump() + ", " +
                                JsonValue(hi).dump() + "], got " + JsonValue(x).dump());
  }
  return x;
}

}  // namespace

JsonValue to_json(const TechnologyParams& t) {
  JsonValue::Object o;
  o["name"] = t.name;
  o["vdd_nominal"] = t.vdd_nominal;
  o["temp_nominal"] = t.temp_nominal;
  o["vth_n"] = t.vth_n;
  o["vth_p"] = t.vth_p;
  o["alpha"] = t.alpha;
  o["delay_k"] = t.delay_k;
  o["nand_delay_factor"] = t.nand_delay_factor;
  o["vth_tempco"] = t.vth_tempco;
  o["vth_tempco_mismatch_rel"] = t.vth_tempco_mismatch_rel;
  o["mobility_temp_exp"] = t.mobility_temp_exp;
  o["sigma_vth_local"] = t.sigma_vth_local;
  o["sigma_vth_global"] = t.sigma_vth_global;
  o["sigma_vth_spatial"] = t.sigma_vth_spatial;
  o["spatial_correlation_length"] = t.spatial_correlation_length;
  o["layout_systematic_amplitude"] = t.layout_systematic_amplitude;
  o["layout_ripple_wavelength"] = t.layout_ripple_wavelength;
  o["nbti_a"] = t.nbti_a;
  o["nbti_ea"] = t.nbti_ea;
  o["nbti_n"] = t.nbti_n;
  o["nbti_recovery_fraction"] = t.nbti_recovery_fraction;
  o["nbti_sigma_rel"] = t.nbti_sigma_rel;
  o["hci_b"] = t.hci_b;
  o["hci_ea"] = t.hci_ea;
  o["hci_m"] = t.hci_m;
  o["hci_sigma_rel"] = t.hci_sigma_rel;
  o["jitter_cycle_rel"] = t.jitter_cycle_rel;
  o["noise_lowfreq_rel"] = t.noise_lowfreq_rel;
  o["area_ge_um2"] = t.area_ge_um2;
  o["area_ro_cell_ge"] = t.area_ro_cell_ge;
  o["area_counter_bit_ge"] = t.area_counter_bit_ge;
  o["counter_bits"] = t.counter_bits;
  return JsonValue(std::move(o));
}

TechnologyParams technology_from_json(const JsonValue& v) {
  // Named-node base keeps configs short: {"name": "cmos65"} is complete,
  // and any further key overrides that node's calibrated value.
  const std::string name = v.string_or("name", "cmos90");
  TechnologyParams t;
  if (name == "cmos90") {
    t = TechnologyParams::cmos90();
  } else if (name == "cmos65") {
    t = TechnologyParams::cmos65();
  } else if (name == "cmos45") {
    t = TechnologyParams::cmos45();
  } else {
    t = TechnologyParams::cmos90();
    t.name = name;
  }
  t.vdd_nominal = v.number_or("vdd_nominal", t.vdd_nominal);
  t.temp_nominal = v.number_or("temp_nominal", t.temp_nominal);
  t.vth_n = v.number_or("vth_n", t.vth_n);
  t.vth_p = v.number_or("vth_p", t.vth_p);
  t.alpha = v.number_or("alpha", t.alpha);
  t.delay_k = v.number_or("delay_k", t.delay_k);
  t.nand_delay_factor = v.number_or("nand_delay_factor", t.nand_delay_factor);
  t.vth_tempco = v.number_or("vth_tempco", t.vth_tempco);
  t.vth_tempco_mismatch_rel =
      v.number_or("vth_tempco_mismatch_rel", t.vth_tempco_mismatch_rel);
  t.mobility_temp_exp = v.number_or("mobility_temp_exp", t.mobility_temp_exp);
  t.sigma_vth_local = v.number_or("sigma_vth_local", t.sigma_vth_local);
  t.sigma_vth_global = v.number_or("sigma_vth_global", t.sigma_vth_global);
  t.sigma_vth_spatial = v.number_or("sigma_vth_spatial", t.sigma_vth_spatial);
  t.spatial_correlation_length =
      v.number_or("spatial_correlation_length", t.spatial_correlation_length);
  t.layout_systematic_amplitude =
      v.number_or("layout_systematic_amplitude", t.layout_systematic_amplitude);
  t.layout_ripple_wavelength =
      v.number_or("layout_ripple_wavelength", t.layout_ripple_wavelength);
  t.nbti_a = v.number_or("nbti_a", t.nbti_a);
  t.nbti_ea = v.number_or("nbti_ea", t.nbti_ea);
  t.nbti_n = v.number_or("nbti_n", t.nbti_n);
  t.nbti_recovery_fraction = v.number_or("nbti_recovery_fraction", t.nbti_recovery_fraction);
  t.nbti_sigma_rel = v.number_or("nbti_sigma_rel", t.nbti_sigma_rel);
  t.hci_b = v.number_or("hci_b", t.hci_b);
  t.hci_ea = v.number_or("hci_ea", t.hci_ea);
  t.hci_m = v.number_or("hci_m", t.hci_m);
  t.hci_sigma_rel = v.number_or("hci_sigma_rel", t.hci_sigma_rel);
  t.jitter_cycle_rel = v.number_or("jitter_cycle_rel", t.jitter_cycle_rel);
  t.noise_lowfreq_rel = v.number_or("noise_lowfreq_rel", t.noise_lowfreq_rel);
  t.area_ge_um2 = v.number_or("area_ge_um2", t.area_ge_um2);
  t.area_ro_cell_ge = v.number_or("area_ro_cell_ge", t.area_ro_cell_ge);
  t.area_counter_bit_ge = v.number_or("area_counter_bit_ge", t.area_counter_bit_ge);
  t.counter_bits = static_cast<int>(integer_or(v, "counter_bits", t.counter_bits,
                                               std::numeric_limits<int>::min(),
                                               std::numeric_limits<int>::max()));
  t.validate();
  return t;
}

JsonValue to_json(const PopulationConfig& pop) {
  JsonValue::Object o;
  o["technology"] = to_json(pop.tech);
  o["chips"] = pop.chips;
  ARO_REQUIRE(pop.seed <= kMaxJsonSeed, "a seed above 2^53 has no exact JSON number");
  o["seed"] = static_cast<double>(pop.seed);
  return JsonValue(std::move(o));
}

PopulationConfig population_from_json(const JsonValue& v) {
  PopulationConfig pop;
  if (v.contains("technology")) pop.tech = technology_from_json(v.at("technology"));
  pop.chips =
      static_cast<int>(integer_or(v, "chips", pop.chips, 1, std::numeric_limits<int>::max()));
  pop.seed = static_cast<std::uint64_t>(
      integer_or(v, "seed", static_cast<double>(pop.seed), 0,
                 static_cast<double>(kMaxJsonSeed)));
  return pop;
}

PopulationConfig load_population_config(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw std::runtime_error("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return population_from_json(JsonValue::parse(buffer.str()));
}

void save_population_config(const PopulationConfig& pop, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) throw std::runtime_error("cannot open config file for writing: " + path);
  out << to_json(pop).dump(2) << '\n';
}

}  // namespace aropuf
