// JSON (de)serialization of population configurations.
//
// A population study is described by a PopulationConfig (technology, chip
// count, seed); these bindings let it live in a checked-in config file.
// Serialization is total (every field), deserialization is
// default-tolerant (missing keys keep the in-code defaults) but
// type-strict: integer keys must hold an exact in-range integer, and the
// technology ends in validate().
#pragma once

#include <string>

#include "common/json.hpp"
#include "sim/scenarios.hpp"

namespace aropuf {

[[nodiscard]] JsonValue to_json(const TechnologyParams& tech);
[[nodiscard]] TechnologyParams technology_from_json(const JsonValue& v);

[[nodiscard]] JsonValue to_json(const PopulationConfig& pop);
[[nodiscard]] PopulationConfig population_from_json(const JsonValue& v);

/// Reads a PopulationConfig (with embedded technology) from a JSON file.
[[nodiscard]] PopulationConfig load_population_config(const std::string& path);

/// Writes a PopulationConfig to a JSON file (pretty-printed).
void save_population_config(const PopulationConfig& pop, const std::string& path);

}  // namespace aropuf
