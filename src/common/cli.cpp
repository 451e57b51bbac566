#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/check.hpp"

namespace aropuf::cli {
namespace {

bool parse_int_value(const std::string& text, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_uint64_value(const std::string& text, unsigned long long* out) {
  if (text.empty() || text[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_double(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

Parser::Parser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Parser& Parser::add(Option option) {
  ARO_ASSERT(option.name.rfind("--", 0) == 0, "flag names must start with --");
  ARO_ASSERT(find(option.name) == nullptr, "duplicate flag declaration");
  options_.push_back(std::move(option));
  return *this;
}

Parser& Parser::flag(const std::string& name, bool* out, const std::string& help) {
  Option o;
  o.name = name;
  o.help = help;
  o.apply = [out](const std::string&, std::string*) {
    *out = true;
    return true;
  };
  return add(std::move(o));
}

Parser& Parser::opt_int(const std::string& name, int* out, const std::string& value_name,
                        const std::string& help, int min_value) {
  Option o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.apply = [out, min_value](const std::string& value, std::string* error) {
    long long v = 0;
    if (!parse_int_value(value, &v) || v < min_value ||
        v > std::numeric_limits<int>::max()) {
      *error = "expected an integer >= " + std::to_string(min_value);
      return false;
    }
    *out = static_cast<int>(v);
    return true;
  };
  return add(std::move(o));
}

Parser& Parser::opt_uint64(const std::string& name, std::uint64_t* out,
                           const std::string& value_name, const std::string& help) {
  Option o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.apply = [out](const std::string& value, std::string* error) {
    unsigned long long v = 0;
    if (!parse_uint64_value(value, &v)) {
      *error = "expected an unsigned integer";
      return false;
    }
    *out = static_cast<std::uint64_t>(v);
    return true;
  };
  return add(std::move(o));
}

Parser& Parser::opt_double(const std::string& name, double* out,
                           const std::string& value_name, const std::string& help,
                           double min_value) {
  Option o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.apply = [out, min_value](const std::string& value, std::string* error) {
    double v = 0.0;
    if (!parse_double(value, &v) || v < min_value) {
      *error = "expected a number >= " + std::to_string(min_value);
      return false;
    }
    *out = v;
    return true;
  };
  return add(std::move(o));
}

Parser& Parser::opt_string(const std::string& name, std::string* out,
                           const std::string& value_name, const std::string& help) {
  Option o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.apply = [out](const std::string& value, std::string*) {
    *out = value;
    return true;
  };
  return add(std::move(o));
}

Parser& Parser::opt_custom(const std::string& name, const std::string& value_name,
                           const std::string& help,
                           std::function<bool(const std::string&)> parse) {
  Option o;
  o.name = name;
  o.value_name = value_name;
  o.help = help;
  o.apply = [parse = std::move(parse)](const std::string& value, std::string*) {
    return parse(value);
  };
  return add(std::move(o));
}

Parser& Parser::allow_unknown() {
  allow_unknown_ = true;
  return *this;
}

Parser& Parser::with_env_help() {
  env_help_ = true;
  return *this;
}

const Parser::Option* Parser::find(const std::string& name) const {
  for (const Option& o : options_) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

ParseStatus Parser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return ParseStatus::kHelp;
    }

    std::string name = arg;
    std::string inline_value;
    bool has_inline_value = false;
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
      has_inline_value = true;
    }

    const Option* option = find(name);
    if (option == nullptr) {
      if (allow_unknown_) continue;  // drop-in mode: harness-owned flags pass through
      std::fprintf(stderr, "%s: unknown option %s\n", program_.c_str(), arg.c_str());
      print_usage(stderr);
      return ParseStatus::kError;
    }

    std::string value;
    if (!option->value_name.empty()) {
      if (has_inline_value) {
        value = inline_value;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "%s: %s requires a value\n", program_.c_str(),
                     option->name.c_str());
        return ParseStatus::kError;
      }
    } else if (has_inline_value) {
      std::fprintf(stderr, "%s: %s does not take a value\n", program_.c_str(),
                   option->name.c_str());
      return ParseStatus::kError;
    }

    std::string error;
    if (!option->apply(value, &error)) {
      if (error.empty()) error = "invalid value";
      std::fprintf(stderr, "%s: %s '%s': %s\n", program_.c_str(), option->name.c_str(),
                   value.c_str(), error.c_str());
      return ParseStatus::kError;
    }
  }
  return ParseStatus::kOk;
}

void Parser::print_usage(std::FILE* to) const {
  std::fprintf(to, "usage: %s [options]\n", program_.c_str());
  if (!summary_.empty()) std::fprintf(to, "%s\n", summary_.c_str());
  std::fprintf(to, "\noptions:\n");
  std::size_t width = 0;
  std::vector<std::string> lefts;
  lefts.reserve(options_.size());
  for (const Option& o : options_) {
    std::string left = o.name;
    if (!o.value_name.empty()) left += " <" + o.value_name + ">";
    width = std::max(width, left.size());
    lefts.push_back(std::move(left));
  }
  for (std::size_t i = 0; i < options_.size(); ++i) {
    std::fprintf(to, "  %-*s  %s\n", static_cast<int>(width), lefts[i].c_str(),
                 options_[i].help.c_str());
  }
  std::fprintf(to, "  %-*s  %s\n", static_cast<int>(width), "--help",
               "show this message and exit");
  if (env_help_) {
    std::fprintf(to, "\nenvironment:\n%s", env_help().c_str());
  }
}

const std::vector<EnvVar>& env_vars() {
  static const std::vector<EnvVar> vars = {
      {"AROPUF_THREADS", "worker-thread count for ParallelExecutor (1 disables the pool)"},
      {"AROPUF_MANIFEST", "write the JSON run manifest to this path"},
      {"AROPUF_LOG", "log level: trace|debug|info|warn|error|off (default warn)"},
      {"AROPUF_LOG_FORMAT", "log format: text | json"},
      {"AROPUF_TRACE", "write a Chrome-trace span file to this path"},
      {"AROPUF_PROF", "on | off — perf_event counter + resource profiling (default off)"},
      {"AROPUF_PROF_RESOURCE", "write the resource timeline JSONL to this path"},
      {"AROPUF_PROF_INTERVAL_MS", "resource-sampler cadence in milliseconds (default 250)"},
      {"AROPUF_PROF_FORCE_FALLBACK", "force the rusage fallback path (degraded-mode tests)"},
      {"ARO_CSV_DIR", "directory for bench CSV output (and the manifest fallback)"},
  };
  return vars;
}

const char* env_value(const char* name) {
  const auto& vars = env_vars();
  const bool registered =
      std::any_of(vars.begin(), vars.end(),
                  [name](const EnvVar& v) { return std::strcmp(v.name, name) == 0; });
  ARO_ASSERT(registered, "environment variable read without a registry entry");
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return nullptr;
  return value;
}

std::string env_help() {
  const auto& vars = env_vars();
  std::size_t width = 0;
  for (const EnvVar& v : vars) width = std::max(width, std::strlen(v.name));
  std::string out;
  for (const EnvVar& v : vars) {
    out += "  ";
    out += v.name;
    out.append(width - std::strlen(v.name), ' ');
    out += "  ";
    out += v.doc;
    out += "\n";
  }
  return out;
}

}  // namespace aropuf::cli
