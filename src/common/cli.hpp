// Shared command-line and environment handling for tools and benches.
//
// Every binary in this repo used to hand-roll its own argv loop and call
// std::getenv at point of use, which let flag spellings and the README drift
// apart.  This module centralizes both:
//
//  * cli::Parser — a small typed flag parser.  Flags are declared once with a
//    destination pointer, a value placeholder, and a help line; the parser
//    accepts both "--name value" and "--name=value", generates --help output,
//    range-checks numeric values, and (in strict mode) rejects unknown flags
//    so the caller can exit with code 2.  Benches run in allow-unknown mode
//    so they stay drop-in under harnesses that append their own flags.
//
//  * the environment registry — the single list of AROPUF_*/ARO_* variables
//    the codebase reads, each with a one-line doc.  All call sites go through
//    cli::env_value(), which only accepts registered names (a typo'd lookup
//    is a logic error, caught by ARO_ASSERT) and treats an empty value as
//    unset.  cli::env_help() renders the registry for --help output so the
//    docs cannot diverge from the code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace aropuf::cli {

enum class ParseStatus {
  kOk,    ///< all arguments consumed; run the program
  kHelp,  ///< --help was given and usage was printed; exit 0
  kError, ///< bad/unknown flag; diagnostics were printed; exit 2
};

class Parser {
 public:
  /// `program` is the argv[0] name used in usage/diagnostics; `summary` is a
  /// one-line description printed at the top of --help.
  Parser(std::string program, std::string summary);

  // -- flag declarations ----------------------------------------------------
  // Each returns *this so declarations can chain.  `name` must include the
  // leading dashes ("--chips").  Numeric overloads reject values below
  // `min_value`, and opt_double non-finite ones, with a diagnostic naming
  // the flag.

  Parser& flag(const std::string& name, bool* out, const std::string& help);
  Parser& opt_int(const std::string& name, int* out, const std::string& value_name,
                  const std::string& help, int min_value);
  Parser& opt_uint64(const std::string& name, std::uint64_t* out,
                     const std::string& value_name, const std::string& help);
  Parser& opt_double(const std::string& name, double* out, const std::string& value_name,
                     const std::string& help, double min_value);
  Parser& opt_string(const std::string& name, std::string* out,
                     const std::string& value_name, const std::string& help);
  /// Escape hatch for values with bespoke grammar (e.g. "--shard k/N" or
  /// checkpoint lists).  `parse` returns false to reject the value; on
  /// rejection the parser emits "invalid value for <name>".
  Parser& opt_custom(const std::string& name, const std::string& value_name,
                     const std::string& help,
                     std::function<bool(const std::string&)> parse);

  /// Marks the most recently declared flag as hidden: it still parses but is
  /// omitted from --help (internal worker-mode plumbing).
  Parser& hidden();

  /// In allow-unknown mode unrecognized arguments are skipped instead of
  /// being an error.  Benches use this to stay drop-in under flag-appending
  /// harnesses; tools stay strict.
  Parser& allow_unknown();

  /// Appends the environment-variable registry to --help output.
  Parser& with_env_help();

  /// Parses argv.  kHelp/kError have already printed to stdout/stderr
  /// respectively; the caller just maps them to exit codes 0/2.
  [[nodiscard]] ParseStatus parse(int argc, char** argv);

  void print_usage(std::FILE* to) const;

 private:
  struct Option {
    std::string name;
    std::string value_name;  ///< empty for boolean flags
    std::string help;
    bool is_hidden = false;
    std::function<bool(const std::string& value, std::string* error)> apply;
  };

  Parser& add(Option option);
  [[nodiscard]] const Option* find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  bool allow_unknown_ = false;
  bool env_help_ = false;
};

/// Parses `text` as one finite double (strtod grammar, nothing trailing).
/// NaN, infinities and out-of-range values are rejected.  The number parser
/// behind opt_double, for opt_custom grammars that hold numbers.
[[nodiscard]] bool parse_double(const std::string& text, double* out);

// -- environment registry ---------------------------------------------------

struct EnvVar {
  const char* name;
  const char* doc;
};

/// Every environment variable the codebase reads, with a one-line doc.
[[nodiscard]] const std::vector<EnvVar>& env_vars();

/// Returns the value of a *registered* environment variable, or nullptr when
/// it is unset or set to the empty string.  Unregistered names are a logic
/// error (ARO_ASSERT) so new env reads must be added to the registry.
[[nodiscard]] const char* env_value(const char* name);

/// Renders the registry as an indented block for --help output.
[[nodiscard]] std::string env_help();

}  // namespace aropuf::cli
