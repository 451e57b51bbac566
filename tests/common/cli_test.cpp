#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace aropuf::cli {
namespace {

/// Owns argv storage: Parser::parse wants char**, string literals are const.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (std::string& arg : storage_) pointers_.push_back(arg.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(pointers_.size()); }
  [[nodiscard]] char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

void set_env(const char* name, const char* value) {
#ifdef _WIN32
  _putenv_s(name, value == nullptr ? "" : value);
#else
  if (value == nullptr) {
    unsetenv(name);
  } else {
    setenv(name, value, 1);
  }
#endif
}

TEST(CliParserTest, ParsesEveryFlagKind) {
  bool verbose = false;
  int chips = 0;
  std::uint64_t seed = 0;
  double timeout = 0.0;
  std::string out;
  std::string custom;
  Parser parser("prog", "test program");
  parser.flag("--verbose", &verbose, "chatty")
      .opt_int("--chips", &chips, "N", "population", 2)
      .opt_uint64("--seed", &seed, "S", "master seed")
      .opt_double("--timeout", &timeout, "SECS", "per-shard budget", 0.0)
      .opt_string("--out", &out, "DIR", "output directory")
      .opt_custom("--pair", "K/N", "bespoke grammar",
                  [&custom](const std::string& value) {
                    custom = value;
                    return value.find('/') != std::string::npos;
                  });
  Argv argv({"prog", "--verbose", "--chips", "12", "--seed=18446744073709551615",
             "--timeout", "2.5", "--out=runs/a", "--pair", "3/4"});
  ASSERT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kOk);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(chips, 12);
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_EQ(timeout, 2.5);
  EXPECT_EQ(out, "runs/a");
  EXPECT_EQ(custom, "3/4");
}

TEST(CliParserTest, UnknownFlagIsAnErrorInStrictMode) {
  int chips = 0;
  Parser parser("prog", "test program");
  parser.opt_int("--chips", &chips, "N", "population", 2);
  Argv argv({"prog", "--nope"});
  EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError);
}

TEST(CliParserTest, AllowUnknownSkipsForeignArguments) {
  int chips = 0;
  Parser parser("prog", "test program");
  parser.opt_int("--chips", &chips, "N", "population", 2).allow_unknown();
  Argv argv({"prog", "--benchmark_filter=all", "--chips", "8", "positional"});
  EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kOk);
  EXPECT_EQ(chips, 8);
}

TEST(CliParserTest, HelpShortCircuits) {
  Parser parser("prog", "test program");
  Argv argv({"prog", "--help"});
  EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kHelp);
  Argv short_form({"prog", "-h"});
  EXPECT_EQ(parser.parse(short_form.argc(), short_form.argv()), ParseStatus::kHelp);
}

TEST(CliParserTest, RejectsBadValues) {
  int chips = 0;
  std::uint64_t seed = 0;
  {  // below the declared minimum
    Parser parser("prog", "test");
    parser.opt_int("--chips", &chips, "N", "population", 2);
    Argv argv({"prog", "--chips", "1"});
    EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError);
  }
  {  // not a number at all
    Parser parser("prog", "test");
    parser.opt_uint64("--seed", &seed, "S", "seed");
    Argv argv({"prog", "--seed", "twelve"});
    EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError);
  }
  {  // trailing junk after the number is not silently ignored
    Parser parser("prog", "test");
    parser.opt_int("--chips", &chips, "N", "population", 2);
    Argv argv({"prog", "--chips", "12abc"});
    EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError);
  }
  {  // missing value
    Parser parser("prog", "test");
    parser.opt_int("--chips", &chips, "N", "population", 2);
    Argv argv({"prog", "--chips"});
    EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError);
  }
  {  // custom parser veto
    Parser parser("prog", "test");
    parser.opt_custom("--pair", "K/N", "grammar",
                      [](const std::string& value) { return value == "ok"; });
    Argv argv({"prog", "--pair", "bad"});
    EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError);
  }
  // Non-finite doubles, even under a bound every finite value passes.
  for (const char* value : {"nan", "inf", "-inf"}) {
    double timeout = 0.0;
    Parser parser("prog", "test");
    parser.opt_double("--timeout", &timeout, "SEC", "bound",
                      -std::numeric_limits<double>::infinity());
    Argv argv({"prog", "--timeout", value});
    EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kError) << value;
  }
}

TEST(CliParserTest, HiddenFlagsStillParse) {
  std::string manifest;
  Parser parser("prog", "test");
  parser.opt_string("--manifest", &manifest, "PATH", "worker plumbing").hidden();
  Argv argv({"prog", "--manifest=/tmp/m.json"});
  EXPECT_EQ(parser.parse(argv.argc(), argv.argv()), ParseStatus::kOk);
  EXPECT_EQ(manifest, "/tmp/m.json");
}

TEST(CliEnvTest, RegistryLookupsTreatEmptyAsUnset) {
  // AROPUF_TRACE is registered but only read by the trace subsystem at
  // session start, so mutating it here cannot perturb other tests.
  set_env("AROPUF_TRACE", nullptr);
  EXPECT_EQ(env_value("AROPUF_TRACE"), nullptr);
  set_env("AROPUF_TRACE", "");
  EXPECT_EQ(env_value("AROPUF_TRACE"), nullptr);
  set_env("AROPUF_TRACE", "trace.json");
  ASSERT_NE(env_value("AROPUF_TRACE"), nullptr);
  EXPECT_STREQ(env_value("AROPUF_TRACE"), "trace.json");
  set_env("AROPUF_TRACE", nullptr);
}

TEST(CliEnvTest, EveryRegisteredVariableIsDocumented) {
  ASSERT_FALSE(env_vars().empty());
  for (const EnvVar& var : env_vars()) {
    EXPECT_NE(var.name, nullptr);
    EXPECT_NE(var.doc, nullptr);
    EXPECT_NE(env_help().find(var.name), std::string::npos) << var.name;
  }
}

}  // namespace
}  // namespace aropuf::cli
