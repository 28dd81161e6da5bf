#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>

#include "common/flags.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/parse_limits.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/status_builder.h"
#include "common/string_util.h"

namespace ssum {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, WithContextPrefixes) {
  Status s = Status::NotFound("x").WithContext("loading file");
  EXPECT_EQ(s.ToString(), "NotFound: loading file: x");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  int h;
  SSUM_ASSIGN_OR_RETURN(h, Half(x));
  SSUM_ASSIGN_OR_RETURN(h, Half(h));
  return h;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(SplitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(TrimWhitespace("  x \t\n"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64(" -7 "), -7);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_FALSE(ParseDouble("1.5.2").ok());
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
  EXPECT_EQ(FormatWithCommas(-1000), "-1,000");
  EXPECT_EQ(FormatWithCommas(12), "12");
  EXPECT_EQ(AsciiToLower("AbC-9"), "abc-9");
}

TEST(RngTest, Deterministic) {
  Rng a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(10), 10u);
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, PoissonMeanRoughlyRight) {
  Rng rng(4);
  for (double mean : {0.5, 3.0, 50.0}) {
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.NextPoisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.1 + 0.05);
  }
  EXPECT_EQ(rng.NextPoisson(0.0), 0u);
  EXPECT_EQ(rng.NextPoisson(-1.0), 0u);
}

TEST(RngTest, WeightedSampling) {
  Rng rng(5);
  std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextWeighted(w), 1u);
  std::vector<double> zero{0.0, 0.0};
  EXPECT_EQ(rng.NextWeighted(zero), zero.size());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::multiset<int> s(v.begin(), v.end());
  EXPECT_EQ(s, (std::multiset<int>{1, 2, 3, 4, 5}));
}

TEST(RngTest, ForkIndependence) {
  Rng parent(7);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.Next(), child2.Next());
}

TEST(ZipfTest, SkewsTowardZero) {
  Rng rng(8);
  ZipfTable zipf(100, 1.2);
  size_t low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 10) ++low;
  }
  EXPECT_GT(low, static_cast<size_t>(n / 2));  // top 10% gets most mass
}

TEST(StatusBuilderTest, RendersSourceLineAndOffset) {
  Status s = StatusBuilder(StatusCode::kParseError)
                 .Source("file.xml")
                 .Line(12)
                 .ByteOffset(3456)
             << "unterminated entity '&" << "amp" << "'";
  EXPECT_TRUE(s.IsParseError());
  EXPECT_EQ(s.message(), "unterminated entity '&amp' (file.xml:12, byte 3456)");
}

TEST(StatusBuilderTest, OmitsUnsetFields) {
  Status no_location = StatusBuilder(StatusCode::kInvalidArgument) << "plain";
  EXPECT_EQ(no_location.message(), "plain");
  Status line_only = ParseErrorAt(3, 17) << "bad record";
  EXPECT_EQ(line_only.message(), "bad record (line 3, byte 17)");
}

TEST(StatusBuilderTest, ConvertsToResult) {
  Result<int> r = ParseErrorAt(1, 0) << "nope";
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(ParseLimitsTest, InputSizeCheck) {
  ParseLimits limits;
  limits.max_input_bytes = 100;
  EXPECT_TRUE(CheckInputSize(100, limits, "doc").ok());
  Status st = CheckInputSize(101, limits, "doc");
  EXPECT_TRUE(st.IsOutOfRange());
  EXPECT_NE(st.message().find("doc"), std::string::npos) << st.ToString();
  EXPECT_TRUE(CheckInputSize(1ull << 40, ParseLimits::Unbounded(), "x").ok());
}

TEST(LoggingTest, LevelGate) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SSUM_LOG(kInfo) << "suppressed";
  SetLogLevel(old);
}

/// Destinations of FlagSpecs(): one flag of each kind, with the ranges the
/// CLI gives the same names.
struct FlagValues {
  uint32_t threads = 0;
  std::optional<int64_t> deadline_ms;
  uint32_t workers = 2;
  uint32_t queue = 8;
  uint32_t max_depth = 0;
  double scale = 0.05;
  double epsilon = 0.1;
  std::string cache_dir;
  std::string mode = "exact";
  bool hide_simple = false;
};

std::vector<Flag> FlagSpecs(FlagValues* v) {
  return {ThreadsFlag(&v->threads),
          IntFlag("--deadline-ms", &v->deadline_ms, 0, INT64_MAX),
          IntFlag("--workers", &v->workers, 1, kMaxThreads),
          IntFlag("--queue", &v->queue, 0, UINT32_MAX),
          IntFlag("--max-depth", &v->max_depth, 0, UINT32_MAX),
          DoubleFlag("--scale", &v->scale, {.min = 0, .min_open = true}),
          DoubleFlag("--epsilon", &v->epsilon,
                     {.min = 0, .max = 1, .max_open = true}),
          StringFlag("--cache-dir", &v->cache_dir).WithEnv("SSUM_CACHE_DIR"),
          ChoiceFlag("--mode", &v->mode,
                     {{"exact", "exact"}, {"approx", "approx"}}),
          BoolFlag("--hide-simple", &v->hide_simple)};
}

Result<std::vector<std::string>> ParseTestFlags(
    const std::vector<std::string>& args, FlagValues* v) {
  return ParseFlags(args, FlagSpecs(v));
}

TEST(FlagsTest, BothSpellingsSetValuesAndKeepPositionals) {
  unsetenv("SSUM_THREADS");
  unsetenv("SSUM_CACHE_DIR");
  for (const bool joined : {false, true}) {
    const auto arg = [joined](std::vector<std::string>* args,
                              const std::string& name,
                              const std::string& value) {
      if (joined) {
        args->push_back(name + "=" + value);
      } else {
        args->push_back(name);
        args->push_back(value);
      }
    };
    std::vector<std::string> args = {"first"};
    arg(&args, "--threads", "4");
    arg(&args, "--deadline-ms", "0");
    args.push_back("second");
    arg(&args, "--scale", "2.5");
    arg(&args, "--mode", "approx");
    arg(&args, "--cache-dir", "a=b");
    args.push_back("--hide-simple");
    FlagValues v;
    auto positional = ParseTestFlags(args, &v);
    ASSERT_TRUE(positional.ok()) << positional.status().ToString();
    EXPECT_EQ(*positional, (std::vector<std::string>{"first", "second"}));
    EXPECT_EQ(v.threads, 4u);
    EXPECT_EQ(v.deadline_ms, std::optional<int64_t>(0));
    EXPECT_EQ(v.scale, 2.5);
    EXPECT_EQ(v.mode, "approx");
    EXPECT_EQ(v.cache_dir, "a=b");
    EXPECT_TRUE(v.hide_simple);
    EXPECT_EQ(v.workers, 2u);  // absent flags keep their defaults
  }
  FlagValues v;
  ASSERT_TRUE(ParseTestFlags({}, &v).ok());
  EXPECT_FALSE(v.deadline_ms.has_value());
}

TEST(FlagsTest, BadCommandLinesNameTheFlag) {
  unsetenv("SSUM_THREADS");
  unsetenv("SSUM_CACHE_DIR");
  struct Case {
    std::vector<std::string> args;
    const char* named;  ///< must appear in the error message
  };
  const Case cases[] = {
      {{"--cahce-dir", "D"}, "--cahce-dir"},
      {{"-x"}, "-x"},
      {{"--threads"}, "--threads"},  // missing value at the end
      {{"pos", "--epsilon"}, "--epsilon"},
      {{"--threads=abc"}, "--threads"},
      {{"--threads", "0"}, "--threads"},
      {{"--threads", "-3"}, "--threads"},
      {{"--threads", "2x"}, "--threads"},
      {{"--threads="}, "--threads"},
      {{"--threads", "1025"}, "--threads"},
      {{"--threads", "4294967297"}, "--threads"},
      {{"--threads", "99999999999999999999"}, "--threads"},
      // A negative number is taken as the value, then rejected by range.
      {{"--deadline-ms", "-1"}, "--deadline-ms"},
      {{"--workers", "0"}, "--workers"},
      {{"--workers", "4294967297"}, "--workers"},
      {{"--queue", "4294967296"}, "--queue"},
      {{"--max-depth", "abc"}, "--max-depth"},
      {{"--max-depth", "4294967296"}, "--max-depth"},
      {{"--scale", "0"}, "--scale"},
      {{"--scale", "nan"}, "--scale"},
      {{"--scale", "inf"}, "--scale"},
      {{"--scale", "-inf"}, "--scale"},
      {{"--scale", "1e999"}, "--scale"},
      {{"--epsilon", "nan"}, "--epsilon"},
      {{"--epsilon", "1"}, "--epsilon"},
      {{"--epsilon", "-0.5"}, "--epsilon"},
      {{"--mode", "nope"}, "--mode"},
      {{"--cache-dir="}, "--cache-dir"},
      {{"--hide-simple=1"}, "--hide-simple"},
  };
  for (const Case& c : cases) {
    FlagValues v;
    auto positional = ParseTestFlags(c.args, &v);
    ASSERT_FALSE(positional.ok()) << c.args.back();
    EXPECT_EQ(positional.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(positional.status().message().find(c.named), std::string::npos)
        << positional.status().message();
  }
}

TEST(FlagsTest, EnvFallbackLosesToTheFlagAndIsChecked) {
  setenv("SSUM_THREADS", "3", 1);
  setenv("SSUM_CACHE_DIR", "/env/dir", 1);
  FlagValues v;
  ASSERT_TRUE(ParseTestFlags({}, &v).ok());
  EXPECT_EQ(v.threads, 3u);
  EXPECT_EQ(v.cache_dir, "/env/dir");

  FlagValues flagged;
  ASSERT_TRUE(ParseTestFlags({"--threads", "5", "--cache-dir=/flag/dir"},
                             &flagged)
                  .ok());
  EXPECT_EQ(flagged.threads, 5u);
  EXPECT_EQ(flagged.cache_dir, "/flag/dir");

  // An empty variable counts as unset.
  setenv("SSUM_THREADS", "", 1);
  FlagValues unset;
  ASSERT_TRUE(ParseTestFlags({}, &unset).ok());
  EXPECT_EQ(unset.threads, 0u);

  for (const char* bad : {"abc", "0", "2000"}) {
    setenv("SSUM_THREADS", bad, 1);
    FlagValues rejected;
    auto positional = ParseTestFlags({}, &rejected);
    ASSERT_FALSE(positional.ok()) << bad;
    EXPECT_NE(positional.status().message().find("SSUM_THREADS"),
              std::string::npos)
        << positional.status().message();
    // A valid flag still overrides a malformed variable it replaces.
    EXPECT_TRUE(ParseTestFlags({"--threads", "2"}, &rejected).ok());
  }
  unsetenv("SSUM_THREADS");
  unsetenv("SSUM_CACHE_DIR");
}

TEST(FlagsTest, StopAtPositionalLeavesTheRestUnparsed) {
  // The variable is not read either: "--threads" may still follow "cmd".
  setenv("SSUM_THREADS", "abc", 1);
  FlagValues v;
  auto rest = ParseFlags({"--queue", "2", "cmd", "--threads", "x"},
                         FlagSpecs(&v), /*stop_at_positional=*/true);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  EXPECT_EQ(*rest, (std::vector<std::string>{"cmd", "--threads", "x"}));
  EXPECT_EQ(v.queue, 2u);
  unsetenv("SSUM_THREADS");
}

}  // namespace
}  // namespace ssum
