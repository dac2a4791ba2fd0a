// Unit tests for src/util: rng, stats, strings, cli, config, table.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/cli.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace su = streambrain::util;

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  su::Rng a(123);
  su::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  su::Rng a(1);
  su::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  su::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  su::Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexIsInRange) {
  su::Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  su::Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  su::Rng rng(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch) {
  su::Rng rng(23);
  su::RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.normal());
  EXPECT_NEAR(stat.mean(), 0.0, 0.02);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParams) {
  su::Rng rng(29);
  su::RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stat.mean(), 5.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  su::Rng rng(31);
  su::RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.exponential(2.0));
  EXPECT_NEAR(stat.mean(), 0.5, 0.02);
}

TEST(Rng, GammaMeanMatchesShapeScale) {
  su::Rng rng(37);
  su::RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.add(rng.gamma(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 6.0, 0.1);   // k * theta
  EXPECT_NEAR(stat.variance(), 12.0, 0.6);  // k * theta^2
}

TEST(Rng, GammaShapeBelowOne) {
  su::Rng rng(41);
  su::RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.gamma(0.5, 1.0);
    EXPECT_GE(v, 0.0);
    stat.add(v);
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  su::Rng rng(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  su::Rng rng(47);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  su::Rng rng(53);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto copy = values;
  rng.shuffle(copy);
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, values);
}

TEST(Rng, SplitStreamsAreIndependentish) {
  su::Rng parent(59);
  su::Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent() == child()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

// -------------------------------------------------------------- stats ----

TEST(RunningStat, BasicMoments) {
  su::RunningStat stat;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.add(v);
  EXPECT_EQ(stat.count(), 8u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(stat.min(), 2.0);
  EXPECT_EQ(stat.max(), 9.0);
}

// ------------------------------------------------------------- string ----

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto fields = su::split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(su::trim("  hi \t\n"), "hi");
  EXPECT_EQ(su::trim(""), "");
  EXPECT_EQ(su::trim("   "), "");
  EXPECT_EQ(su::trim("x"), "x");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(su::starts_with("--flag", "--"));
  EXPECT_FALSE(su::starts_with("-", "--"));
  EXPECT_TRUE(su::ends_with("file.csv", ".csv"));
  EXPECT_FALSE(su::ends_with("csv", ".csv"));
}

TEST(StringUtil, ParseDoubleStrict) {
  EXPECT_EQ(su::parse_double("3.25"), 3.25);
  EXPECT_EQ(su::parse_double(" -1e3 "), -1000.0);
  EXPECT_FALSE(su::parse_double("12abc").has_value());
  EXPECT_FALSE(su::parse_double("").has_value());
}

TEST(StringUtil, ParseIntStrict) {
  EXPECT_EQ(su::parse_int("42"), 42);
  EXPECT_EQ(su::parse_int("-7"), -7);
  EXPECT_FALSE(su::parse_int("3.5").has_value());
  EXPECT_FALSE(su::parse_int("x").has_value());
}

TEST(StringUtil, FormatAndJoin) {
  EXPECT_EQ(su::format("%.2f%%", 68.58), "68.58%");
  EXPECT_EQ(su::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(su::join({}, ","), "");
}

// ---------------------------------------------------------------- cli ----

TEST(ArgParser, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha", "0.5",  "--flag",
                        "--name=x", "pos1",    "--n",  "42"};
  su::ArgParser args(8, argv);
  EXPECT_EQ(args.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("name", ""), "x");
  EXPECT_EQ(args.get_int("n", 0), 42);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(ArgParser, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  su::ArgParser args(1, argv);
  EXPECT_EQ(args.get_int("missing", 9), 9);
  EXPECT_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_string("missing", "dflt"), "dflt");
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(ArgParser, BoolValueForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=off", "--d=yes"};
  su::ArgParser args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
}

// ------------------------------------------------------------- config ----

TEST(Config, SetGetRoundTrip) {
  su::Config config;
  config.set_int("n", 7);
  config.set_double("x", 2.5);
  config.set_bool("flag", true);
  config.set_string("s", "abc");
  EXPECT_EQ(config.get_int("n", 0), 7);
  EXPECT_EQ(config.get_double("x", 0.0), 2.5);
  EXPECT_TRUE(config.get_bool("flag", false));
  EXPECT_EQ(config.get_string("s", ""), "abc");
}

TEST(Config, NumericCrossConversion) {
  su::Config config;
  config.set_int("n", 7);
  config.set_double("x", 2.9);
  EXPECT_EQ(config.get_double("n", 0.0), 7.0);
  EXPECT_EQ(config.get_int("x", 0), 2);  // truncation
}

TEST(Config, ParseInfersTypes) {
  const auto config = su::Config::parse("a=1, b=2.5, c=true, d=hello");
  EXPECT_EQ(config.get_int("a", 0), 1);
  EXPECT_EQ(config.get_double("b", 0.0), 2.5);
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_EQ(config.get_string("d", ""), "hello");
}

TEST(Config, ParseRejectsMalformed) {
  EXPECT_THROW(su::Config::parse("novalue"), std::invalid_argument);
  EXPECT_THROW(su::Config::parse("=x"), std::invalid_argument);
}

TEST(Config, KeysSortedAndToString) {
  su::Config config;
  config.set_int("zeta", 1);
  config.set_int("alpha", 2);
  const auto keys = config.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "zeta");
  EXPECT_EQ(config.to_string(), "alpha=2 zeta=1");
}

// -------------------------------------------------------------- table ----

TEST(Table, RendersAligned) {
  su::Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22.5"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  su::Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatters) {
  EXPECT_EQ(su::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(su::Table::pct(0.6858, 2), "68.58%");
}

// -------------------------------------------------------------- timer ----

TEST(Stopwatch, MeasuresElapsed) {
  su::Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(watch.seconds(), 0.0);
  (void)sink;
}

TEST(Stopwatch, PauseStopsAccumulation) {
  su::Stopwatch watch;
  watch.pause();
  const double at_pause = watch.seconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(watch.seconds(), at_pause);
  watch.resume();
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(watch.seconds(), at_pause);
  (void)sink;
}
