#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/config.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/string_util.h"
#include "common/units.h"

namespace nest {
namespace {

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.code(), Errc::ok);
}

TEST(Result, HoldsError) {
  Result<int> r = Error{Errc::not_found, "nope"};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::not_found);
  EXPECT_EQ(r.error().to_string(), "not_found: nope");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, CarriesError) {
  Status s{Errc::permission_denied, "acl"};
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::permission_denied);
}

TEST(StringUtil, SplitPreservesEmpty) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtil, SplitWsDropsEmpty) {
  const auto parts = split_ws("  GET   /a/b  HTTP/1.0 ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "GET");
  EXPECT_EQ(parts[2], "HTTP/1.0");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(parse_int("123").value(), 123);
  EXPECT_EQ(parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(StringUtil, NormalizePathCollapses) {
  EXPECT_EQ(normalize_path("//a///b/"), "/a/b");
  EXPECT_EQ(normalize_path("a/b"), "/a/b");
  EXPECT_EQ(normalize_path("/a/./b"), "/a/b");
}

TEST(StringUtil, NormalizePathCannotEscapeRoot) {
  EXPECT_EQ(normalize_path("/../../etc/passwd"), "/etc/passwd");
  EXPECT_EQ(normalize_path("/a/../../b"), "/b");
  EXPECT_EQ(normalize_path(".."), "/");
}

TEST(StringUtil, ParentAndBasename) {
  EXPECT_EQ(parent_path("/a/b/c"), "/a/b");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(parent_path("/"), "/");
  EXPECT_EQ(basename_of("/a/b/c"), "c");
  EXPECT_EQ(basename_of("/"), "");
}

TEST(StringUtil, JoinPath) {
  EXPECT_EQ(join_path("/a/", "/b"), "/a/b");
  EXPECT_EQ(join_path("/a", "b"), "/a/b");
}

TEST(Config, ParsesKeyValues) {
  auto cfg = Config::parse("port = 9094\nname= nest # comment\n\n# full\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->get_int("port"), 9094);
  EXPECT_EQ(cfg->get_string("name"), "nest");
  EXPECT_EQ(cfg->get_string("missing", "dflt"), "dflt");
}

TEST(Config, RejectsMalformedLine) {
  auto cfg = Config::parse("just some words\n");
  EXPECT_FALSE(cfg.ok());
}

TEST(Config, ParsesSizesAndBools) {
  auto cfg = Config::parse("cache = 64M\nlot = 2G\nraw=512\nflag=yes\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->get_size("cache"), 64 * kMB);
  EXPECT_EQ(cfg->get_size("lot"), 2000 * kMB);
  EXPECT_EQ(cfg->get_size("raw"), 512);
  EXPECT_TRUE(cfg->get_bool("flag"));
  EXPECT_FALSE(cfg->get_bool("nope", false));
}

TEST(Units, MbPerSec) {
  // 10 MB in 1 second
  EXPECT_DOUBLE_EQ(mb_per_sec(10 * kMB, kSecond), 10.0);
  EXPECT_DOUBLE_EQ(mb_per_sec(123, 0), 0.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(10 * kMB), "10.0 MB");
  EXPECT_EQ(format_bytes(1500), "1.5 KB");
  EXPECT_EQ(format_bytes(12), "12 B");
}

TEST(Clock, ManualAdvances) {
  ManualClock c(5);
  EXPECT_EQ(c.now(), 5);
  c.advance(10);
  EXPECT_EQ(c.now(), 15);
}

TEST(Clock, RealIsMonotonic) {
  RealClock& c = RealClock::instance();
  const Nanos a = c.now();
  const Nanos b = c.now();
  EXPECT_LE(a, b);
}

TEST(Metrics, JainFairnessIdeal) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
}

TEST(Metrics, JainFairnessSkewed) {
  // One component getting everything out of 4: 1/4
  const double f = jain_fairness({4.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(f, 0.25, 1e-9);
}

TEST(Metrics, JainFairnessMatchesPaperBallpark) {
  // A mildly skewed allocation should land between 0.8 and 1.
  const double f = jain_fairness({1.0, 1.0, 1.0, 0.45});
  EXPECT_GT(f, 0.8);
  EXPECT_LT(f, 1.0);
}

}  // namespace
}  // namespace nest
