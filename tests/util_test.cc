#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/approx.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"

namespace carat::util {
namespace {

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ConfidenceHalfWidth(), 0.0);
}

TEST(StatAccumulator, MeanAndVariance) {
  StatAccumulator s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
}

TEST(StatAccumulator, MergeMatchesCombinedStream) {
  StatAccumulator a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-12);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
}

TEST(StatAccumulator, SingleObservationHasZeroCi) {
  StatAccumulator s;
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.ConfidenceHalfWidth(), 0.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 3.0);
}

TEST(TimeWeightedStat, PiecewiseConstantSignal) {
  TimeWeightedStat tw;
  tw.Update(0.0, 2.0);   // value 2 on [0, 10)
  tw.Update(10.0, 4.0);  // value 4 on [10, 30)
  EXPECT_NEAR(tw.MeanAt(30.0), (2.0 * 10 + 4.0 * 20) / 30.0, 1e-12);
}

TEST(TimeWeightedStat, BeforeFirstUpdateIsZero) {
  TimeWeightedStat tw;
  EXPECT_DOUBLE_EQ(tw.MeanAt(5.0), 0.0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  Rng a2(42);
  EXPECT_NE(a2(), c());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedCoversRangeUniformly) {
  Rng rng(2);
  int counts[10] = {};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(3);
  StatAccumulator s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.NextExponential(5.0));
  EXPECT_NEAR(s.Mean(), 5.0, 0.05);
}

// The generator streams are part of the repro-file contract: a fuzz finding
// names only (seed, index), so the sequences below must never change. The
// seed-0 SplitMix64 values match the published reference implementation's.
TEST(SplitMix64, PinnedReferenceSequence) {
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm(), 0x06c45d188009454fULL);
  EXPECT_EQ(sm(), 0xf88bb8a8724c81ecULL);
  EXPECT_EQ(sm(), 0x1b39896a51a8749bULL);
  SplitMix64 sm42(42);
  EXPECT_EQ(sm42(), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(sm42(), 0x28efe333b266f103ULL);
  EXPECT_EQ(sm42(), 0x47526757130f9f52ULL);
}

TEST(Rng, PinnedSequence) {
  Rng rng(7);
  EXPECT_EQ(rng(), 0xb358faf74ef9765aULL);
  EXPECT_EQ(rng(), 0x475c3d964f482cd2ULL);
  EXPECT_EQ(rng(), 0xd6f1d349952c7996ULL);
  EXPECT_EQ(rng(), 0xfb2938731e807240ULL);
  Rng d(7);
  EXPECT_EQ(d.NextDouble(), 0.7005764821796896);
  EXPECT_EQ(d.NextDouble(), 0.27875122947378428);
  EXPECT_EQ(d.NextDouble(), 0.83962746187641979);
}

TEST(Rng, NextIntInIsInclusiveAndPinned) {
  Rng rng(123);
  const std::int64_t expected[] = {-1, 9, 3, -2, 1, 9};
  for (std::int64_t e : expected) EXPECT_EQ(rng.NextIntIn(-3, 9), e);
  Rng bounds(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = bounds.NextIntIn(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.NextIntIn(4, 4), 4);
}

TEST(Rng, NextLogUniformStaysInRangeAndIsPinned) {
  Rng rng(99);
  EXPECT_EQ(rng.NextLogUniform(0.5, 2000.0), 9.0161725461424798);
  EXPECT_EQ(rng.NextLogUniform(0.5, 2000.0), 53.768996167438353);
  EXPECT_EQ(rng.NextLogUniform(0.5, 2000.0), 11.5165272834546);
  EXPECT_EQ(rng.NextLogUniform(0.5, 2000.0), 603.93954999823416);
  Rng range(6);
  int decades[4] = {};  // [1e-2,1e-1), [1e-1,1), [1,10), [10,100)
  for (int i = 0; i < 40000; ++i) {
    const double v = range.NextLogUniform(0.01, 100.0);
    EXPECT_GE(v, 0.01);
    EXPECT_LT(v, 100.0);
    ++decades[static_cast<int>(std::floor(std::log10(v))) + 2];
  }
  // Log-uniform: each decade carries a quarter of the mass.
  for (int c : decades) EXPECT_NEAR(c, 10000, 400);
  EXPECT_EQ(range.NextLogUniform(3.0, 3.0), 3.0);
}

TEST(Approx, RelDiffIsSymmetricAndZeroOnEqual) {
  EXPECT_EQ(RelDiff(3.0, 3.0), 0.0);
  EXPECT_EQ(RelDiff(0.0, 0.0), 0.0);
  EXPECT_EQ(RelDiff(-0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RelDiff(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(RelDiff(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(RelDiff(-1.0, 1.0), 2.0);
  EXPECT_TRUE(std::isinf(
      RelDiff(1.0, std::numeric_limits<double>::infinity())));
}

TEST(Approx, AbsRelAndFloorSemantics) {
  EXPECT_TRUE(ApproxAbs(1.0, 1.05, 0.1));
  EXPECT_FALSE(ApproxAbs(1.0, 1.2, 0.1));
  EXPECT_TRUE(ApproxRel(100.0, 101.0, 0.02));
  EXPECT_FALSE(ApproxRel(100.0, 103.0, 0.02));
  // Relative comparison alone fails near zero; the floor rescues it.
  EXPECT_FALSE(ApproxRel(0.0, 1e-15, 1e-9));
  EXPECT_TRUE(ApproxRelAbs(0.0, 1e-15, 1e-9, 1e-12));
  EXPECT_FALSE(ApproxRelAbs(0.0, 1e-3, 1e-9, 1e-12));
  // Equal values always pass, including infinities; NaN never does.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ApproxAbs(inf, inf, 0.0));
  EXPECT_TRUE(ApproxRel(inf, inf, 0.0));
  EXPECT_FALSE(ApproxRel(inf, 1.0, 0.5));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ApproxAbs(nan, nan, 1.0));
  EXPECT_FALSE(ApproxRel(nan, 1.0, 1.0));
  EXPECT_FALSE(ApproxRelAbs(nan, nan, 1.0, 1.0));
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.SetHeader({"a", "long-header"});
  t.AddRow({"xx", "1"});
  t.AddSeparator();
  t.AddRow({"y", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("xx"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::Num(0.945, 2), "0.94");
  EXPECT_EQ(TextTable::Num(12.5, 1), "12.5");
}

TEST(Cli, ParseJobsAcceptsPositiveIntegers) {
  int jobs = 0;
  ASSERT_TRUE(ParseJobs("1", &jobs));
  EXPECT_EQ(jobs, 1);
  ASSERT_TRUE(ParseJobs("64", &jobs));
  EXPECT_EQ(jobs, 64);
}

TEST(Cli, ParseJobsRejectsZeroNegativeAndNonNumeric) {
  int jobs = -1;
  EXPECT_FALSE(ParseJobs("0", &jobs));
  EXPECT_FALSE(ParseJobs("-2", &jobs));
  EXPECT_FALSE(ParseJobs("4x", &jobs));
  EXPECT_FALSE(ParseJobs("x4", &jobs));
  EXPECT_FALSE(ParseJobs("", &jobs));
  EXPECT_FALSE(ParseJobs("2.5", &jobs));
  EXPECT_FALSE(ParseJobs("10000000", &jobs));  // above the sanity cap
  EXPECT_EQ(jobs, -1);  // rejected parses never write the output
}

TEST(Cli, ParseSizesAcceptsCommaSeparatedPositives) {
  std::vector<int> sizes;
  std::string bad;
  ASSERT_TRUE(ParseSizes("4,8,12", &sizes, &bad));
  EXPECT_EQ(sizes, (std::vector<int>{4, 8, 12}));
  ASSERT_TRUE(ParseSizes("7", &sizes, &bad));
  EXPECT_EQ(sizes, (std::vector<int>{7}));
}

TEST(Cli, ParseHostPortSplitsOnTheLastColon) {
  std::string host;
  int port = -1;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:7411", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7411);
  ASSERT_TRUE(ParseHostPort("localhost:0", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 0);  // ephemeral bind
  ASSERT_TRUE(ParseHostPort("0.0.0.0:65535", &host, &port));
  EXPECT_EQ(port, 65535);
}

TEST(Cli, ParseHostPortRejectsMalformedAddresses) {
  std::string host = "unchanged";
  int port = -1;
  EXPECT_FALSE(ParseHostPort("hostonly", &host, &port));
  EXPECT_FALSE(ParseHostPort(":80", &host, &port));       // empty host
  EXPECT_FALSE(ParseHostPort("host:", &host, &port));     // empty port
  EXPECT_FALSE(ParseHostPort("host:99999", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:-1", &host, &port));
  EXPECT_FALSE(ParseHostPort("host:80x", &host, &port));
  EXPECT_FALSE(ParseHostPort("", &host, &port));
  EXPECT_FALSE(ParseHostPort(nullptr, &host, &port));
  EXPECT_EQ(host, "unchanged");  // rejected parses never write the outputs
  EXPECT_EQ(port, -1);
}

TEST(Cli, ParseHostPortHandlesBracketedIpv6Hosts) {
  std::string host;
  int port = -1;
  ASSERT_TRUE(ParseHostPort("[::1]:8080", &host, &port));
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(ParseHostPort("[fe80::2%eth0]:7411", &host, &port));
  EXPECT_EQ(host, "fe80::2%eth0");
  EXPECT_EQ(port, 7411);

  // Regression: an unbracketed multi-colon host is ambiguous — splitting
  // "::1:8080" on any single colon silently mis-attributes part of the
  // address as the port — so it is rejected instead of mis-parsed.
  EXPECT_FALSE(ParseHostPort("::1:8080", &host, &port));
  EXPECT_FALSE(ParseHostPort("fe80::2:7411", &host, &port));

  // Malformed bracketed forms.
  EXPECT_FALSE(ParseHostPort("[]:80", &host, &port));     // empty host
  EXPECT_FALSE(ParseHostPort("[::1]", &host, &port));     // no port
  EXPECT_FALSE(ParseHostPort("[::1]8080", &host, &port));  // missing colon
  EXPECT_FALSE(ParseHostPort("[::1]:", &host, &port));    // empty port
}

TEST(Cli, ParseHostPortPortZeroPolicy) {
  std::string host;
  int port = -1;
  // Listen endpoints: 0 asks the kernel for an ephemeral port.
  ASSERT_TRUE(ParseHostPort("127.0.0.1:0", &host, &port,
                            PortZeroPolicy::kAllow));
  EXPECT_EQ(port, 0);
  // Connect endpoints: a client dialing port 0 is always a scripting bug.
  host = "unchanged";
  port = -1;
  EXPECT_FALSE(ParseHostPort("127.0.0.1:0", &host, &port,
                             PortZeroPolicy::kReject));
  EXPECT_EQ(host, "unchanged");
  EXPECT_EQ(port, -1);
  ASSERT_TRUE(ParseHostPort("127.0.0.1:7411", &host, &port,
                            PortZeroPolicy::kReject));
  EXPECT_EQ(port, 7411);
}

TEST(Cli, ParseSizesNamesTheBadToken) {
  std::vector<int> sizes;
  std::string bad;
  EXPECT_FALSE(ParseSizes("4,zero,8", &sizes, &bad));
  EXPECT_EQ(bad, "zero");
  EXPECT_FALSE(ParseSizes("4,-8", &sizes, &bad));
  EXPECT_EQ(bad, "-8");
  EXPECT_FALSE(ParseSizes("", &sizes, &bad));
}

}  // namespace
}  // namespace carat::util
