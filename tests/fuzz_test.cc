// Tests for the metamorphic/differential fuzz subsystem (src/fuzz) plus the
// fuzz smoke tier: the whole binary carries the `fuzz` ctest label, so CI
// runs it with `ctest -L fuzz` (the 2000-scenario model smoke and a smaller
// testbed-backed smoke are the acceptance gate for solver changes).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/relations.h"
#include "fuzz/scenario.h"
#include "util/random.h"
#include "workload/spec.h"

namespace carat::fuzz {
namespace {

// ---------------------------------------------------------- serialization -

TEST(HexDouble, RoundTripsExactBits) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.5,
                          1.0 / 3.0,
                          3.141592653589793,
                          1e-300,
                          5e-324,  // smallest denormal
                          1.7976931348623157e308,
                          123456.789012345};
  for (const double v : cases) {
    const std::string text = FormatHexDouble(v);
    double back = std::numeric_limits<double>::quiet_NaN();
    ASSERT_TRUE(ParseHexDouble(text, &back)) << text;
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
        << text << " parsed to " << back;
  }
}

TEST(HexDouble, AcceptsPlainDecimalAndRejectsGarbage) {
  double v = 0;
  ASSERT_TRUE(ParseHexDouble("1.5", &v));
  EXPECT_EQ(v, 1.5);
  ASSERT_TRUE(ParseHexDouble("-2e3", &v));
  EXPECT_EQ(v, -2000.0);
  EXPECT_FALSE(ParseHexDouble("banana", &v));
  EXPECT_FALSE(ParseHexDouble("", &v));
  EXPECT_FALSE(ParseHexDouble("1.5x", &v));
}

TEST(Scenario, SerializeParseIsByteStableAndSolutionExact) {
  util::Rng rng(2026);
  for (int i = 0; i < 50; ++i) {
    const Scenario s = GenerateScenario(&rng);
    const std::string text = Serialize(s);
    Scenario parsed;
    std::string error;
    ASSERT_TRUE(Parse(text, &parsed, &error)) << error << "\n" << text;
    // Canonical form: re-serializing reproduces the text byte for byte.
    EXPECT_EQ(Serialize(parsed), text);
    EXPECT_EQ(parsed.name, s.name);
    EXPECT_EQ(parsed.testbed_seed, s.testbed_seed);
    // And the parsed scenario solves bit-identically.
    const auto a = model::CaratModel(s.input).Solve();
    const auto b = model::CaratModel(parsed.input).Solve();
    ASSERT_EQ(a.ok, b.ok);
    if (a.ok) {
      EXPECT_EQ(ModelSolutionFingerprint(a), ModelSolutionFingerprint(b));
    }
  }
}

TEST(Scenario, ParseReportsLineNumbers) {
  Scenario s;
  std::string error;
  EXPECT_FALSE(Parse("carat-scenario v1\nsites 1\nwat\nend\n", &s, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_FALSE(Parse("not-a-scenario\n", &s, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(Scenario, FileRoundTripIgnoresCommentHeader) {
  util::Rng rng(7);
  const Scenario s = GenerateScenario(&rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "fuzz_test_roundtrip.scn")
          .string();
  ASSERT_TRUE(WriteScenarioFile(path, s, "a finding\nsecond header line"));
  Scenario back;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(path, &back, &error)) << error;
  EXPECT_EQ(Serialize(back), Serialize(s));
  std::filesystem::remove(path);
}

// -------------------------------------------------------------- generator -

TEST(Generator, SameSeedSameScenario) {
  util::Rng a(31), b(31), c(32);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(Serialize(GenerateScenario(&a)), Serialize(GenerateScenario(&b)));
  }
  EXPECT_NE(Serialize(GenerateScenario(&a)), Serialize(GenerateScenario(&c)));
}

TEST(Generator, EveryScenarioValidatesWithAUser) {
  util::Rng rng(1);
  int multi_site = 0, read_only = 0, with_think = 0;
  for (int i = 0; i < 5000; ++i) {
    const Scenario s = GenerateScenario(&rng);
    std::string why;
    ASSERT_TRUE(s.input.Validate(&why)) << "scenario " << i << ": " << why;
    bool has_user = false;
    bool all_read_only = true;
    for (const auto& site : s.input.sites) {
      if (site.think_time_ms > 0) ++with_think;
      for (model::TxnType t : model::kAllTxnTypes) {
        const auto& c = site.Class(t);
        if (c.population > 0 && t != model::TxnType::kDROS &&
            t != model::TxnType::kDUS) {
          has_user = true;
        }
        if (c.population > 0 && model::IsUpdate(t)) all_read_only = false;
      }
    }
    EXPECT_TRUE(has_user) << "scenario " << i;
    multi_site += s.input.sites.size() > 1;
    read_only += all_read_only;
  }
  // The distribution must keep feeding every oracle's precondition.
  EXPECT_GT(multi_site, 1000);  // permutation / shard / distributed rules
  EXPECT_GT(read_only, 300);    // granule-invariance pool
  EXPECT_GT(with_think, 1000);  // think-time code paths
}

TEST(Generator, RespectsOptionBounds) {
  GeneratorOptions opts;
  opts.min_sites = 2;
  opts.max_sites = 2;
  opts.allow_update = false;
  opts.max_population = 1;
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Scenario s = GenerateScenario(&rng, opts);
    EXPECT_EQ(s.input.sites.size(), 2u);
    for (const auto& site : s.input.sites) {
      for (model::TxnType t : model::kAllTxnTypes) {
        const auto& c = site.Class(t);
        if (c.population > 0) EXPECT_TRUE(model::IsReadOnly(t));
        if (t != model::TxnType::kDROS && t != model::TxnType::kDUS) {
          EXPECT_LE(c.population, 1);
        }
      }
    }
  }
}

// -------------------------------------------------------------- relations -

TEST(Relations, RuleNamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (Rule r : kAllRules) names.emplace_back(RuleName(r));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumRules));
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
  // The findings-file format and the --rule flag depend on these strings.
  EXPECT_STREQ(RuleName(Rule::kModelVsTestbed), "model-vs-testbed");
  EXPECT_TRUE(RuleNeedsTestbed(Rule::kShardIdentity));
  EXPECT_TRUE(RuleNeedsTestbed(Rule::kModelVsTestbed));
  EXPECT_FALSE(RuleNeedsTestbed(Rule::kSitePermutation));
}

// Every fast rule holds on the paper's standard workloads — the anchor
// scenarios the whole validation suite is built around.
TEST(Relations, HoldOnPaperWorkloads) {
  const workload::WorkloadSpec specs[] = {
      workload::MakeLB8(8), workload::MakeMB4(8), workload::MakeMB8(8),
      workload::MakeUB6(8)};
  CheckOptions opts;
  for (const auto& wl : specs) {
    Scenario s;
    s.name = wl.name;
    s.input = wl.ToModelInput();
    for (Rule r : kAllRules) {
      if (RuleNeedsTestbed(r)) continue;
      std::string detail;
      EXPECT_TRUE(CheckRule(s, r, opts, &detail))
          << wl.name << " violates " << RuleName(r) << ": " << detail;
    }
  }
}

TEST(Relations, GranuleInvarianceSkipsUpdateWorkloads) {
  Scenario s;
  s.input = workload::MakeMB4(8).ToModelInput();  // has update classes
  CheckOptions opts;
  bool applicable = true;
  EXPECT_TRUE(CheckRule(s, Rule::kGranuleInvariance, opts, nullptr,
                        &applicable));
  EXPECT_FALSE(applicable);
}

TEST(Relations, CheckScenarioCountsPerRule) {
  util::Rng rng(11);
  const Scenario s = GenerateScenario(&rng);
  CheckOptions opts;
  CheckStats stats;
  const auto violations = CheckScenario(s, opts, &stats);
  EXPECT_TRUE(violations.empty());
  // Testbed rules must not have run.
  EXPECT_EQ(stats.per_rule_checked[static_cast<int>(Rule::kShardIdentity)], 0);
  EXPECT_EQ(stats.per_rule_checked[static_cast<int>(Rule::kModelVsTestbed)], 0);
  // The always-applicable model rules must have.
  EXPECT_EQ(stats.per_rule_checked[static_cast<int>(Rule::kQnDemandScaling)],
            1);
  long long sum = 0;
  for (long long c : stats.per_rule_checked) sum += c;
  EXPECT_EQ(sum, stats.checked);
}

// A deliberately impossible tolerance turns the exact-vs-Schweitzer
// differential into a reliable violation source for minimizer testing.
CheckOptions ImpossibleSchweitzerTolerance() {
  CheckOptions opts;
  opts.schweitzer_rel = 0.0;
  return opts;
}

TEST(Minimize, ShrinksWhilePreservingTheViolation) {
  const CheckOptions opts = ImpossibleSchweitzerTolerance();
  util::Rng rng(17);
  Scenario victim;
  bool found = false;
  for (int i = 0; i < 50 && !found; ++i) {
    victim = GenerateScenario(&rng);
    std::string detail;
    bool applicable = false;
    found = !CheckRule(victim, Rule::kExactVsSchweitzer, opts, &detail,
                       &applicable) &&
            applicable;
  }
  ASSERT_TRUE(found) << "no scenario tripped the synthetic violation";

  int evals = 0;
  const Scenario shrunk = MinimizeScenario(victim, Rule::kExactVsSchweitzer,
                                           opts, MinimizeOptions{}, &evals);
  EXPECT_GT(evals, 0);
  // Still violating, still valid, no bigger than the original.
  EXPECT_FALSE(CheckRule(shrunk, Rule::kExactVsSchweitzer, opts));
  std::string why;
  EXPECT_TRUE(shrunk.input.Validate(&why)) << why;
  EXPECT_LE(Serialize(shrunk).size(), Serialize(victim).size());
  EXPECT_LE(shrunk.input.sites.size(), victim.input.sites.size());
}

TEST(Fuzzer, RecordsMinimizedFindingsToDisk) {
  const auto dir = std::filesystem::temp_directory_path() / "fuzz_findings";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FuzzOptions opts;
  opts.seed = 17;
  opts.num_scenarios = 12;
  opts.check = ImpossibleSchweitzerTolerance();
  opts.findings_dir = dir.string();
  const FuzzReport report = RunFuzz(opts);
  ASSERT_FALSE(report.violations.empty());
  ASSERT_EQ(report.finding_files.size(), report.violations.size());
  // Each finding replays to the same violation from its file alone.
  for (std::size_t i = 0; i < report.finding_files.size(); ++i) {
    Scenario back;
    std::string error;
    ASSERT_TRUE(LoadScenarioFile(report.finding_files[i], &back, &error))
        << error;
    EXPECT_FALSE(CheckRule(back, report.violations[i].rule, opts.check));
  }
  std::filesystem::remove_all(dir);
}

TEST(Fuzzer, TimeBudgetStopsEarly) {
  FuzzOptions opts;
  opts.seed = 3;
  opts.num_scenarios = 1000000;
  opts.time_budget_s = 0.5;
  const FuzzReport report = RunFuzz(opts);
  EXPECT_GT(report.scenarios, 0);
  EXPECT_LT(report.scenarios, opts.num_scenarios);
}

// ------------------------------------------------------------ fuzz smokes -

// The acceptance smoke: 2000 scenarios through every model-level rule (the
// testbed rules get their own, smaller smoke below). Any violation prints
// the serialized repro so CI logs are self-contained.
TEST(FuzzSmoke, TwoThousandScenariosModelRulesClean) {
  FuzzOptions opts;
  opts.seed = 20260808;
  opts.num_scenarios = 2000;
  opts.minimize = true;
  const FuzzReport report = RunFuzz(opts);
  EXPECT_EQ(report.scenarios, 2000);
  for (const Violation& v : report.violations) {
    ADD_FAILURE() << RuleName(v.rule) << ": " << v.detail << "\n"
                  << Serialize(v.scenario);
  }
  // The always-applicable rule families actually exercised, a lot.
  EXPECT_GT(report.stats.per_rule_checked[static_cast<int>(
                Rule::kQnDemandScaling)],
            1900);
  EXPECT_GT(
      report.stats.per_rule_checked[static_cast<int>(Rule::kServeIdentity)],
      1900);
  EXPECT_GT(
      report.stats.per_rule_checked[static_cast<int>(Rule::kSitePermutation)],
      900);
  EXPECT_GT(
      report.stats.per_rule_checked[static_cast<int>(Rule::kChainSplit)], 900);
}

TEST(FuzzSmoke, TestbedRulesClean) {
  FuzzOptions opts;
  opts.seed = 808;
  opts.num_scenarios = 24;
  opts.testbed_every = 3;
  const FuzzReport report = RunFuzz(opts);
  EXPECT_EQ(report.testbed_scenarios, 8);
  for (const Violation& v : report.violations) {
    ADD_FAILURE() << RuleName(v.rule) << ": " << v.detail << "\n"
                  << Serialize(v.scenario);
  }
  EXPECT_GT(
      report.stats.per_rule_checked[static_cast<int>(Rule::kModelVsTestbed)],
      0);
}

// ----------------------------------------------------------------- corpus -

// tests/corpus/ holds curated seed scenarios (the paper's standard
// workloads plus generated regression anchors); every one must replay clean
// with the testbed rules on.
TEST(Corpus, ReplaysClean) {
  const std::filesystem::path dir = CARAT_FUZZ_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  CheckOptions opts;
  opts.with_testbed = true;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    ++files;
    Scenario s;
    std::string error;
    ASSERT_TRUE(LoadScenarioFile(entry.path().string(), &s, &error)) << error;
    for (const Violation& v : ReplayScenario(s, opts)) {
      ADD_FAILURE() << entry.path().filename() << " violates "
                    << RuleName(v.rule) << ": " << v.detail;
    }
  }
  EXPECT_GE(files, 8) << "seed corpus went missing from " << dir;
}

}  // namespace
}  // namespace carat::fuzz
