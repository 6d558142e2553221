// Golden testbed fingerprints: pins the in-process testbed's results byte for
// byte across commits. Each case runs RunTestbed on a fixed input and seed
// and compares a 64-bit FNV-1a hash of its TestbedResultFingerprint (every
// counter and every measured double, bit for bit) against the table below.
//
// The grid covers the paper's four workloads (2 sites) under the four
// concurrency-control backends at alpha = 0 and alpha = 5 ms, plus the
// contended 4-site MB8 input of cc_test, whose 2PL run aborts global
// deadlock victims so the table pins the probe detector as well.
//
// A refactor that claims to leave the testbed unchanged must pass this test
// unedited. A change that moves results on purpose regenerates the table
// from the failure output and says so in CHANGES.md. The testbed makes no
// libm call on these paths, so the hashes are portable across x86-64 hosts.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "carat/testbed.h"
#include "cc/cc.h"
#include "workload/spec.h"

namespace carat {
namespace {

std::uint64_t Fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct GoldenCase {
  std::string label;
  model::ModelInput input;
  TestbedOptions options;
};

std::vector<GoldenCase> GoldenCases() {
  struct Paper {
    const char* name;
    workload::WorkloadSpec spec;
  };
  const std::vector<Paper> papers = {{"lb8", workload::MakeLB8(8)},
                                     {"mb4", workload::MakeMB4(8)},
                                     {"mb8", workload::MakeMB8(8)},
                                     {"ub6", workload::MakeUB6(6)}};
  std::vector<GoldenCase> cases;
  for (const Paper& paper : papers) {
    for (const cc::BackendKind kind : cc::kAllBackends) {
      for (const double alpha : {0.0, 5.0}) {
        workload::WorkloadSpec spec = paper.spec;
        spec.cc_backend = kind;
        spec.comm_delay_ms = alpha;
        GoldenCase c;
        c.label = std::string(paper.name) + "/" +
                  std::string(cc::Name(kind)) + "/a" +
                  std::to_string(static_cast<int>(alpha));
        c.input = spec.ToModelInput();
        c.options.seed = 1;
        c.options.warmup_ms = 20'000;
        c.options.measure_ms = 400'000;
        cases.push_back(std::move(c));
      }
    }
  }
  // cc_test's contended input: 4 sites, 150 granules, alpha = 5 ms.
  for (const cc::BackendKind kind : cc::kAllBackends) {
    workload::WorkloadSpec spec = workload::MakeMB8(8, 4);
    spec.comm_delay_ms = 5.0;
    spec.num_granules = 150;
    spec.cc_backend = kind;
    GoldenCase c;
    c.label = "contended-mb8/" + std::string(cc::Name(kind));
    c.input = spec.ToModelInput();
    c.options.seed = 3;
    c.options.warmup_ms = 10'000;
    c.options.measure_ms = 100'000;
    cases.push_back(std::move(c));
  }
  return cases;
}

struct Golden {
  const char* label;
  std::uint64_t hash;
};

// Generated from the in-process testbed at the commit that introduced this
// test.
constexpr Golden kGolden[] = {
    {"lb8/2pl/a0", 0xd9d7acb0977ab5b6ull},
    {"lb8/2pl/a5", 0xd9d7acb0977ab5b6ull},
    {"lb8/nowait/a0", 0x23c4eea7cd1aaf38ull},
    {"lb8/nowait/a5", 0x23c4eea7cd1aaf38ull},
    {"lb8/waitdie/a0", 0x58244c093a4470caull},
    {"lb8/waitdie/a5", 0x58244c093a4470caull},
    {"lb8/queue/a0", 0x2dcf230755bbe148ull},
    {"lb8/queue/a5", 0x2dcf230755bbe148ull},
    {"mb4/2pl/a0", 0xbe687fb7fb743ccaull},
    {"mb4/2pl/a5", 0x834b4d58abf784ddull},
    {"mb4/nowait/a0", 0x7d74527583f3960bull},
    {"mb4/nowait/a5", 0xb8953e61ceb1a152ull},
    {"mb4/waitdie/a0", 0x7e7aa959bc309c2eull},
    {"mb4/waitdie/a5", 0x0259aec366db3880ull},
    {"mb4/queue/a0", 0x2f43f729ca3f821bull},
    {"mb4/queue/a5", 0x081598db40db8989ull},
    {"mb8/2pl/a0", 0xd854e0c57856b2c8ull},
    {"mb8/2pl/a5", 0xe537e3f89654201full},
    {"mb8/nowait/a0", 0xede920adf1f53ee4ull},
    {"mb8/nowait/a5", 0xab2cc07eda648d49ull},
    {"mb8/waitdie/a0", 0x0c7b2f68b545f4c2ull},
    {"mb8/waitdie/a5", 0xa58581125a767b44ull},
    {"mb8/queue/a0", 0x2128f55077200e44ull},
    {"mb8/queue/a5", 0xc5ee181ca4416227ull},
    {"ub6/2pl/a0", 0x9198f9531812c6daull},
    {"ub6/2pl/a5", 0x6d46a7a44d99b740ull},
    {"ub6/nowait/a0", 0xcc0416810a0daf3cull},
    {"ub6/nowait/a5", 0x26d542f1a2885f46ull},
    {"ub6/waitdie/a0", 0xd6c14e8281fa47d3ull},
    {"ub6/waitdie/a5", 0x7185a27a8561bc76ull},
    {"ub6/queue/a0", 0x8345d1bcc8a2a055ull},
    {"ub6/queue/a5", 0x89b6abc462a73e23ull},
    {"contended-mb8/2pl", 0xee1b13024b2999b4ull},
    {"contended-mb8/nowait", 0xe4ec62f497614e66ull},
    {"contended-mb8/waitdie", 0x96e135d4ed28576dull},
    {"contended-mb8/queue", 0x3d3f621ab811473full},
};

TEST(FingerprintGolden, TestbedFingerprintsMatchTheCommittedTable) {
  const std::vector<GoldenCase> cases = GoldenCases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  std::string table;
  int mismatches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const TestbedResult result = RunTestbed(c.input, c.options);
    ASSERT_TRUE(result.ok) << c.label << ": " << result.error;
    EXPECT_TRUE(result.database_consistent) << c.label;
    const std::uint64_t hash = Fnv1a64(TestbedResultFingerprint(result));
    char line[96];
    std::snprintf(line, sizeof(line), "    {\"%s\", 0x%016llxull},\n",
                  c.label.c_str(), static_cast<unsigned long long>(hash));
    table += line;
    EXPECT_EQ(c.label, kGolden[i].label);
    if (hash != kGolden[i].hash) {
      ++mismatches;
      ADD_FAILURE() << c.label << ": fingerprint hash " << std::hex << hash
                    << " != golden " << kGolden[i].hash;
    }
    if (c.label == "contended-mb8/2pl") {
      // The table must pin the probe detector, not only the lock tables.
      EXPECT_GT(result.global_deadlocks, 0u);
      EXPECT_GT(result.probes_sent, 0u);
    }
  }
  EXPECT_EQ(mismatches, 0) << "observed table:\n" << table;
}

}  // namespace
}  // namespace carat
