// The fuzz loop: generate -> check -> (minimize, record) and the repro-file
// plumbing shared by tools/carat_fuzz, the ctest fuzz tier and the nightly
// workflow.

#ifndef CARAT_FUZZ_FUZZER_H_
#define CARAT_FUZZ_FUZZER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/relations.h"
#include "fuzz/scenario.h"

namespace carat::fuzz {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int num_scenarios = 1000;
  /// Every Nth scenario also runs the testbed-backed rules (model-vs-testbed,
  /// backend dominance, the testbed half of granule invariance). 0 = never.
  int testbed_every = 0;
  /// Stop generating after this many wall-clock seconds (0 = no budget).
  /// Scenarios already started always finish, so runs stay replayable: a
  /// finding's scenario is fully determined by (seed, index).
  double time_budget_s = 0.0;
  /// Directory for minimized repro files ("" = keep findings in memory
  /// only). Created by the caller; files are named
  /// <rule>-<scenario-name>.scn.
  std::string findings_dir;
  bool minimize = true;
  GeneratorOptions gen;
  CheckOptions check;
  MinimizeOptions min;
};

struct FuzzReport {
  int scenarios = 0;
  int testbed_scenarios = 0;
  CheckStats stats;
  /// Violations with minimized scenarios (when minimize is on).
  std::vector<Violation> violations;
  /// Repro files written (parallel to `violations` when findings_dir set).
  std::vector<std::string> finding_files;
};

/// Runs the loop. `log`, when non-null, receives one progress line roughly
/// every 500 scenarios and one line per violation.
FuzzReport RunFuzz(const FuzzOptions& opts, std::ostream* log = nullptr);

/// Re-runs every rule on one scenario (the --replay mode): testbed rules
/// included iff copts.with_testbed.
std::vector<Violation> ReplayScenario(const Scenario& s,
                                      const CheckOptions& copts,
                                      CheckStats* stats = nullptr);

/// Scenario file I/O (the canonical serialization plus a comment header for
/// findings).
bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::string* error);
bool WriteScenarioFile(const std::string& path, const Scenario& s,
                       const std::string& comment_header = "");

/// Writes one minimized finding under `dir`; returns the path ("" on I/O
/// failure).
std::string WriteFinding(const std::string& dir, const Violation& v);

}  // namespace carat::fuzz

#endif  // CARAT_FUZZ_FUZZER_H_
