// The metamorphic relation catalogue and differential oracles.
//
// Each rule takes a scenario, derives a transformed variant (or an alternate
// execution path), and asserts a provable relation between the outputs.
// DESIGN.md §13 carries the proof sketches; the tolerance each rule uses is
// stated next to its enum value and falls into four policy classes:
//
//   A  bit-exact        alternate code paths contracted to byte identity
//                       (shards, serving, pow-of-two scaling)
//   B  analytic FP      same math, different rounding order (permutation,
//                       chain split); tight relative tolerances
//   C  approximation    exact MVA vs Schweitzer-Bard; wide documented bound
//   D  statistical      model vs simulation; tolerance widened by the run's
//                       confidence interval
//
// All rules are deterministic: a scenario either passes or fails a rule
// identically on every run and platform (modulo libm for class B).

#ifndef CARAT_FUZZ_RELATIONS_H_
#define CARAT_FUZZ_RELATIONS_H_

#include <array>
#include <string>
#include <vector>

#include "fuzz/scenario.h"
#include "model/solver.h"

namespace carat::fuzz {

enum class Rule : int {
  /// B: rotating the site labels permutes the solution (rel 1e-7).
  kSitePermutation = 0,
  /// B: splitting a qn chain into two identical half-population chains
  /// preserves aggregate throughput and all per-center measures (rel 1e-9,
  /// exact MVA on the scenario's site networks).
  kChainSplit,
  /// A: scaling a qn network's demands and think times by a power of two
  /// scales throughputs by its inverse, bit-exactly (exact + Schweitzer).
  kQnDemandScaling,
  /// B: scaling every time-dimension model input by k=2 maps the solution
  /// (X/2, R*2, probabilities unchanged); rel 1e-12.
  kModelDemandScaling,
  /// A: scaling num_granules and locks_held jointly by a power of two leaves
  /// every lock-submodel output bit-identical (Pb depends only on the
  /// mass-to-granule ratio).
  kLockMassScaling,
  /// B (+A on the testbed): for read-only, uniform-access workloads with
  /// records_per_granule = 1 and no buffer, the granule count is inert:
  /// Pb = 0 exactly and the solution is invariant; the testbed run is
  /// bit-identical with zero lock blocks, except under the queue backend,
  /// whose deduplicated lock plan follows duplicate record draws. (Skew is
  /// excluded because the hot region is a granule-count-dependent number
  /// of blocks.)
  kGranuleInvariance,
  /// A: the sharded testbed kernel is byte-identical to serial at any shard
  /// count.
  kShardIdentity,
  /// A: SolverService with cache and warm starts off returns byte-identical
  /// solutions to bare CaratModel::Solve, through Submit and SubmitBatch.
  kServeIdentity,
  /// C: exact MVA and Schweitzer-Bard agree on throughputs within the
  /// documented approximation bound.
  kExactVsSchweitzer,
  /// D: the analytical model tracks the testbed within tolerance + CI.
  kModelVsTestbed,
  /// A: replicating one site class K times yields bit-identical per-site
  /// solutions within the class, the original sites' solutions unchanged up
  /// to the coupling multiplicities, and the collapsed (hierarchical) solve
  /// bit-identical to the flat solve of the replicated input.
  kClassReplication,
  /// A: on read-only scenarios (Pb = 0 exactly) every cc backend's solve is
  /// bit-identical in throughput, response and abort chain — the backends
  /// differ only in what a conflict costs, and there are none.
  kBackendAgreement,
  /// A (+ count comparison): the queue backend's testbed run records zero
  /// aborts and zero deadlock victims on any scenario, and commits at least
  /// as many transactions as 2PL when 2PL is thrashing (more deadlock
  /// victims than commits).
  kBackendDominance,
  /// A: the sharded testbed kernel is byte-identical to serial for a
  /// non-2PL backend variant of the scenario (the backend is drawn from the
  /// testbed seed; kShardIdentity covers the scenario's own backend).
  kBackendShardIdentity,
};

inline constexpr int kNumRules = 14;
inline constexpr std::array<Rule, kNumRules> kAllRules = {
    Rule::kSitePermutation, Rule::kChainSplit,       Rule::kQnDemandScaling,
    Rule::kModelDemandScaling, Rule::kLockMassScaling, Rule::kGranuleInvariance,
    Rule::kShardIdentity,  Rule::kServeIdentity,
    Rule::kExactVsSchweitzer, Rule::kModelVsTestbed, Rule::kClassReplication,
    Rule::kBackendAgreement, Rule::kBackendDominance,
    Rule::kBackendShardIdentity,
};

const char* RuleName(Rule r);

/// True for rules that run the discrete-event testbed (seconds per scenario
/// instead of milliseconds; the fuzz loop samples them).
bool RuleNeedsTestbed(Rule r);

struct CheckOptions {
  /// Evaluate the testbed-backed rules (kShardIdentity, kModelVsTestbed and
  /// the testbed half of kGranuleInvariance).
  bool with_testbed = false;
  /// Evaluate kServeIdentity (spins up a SolverService with worker threads).
  bool with_serve = true;
  /// Solver options shared by every model-level oracle. Defaults: exact MVA,
  /// tolerance 1e-9.
  model::SolverOptions solver;

  // Tolerances (policy classes B/C/D; class A rules take none).
  double permutation_rel = 1e-7;
  double chain_split_rel = 1e-9;
  double model_scaling_rel = 1e-12;
  /// With one record per granule nlk == accesses in real arithmetic, but the
  /// solver computes it through the lgamma-based Yao formula, whose rounding
  /// depends on the granule count (~1e-12 relative). The lock/MVA fixed
  /// point amplifies that, and its 1e-9 stopping criterion means two
  /// nearby-input solutions only agree to ~tol/contraction-gap: observed up
  /// to ~3e-6 on slowly-converging scenarios.
  double granule_rel = 1e-5;
  double schweitzer_rel = 0.3;      ///< exact vs Schweitzer throughput
  double testbed_rel = 0.35;        ///< model vs testbed, before CI widening
  /// z-score for the testbed CI widening: tolerance + z / sqrt(commits).
  double testbed_ci_z = 3.0;
  /// Sites with fewer measured commits than this are too noisy to judge.
  std::uint64_t testbed_min_commits = 50;
};

/// One relation violation: the rule, the base scenario that triggers it and
/// a human-readable account of the mismatch.
struct Violation {
  Rule rule;
  std::string detail;
  Scenario scenario;
};

/// Per-run accounting: how many rule instances ran and how many were skipped
/// as inapplicable (relation's precondition unmet) or unconverged.
struct CheckStats {
  long long checked = 0;
  long long skipped = 0;
  std::array<long long, kNumRules> per_rule_checked{};
  std::array<long long, kNumRules> per_rule_violations{};

  void Merge(const CheckStats& other);
};

/// Evaluates one rule. Returns true when the relation HOLDS or is
/// inapplicable; false on violation, with *detail set. `applicable`, when
/// non-null, reports whether the rule actually ran.
bool CheckRule(const Scenario& s, Rule rule, const CheckOptions& opts,
               std::string* detail = nullptr, bool* applicable = nullptr);

/// Runs every applicable rule (testbed rules only when opts.with_testbed)
/// and returns the violations.
std::vector<Violation> CheckScenario(const Scenario& s,
                                     const CheckOptions& opts,
                                     CheckStats* stats = nullptr);

}  // namespace carat::fuzz

#endif  // CARAT_FUZZ_RELATIONS_H_
