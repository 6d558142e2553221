#include "fuzz/relations.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "carat/testbed.h"
#include "cc/cc.h"
#include "model/lock_model.h"
#include "model/yao.h"
#include "qn/mva.h"
#include "serve/solver_service.h"
#include "util/approx.h"

namespace carat::fuzz {

namespace {

using model::ClassParams;
using model::ClassSolution;
using model::ModelInput;
using model::ModelSolution;
using model::SiteParams;
using model::SiteSolution;
using model::TxnType;

std::string Fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

// Accumulates the first mismatch; all Check* methods are no-ops once one
// mismatch is recorded, so `detail` always describes the first failure.
class Cmp {
 public:
  explicit Cmp(double rel, double floor = 0.0) : rel_(rel), floor_(floor) {}

  bool ok() const { return detail_.empty(); }
  const std::string& detail() const { return detail_; }

  void Rel(const std::string& what, double a, double b) {
    if (!ok()) return;
    if (util::ApproxRelAbs(a, b, rel_, floor_)) return;
    detail_ = what + ": " + Fmt(a) + " vs " + Fmt(b) +
              " (rel " + Fmt(util::RelDiff(a, b)) + " > " + Fmt(rel_) + ")";
  }

  void Bits(const std::string& what, double a, double b) {
    if (!ok()) return;
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    if (ba == bb) return;
    detail_ = what + ": " + Fmt(a) + " vs " + Fmt(b) + " (bitwise)";
  }

  void True(const std::string& what, bool cond) {
    if (!ok() || cond) return;
    detail_ = what;
  }

 private:
  double rel_, floor_;
  std::string detail_;
};

ModelSolution SolveModel(const ModelInput& input,
                         const model::SolverOptions& solver) {
  return model::CaratModel(input).Solve(solver);
}

// Per-class and per-site fieldwise comparison of two solutions, where site i
// of `a` corresponds to site `map_a_to_b(i)` of `b`. Both solutions must be
// converged before calling.
template <typename SiteMap>
void CompareSolutions(const ModelSolution& a, const ModelSolution& b,
                      SiteMap map, Cmp* cmp) {
  cmp->True("site counts differ", a.sites.size() == b.sites.size());
  if (!cmp->ok()) return;
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    const SiteSolution& sa = a.sites[i];
    const SiteSolution& sb = b.sites[map(i)];
    const std::string at = "site " + std::to_string(i);
    cmp->Rel(at + " cpu_util", sa.cpu_utilization, sb.cpu_utilization);
    cmp->Rel(at + " db_util", sa.db_disk_utilization, sb.db_disk_utilization);
    cmp->Rel(at + " log_util", sa.log_disk_utilization,
             sb.log_disk_utilization);
    cmp->Rel(at + " dio_per_s", sa.dio_per_s, sb.dio_per_s);
    cmp->Rel(at + " txn_per_s", sa.txn_per_s, sb.txn_per_s);
    cmp->Rel(at + " records_per_s", sa.records_per_s, sb.records_per_s);
    for (TxnType t : model::kAllTxnTypes) {
      const ClassSolution& ca = sa.Class(t);
      const ClassSolution& cb = sb.Class(t);
      cmp->True(at + " presence of " + std::string(model::Name(t)),
                ca.present == cb.present);
      if (!ca.present) continue;
      const std::string ct = at + " " + std::string(model::Name(t));
      cmp->Rel(ct + " throughput", ca.throughput_per_s, cb.throughput_per_s);
      cmp->Rel(ct + " response", ca.response_ms, cb.response_ms);
      cmp->Rel(ct + " pa", ca.pa, cb.pa);
      cmp->Rel(ct + " ns", ca.ns, cb.ns);
      cmp->Rel(ct + " pb", ca.pb, cb.pb);
      cmp->Rel(ct + " pd", ca.pd, cb.pd);
      cmp->Rel(ct + " plw", ca.plw, cb.plw);
      cmp->Rel(ct + " lh", ca.lh, cb.lh);
      cmp->Rel(ct + " nlk", ca.nlk, cb.nlk);
      cmp->Rel(ct + " sigma", ca.sigma, cb.sigma);
      cmp->Rel(ct + " io_per_request", ca.io_per_request, cb.io_per_request);
      cmp->Rel(ct + " d_lw", ca.d_lw_ms, cb.d_lw_ms);
      cmp->Rel(ct + " d_rw", ca.d_rw_ms, cb.d_rw_ms);
      cmp->Rel(ct + " d_cw", ca.d_cw_ms, cb.d_cw_ms);
    }
  }
}

// --- rule: site-label permutation ------------------------------------------

bool CheckSitePermutation(const Scenario& s, const CheckOptions& opts,
                          std::string* detail, bool* applicable) {
  const std::size_t n = s.input.sites.size();
  if (n < 2) return true;
  *applicable = true;

  // Rotate: transformed site i is base site (i + 1) mod n.
  ModelInput rotated = s.input;
  for (std::size_t i = 0; i < n; ++i)
    rotated.sites[i] = s.input.sites[(i + 1) % n];

  const ModelSolution base = SolveModel(s.input, opts.solver);
  const ModelSolution rot = SolveModel(rotated, opts.solver);
  if (!base.ok || !rot.ok) {
    *detail = "solver failed: " + base.error + rot.error;
    return false;
  }
  // The trajectories differ only by summation order; at the tolerance
  // boundary that can flip the final iteration, so compare solutions only
  // when both sides converged.
  if (!base.converged || !rot.converged) {
    *applicable = false;
    return true;
  }
  Cmp cmp(opts.permutation_rel, 1e-9);
  // base site (i+1)%n == rotated site i; i.e. rotated site i maps to base
  // site (i+1)%n.
  CompareSolutions(rot, base, [&](std::size_t i) { return (i + 1) % n; },
                   &cmp);
  if (!cmp.ok()) {
    *detail = "rotation changed the solution: " + cmp.detail();
    return false;
  }
  return true;
}

// --- rules on the scenario's qn site networks ------------------------------

// A closed product-form network derived from one site's parameters. The
// demand formulas only need to be *representative* (positive, spanning
// queueing and delay centers); the qn rules are theorems about MVA itself,
// so any well-formed network drawn from the scenario exercises them. Taking
// it from the scenario keeps the minimizer effective: shrinking the scenario
// shrinks this network.
qn::ClosedNetwork BuildSiteNetwork(const Scenario& s, std::size_t site_idx) {
  const SiteParams& site = s.input.sites[site_idx];
  qn::ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("CPU", qn::CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("DISK", qn::CenterKind::kQueueing);
  const std::size_t log = site.separate_log_disk
                              ? net.AddCenter("LOG", qn::CenterKind::kQueueing)
                              : cpu;  // placeholder; unused when shared
  const std::size_t comm = net.AddCenter("COMM", qn::CenterKind::kDelay);
  for (TxnType t : model::kAllTxnTypes) {
    const ClassParams& c = site.Class(t);
    if (c.population == 0) continue;
    const std::size_t k =
        net.AddChain(std::string(model::Name(t)), c.population,
                     site.think_time_ms);
    const double n = c.total_requests();
    const double recs = c.records_accessed();
    net.chains[k].demands[cpu] =
        c.u_cpu_ms + c.init_cpu_ms + c.tc_cpu_ms +
        n * (c.tm_cpu_ms + c.dm_cpu_ms + c.lr_cpu_ms) + recs * c.dmio_cpu_ms;
    net.chains[k].demands[disk] =
        recs * (c.dmio_read_ios + c.dmio_write_ios) * site.block_io_ms;
    if (site.separate_log_disk)
      net.chains[k].demands[log] = c.tcio_force_writes * site.block_io_ms;
    net.chains[k].demands[comm] =
        2.0 * s.input.comm_delay_ms * c.remote_requests;
  }
  return net;
}

// Splitting chain `c` (population >= 2) into two chains with identical
// demands and think time, populations ceil(N/2) and floor(N/2), leaves the
// product-form equilibrium over aggregate states unchanged: identical
// classes are interchangeable, so the split network's total-population
// process coincides with the original's. Hence X_c = X_a + X_b, R_a = R_b =
// R_c (removing one customer of an identical class yields the same reduced
// network either way), and all per-center measures are preserved.
bool CheckChainSplit(const Scenario& s, const CheckOptions& opts,
                     std::string* detail, bool* applicable) {
  for (std::size_t i = 0; i < s.input.sites.size(); ++i) {
    qn::ClosedNetwork net = BuildSiteNetwork(s, i);
    std::size_t split = net.chains.size();
    for (std::size_t k = 0; k < net.chains.size(); ++k) {
      if (net.chains[k].population >= 2) {
        split = k;
        break;
      }
    }
    if (split == net.chains.size()) continue;  // all populations are 1

    qn::ClosedNetwork halves = net;
    const int pop = net.chains[split].population;
    halves.chains[split].population = (pop + 1) / 2;
    halves.chains[split].name += "-a";
    qn::Chain other = net.chains[split];
    other.population = pop / 2;
    other.name += "-b";
    halves.chains.push_back(std::move(other));
    if (!qn::JointLatticeStates(halves, 1u << 20)) continue;  // too large

    const qn::MvaResult base = qn::ExactMva(net);
    const qn::MvaResult cut = qn::ExactMva(halves);
    if (!base.ok || !cut.ok) {
      *detail = "exact MVA failed: " + base.error + cut.error;
      return false;
    }
    *applicable = true;

    Cmp cmp(opts.chain_split_rel, 1e-12);
    const std::size_t b = halves.chains.size() - 1;  // the "-b" half
    cmp.Rel("split throughput sum",
            cut.solution.throughput[split] + cut.solution.throughput[b],
            base.solution.throughput[split]);
    cmp.Rel("half-a response vs original", cut.solution.response_time[split],
            base.solution.response_time[split]);
    if (pop / 2 > 0) {
      cmp.Rel("half-b response vs original", cut.solution.response_time[b],
              base.solution.response_time[split]);
    }
    for (std::size_t k = 0; k < net.chains.size(); ++k) {
      if (k == split) continue;
      cmp.Rel("bystander chain " + net.chains[k].name + " throughput",
              cut.solution.throughput[k], base.solution.throughput[k]);
    }
    for (std::size_t m = 0; m < net.centers.size(); ++m) {
      cmp.Rel("center " + net.centers[m].name + " queue length",
              cut.solution.queue_length[m], base.solution.queue_length[m]);
      cmp.Rel("center " + net.centers[m].name + " utilization",
              cut.solution.utilization[m], base.solution.utilization[m]);
    }
    if (!cmp.ok()) {
      *detail = "chain split at site " + std::to_string(i) + " (chain " +
                net.chains[split].name + ", N=" + std::to_string(pop) +
                "): " + cmp.detail();
      return false;
    }
  }
  return true;
}

// Scaling every demand and think time by a power of two k multiplies each
// MVA intermediate by an exact power of two: R = D(1+Q) and X = N/(Z+sum R)
// commute with the scaling because multiplying/dividing IEEE doubles by a
// power of two is exact and rounding commutes with it, so Q's trajectory is
// bit-identical and X scales by exactly 1/k. Holds for the exact recursion
// and for every Schweitzer iteration (including its convergence test, which
// is on the scale-invariant queue lengths).
bool CheckQnDemandScaling(const Scenario& s, const CheckOptions& opts,
                          std::string* detail, bool* applicable) {
  (void)opts;
  constexpr double kScale = 4.0;
  for (std::size_t i = 0; i < s.input.sites.size(); ++i) {
    qn::ClosedNetwork net = BuildSiteNetwork(s, i);
    if (net.chains.empty()) continue;
    qn::ClosedNetwork scaled = net;
    for (qn::Chain& chain : scaled.chains) {
      chain.think_time *= kScale;
      for (double& d : chain.demands) d *= kScale;
    }
    *applicable = true;

    for (const bool exact : {true, false}) {
      const qn::MvaResult base =
          exact ? qn::ExactMva(net) : qn::SchweitzerMva(net);
      const qn::MvaResult big =
          exact ? qn::ExactMva(scaled) : qn::SchweitzerMva(scaled);
      if (!base.ok || !big.ok) {
        *detail = "MVA failed: " + base.error + big.error;
        return false;
      }
      Cmp cmp(0.0);
      const char* which = exact ? "exact" : "schweitzer";
      for (std::size_t k = 0; k < net.chains.size(); ++k) {
        cmp.Bits(std::string(which) + " chain " + net.chains[k].name +
                     " throughput*k",
                 big.solution.throughput[k] * kScale,
                 base.solution.throughput[k]);
        cmp.Bits(std::string(which) + " chain " + net.chains[k].name +
                     " response/k",
                 big.solution.response_time[k] / kScale,
                 base.solution.response_time[k]);
      }
      for (std::size_t m = 0; m < net.centers.size(); ++m) {
        cmp.Bits(std::string(which) + " center " + net.centers[m].name +
                     " queue length",
                 big.solution.queue_length[m], base.solution.queue_length[m]);
        cmp.Bits(std::string(which) + " center " + net.centers[m].name +
                     " utilization",
                 big.solution.utilization[m], base.solution.utilization[m]);
      }
      if (!exact) {
        cmp.True("schweitzer iteration counts differ",
                 base.iterations == big.iterations);
      }
      if (!cmp.ok()) {
        *detail = "site " + std::to_string(i) + " x" + Fmt(kScale) + ": " +
                  cmp.detail();
        return false;
      }
    }
  }
  return true;
}

// --- rule: whole-model k-scaling -------------------------------------------

ModelInput ScaleModelTimes(const ModelInput& in, double k) {
  ModelInput out = in;
  out.comm_delay_ms *= k;
  out.restart_backoff_ms *= k;
  for (SiteParams& site : out.sites) {
    site.block_io_ms *= k;
    site.think_time_ms *= k;
    for (TxnType t : model::kAllTxnTypes) {
      ClassParams& c = site.Class(t);
      c.u_cpu_ms *= k;
      c.tm_cpu_ms *= k;
      c.dm_cpu_ms *= k;
      c.lr_cpu_ms *= k;
      c.dmio_cpu_ms *= k;
      c.dmio_disk_ms *= k;
      c.init_cpu_ms *= k;
      c.tc_cpu_ms *= k;
      c.ta_fixed_cpu_ms *= k;
      c.ta_cpu_per_granule_ms *= k;
      c.unlock_cpu_per_lock_ms *= k;
      // Dimensionless I/O counts (dmio_*_ios, tcio_force_writes,
      // taio_ios_per_granule) do not scale.
    }
  }
  return out;
}

// Every solver quantity is either a time (scales by k), a rate (scales by
// 1/k) or dimensionless (invariant): each fixed-point step combines operands
// of matching dimension, so the k=2 trajectory mirrors the base trajectory
// with every intermediate scaled by an exact power of two. The relative
// convergence test is scale-invariant, so both runs take the same
// iterations. (Asserted at rel 1e-12 rather than bitwise to stay agnostic
// to sub-normal denominators floored at 1e-12 inside the solver.)
bool CheckModelDemandScaling(const Scenario& s, const CheckOptions& opts,
                             std::string* detail, bool* applicable) {
  constexpr double kScale = 2.0;
  *applicable = true;
  const ModelSolution base = SolveModel(s.input, opts.solver);
  const ModelSolution big =
      SolveModel(ScaleModelTimes(s.input, kScale), opts.solver);
  if (!base.ok || !big.ok) {
    *detail = "solver failed: " + base.error + big.error;
    return false;
  }
  Cmp cmp(opts.model_scaling_rel, 1e-15);
  cmp.True("converged flags differ", base.converged == big.converged);
  if (!base.converged) {
    *applicable = false;  // tolerance-based compare needs a fixed point
    return true;
  }
  cmp.Rel("comm delay * k", big.comm_delay_ms, base.comm_delay_ms * kScale);
  for (std::size_t i = 0; i < base.sites.size() && cmp.ok(); ++i) {
    const SiteSolution& sb = base.sites[i];
    const SiteSolution& sk = big.sites[i];
    const std::string at = "site " + std::to_string(i);
    cmp.Rel(at + " cpu_util", sk.cpu_utilization, sb.cpu_utilization);
    cmp.Rel(at + " db_util", sk.db_disk_utilization, sb.db_disk_utilization);
    cmp.Rel(at + " log_util", sk.log_disk_utilization,
            sb.log_disk_utilization);
    cmp.Rel(at + " dio_per_s * k", sk.dio_per_s * kScale, sb.dio_per_s);
    cmp.Rel(at + " txn_per_s * k", sk.txn_per_s * kScale, sb.txn_per_s);
    for (TxnType t : model::kAllTxnTypes) {
      const ClassSolution& cb = sb.Class(t);
      const ClassSolution& ck = sk.Class(t);
      if (!cb.present) continue;
      const std::string ct = at + " " + std::string(model::Name(t));
      cmp.Rel(ct + " throughput * k", ck.throughput_per_s * kScale,
              cb.throughput_per_s);
      cmp.Rel(ct + " response / k", ck.response_ms / kScale, cb.response_ms);
      cmp.Rel(ct + " pa", ck.pa, cb.pa);
      cmp.Rel(ct + " ns", ck.ns, cb.ns);
      cmp.Rel(ct + " pb", ck.pb, cb.pb);
      cmp.Rel(ct + " pd", ck.pd, cb.pd);
      cmp.Rel(ct + " plw", ck.plw, cb.plw);
      cmp.Rel(ct + " lh", ck.lh, cb.lh);
      cmp.Rel(ct + " nlk", ck.nlk, cb.nlk);
      cmp.Rel(ct + " sigma", ck.sigma, cb.sigma);
      cmp.Rel(ct + " io_per_request", ck.io_per_request, cb.io_per_request);
      cmp.Rel(ct + " r_lw / k", ck.r_lw_ms / kScale, cb.r_lw_ms);
      cmp.Rel(ct + " r_rw / k", ck.r_rw_ms / kScale, cb.r_rw_ms);
      cmp.Rel(ct + " r_cw / k", ck.r_cw_ms / kScale, cb.r_cw_ms);
      cmp.Rel(ct + " d_lw / k", ck.d_lw_ms / kScale, cb.d_lw_ms);
      cmp.Rel(ct + " d_rw / k", ck.d_rw_ms / kScale, cb.d_rw_ms);
      cmp.Rel(ct + " d_cw / k", ck.d_cw_ms / kScale, cb.d_cw_ms);
    }
  }
  if (!cmp.ok()) {
    *detail = "time scaling x" + Fmt(kScale) + ": " + cmp.detail();
    return false;
  }
  return true;
}

// --- rule: lock-submodel mass scaling --------------------------------------

// Pb depends on lock mass only through the ratio (locks held) / N_g, PB
// through ratios of masses, and Pd / R_LW through PB and unscaled inputs.
// Scaling N_g and every locks_held by the same power of two multiplies
// numerator and denominator by exact powers of two, so every quotient's real
// value — and therefore its rounding — is unchanged: bit-exact invariance.
bool CheckLockMassScaling(const Scenario& s, const CheckOptions& opts,
                          std::string* detail, bool* applicable) {
  constexpr double kScale = 8.0;
  const ModelSolution sol = SolveModel(s.input, opts.solver);
  if (!sol.ok) {
    *detail = "solver failed: " + sol.error;
    return false;
  }
  for (std::size_t i = 0; i < s.input.sites.size(); ++i) {
    const SiteParams& site = s.input.sites[i];
    model::SiteLockInputs in;
    in.num_granules = site.num_granules;
    in.contention_factor = 1.0 + site.hot_access_fraction;
    std::array<double, model::kNumTxnTypes> rlt{};
    for (TxnType t : model::kAllTxnTypes) {
      const ClassSolution& c = sol.sites[i].Class(t);
      in.population[Index(t)] = site.Class(t).population;
      in.locks_held[Index(t)] = c.lh;
      in.lock_requests[Index(t)] = c.nlk;
      in.block_prob_per_execution[Index(t)] = c.plw;
      rlt[Index(t)] = model::MeanBlockingTime(c.nlk, c.response_ms);
    }
    model::SiteLockInputs scaled = in;
    scaled.num_granules *= kScale;
    for (double& lh : scaled.locks_held) lh *= kScale;
    *applicable = true;

    Cmp cmp(0.0);
    for (TxnType t : model::kAllTxnTypes) {
      if (site.Class(t).population == 0) continue;
      const std::string ct = "site " + std::to_string(i) + " " +
                             std::string(model::Name(t));
      cmp.Bits(ct + " Pb", model::BlockingProbability(scaled, t),
               model::BlockingProbability(in, t));
      cmp.Bits(ct + " Pd", model::DeadlockVictimProbability(scaled, t),
               model::DeadlockVictimProbability(in, t));
      cmp.Bits(ct + " R_LW", model::LockWaitDelay(scaled, t, rlt),
               model::LockWaitDelay(in, t, rlt));
      for (TxnType u : model::kAllTxnTypes) {
        cmp.Bits(ct + "/" + std::string(model::Name(u)) + " PB",
                 model::BlockerTypeProbability(scaled, t, u),
                 model::BlockerTypeProbability(in, t, u));
      }
    }
    if (!cmp.ok()) {
      *detail = "lock mass x" + Fmt(kScale) + ": " + cmp.detail();
      return false;
    }
  }
  return true;
}

// --- rule: granule-count invariance ----------------------------------------

bool AllPresentReadOnly(const ModelInput& input) {
  for (const SiteParams& site : input.sites)
    for (TxnType t : model::kAllTxnTypes)
      if (site.Class(t).population > 0 && model::IsUpdate(t)) return false;
  return true;
}

bool CheckGranuleInvariance(const Scenario& s, const CheckOptions& opts,
                            std::string* detail, bool* applicable) {
  constexpr int kFactor = 5;
  if (!AllPresentReadOnly(s.input)) return true;
  for (const SiteParams& site : s.input.sites) {
    if (site.records_per_granule != 1) return true;  // Yao's q would change
    if (site.buffer_blocks != 0) return true;        // hit rate would change
    // Skewed access breaks the invariant genuinely: the hot region is
    // hot_data_fraction * num_granules blocks, so when accesses saturate it
    // the expected distinct-granule count (and with it the LR/UL CPU
    // demand) depends on the granule count even at one record per granule.
    const model::AccessSkew skew{site.hot_data_fraction,
                                 site.hot_access_fraction};
    if (!skew.IsUniform()) return true;
  }
  *applicable = true;

  Scenario grown = s;
  for (SiteParams& site : grown.input.sites) site.num_granules *= kFactor;

  // Model half: with only shared locks Pb = 0 exactly, and with
  // records_per_granule = 1 Yao's formula degenerates to q = k, so the
  // granule count is inert.
  const ModelSolution base = SolveModel(s.input, opts.solver);
  const ModelSolution big = SolveModel(grown.input, opts.solver);
  if (!base.ok || !big.ok) {
    *detail = "solver failed: " + base.error + big.error;
    return false;
  }
  for (std::size_t i = 0; i < base.sites.size(); ++i) {
    for (TxnType t : model::kAllTxnTypes) {
      const ClassSolution& c = base.sites[i].Class(t);
      if (c.present && c.pb != 0.0) {
        *detail = "read-only workload has nonzero Pb = " + Fmt(c.pb) +
                  " at site " + std::to_string(i);
        return false;
      }
    }
  }
  if (base.converged && big.converged) {
    Cmp cmp(opts.granule_rel, 1e-12);
    CompareSolutions(base, big, [](std::size_t i) { return i; }, &cmp);
    if (!cmp.ok()) {
      *detail = "granule count x" + std::to_string(kFactor) +
                " moved the model solution: " + cmp.detail();
      return false;
    }
  }

  // Testbed half: shared locks never block, and with a free UL phase no
  // service time depends on which granules were drawn, so the whole event
  // trace — and the result fingerprint — is invariant bit for bit. Not
  // under the queue backend: it sorts and dedups each node's upfront
  // granule plan, so its lock count (and the LR CPU it costs) follows the
  // duplicate record draws, which depend on the granule count.
  if (opts.with_testbed && s.input.cc_backend != cc::BackendKind::kQueue) {
    bool free_unlock = true;
    for (const SiteParams& site : s.input.sites)
      for (TxnType t : model::kAllTxnTypes)
        if (site.Class(t).population > 0 &&
            site.Class(t).unlock_cpu_per_lock_ms != 0.0)
          free_unlock = false;
    if (free_unlock) {
      carat::TestbedOptions topts;
      topts.seed = s.testbed_seed;
      topts.warmup_ms = s.warmup_ms;
      topts.measure_ms = s.measure_ms;
      const carat::TestbedResult rbase = RunTestbed(s.input, topts);
      const carat::TestbedResult rbig = RunTestbed(grown.input, topts);
      if (!rbase.ok || !rbig.ok) {
        *detail = "testbed failed: " + rbase.error + rbig.error;
        return false;
      }
      for (const carat::NodeResult& node : rbase.nodes) {
        if (node.lock_blocks != 0) {
          *detail = "read-only testbed run blocked " +
                    std::to_string(node.lock_blocks) + " times at " +
                    node.name;
          return false;
        }
      }
      if (TestbedResultFingerprint(rbase) != TestbedResultFingerprint(rbig)) {
        *detail = "granule count x" + std::to_string(kFactor) +
                  " changed the testbed fingerprint";
        return false;
      }
    }
  }
  return true;
}

// --- rule: serving stack vs bare solver ------------------------------------

bool CheckServeIdentity(const Scenario& s, const CheckOptions& opts,
                        std::string* detail, bool* applicable) {
  *applicable = true;
  // The scenario plus three same-shape variants (the shape key pins site
  // count, chain presence and log-disk layout; costs and think times are
  // free), so the base shape's group fills one block of
  // Options::batch_lane_width queries: one task solving them in turn on one
  // arena.
  std::vector<ModelInput> queries;
  queries.push_back(s.input);
  for (const double factor : {1.5, 2.0}) {
    ModelInput costs = s.input;
    for (SiteParams& site : costs.sites)
      for (TxnType t : model::kAllTxnTypes) site.Class(t).u_cpu_ms *= factor;
    queries.push_back(std::move(costs));
  }
  {
    ModelInput think = s.input;
    for (SiteParams& site : think.sites) site.think_time_ms += 5.0;
    queries.push_back(std::move(think));
  }
  if (s.input.sites.size() >= 2) {
    // Rotation usually changes the per-site presence pattern, exercising the
    // service's shape grouping with a mixed-shape batch.
    ModelInput rotated = s.input;
    for (std::size_t i = 0; i < s.input.sites.size(); ++i)
      rotated.sites[i] = s.input.sites[(i + 1) % s.input.sites.size()];
    queries.push_back(std::move(rotated));
  }
  {
    ModelInput flipped = s.input;  // different shape: log-disk layout
    for (SiteParams& site : flipped.sites)
      site.separate_log_disk = !site.separate_log_disk;
    queries.push_back(std::move(flipped));
  }

  serve::SolverService::Options sopts;
  sopts.threads = 2;
  sopts.use_cache = false;
  sopts.warm_start = false;
  sopts.solver = opts.solver;
  serve::SolverService service(sopts);

  // Scalar path.
  const ModelSolution via_submit = service.Submit(s.input).get();
  const ModelSolution direct = SolveModel(s.input, opts.solver);
  if (ModelSolutionFingerprint(via_submit) != ModelSolutionFingerprint(direct)) {
    *detail = "Submit() differs from CaratModel::Solve()";
    return false;
  }

  // Batch path, mixed shapes.
  std::vector<std::future<ModelSolution>> futs =
      service.SubmitBatch(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const ModelSolution got = futs[q].get();
    const ModelSolution want = SolveModel(queries[q], opts.solver);
    if (ModelSolutionFingerprint(got) != ModelSolutionFingerprint(want)) {
      *detail = "SubmitBatch() query " + std::to_string(q) +
                " differs from CaratModel::Solve()";
      return false;
    }
  }
  return true;
}

// --- rule: exact MVA vs Schweitzer-Bard ------------------------------------

bool CheckExactVsSchweitzer(const Scenario& s, const CheckOptions& opts,
                            std::string* detail, bool* applicable) {
  model::SolverOptions exact = opts.solver;
  exact.use_exact_mva = true;
  model::SolverOptions approx = opts.solver;
  approx.use_exact_mva = false;
  const ModelSolution a = SolveModel(s.input, exact);
  const ModelSolution b = SolveModel(s.input, approx);
  if (!a.ok || !b.ok) {
    *detail = "solver failed: " + a.error + b.error;
    return false;
  }
  if (!a.converged || !b.converged) return true;  // no fixed point to judge
  *applicable = true;
  Cmp cmp(opts.schweitzer_rel, 1e-6);
  cmp.Rel("total txn/s", b.TotalTxnPerSec(), a.TotalTxnPerSec());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    cmp.Rel("site " + std::to_string(i) + " txn_per_s",
            b.sites[i].txn_per_s, a.sites[i].txn_per_s);
  }
  if (!cmp.ok()) {
    *detail = "exact vs Schweitzer: " + cmp.detail();
    return false;
  }
  return true;
}

// --- rule: model vs testbed ------------------------------------------------

bool CheckModelVsTestbed(const Scenario& s, const CheckOptions& opts,
                         std::string* detail, bool* applicable) {
  const ModelSolution sol = SolveModel(s.input, opts.solver);
  if (!sol.ok) {
    *detail = "solver failed: " + sol.error;
    return false;
  }
  if (!sol.converged) return true;

  carat::TestbedOptions topts;
  topts.seed = s.testbed_seed;
  topts.warmup_ms = s.warmup_ms;
  topts.measure_ms = s.measure_ms;
  const carat::TestbedResult sim = RunTestbed(s.input, topts);
  if (!sim.ok) {
    *detail = "testbed failed: " + sim.error;
    return false;
  }
  if (!sim.database_consistent) {
    *detail = "testbed database INCONSISTENT after run";
    return false;
  }

  bool any_site_judged = false;
  for (std::size_t i = 0; i < sim.nodes.size(); ++i) {
    std::uint64_t commits = 0;
    for (const carat::TypeResult& tr : sim.nodes[i].types)
      if (tr.present) commits += tr.commits;
    if (commits < opts.testbed_min_commits) continue;  // too noisy to judge
    any_site_judged = true;
    // Confidence-interval-aware bound: the testbed's throughput estimate has
    // standard error ~ X/sqrt(commits), so widen the policy tolerance by
    // z/sqrt(commits).
    const double tol =
        opts.testbed_rel +
        opts.testbed_ci_z / std::sqrt(static_cast<double>(commits));
    const double a = sol.sites[i].txn_per_s;
    const double b = sim.nodes[i].txn_per_s;
    if (!util::ApproxRelAbs(a, b, tol, 1e-6)) {
      *detail = "site " + std::to_string(i) + " txn/s: model " + Fmt(a) +
                " vs testbed " + Fmt(b) + " (rel " +
                Fmt(util::RelDiff(a, b)) + " > " + Fmt(tol) + " at " +
                std::to_string(commits) + " commits)";
      *applicable = true;
      return false;
    }
  }
  *applicable = any_site_judged;
  return true;
}

// --- rule: site-class replication ------------------------------------------

// Replicates the last site twice (members identical except for the name), so
// the solver's byte-identity detection finds a three-member class. Two
// class-A identities must hold on the replicated input (DESIGN.md §14):
// the hierarchical (collapsed) solve is bit-identical to the flat solve,
// and within the replicated class every member's solution is bit-identical
// to the representative's. Neither requires convergence — both paths run
// the same trajectory, so they stop at the same iteration either way.
bool CheckClassReplication(const Scenario& s, const CheckOptions& opts,
                           std::string* detail, bool* applicable) {
  *applicable = true;
  constexpr int kCopies = 2;
  ModelInput rep = s.input;
  const std::size_t j = rep.sites.size() - 1;
  for (int k = 0; k < kCopies; ++k) {
    SiteParams copy = rep.sites[j];
    copy.name += "-r" + std::to_string(k + 1);
    rep.sites.push_back(std::move(copy));
  }
  std::string err;
  if (!rep.Validate(&err)) {
    *detail = "replicated input invalid: " + err;
    return false;
  }

  model::SolverOptions flat_opts = opts.solver;
  flat_opts.collapse_site_classes = false;
  model::SolverOptions hier_opts = opts.solver;
  hier_opts.collapse_site_classes = true;
  const ModelSolution flat = SolveModel(rep, flat_opts);
  const ModelSolution hier = SolveModel(rep, hier_opts);
  if (!flat.ok || !hier.ok) {
    *detail = "solver failed: " + flat.error + hier.error;
    return false;
  }
  if (ModelSolutionFingerprint(flat) != ModelSolutionFingerprint(hier)) {
    *detail = "collapsed solve differs from the flat solve";
    return false;
  }

  Cmp cmp(0.0);  // every comparison below is bitwise
  for (int k = 0; k < kCopies; ++k) {
    const SiteSolution& a = flat.sites[j];
    const SiteSolution& b = flat.sites[j + 1 + static_cast<std::size_t>(k)];
    const std::string at = "replica " + std::to_string(k + 1);
    cmp.Bits(at + " cpu_util", a.cpu_utilization, b.cpu_utilization);
    cmp.Bits(at + " db_util", a.db_disk_utilization, b.db_disk_utilization);
    cmp.Bits(at + " log_util", a.log_disk_utilization,
             b.log_disk_utilization);
    cmp.Bits(at + " dio_per_s", a.dio_per_s, b.dio_per_s);
    cmp.Bits(at + " txn_per_s", a.txn_per_s, b.txn_per_s);
    cmp.Bits(at + " records_per_s", a.records_per_s, b.records_per_s);
    for (TxnType t : model::kAllTxnTypes) {
      const ClassSolution& ca = a.Class(t);
      const ClassSolution& cb = b.Class(t);
      cmp.True(at + " presence of " + std::string(model::Name(t)),
               ca.present == cb.present);
      if (!ca.present) continue;
      const std::string ct = at + " " + std::string(model::Name(t));
      cmp.Bits(ct + " throughput", ca.throughput_per_s, cb.throughput_per_s);
      cmp.Bits(ct + " response", ca.response_ms, cb.response_ms);
      cmp.Bits(ct + " pa", ca.pa, cb.pa);
      cmp.Bits(ct + " ns", ca.ns, cb.ns);
      cmp.Bits(ct + " pb", ca.pb, cb.pb);
      cmp.Bits(ct + " pd", ca.pd, cb.pd);
      cmp.Bits(ct + " plw", ca.plw, cb.plw);
      cmp.Bits(ct + " lh", ca.lh, cb.lh);
      cmp.Bits(ct + " nlk", ca.nlk, cb.nlk);
      cmp.Bits(ct + " sigma", ca.sigma, cb.sigma);
      cmp.Bits(ct + " r_lw", ca.r_lw_ms, cb.r_lw_ms);
      cmp.Bits(ct + " r_rw", ca.r_rw_ms, cb.r_rw_ms);
      cmp.Bits(ct + " r_cw", ca.r_cw_ms, cb.r_cw_ms);
      cmp.Bits(ct + " d_lw", ca.d_lw_ms, cb.d_lw_ms);
      cmp.Bits(ct + " d_rw", ca.d_rw_ms, cb.d_rw_ms);
      cmp.Bits(ct + " d_cw", ca.d_cw_ms, cb.d_cw_ms);
    }
  }
  if (!cmp.ok()) {
    *detail = "class members diverge: " + cmp.detail();
    return false;
  }
  return true;
}

// --- rule: cc-backend agreement at zero contention -------------------------

// On read-only workloads no lock is ever exclusive, so Pb = 0 exactly for
// every class and the LW phase is unreachable (its visit count is
// v(LR) * Pb). The backends differ only in Pd and R_LW — both multiplied by
// that zero — so every fixed-point trajectory, and with it throughput,
// response and the abort chain, is bit-identical across backends. (Pd, R_LW
// and the queue backend's locks-held estimate legitimately differ and are
// not compared.)
bool CheckBackendAgreement(const Scenario& s, const CheckOptions& opts,
                           std::string* detail, bool* applicable) {
  if (!AllPresentReadOnly(s.input)) return true;
  *applicable = true;
  const ModelSolution base = SolveModel(s.input, opts.solver);
  if (!base.ok) {
    *detail = "solver failed: " + base.error;
    return false;
  }
  for (cc::BackendKind kind : cc::kAllBackends) {
    if (kind == s.input.cc_backend) continue;
    ModelInput variant = s.input;
    variant.cc_backend = kind;
    const ModelSolution sol = SolveModel(variant, opts.solver);
    if (!sol.ok) {
      *detail = std::string("solver failed for ") + std::string(cc::Name(kind)) +
                ": " + sol.error;
      return false;
    }
    Cmp cmp(0.0);
    cmp.True("iteration counts differ", sol.iterations == base.iterations);
    cmp.True("converged flags differ", sol.converged == base.converged);
    for (std::size_t i = 0; i < base.sites.size() && cmp.ok(); ++i) {
      const SiteSolution& sa = base.sites[i];
      const SiteSolution& sb = sol.sites[i];
      const std::string at = "site " + std::to_string(i);
      cmp.Bits(at + " txn_per_s", sa.txn_per_s, sb.txn_per_s);
      cmp.Bits(at + " cpu_util", sa.cpu_utilization, sb.cpu_utilization);
      cmp.Bits(at + " db_util", sa.db_disk_utilization,
               sb.db_disk_utilization);
      for (TxnType t : model::kAllTxnTypes) {
        const ClassSolution& ca = sa.Class(t);
        const ClassSolution& cb = sb.Class(t);
        if (!ca.present) continue;
        const std::string ct = at + " " + std::string(model::Name(t));
        cmp.Bits(ct + " throughput", ca.throughput_per_s, cb.throughput_per_s);
        cmp.Bits(ct + " response", ca.response_ms, cb.response_ms);
        cmp.Bits(ct + " pa", ca.pa, cb.pa);
        cmp.Bits(ct + " ns", ca.ns, cb.ns);
        cmp.Bits(ct + " pb", ca.pb, cb.pb);
        cmp.Bits(ct + " plw", ca.plw, cb.plw);
        cmp.Bits(ct + " d_lw", ca.d_lw_ms, cb.d_lw_ms);
      }
    }
    if (!cmp.ok()) {
      *detail = std::string(cc::Name(kind)) +
                " diverges from " + std::string(cc::Name(s.input.cc_backend)) +
                " on a read-only scenario: " + cmp.detail();
      return false;
    }
  }
  return true;
}

// --- rule: queue-backend dominance -----------------------------------------

bool AnyPresentUpdate(const ModelInput& input) {
  for (const SiteParams& site : input.sites)
    for (TxnType t : model::kAllTxnTypes)
      if (site.Class(t).population > 0 && model::IsUpdate(t)) return true;
  return false;
}

std::uint64_t TotalCommits(const carat::TestbedResult& r) {
  std::uint64_t commits = 0;
  for (const carat::NodeResult& node : r.nodes)
    for (const carat::TypeResult& tr : node.types)
      if (tr.present) commits += tr.commits;
  return commits;
}

bool CheckBackendDominance(const Scenario& s, const CheckOptions& opts,
                           std::string* detail, bool* applicable) {
  (void)opts;
  if (!AnyPresentUpdate(s.input)) return true;  // nothing ever conflicts
  *applicable = true;
  carat::TestbedOptions topts;
  topts.seed = s.testbed_seed;
  topts.warmup_ms = s.warmup_ms;
  topts.measure_ms = s.measure_ms;

  // Exact half: ordered acquisition is deadlock-free by construction and a
  // queue transaction never aborts.
  ModelInput queued = s.input;
  queued.cc_backend = cc::BackendKind::kQueue;
  const carat::TestbedResult rq = RunTestbed(queued, topts);
  if (!rq.ok) {
    *detail = "queue testbed failed: " + rq.error;
    return false;
  }
  if (!rq.database_consistent) {
    *detail = "queue testbed database INCONSISTENT after run";
    return false;
  }
  std::uint64_t deadlocks = rq.global_deadlocks, aborts = 0;
  for (const carat::NodeResult& node : rq.nodes) {
    deadlocks += node.local_deadlocks;
    for (const carat::TypeResult& tr : node.types)
      if (tr.present) aborts += tr.aborts;
  }
  if (deadlocks != 0 || aborts != 0) {
    *detail = "queue backend recorded " + std::to_string(deadlocks) +
              " deadlock victim(s) and " + std::to_string(aborts) +
              " abort(s); both must be zero";
    return false;
  }

  // Comparative half, judged only where it is robust: when 2PL thrashes
  // (more deadlock victims than commits), the work it wastes re-running
  // victims dwarfs any convoying the upfront acquisition introduces, so the
  // deadlock-free backend must commit at least as much.
  ModelInput locked = s.input;
  locked.cc_backend = cc::BackendKind::k2PL;
  const carat::TestbedResult r2 = RunTestbed(locked, topts);
  if (!r2.ok) {
    *detail = "2pl testbed failed: " + r2.error;
    return false;
  }
  std::uint64_t victims = r2.global_deadlocks;
  for (const carat::NodeResult& node : r2.nodes)
    victims += node.local_deadlocks;
  const std::uint64_t commits_2pl = TotalCommits(r2);
  if (victims >= 50 && victims >= commits_2pl) {
    const std::uint64_t commits_q = TotalCommits(rq);
    if (commits_q < commits_2pl) {
      *detail = "thrashing 2PL (" + std::to_string(victims) +
                " victims) out-committed the queue backend: " +
                std::to_string(commits_2pl) + " vs " +
                std::to_string(commits_q);
      return false;
    }
  }
  return true;
}

}  // namespace

const char* RuleName(Rule r) {
  switch (r) {
    case Rule::kSitePermutation: return "site-permutation";
    case Rule::kChainSplit: return "chain-split";
    case Rule::kQnDemandScaling: return "qn-demand-scaling";
    case Rule::kModelDemandScaling: return "model-demand-scaling";
    case Rule::kLockMassScaling: return "lock-mass-scaling";
    case Rule::kGranuleInvariance: return "granule-invariance";
    case Rule::kServeIdentity: return "serve-identity";
    case Rule::kExactVsSchweitzer: return "exact-vs-schweitzer";
    case Rule::kModelVsTestbed: return "model-vs-testbed";
    case Rule::kClassReplication: return "class-replication";
    case Rule::kBackendAgreement: return "backend-agreement";
    case Rule::kBackendDominance: return "backend-dominance";
  }
  return "?";
}

bool RuleNeedsTestbed(Rule r) {
  return r == Rule::kModelVsTestbed || r == Rule::kBackendDominance;
}

void CheckStats::Merge(const CheckStats& other) {
  checked += other.checked;
  skipped += other.skipped;
  for (int i = 0; i < kNumRules; ++i) {
    per_rule_checked[i] += other.per_rule_checked[i];
    per_rule_violations[i] += other.per_rule_violations[i];
  }
}

bool CheckRule(const Scenario& s, Rule rule, const CheckOptions& opts,
               std::string* detail, bool* applicable) {
  std::string local_detail;
  bool local_applicable = false;
  if (detail == nullptr) detail = &local_detail;
  if (applicable == nullptr) applicable = &local_applicable;
  *applicable = false;
  detail->clear();
  switch (rule) {
    case Rule::kSitePermutation:
      return CheckSitePermutation(s, opts, detail, applicable);
    case Rule::kChainSplit:
      return CheckChainSplit(s, opts, detail, applicable);
    case Rule::kQnDemandScaling:
      return CheckQnDemandScaling(s, opts, detail, applicable);
    case Rule::kModelDemandScaling:
      return CheckModelDemandScaling(s, opts, detail, applicable);
    case Rule::kLockMassScaling:
      return CheckLockMassScaling(s, opts, detail, applicable);
    case Rule::kGranuleInvariance:
      return CheckGranuleInvariance(s, opts, detail, applicable);
    case Rule::kServeIdentity:
      return CheckServeIdentity(s, opts, detail, applicable);
    case Rule::kExactVsSchweitzer:
      return CheckExactVsSchweitzer(s, opts, detail, applicable);
    case Rule::kModelVsTestbed:
      return CheckModelVsTestbed(s, opts, detail, applicable);
    case Rule::kClassReplication:
      return CheckClassReplication(s, opts, detail, applicable);
    case Rule::kBackendAgreement:
      return CheckBackendAgreement(s, opts, detail, applicable);
    case Rule::kBackendDominance:
      return CheckBackendDominance(s, opts, detail, applicable);
  }
  return true;
}

std::vector<Violation> CheckScenario(const Scenario& s,
                                     const CheckOptions& opts,
                                     CheckStats* stats) {
  std::vector<Violation> violations;
  for (Rule rule : kAllRules) {
    if (RuleNeedsTestbed(rule) && !opts.with_testbed) continue;
    if (rule == Rule::kServeIdentity && !opts.with_serve) continue;
    std::string detail;
    bool applicable = false;
    const bool holds = CheckRule(s, rule, opts, &detail, &applicable);
    if (stats != nullptr) {
      if (applicable || !holds) {
        ++stats->checked;
        ++stats->per_rule_checked[static_cast<int>(rule)];
      } else {
        ++stats->skipped;
      }
    }
    if (!holds) {
      if (stats != nullptr)
        ++stats->per_rule_violations[static_cast<int>(rule)];
      violations.push_back(Violation{rule, std::move(detail), s});
    }
  }
  return violations;
}

}  // namespace carat::fuzz
