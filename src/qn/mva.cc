#include "qn/mva.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>

namespace carat::qn {

namespace {

void SetError(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

// Lists the queueing centers' indices in ascending order: the columns of
// the exact kernel's population lattice. Allocation-free once `qcenters`
// has grown to the network's center count.
void FillQueueingCenters(const ClosedNetwork& net,
                         std::vector<std::size_t>* qcenters) {
  qcenters->clear();
  for (std::size_t m = 0; m < net.centers.size(); ++m) {
    if (net.centers[m].kind == CenterKind::kQueueing) qcenters->push_back(m);
  }
}

// Per-center queueing multiplier mask (1.0 at queueing centers, 0.0 at delay
// centers), so the Schweitzer inner loops stay branch-free.
void FillQueueingMask(const ClosedNetwork& net, std::vector<double>* qmul) {
  qmul->resize(net.centers.size());
  for (std::size_t m = 0; m < net.centers.size(); ++m) {
    (*qmul)[m] = net.centers[m].kind == CenterKind::kQueueing ? 1.0 : 0.0;
  }
}

// Fills the non-queue-length parts of `sol` from per-chain throughputs and
// flattened residence times (chain * num_centers + center) at the full
// population. Reuses `sol`'s storage; allocation-free once warm.
void FinishSolution(const ClosedNetwork& net, const std::vector<double>& x,
                    const std::vector<double>& residence, Solution* sol) {
  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  sol->throughput.assign(x.begin(), x.end());
  sol->residence.resize(num_chains);
  sol->response_time.assign(num_chains, 0.0);
  for (std::size_t k = 0; k < num_chains; ++k) {
    const double* row = residence.data() + k * num_centers;
    sol->residence[k].assign(row, row + num_centers);
    double total = 0.0;
    for (std::size_t m = 0; m < num_centers; ++m) total += row[m];
    sol->response_time[k] = total;
  }
  sol->queue_length.assign(num_centers, 0.0);
  sol->utilization.assign(num_centers, 0.0);
  for (std::size_t m = 0; m < num_centers; ++m) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      sol->queue_length[m] += x[k] * residence[k * num_centers + m];
      sol->utilization[m] += x[k] * net.chains[k].demands[m];
    }
  }
}

}  // namespace

bool JointLatticeStates(const ClosedNetwork& net, std::size_t limit,
                        std::size_t* states) {
  std::size_t count = 1;
  for (const Chain& chain : net.chains) {
    const std::size_t d = static_cast<std::size_t>(chain.population) + 1;
    if (d != 0 && count > limit / d) return false;
    count *= d;
  }
  if (states != nullptr) *states = count;
  return true;
}

// The plan's rows are the lattice states in level order: row 0 is the
// empty population, the last row the full one, and the states of level
// |n| = L follow all those of level L - 1, lexicographic within a level.
// Row r >= 1 steps the chains with n_k > 0, k ascending:
// steps[ends[r - 1] .. ends[r]), and ends[0] = 0.
struct LatticePlan {
  struct Step {
    std::uint32_t pred;   // offset of row(n - e_k) in the lattice, row * Q
    std::uint32_t chain;  // k
    std::uint32_t count;  // n_k
  };
  // The key: the chains' populations and the queueing-center count.
  std::vector<int> populations;
  std::size_t num_queueing = 0;
  std::vector<std::uint32_t> ends;
  std::vector<Step> steps;
};

namespace {

constexpr std::size_t kMaxPlanIndex = std::numeric_limits<std::uint32_t>::max();

bool PlanMatches(const LatticePlan& plan, const ClosedNetwork& net,
                 std::size_t num_queueing) {
  if (plan.num_queueing != num_queueing ||
      plan.populations.size() != net.chains.size())
    return false;
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    if (plan.populations[k] != net.chains[k].population) return false;
  }
  return true;
}

// Builds the plan of `net`'s lattice of `num_states` states, which must fit
// the plan's 32-bit indices.
void BuildPlan(const ClosedNetwork& net, std::size_t num_states,
               std::size_t num_queueing, LatticePlan* plan) {
  const std::size_t num_chains = net.chains.size();
  plan->num_queueing = num_queueing;
  plan->populations.resize(num_chains);
  std::vector<std::size_t> dims(num_chains), strides(num_chains);
  std::size_t stride = 1, max_level = 0;
  for (std::size_t k = 0; k < num_chains; ++k) {
    plan->populations[k] = net.chains[k].population;
    dims[k] = static_cast<std::size_t>(net.chains[k].population) + 1;
    strides[k] = stride;
    stride *= dims[k];
    max_level += dims[k] - 1;
  }

  // Walks the lexicographic states with a mixed-radix counter n, calling
  // visit(lex, n, level, stepping chains).
  const auto for_each_state = [&](const auto& visit) {
    std::vector<std::size_t> n(num_chains, 0);
    std::size_t level = 0, stepping = 0;
    for (std::size_t lex = 0; lex < num_states; ++lex) {
      if (lex != 0) {
        for (std::size_t k = 0; k < num_chains; ++k) {
          if (n[k] == 0) ++stepping;
          ++level;
          if (++n[k] < dims[k]) break;
          level -= dims[k];
          --stepping;
          n[k] = 0;
        }
      }
      visit(lex, n, level, stepping);
    }
  };

  // Rows go level by level, and lexicographic within a level. Count each
  // level's rows and steps, then lay the levels out one after another.
  std::vector<std::size_t> next_row(max_level + 2, 0),
      next_step(max_level + 2, 0);
  for_each_state([&](std::size_t, const std::vector<std::size_t>&,
                     std::size_t level, std::size_t stepping) {
    ++next_row[level + 1];
    next_step[level + 1] += stepping;
  });
  for (std::size_t l = 1; l <= max_level + 1; ++l) {
    next_row[l] += next_row[l - 1];
    next_step[l] += next_step[l - 1];
  }
  plan->ends.resize(num_states);
  plan->steps.resize(next_step[max_level + 1]);
  // In lexicographic order every n - e_k comes before n, so its row is
  // known when n's steps are written.
  std::vector<std::uint32_t> row_of(num_states);
  for_each_state([&](std::size_t lex, const std::vector<std::size_t>& n,
                     std::size_t level, std::size_t stepping) {
    const std::size_t row = next_row[level]++;
    row_of[lex] = static_cast<std::uint32_t>(row);
    LatticePlan::Step* step = plan->steps.data() + next_step[level];
    next_step[level] += stepping;
    plan->ends[row] = static_cast<std::uint32_t>(next_step[level]);
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      *step++ = {static_cast<std::uint32_t>(row_of[lex - strides[k]] *
                                            num_queueing),
                 static_cast<std::uint32_t>(k),
                 static_cast<std::uint32_t>(n[k])};
    }
  });
}

// Weak references to every plan some workspace holds. A lookup drops the
// entries of freed plans it passes, and an insertion follows a full pass,
// so the registry never outgrows the plans alive at its last insertion.
struct PlanRegistry {
  std::mutex mu;
  std::vector<std::weak_ptr<const LatticePlan>> plans;
};

PlanRegistry& Registry() {
  static PlanRegistry registry;
  return registry;
}

// The live plan matching (net, num_queueing), or null. Caller holds mu.
std::shared_ptr<const LatticePlan> FindPlan(PlanRegistry* registry,
                                            const ClosedNetwork& net,
                                            std::size_t num_queueing) {
  std::vector<std::weak_ptr<const LatticePlan>>& plans = registry->plans;
  for (std::size_t i = 0; i < plans.size();) {
    std::shared_ptr<const LatticePlan> plan = plans[i].lock();
    if (plan == nullptr) {
      plans[i] = std::move(plans.back());
      plans.pop_back();
      continue;
    }
    if (PlanMatches(*plan, net, num_queueing)) return plan;
    ++i;
  }
  return nullptr;
}

// Points ws->plan at the plan of `net`'s lattice. The warm path, a plan of
// the same key already held, takes no lock and allocates nothing. Fails
// when the lattice is too large for the plan's 32-bit indices.
bool AcquirePlan(const ClosedNetwork& net, std::size_t num_states,
                 std::size_t num_queueing, MvaWorkspace* ws,
                 std::string* error) {
  if (ws->plan != nullptr && PlanMatches(*ws->plan, net, num_queueing))
    return true;
  ws->plan.reset();

  // Rows, row offsets (row * Q), chains, populations and step positions
  // are all 32-bit in the plan.
  bool fits =
      num_states <= kMaxPlanIndex && net.chains.size() <= kMaxPlanIndex &&
      (num_queueing == 0 || num_states - 1 <= kMaxPlanIndex / num_queueing);
  std::size_t num_steps = 0;
  for (std::size_t k = 0; fits && k < net.chains.size(); ++k) {
    const std::size_t nk = static_cast<std::size_t>(net.chains[k].population);
    num_steps += num_states / (nk + 1) * nk;  // states with n_k > 0
    fits = num_steps <= kMaxPlanIndex;
  }
  if (!fits) {
    SetError(error,
             "joint population lattice exceeds the plan's 32-bit indices");
    return false;
  }

  PlanRegistry& registry = Registry();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    ws->plan = FindPlan(&registry, net, num_queueing);
    if (ws->plan != nullptr) return true;
  }
  // Built outside the lock; a thread that built the same plan first wins.
  auto plan = std::make_shared<LatticePlan>();
  BuildPlan(net, num_states, num_queueing, plan.get());
  std::lock_guard<std::mutex> lock(registry.mu);
  ws->plan = FindPlan(&registry, net, num_queueing);
  if (ws->plan == nullptr) {
    registry.plans.push_back(plan);
    ws->plan = std::move(plan);
  }
  return true;
}

// Chain k's total residence under a compiled layout (bit m set when center
// m is queueing): 0.0 plus every center's residence in index order, r[j] at
// the j-th queueing center and the demand b[m] at a delay center.
template <unsigned kLayout, std::size_t... kCenter>
double SumResidences(const double* b, const double* r,
                     std::index_sequence<kCenter...>) {
  double total = 0.0;
  ((total += (kLayout >> kCenter & 1u) != 0
                 ? r[std::popcount(kLayout & ((1u << kCenter) - 1u))]
                 : b[kCenter]),
   ...);
  return total;
}

// Once per solve, copies each chain's residence row (a delay center's
// residence is its demand at every population, so only the queueing entries
// change), queueing demands and think time into one contiguous block of
// ws->chain_block. Expects ws->qcenters filled.
void FillChainBlocks(const ClosedNetwork& net, MvaWorkspace* ws) {
  const std::size_t num_centers = net.centers.size();
  const std::size_t num_queueing = ws->qcenters.size();
  const std::size_t think = num_centers + num_queueing;
  const std::size_t width = think + 1;
  ws->chain_block.resize(net.chains.size() * width);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    const Chain& chain = net.chains[k];
    double* b = ws->chain_block.data() + k * width;
    std::copy_n(chain.demands.data(), num_centers, b);
    for (std::size_t j = 0; j < num_queueing; ++j)
      b[num_centers + j] = chain.demands[ws->qcenters[j]];
    b[think] = chain.think_time;
  }
}

// ExactMvaInPlace's walk over the plan's rows 1 .. num_states - 1, which
// fills ws->q and leaves each chain's throughput at the full population in
// ws->x. kM, kQ and kLayout are the network's center count, queueing-center
// count and queueing layout (bit m set when center m is queueing) when
// fixed at compile time, or 0 when read at run time: site networks, whose
// shape model::BuildSiteNetworks fixes at 6 centers with 2 queueing (CPU,
// DISK), run <6, 2, layout> for their layout, and every other network runs
// <0, 0, 0>. Fixed bounds and places let the compiler unroll the center
// loops and keep a step's queueing residences and a state's queue lengths
// in registers; the operations and their order are the same in both, so
// both give the same bits. Chain k's residence at queueing center qc[j] is
// its demand times (1 + the queue length at population n - e_k); its total
// is summed from 0.0 over all centers in index order, so the accumulation
// order is pinned. A state's queue lengths are summed from 0.0 chain by
// chain, k ascending.
//
// The walk goes level by level: n - e_k is one level below n, so every row
// a state reads was written in the level before, and the states of a level
// are independent of each other. The CPU overlaps their dependency chains
// (load, multiply, sum, divide, accumulate), where a lexicographic sweep
// mostly reads the row it has just written and waits for it. Expects
// ws->q's row 0 zeroed, ws->x zeroed and the chain blocks filled.
template <std::size_t kM, std::size_t kQ, unsigned kLayout>
void SweepLattice(const ClosedNetwork& net, const LatticePlan& plan,
                  MvaWorkspace* ws) {
  const std::size_t num_centers = kM != 0 ? kM : net.centers.size();
  const std::size_t num_queueing = kQ != 0 ? kQ : ws->qcenters.size();
  const std::size_t think = num_centers + num_queueing;
  const std::size_t width = think + 1;
  const std::size_t* qc = ws->qcenters.data();
  double* blocks = ws->chain_block.data();
  double* x = ws->x.data();
  double* q = ws->q.data();
  const std::uint32_t* ends = plan.ends.data();
  const LatticePlan::Step* steps = plan.steps.data();
  for (std::size_t row = 1; row < plan.ends.size(); ++row) {
    // A fixed Q accumulates in registers, a run-time Q in the lattice row.
    double* qhere = q + row * num_queueing;
    double acc[kQ != 0 ? kQ : 1];
    double* sum = kQ != 0 ? acc : qhere;
    for (std::size_t j = 0; j < num_queueing; ++j) sum[j] = 0.0;
    const LatticePlan::Step* end = steps + ends[row];
    for (const LatticePlan::Step* s = steps + ends[row - 1]; s != end; ++s) {
      double* b = blocks + s->chain * width;
      const double* qprev = q + s->pred;
      // The queueing residences: in registers when the layout is compiled,
      // written into the block's residence row when it is read at run time.
      double r[kQ != 0 ? kQ : 1];
      double total = 0.0;
      if constexpr (kLayout != 0) {
        for (std::size_t j = 0; j < kQ; ++j)
          r[j] = b[kM + j] * (1.0 + qprev[j]);
        total = SumResidences<kLayout>(b, r, std::make_index_sequence<kM>());
      } else {
        for (std::size_t j = 0; j < num_queueing; ++j)
          b[qc[j]] = b[num_centers + j] * (1.0 + qprev[j]);
        for (std::size_t m = 0; m < num_centers; ++m) total += b[m];
      }
      const double denom = b[think] + total;
      // Chains with zero total demand and zero think contribute nothing.
      const double xk =
          denom > 0.0 ? static_cast<double>(s->count) / denom : 0.0;
      for (std::size_t j = 0; j < num_queueing; ++j)
        sum[j] += xk * (kLayout != 0 ? r[j] : b[qc[j]]);
      // The last row is the full population, where every chain with a
      // nonzero population steps; a chain with population 0 keeps 0.
      x[s->chain] = xk;
    }
    if constexpr (kQ != 0) {
      for (std::size_t j = 0; j < num_queueing; ++j) qhere[j] = acc[j];
    }
  }
}

// Each chain's residences at the full population into ws->residence: its
// demand at a delay center, and at a queueing center the same product the
// walk formed at the last row, from the row of N - e_k. A chain with
// population 0 gets zeros.
void FullPopulationResidences(const ClosedNetwork& net,
                              const LatticePlan& plan, MvaWorkspace* ws) {
  const std::size_t num_centers = net.centers.size();
  const std::size_t num_queueing = ws->qcenters.size();
  ws->residence.resize(net.chains.size() * num_centers);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    double* res = ws->residence.data() + k * num_centers;
    if (net.chains[k].population == 0) {
      std::fill_n(res, num_centers, 0.0);
    } else {
      std::copy_n(net.chains[k].demands.data(), num_centers, res);
    }
  }
  const std::size_t last = plan.ends.size() - 1;
  if (last == 0) return;
  for (std::size_t i = plan.ends[last - 1]; i < plan.ends[last]; ++i) {
    const LatticePlan::Step& s = plan.steps[i];
    const Chain& chain = net.chains[s.chain];
    double* res = ws->residence.data() + s.chain * num_centers;
    for (std::size_t j = 0; j < num_queueing; ++j) {
      const std::size_t m = ws->qcenters[j];
      res[m] = chain.demands[m] * (1.0 + ws->q[s.pred + j]);
    }
  }
}

using SweepFn = void (*)(const ClosedNetwork&, const LatticePlan&,
                         MvaWorkspace*);

// The compiled site sweep for layout kLayout of 6 centers, or null when
// kLayout does not have exactly 2 queueing centers.
template <unsigned kLayout>
constexpr SweepFn SiteSweep() {
  if constexpr (std::popcount(kLayout) == 2) {
    return &SweepLattice<6, 2, kLayout>;
  } else {
    return nullptr;
  }
}

template <unsigned... kLayout>
constexpr std::array<SweepFn, sizeof...(kLayout)> MakeSiteSweeps(
    std::integer_sequence<unsigned, kLayout...>) {
  return {SiteSweep<kLayout>()...};
}

// Indexed by layout: the 15 placements of 2 queueing centers among 6.
constexpr std::array<SweepFn, 64> kSiteSweeps =
    MakeSiteSweeps(std::make_integer_sequence<unsigned, 64>());

}  // namespace

std::size_t LatticePlanRegistrySize() {
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.plans.size();
}

bool ExactMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t max_states, std::string* error) {
  if (!net.Validate(error)) return false;

  const std::size_t num_centers = net.centers.size();

  std::size_t num_states = 0;
  if (!JointLatticeStates(net, max_states, &num_states)) {
    SetError(error, "joint population lattice exceeds max_states");
    return false;
  }
  FillQueueingCenters(net, &ws->qcenters);
  const std::size_t num_queueing = ws->qcenters.size();
  if (!AcquirePlan(net, num_states, num_queueing, ws, error)) return false;

  // q[row * num_queueing + j] = mean queue length at queueing center qc[j]
  // for the population vector of the plan's `row`. A delay center's
  // residence is its demand whatever its queue length, so delay centers
  // have no lattice column. Every row but row 0 is written a level before
  // it is read.
  ws->q.resize(num_states * num_queueing);
  std::fill_n(ws->q.begin(), num_queueing, 0.0);

  // The shape picks the instantiation (see SweepLattice).
  FillChainBlocks(net, ws);
  ws->x.assign(net.chains.size(), 0.0);
  if (num_centers == 6 && num_queueing == 2) {
    const unsigned layout = (1u << ws->qcenters[0]) | (1u << ws->qcenters[1]);
    kSiteSweeps[layout](net, *ws->plan, ws);
    ws->exact_sweep = ExactSweep::kCompiled6x2;
  } else {
    SweepLattice<0, 0, 0>(net, *ws->plan, ws);
    ws->exact_sweep = ExactSweep::kRuntime;
  }
  FullPopulationResidences(net, *ws->plan, ws);

  FinishSolution(net, ws->x, ws->residence, &ws->solution);
  ws->iterations = 0;
  return true;
}

bool SchweitzerMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                          double tolerance, int max_iterations,
                          bool warm_start, std::string* error) {
  if (!net.Validate(error)) return false;

  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  const std::size_t km = num_chains * num_centers;

  FillQueueingMask(net, &ws->qmul);
  const double* qmul = ws->qmul.data();

  // Per-chain queue length at each center. A warm start resumes from the
  // retained `qkm` of the previous solve (the model's fixed point moves the
  // demands only slightly between iterations, so this converges in a few
  // rounds); otherwise each chain's population is spread evenly over the
  // queueing centers it visits.
  if (!(warm_start && ws->qkm.size() == km)) {
    ws->qkm.assign(km, 0.0);
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      std::size_t visited = 0;
      for (std::size_t m = 0; m < num_centers; ++m)
        if (chain.demands[m] > 0.0) ++visited;
      if (visited == 0) continue;
      for (std::size_t m = 0; m < num_centers; ++m)
        if (chain.demands[m] > 0.0)
          ws->qkm[k * num_centers + m] =
              static_cast<double>(chain.population) / visited;
    }
  }
  double* qkm = ws->qkm.data();

  ws->x.assign(num_chains, 0.0);
  ws->residence.assign(km, 0.0);
  ws->qsum.resize(num_centers);
  double* x = ws->x.data();
  double* residence = ws->residence.data();
  double* qsum = ws->qsum.data();

  ws->iterations = 0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    ++ws->iterations;
    // Per-center totals, hoisting the O(chains) "queue seen on arrival" sum
    // out of the per-chain loop: chain k sees qsum[m] - qkm[k][m] / n_k.
#pragma omp simd
    for (std::size_t m = 0; m < num_centers; ++m) qsum[m] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const double* qrow = qkm + k * num_centers;
#pragma omp simd
      for (std::size_t m = 0; m < num_centers; ++m) qsum[m] += qrow[m];
    }

    double max_delta = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      if (chain.population == 0) {
        x[k] = 0.0;
        continue;
      }
      const double nk = chain.population;
      const double inv_nk = 1.0 / nk;
      const double* demands = chain.demands.data();
      const double* qrow = qkm + k * num_centers;
      double* res = residence + k * num_centers;
      // Elementwise part vectorizes; the total is summed sequentially so the
      // accumulation order is pinned, as in the exact sweep.
#pragma omp simd
      for (std::size_t m = 0; m < num_centers; ++m) {
        // Schweitzer estimate of the queue seen on arrival by chain k.
        const double seen = qsum[m] - qrow[m] * inv_nk;
        res[m] = demands[m] * (1.0 + qmul[m] * seen);
      }
      double total = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m) total += res[m];
      const double denom = chain.think_time + total;
      x[k] = denom > 0.0 ? nk / denom : 0.0;
    }
    for (std::size_t k = 0; k < num_chains; ++k) {
      const double xk = x[k];
      const double* res = residence + k * num_centers;
      double* qrow = qkm + k * num_centers;
#pragma omp simd reduction(max : max_delta)
      for (std::size_t m = 0; m < num_centers; ++m) {
        const double next = xk * res[m];
        max_delta = std::max(max_delta, std::fabs(next - qrow[m]));
        qrow[m] = next;
      }
    }
    if (max_delta < tolerance) break;
  }

  FinishSolution(net, ws->x, ws->residence, &ws->solution);
  return true;
}

bool SolveMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t exact_state_limit, bool warm_start,
                     std::string* error) {
  if (JointLatticeStates(net, exact_state_limit))
    return ExactMvaInPlace(net, ws, exact_state_limit, error);
  return SchweitzerMvaInPlace(net, ws, /*tolerance=*/1e-9,
                              /*max_iterations=*/10000, warm_start, error);
}

MvaResult ExactMva(const ClosedNetwork& net, std::size_t max_states) {
  MvaResult result;
  MvaWorkspace ws;
  result.ok = ExactMvaInPlace(net, &ws, max_states, &result.error);
  if (result.ok) {
    result.solution = std::move(ws.solution);
    result.iterations = ws.iterations;
  }
  return result;
}

MvaResult SchweitzerMva(const ClosedNetwork& net, double tolerance,
                        int max_iterations,
                        const std::vector<double>* initial_qkm) {
  MvaResult result;
  MvaWorkspace ws;
  bool warm = false;
  if (initial_qkm != nullptr &&
      initial_qkm->size() == net.chains.size() * net.centers.size()) {
    ws.qkm = *initial_qkm;
    warm = true;
  }
  result.ok = SchweitzerMvaInPlace(net, &ws, tolerance, max_iterations, warm,
                                   &result.error);
  if (result.ok) {
    result.solution = std::move(ws.solution);
    result.iterations = ws.iterations;
  }
  return result;
}

MvaResult SolveMva(const ClosedNetwork& net, std::size_t exact_state_limit) {
  if (JointLatticeStates(net, exact_state_limit))
    return ExactMva(net, exact_state_limit);
  return SchweitzerMva(net);
}

}  // namespace carat::qn
