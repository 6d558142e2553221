#include "qn/mva.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
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
  // count * d > limit exactly when count > limit / d, without a division.
  std::size_t count = 1;
  for (const Chain& chain : net.chains) {
    const std::size_t d = static_cast<std::size_t>(chain.population) + 1;
    if (__builtin_mul_overflow(count, d, &count) || count > limit) return false;
  }
  if (states != nullptr) *states = count;
  return true;
}

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
// the plan's 32-bit indices (see AcquirePlan).
//
// One pass over the states in lexicographic order. The level sizes and
// each (level, chain) group's size are counted beforehand from the
// populations alone, so every row and item goes straight to its place: a
// state's row is the next of its level's, and each chain's item the next
// of its group's. Lexicographic order visits every n - e_k before n, so its
// row is known. The per-chain emission is branch-free: a chain with
// n_k = 0 writes a spare item past the end instead. Last, each odd group's
// padding item copies the group's last item onto the scratch row.
void BuildPlan(const ClosedNetwork& net, std::size_t num_states,
               std::size_t num_queueing, LatticePlan* plan) {
  plan->num_queueing = num_queueing;
  plan->populations.resize(net.chains.size());
  // The chains with nonzero populations span the lattice. There are fewer
  // than 32: each at least doubles the state count, which fits 32 bits.
  // n holds a state's digits.
  std::array<std::uint32_t, 32> chains, dims, strides, n{};
  std::size_t num_chains = 0, max_level = 0;
  std::uint32_t stride = 1;
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    const int population = net.chains[k].population;
    plan->populations[k] = population;
    if (population == 0) continue;
    chains[num_chains] = static_cast<std::uint32_t>(k);
    dims[num_chains] = static_cast<std::uint32_t>(population) + 1;
    strides[num_chains] = stride;
    stride *= dims[num_chains];
    max_level += static_cast<std::size_t>(population);
    ++num_chains;
  }
  const std::size_t num_groups = max_level * num_chains;

  // Every count below is at most num_states, so 32 bits hold it.
  std::vector<std::uint32_t> scratch(3 * max_level + 4 + num_groups +
                                     max_level + 1 + num_states);
  std::uint32_t* size = scratch.data();               // states by level
  std::uint32_t* prefix = size + max_level + 1;       // max_level + 2 entries
  std::uint32_t* without = prefix + max_level + 2;    // see below
  std::uint32_t* next_item = without + max_level + 1;  // by group
  std::uint32_t* next_row = next_item + num_groups;    // offsets by level
  std::uint32_t* offset_of = next_row + max_level + 1;  // by lex index
  // size[l] is the coefficient of z^l in prod_c (1 + z + ... + z^N_c),
  // multiplied in one chain at a time by running sums.
  size[0] = 1;
  for (std::size_t c = 0; c < num_chains; ++c) {
    for (std::size_t l = 0; l <= max_level; ++l)
      prefix[l + 1] = prefix[l] + size[l];
    for (std::size_t l = 0; l <= max_level; ++l)
      size[l] = prefix[l + 1] - prefix[l + 1 - std::min<std::size_t>(
                                                   l + 1, dims[c])];
  }
  // Chain c's group in level l holds m + e_c for the states m of level
  // l - 1 with m_c < N_c. Those with m_c = N_c are the states of level
  // l - 1 - N_c of the lattice without chain c, whose level sizes w solve
  // size = w * (1 + z + ... + z^N_c): w[l] = size[l] - size[l - 1] +
  // w[l - 1 - N_c] (in wrapping unsigned arithmetic, exact since
  // w[l] >= 0).
  for (std::size_t c = 0; c < num_chains; ++c) {
    const std::size_t n_c = dims[c] - 1;
    for (std::size_t l = 0; l <= max_level; ++l) {
      without[l] = size[l] - (l > 0 ? size[l - 1] : 0) +
                   (l > n_c ? without[l - 1 - n_c] : 0);
    }
    for (std::size_t l = 1; l <= max_level; ++l) {
      next_item[(l - 1) * num_chains + c] =  // the group's size, for now
          size[l - 1] - (l - 1 >= n_c ? without[l - 1 - n_c] : 0);
    }
  }
  const std::uint32_t q = static_cast<std::uint32_t>(num_queueing);
  std::uint32_t offset = 0, items = 0;
  for (std::size_t l = 0; l <= max_level; ++l) {
    next_row[l] = offset;
    offset += size[l] * q;
  }
  plan->groups.resize(num_groups);
  for (std::size_t g = 0; g < num_groups;) {
    for (std::size_t c = 0; c < num_chains; ++c, ++g) {
      const std::uint32_t group_size = next_item[g];
      next_item[g] = items;
      items += group_size + (group_size & 1u);  // padded to even
      plan->groups[g] = {chains[c], items / 2};
    }
  }

  // A spare pair past the end takes the writes of non-stepping chains.
  plan->pairs.resize(items / 2 + 1);
  LatticePlan::ItemPair* pair = plan->pairs.data();
  const std::uint32_t spare = items;
  offset_of[0] = 0;  // row 0, the empty population
  next_row[0] = q;
  std::size_t level = 0;
  for (std::size_t lex = 1; lex < num_states; ++lex) {
    for (std::size_t c = 0;; ++c) {  // the mixed-radix increment
      ++level;
      if (++n[c] < dims[c]) break;
      level -= dims[c];
      n[c] = 0;
    }
    const std::uint32_t row = next_row[level];
    next_row[level] += q;
    offset_of[lex] = row;
    std::uint32_t* next = next_item + (level - 1) * num_chains;
    for (std::size_t c = 0; c < num_chains; ++c) {
      // All ones when chain c steps, else zero: masks, not branches.
      const std::uint32_t steps = 0u - static_cast<std::uint32_t>(n[c] != 0);
      const std::uint32_t i = spare ^ ((next[c] ^ spare) & steps);
      next[c] -= steps;
      LatticePlan::ItemPair& p = pair[i / 2];
      p.row[i % 2] = row;
      p.pred[i % 2] = offset_of[lex - (strides[c] & steps)];
      p.count[i % 2] = n[c];
    }
  }
  plan->pairs.pop_back();
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (next_item[g] % 2 == 0) continue;  // even: no padding
    LatticePlan::ItemPair& p = pair[next_item[g] / 2];
    p.row[1] = static_cast<std::uint32_t>(num_states) * q;
    p.pred[1] = p.pred[0];
    p.count[1] = p.count[0];
  }
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

  // Rows, row offsets (row * Q, the scratch row's included), chains and
  // item positions (the padding items and a spare item past the end
  // included) are all 32-bit in the plan. A group per (level, chain) pads
  // at most one item.
  bool fits =
      num_states < kMaxPlanIndex && net.chains.size() <= kMaxPlanIndex &&
      (num_queueing == 0 || num_states <= kMaxPlanIndex / num_queueing);
  std::size_t num_items = 0, max_level = 0, num_chains = 0;
  for (std::size_t k = 0; fits && k < net.chains.size(); ++k) {
    const std::size_t nk = static_cast<std::size_t>(net.chains[k].population);
    num_items += num_states / (nk + 1) * nk;  // states with n_k > 0
    max_level += nk;
    num_chains += nk != 0;
    fits = num_items < kMaxPlanIndex &&
           max_level * num_chains < kMaxPlanIndex - num_items;
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

// The index of the j-th queueing center of a compiled layout (bit m set
// when center m is queueing).
constexpr std::size_t QueueingCenter(unsigned layout, std::size_t j) {
  std::size_t m = 0;
  for (;; ++m) {
    if ((layout >> m & 1u) != 0 && j-- == 0) return m;
  }
}

// Two states' worth of doubles, one per lane, and the compare mask they
// give. GCC and Clang lower them to SSE2 on x86-64 and to NEON on aarch64,
// each lane performing the scalar IEEE operation.
typedef double Pair __attribute__((vector_size(16)));
typedef std::int64_t PairMask __attribute__((vector_size(16)));

Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StorePair(double* p, Pair v) { std::memcpy(p, &v, sizeof(v)); }

// Chain k's total residences at two states under a compiled layout: every
// center's residence summed in index order, r[j] at the j-th queueing
// center and the demand d[m] (in both lanes) at a delay center. The scalar
// sum starts from 0.0; this one starts from center 0's residence, which
// gives the same total unless every residence is a zero, and then a zero
// of another sign at most. The total only feeds `think + total`, a zero of
// either sign when the total is, which fails `denom > 0` either way, so
// the quotient and everything after it keep their bits.
template <unsigned kLayout, std::size_t... kCenter>
Pair SumResidences(const Pair* d, const Pair* r,
                   std::index_sequence<0, kCenter...>) {
  Pair total = (kLayout & 1u) != 0 ? r[0] : d[0];
  ((total += (kLayout >> kCenter & 1u) != 0
                 ? r[std::popcount(kLayout & ((1u << kCenter) - 1u))]
                 : d[kCenter]),
   ...);
  return total;
}

// ExactMvaInPlace's walk over the plan's groups, which fills ws->q and
// leaves each chain's throughput at the full population in ws->x. kM, kQ
// and kLayout are the network's center count, queueing-center count and
// queueing layout (bit m set when center m is queueing) when fixed at
// compile time, or 0 when read at run time: site networks, whose shape
// model::BuildSiteNetworks fixes at 6 centers with 2 queueing (CPU, DISK),
// run <6, 2, layout> for their layout, and every other network runs
// <0, 0, 0>.
//
// The walk goes level by level, and within a level chain by chain, k
// ascending, adding chain k's term to each state of its group. A level's
// states read only rows of the level below, which are finished, so each
// state's queue lengths are still 0.0 (the lattice is zeroed beforehand)
// plus its chain terms in ascending chain order. Chain k's residence at
// queueing center qc[j] is its demand times (1 + the queue length at
// n - e_k), and its total is summed from 0.0 over all centers in index
// order.
//
// Within a group the chain's demands and think time are loop constants.
// The compiled path takes the group's states two at a time, one per lane
// of a Pair, each lane performing the scalar operations in the scalar
// order (its total skips the leading 0.0; see SumResidences);
// `denom > 0 ? n / denom : 0` becomes the quotient ANDed with the compare
// mask, which gives +0.0 in a masked lane exactly as the scalar code
// does. The runtime path takes the states one at a time, writing the
// queueing residences into the chain's row of ws->residence, whose delay
// entries hold the demands, and summing the row. A padding item repeats
// its partner's arithmetic into the scratch row. Each group leaves its
// chain's throughput in ws->x; the last level is the full population
// alone, so its groups leave the full population's. Expects ws->q zeroed,
// ws->x zeroed and ws->residence's rows filled with the demands.
template <std::size_t kM, std::size_t kQ, unsigned kLayout>
void SweepLattice(const ClosedNetwork& net, const LatticePlan& plan,
                  MvaWorkspace* ws) {
  const std::size_t num_centers = kM != 0 ? kM : net.centers.size();
  const std::size_t num_queueing = kQ != 0 ? kQ : ws->qcenters.size();
  double* x = ws->x.data();
  double* q = ws->q.data();
  const LatticePlan::ItemPair* pair = plan.pairs.data();
  std::size_t p = 0;  // the next pair
  for (const LatticePlan::Group& group : plan.groups) {
    const std::size_t k = group.chain;
    const double* d = net.chains[k].demands.data();
    const double think = net.chains[k].think_time;
    if constexpr (kLayout != 0) {
      // A compiled row is the two queueing centers' queue lengths, so a
      // pair of rows transposes into one Pair per center and back.
      static_assert(kQ == 2);
      Pair dd[kM];
      for (std::size_t m = 0; m < kM; ++m) dd[m] = Pair{d[m], d[m]};
      const Pair d0 = dd[QueueingCenter(kLayout, 0)];
      const Pair d1 = dd[QueueingCenter(kLayout, 1)];
      const Pair zk = Pair{think, think};
      Pair xk{};
      for (; p < group.end; ++p) {
        const LatticePlan::ItemPair& s = pair[p];
        const Pair a = LoadPair(q + s.pred[0]);
        const Pair b = LoadPair(q + s.pred[1]);
        const Pair r[2] = {d0 * (1.0 + __builtin_shufflevector(a, b, 0, 2)),
                           d1 * (1.0 + __builtin_shufflevector(a, b, 1, 3))};
        const Pair denom =
            zk + SumResidences<kLayout>(dd, r, std::make_index_sequence<kM>());
        xk = reinterpret_cast<Pair>(
            reinterpret_cast<PairMask>(LoadPair(s.count) / denom) &
            (denom > Pair{}));
        const Pair t0 = xk * r[0];
        const Pair t1 = xk * r[1];
        double* h0 = q + s.row[0];
        double* h1 = q + s.row[1];
        StorePair(h0, LoadPair(h0) + __builtin_shufflevector(t0, t1, 0, 2));
        StorePair(h1, LoadPair(h1) + __builtin_shufflevector(t0, t1, 1, 3));
      }
      x[k] = xk[0];
    } else {
      const std::size_t* qc = ws->qcenters.data();
      double* res = ws->residence.data() + k * num_centers;
      for (; p < group.end; ++p) {
        for (std::size_t lane = 0; lane < 2; ++lane) {
          const double* qprev = q + pair[p].pred[lane];
          for (std::size_t j = 0; j < num_queueing; ++j)
            res[qc[j]] = d[qc[j]] * (1.0 + qprev[j]);
          double total = 0.0;
          for (std::size_t m = 0; m < num_centers; ++m) total += res[m];
          const double denom = think + total;
          const double xk = denom > 0.0 ? pair[p].count[lane] / denom : 0.0;
          double* qhere = q + pair[p].row[lane];
          for (std::size_t j = 0; j < num_queueing; ++j)
            qhere[j] += xk * res[qc[j]];
          x[k] = xk;
        }
      }
    }
  }
}

// Each chain's residences at the full population into ws->residence, whose
// rows hold the demands (zeros for a chain of population 0): at a queueing
// center, the same product the walk formed at the last level, from the row
// of N - e_k. The last level is the full population alone, so it is the
// last group of each chain with a nonzero population, one item and its
// padding.
void FullPopulationResidences(const ClosedNetwork& net,
                              const LatticePlan& plan, MvaWorkspace* ws) {
  const std::size_t num_centers = net.centers.size();
  const std::size_t num_queueing = ws->qcenters.size();
  std::size_t first = plan.groups.size();
  for (const int population : plan.populations) first -= population != 0;
  for (std::size_t g = first; g < plan.groups.size(); ++g) {
    const std::size_t k = plan.groups[g].chain;
    const double* qprev =
        ws->q.data() + plan.pairs[plan.groups[g].end - 1].pred[0];
    const double* d = net.chains[k].demands.data();
    double* res = ws->residence.data() + k * num_centers;
    for (std::size_t j = 0; j < num_queueing; ++j) {
      const std::size_t m = ws->qcenters[j];
      res[m] = d[m] * (1.0 + qprev[j]);
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

// ExactMvaInPlace on a validated network whose lattice has `num_states`
// states.
bool SolveExact(const ClosedNetwork& net, std::size_t num_states,
                MvaWorkspace* ws, std::string* error) {
  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  FillQueueingCenters(net, &ws->qcenters);
  const std::size_t num_queueing = ws->qcenters.size();
  if (!AcquirePlan(net, num_states, num_queueing, ws, error)) return false;

  // q[row * num_queueing + j] = mean queue length at queueing center qc[j]
  // for the population vector of the plan's `row`; the scratch row follows
  // the last. A delay center's residence is its demand whatever its queue
  // length, so delay centers have no lattice column.
  ws->q.resize((num_states + 1) * num_queueing);
  std::fill_n(ws->q.begin(), num_states * num_queueing, 0.0);
  ws->x.assign(num_chains, 0.0);
  ws->residence.resize(num_chains * num_centers);
  for (std::size_t k = 0; k < num_chains; ++k) {
    double* res = ws->residence.data() + k * num_centers;
    if (net.chains[k].population == 0) {
      std::fill_n(res, num_centers, 0.0);
    } else {
      std::copy_n(net.chains[k].demands.data(), num_centers, res);
    }
  }

  // The shape picks the instantiation (see SweepLattice).
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

}  // namespace

std::size_t LatticePlanRegistrySize() {
  PlanRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.plans.size();
}

bool ExactMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t max_states, std::string* error) {
  if (!net.Validate(error)) return false;
  std::size_t num_states = 0;
  if (!JointLatticeStates(net, max_states, &num_states)) {
    SetError(error, "joint population lattice exceeds max_states");
    return false;
  }
  return SolveExact(net, num_states, ws, error);
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
  std::size_t num_states = 0;
  if (JointLatticeStates(net, exact_state_limit, &num_states)) {
    if (!net.Validate(error)) return false;
    return SolveExact(net, num_states, ws, error);
  }
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
