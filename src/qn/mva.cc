#include "qn/mva.h"

#include <algorithm>
#include <cmath>
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

namespace {

// ExactMvaInPlace's sweep over lattice states 1 .. num_states - 1, which
// leaves the throughputs and residences at the full population in ws->x and
// ws->residence. kM and kQ are the network's center and queueing-center
// counts when fixed at compile time, or 0 when sized at run time: site
// networks, whose shape model::BuildSiteNetworks fixes at 6 centers with 2
// queueing (CPU, DISK), run <6, 2>, and every other network runs <0, 0>.
// Fixed bounds let the compiler unroll the center loops and keep a state's
// queue lengths in registers; the operations and their order are the same
// in both, so both give the same bits. Chain k's residence at queueing
// center qc[j] is its demand times (1 + the queue length at population
// n - e_k); its total is summed from 0.0 over all centers in index order,
// so the accumulation order is pinned. A state's queue lengths are summed from 0.0 chain by
// chain, k ascending; chain k reads only rows of smaller states, so its
// term is added as soon as its throughput is known.
//
// Once per solve, each chain's residence row (a delay center's residence is
// its demand at every population, so only the queueing entries change),
// queueing demands and think time are copied into one contiguous block of
// ws->chain_block. Expects ws->q's row 0 zeroed, ws->n zero and
// ws->qcenters, dims and strides filled.
template <std::size_t kM, std::size_t kQ>
void SweepLattice(const ClosedNetwork& net, std::size_t num_states,
                  MvaWorkspace* ws) {
  const std::size_t num_centers = kM != 0 ? kM : net.centers.size();
  const std::size_t num_queueing = kQ != 0 ? kQ : ws->qcenters.size();
  const std::size_t think = num_centers + num_queueing;
  const std::size_t width = think + 1;
  const std::size_t num_chains = net.chains.size();
  const std::size_t* qc = ws->qcenters.data();
  ws->chain_block.resize(num_chains * width);
  double* blocks = ws->chain_block.data();
  for (std::size_t k = 0; k < num_chains; ++k) {
    const Chain& chain = net.chains[k];
    double* b = blocks + k * width;
    for (std::size_t m = 0; m < num_centers; ++m) b[m] = chain.demands[m];
    for (std::size_t j = 0; j < num_queueing; ++j)
      b[num_centers + j] = chain.demands[qc[j]];
    b[think] = chain.think_time;
  }

  // The last state is the full population; a chain with population 0
  // never steps, so its throughput stays 0.
  ws->x.assign(num_chains, 0.0);
  double* x = ws->x.data();
  double* q = ws->q.data();
  const std::size_t* dims = ws->dims.data();
  const std::size_t* strides = ws->strides.data();
  std::size_t* n = ws->n.data();
  for (std::size_t state = 1; state < num_states; ++state) {
    // Increment the mixed-radix counter.
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (++n[k] < dims[k]) break;
      n[k] = 0;
    }

    // A fixed Q accumulates in registers, a run-time Q in the lattice row.
    double* qhere = q + state * num_queueing;
    double acc[kQ != 0 ? kQ : 1];
    double* sum = kQ != 0 ? acc : qhere;
    for (std::size_t j = 0; j < num_queueing; ++j) sum[j] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      double* b = blocks + k * width;
      const double* qprev = q + (state - strides[k]) * num_queueing;
      for (std::size_t j = 0; j < num_queueing; ++j)
        b[qc[j]] = b[num_centers + j] * (1.0 + qprev[j]);
      double total = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m) total += b[m];
      const double denom = b[think] + total;
      // Chains with zero total demand and zero think contribute nothing.
      const double xk = denom > 0.0 ? static_cast<double>(n[k]) / denom : 0.0;
      for (std::size_t j = 0; j < num_queueing; ++j) sum[j] += xk * b[qc[j]];
      if (state == num_states - 1) x[k] = xk;
    }
    if constexpr (kQ != 0) {
      for (std::size_t j = 0; j < num_queueing; ++j) qhere[j] = acc[j];
    }
  }

  // Every chain with a nonzero population stepped at the last state, so its
  // block holds its residences at the full population.
  ws->residence.resize(num_chains * num_centers);
  for (std::size_t k = 0; k < num_chains; ++k) {
    double* res = ws->residence.data() + k * num_centers;
    if (net.chains[k].population == 0) {
      std::fill_n(res, num_centers, 0.0);
    } else {
      std::copy_n(blocks + k * width, num_centers, res);
    }
  }
}

}  // namespace

bool ExactMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t max_states, std::string* error) {
  if (!net.Validate(error)) return false;

  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();

  std::size_t num_states = 0;
  if (!JointLatticeStates(net, max_states, &num_states)) {
    SetError(error, "joint population lattice exceeds max_states");
    return false;
  }

  // Mixed-radix layout of the joint population lattice.
  ws->dims.resize(num_chains);
  ws->strides.resize(num_chains);
  {
    std::size_t stride = 1;
    for (std::size_t k = 0; k < num_chains; ++k) {
      ws->dims[k] = static_cast<std::size_t>(net.chains[k].population) + 1;
      ws->strides[k] = stride;
      stride *= ws->dims[k];
    }
  }
  FillQueueingCenters(net, &ws->qcenters);
  const std::size_t num_queueing = ws->qcenters.size();

  // q[state * num_queueing + j] = mean queue length at queueing center
  // qc[j] for the population vector encoded by `state`. A delay center's
  // residence is its demand whatever its queue length, so delay centers
  // have no lattice column. Lexicographic enumeration visits n - e_k before
  // n, so one pass suffices, and every row but state 0's is written before
  // it is read.
  ws->q.resize(num_states * num_queueing);
  std::fill_n(ws->q.begin(), num_queueing, 0.0);
  ws->n.assign(num_chains, 0);

  // The shape picks the instantiation (see SweepLattice).
  if (num_centers == 6 && num_queueing == 2) {
    SweepLattice<6, 2>(net, num_states, ws);
    ws->exact_sweep = ExactSweep::kCompiled6x2;
  } else {
    SweepLattice<0, 0>(net, num_states, ws);
    ws->exact_sweep = ExactSweep::kRuntime;
  }

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
