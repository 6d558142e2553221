#include "qn/mva.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace carat::qn {

namespace {

void SetError(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

namespace internal {

// Reuses `sol`'s storage; allocation-free once warm.
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

}  // namespace internal

namespace {

using internal::FillQueueingCenters;
using internal::FillQueueingMask;
using internal::FinishSolution;

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
  const std::size_t* qc = ws->qcenters.data();

  // q[state * num_queueing + j] = mean queue length at queueing center
  // qc[j] for the population vector encoded by `state`. A delay center's
  // residence is its demand whatever its queue length, so delay centers
  // have no lattice column. Lexicographic enumeration visits n - e_k before
  // n, so one pass suffices, and every row but state 0's is written before
  // it is read.
  ws->q.resize(num_states * num_queueing);
  std::fill_n(ws->q.begin(), num_queueing, 0.0);
  ws->n.assign(num_chains, 0);
  ws->x.resize(num_chains);
  ws->residence.resize(num_chains * num_centers);
  double* q = ws->q.data();
  double* x = ws->x.data();
  double* residence = ws->residence.data();
  std::size_t* n = ws->n.data();

  // Residence of chain k at every queueing center given the lattice row
  // `qprev` of population n - e_k; returns the chain's throughput at
  // population `pop`. The total is summed sequentially over all centers, so
  // the accumulation order is pinned (lowest center first). The batch
  // kernels (mva_batch.cc) replay the same order per lane, which is what
  // makes batch solves bit-identical to this scalar path.
  const auto chain_step = [&](std::size_t k, const double* qprev, double pop) {
    const Chain& chain = net.chains[k];
    const double* demands = chain.demands.data();
    double* res = residence + k * num_centers;
    for (std::size_t j = 0; j < num_queueing; ++j) {
      res[qc[j]] = demands[qc[j]] * (1.0 + qprev[j]);
    }
    double total = 0.0;
    for (std::size_t m = 0; m < num_centers; ++m) total += res[m];
    const double denom = chain.think_time + total;
    // Chains with zero total demand and zero think contribute nothing.
    return denom > 0.0 ? pop / denom : 0.0;
  };

  // A delay center's residence is its demand at every population, so it is
  // written once here; chain_step rewrites only the queueing centers'.
  for (std::size_t k = 0; k < num_chains; ++k) {
    const double* demands = net.chains[k].demands.data();
    for (std::size_t m = 0; m < num_centers; ++m)
      residence[k * num_centers + m] = demands[m];
  }

  for (std::size_t state = 1; state < num_states; ++state) {
    // Increment the mixed-radix counter.
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (++n[k] < ws->dims[k]) break;
      n[k] = 0;
    }

    // Queue lengths accumulate chain by chain, k ascending from 0.0. Chain
    // k reads only rows of smaller states, so each chain's term can be
    // added as soon as its throughput is known.
    double* qhere = q + state * num_queueing;
    for (std::size_t j = 0; j < num_queueing; ++j) qhere[j] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      const double xk =
          chain_step(k, q + (state - ws->strides[k]) * num_queueing,
                     static_cast<double>(n[k]));
      const double* res = residence + k * num_centers;
      for (std::size_t j = 0; j < num_queueing; ++j) {
        qhere[j] += xk * res[qc[j]];
      }
    }
  }

  // Recompute residence at the full population (the loop leaves residence[k]
  // from the last state visited, which is the full population when
  // num_states > 1; handle the trivial empty network explicitly).
  if (num_states == 1) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      x[k] = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m)
        residence[k * num_centers + m] = 0.0;
    }
  } else {
    const std::size_t full = num_states - 1;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = net.chains[k];
      if (chain.population == 0) {
        x[k] = 0.0;
        for (std::size_t m = 0; m < num_centers; ++m)
          residence[k * num_centers + m] = 0.0;
        continue;
      }
      x[k] = chain_step(k, q + (full - ws->strides[k]) * num_queueing,
                        chain.population);
    }
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
      // accumulation order is pinned and the batch kernel can replay it per
      // lane (see the bit-identity note in ExactMvaInPlace).
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
