#include "qn/mva_batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace carat::qn {

namespace {

void SetError(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

// Shape/validation preamble shared by the two lockstep kernels. On success
// the lanes agree on center count, center kinds and chain count and every
// lane's network passed Validate().
bool CheckBatch(const ClosedNetwork* const* nets, std::size_t lanes,
                std::string* error) {
  if (lanes == 0) {
    SetError(error, "batch solve needs at least one lane");
    return false;
  }
  const ClosedNetwork& n0 = *nets[0];
  for (std::size_t w = 1; w < lanes; ++w) {
    if (!SameMvaShape(n0, *nets[w])) {
      SetError(error, "batch lanes differ in network shape");
      return false;
    }
  }
  for (std::size_t w = 0; w < lanes; ++w) {
    if (!nets[w]->Validate(error)) return false;
  }
  return true;
}

// Loads the per-lane chain parameters into the workspace's SoA buffers:
// demands[(k*M + m)*W + w], think/nk/invn[k*W + w]. invn is 0 for empty
// chains so the Schweitzer "seen" term stays finite without a branch.
void LoadChainSoA(const ClosedNetwork* const* nets, std::size_t lanes,
                  std::size_t num_chains, std::size_t num_centers,
                  BatchMvaWorkspace* ws) {
  ws->demands.resize(num_chains * num_centers * lanes);
  ws->think.resize(num_chains * lanes);
  ws->nk.resize(num_chains * lanes);
  ws->invn.resize(num_chains * lanes);
  for (std::size_t k = 0; k < num_chains; ++k) {
    for (std::size_t w = 0; w < lanes; ++w) {
      const Chain& chain = nets[w]->chains[k];
      const double pop = chain.population;
      ws->think[k * lanes + w] = chain.think_time;
      ws->nk[k * lanes + w] = pop;
      ws->invn[k * lanes + w] = pop > 0.0 ? 1.0 / pop : 0.0;
      const double* demands = chain.demands.data();
      for (std::size_t m = 0; m < num_centers; ++m) {
        ws->demands[(k * num_centers + m) * lanes + w] = demands[m];
      }
    }
  }
}

// Gathers lane w's SoA throughputs/residence into contiguous per-lane
// buffers and finishes the Solution with the same compiled code the scalar
// path uses (bit-identical derived fields).
void FinishLane(const ClosedNetwork& net, std::size_t lanes, std::size_t w,
                std::size_t num_chains, std::size_t num_centers,
                BatchMvaWorkspace* ws) {
  ws->lane_x.resize(num_chains);
  ws->lane_res.resize(num_chains * num_centers);
  for (std::size_t k = 0; k < num_chains; ++k) {
    ws->lane_x[k] = ws->x[k * lanes + w];
    for (std::size_t m = 0; m < num_centers; ++m) {
      ws->lane_res[k * num_centers + m] =
          ws->residence[(k * num_centers + m) * lanes + w];
    }
  }
  internal::FinishSolution(net, ws->lane_x, ws->lane_res, &ws->solutions[w]);
}

// Pointer bundle for the Schweitzer lockstep sweep (SoA layouts documented
// on BatchMvaWorkspace).
struct SchweitzerArgs {
  std::size_t num_chains = 0;
  std::size_t num_centers = 0;
  std::size_t lanes = 0;
  double* qkm = nullptr;
  double* x = nullptr;
  double* res = nullptr;
  double* qsum = nullptr;
  double* total = nullptr;
  double* delta = nullptr;
  const double* dem = nullptr;
  const double* think = nullptr;
  const double* nk = nullptr;
  const double* invn = nullptr;
  const double* qmul = nullptr;
  const unsigned char* active = nullptr;
};

// One Schweitzer-Bard sweep over all lanes. kW = 0 compiles the generic
// runtime-width version; kW > 0 pins the lane count at compile time so every
// inner loop has a constant trip count — the vectorizer emits straight-line
// SIMD with no remainder handling, which is where the batch speedup lives.
// kMasked = false is the all-active fast path: until the first lane
// converges every `active[w]` select would pick the new value anyway, so the
// maskless specialization is bit-identical and runs for the bulk of the
// iterations.
template <std::size_t kW, bool kMasked>
void SchweitzerSweep(const SchweitzerArgs& a) {
  const std::size_t lanes = kW != 0 ? kW : a.lanes;
  const std::size_t num_chains = a.num_chains;
  const std::size_t num_centers = a.num_centers;
  double* __restrict qkm = a.qkm;
  double* __restrict x = a.x;
  double* __restrict res = a.res;
  double* __restrict qsum = a.qsum;
  double* __restrict total = a.total;
  double* __restrict delta = a.delta;
  const double* __restrict dem = a.dem;
  const double* __restrict think = a.think;
  const double* __restrict nk = a.nk;
  const double* __restrict invn = a.invn;
  const double* __restrict qmul = a.qmul;
  const unsigned char* __restrict active = a.active;

  // Per-center totals over chains (k ascending, matching the scalar hoisted
  // qsum), lanes innermost.
#pragma omp simd
  for (std::size_t s = 0; s < num_centers * lanes; ++s) qsum[s] = 0.0;
  for (std::size_t k = 0; k < num_chains; ++k) {
    for (std::size_t m = 0; m < num_centers; ++m) {
      const double* __restrict qrow = qkm + (k * num_centers + m) * lanes;
      double* __restrict srow = qsum + m * lanes;
#pragma omp simd
      for (std::size_t w = 0; w < lanes; ++w) srow[w] += qrow[w];
    }
  }

#pragma omp simd
  for (std::size_t w = 0; w < lanes; ++w) delta[w] = 0.0;

  for (std::size_t k = 0; k < num_chains; ++k) {
    const double* __restrict nrow = nk + k * lanes;
    const double* __restrict irow = invn + k * lanes;
    const double* __restrict zrow = think + k * lanes;
#pragma omp simd
    for (std::size_t w = 0; w < lanes; ++w) total[w] = 0.0;
    // Centers ascending, so each lane's `total` accumulates in exactly the
    // scalar kernel's (sequential) order. The residence write is a select:
    // retired lanes and empty chains keep their previous (converged / zero)
    // values bit-exactly.
    for (std::size_t m = 0; m < num_centers; ++m) {
      const std::size_t e = (k * num_centers + m) * lanes;
      const double* __restrict drow = dem + e;
      const double* __restrict qrow = qkm + e;
      const double* __restrict srow = qsum + m * lanes;
      double* __restrict rrow = res + e;
      const double qm = qmul[m];
#pragma omp simd
      for (std::size_t w = 0; w < lanes; ++w) {
        const double seen = srow[w] - qrow[w] * irow[w];
        const double r = drow[w] * (1.0 + qm * seen);
        total[w] += r;
        const bool upd = (!kMasked || active[w] != 0) && nrow[w] > 0.0;
        rrow[w] = upd ? r : rrow[w];
      }
    }
    double* __restrict xrow = x + k * lanes;
#pragma omp simd
    for (std::size_t w = 0; w < lanes; ++w) {
      const double denom = zrow[w] + total[w];
      const double xn = (nrow[w] > 0.0 && denom > 0.0) ? nrow[w] / denom : 0.0;
      xrow[w] = (!kMasked || active[w] != 0) ? xn : xrow[w];
    }
  }

  // Fixed-point update and per-lane convergence deltas, same (k, m) order as
  // the scalar update loop (max is order-insensitive, the select is exact).
  for (std::size_t k = 0; k < num_chains; ++k) {
    const double* __restrict xrow = x + k * lanes;
    for (std::size_t m = 0; m < num_centers; ++m) {
      const std::size_t e = (k * num_centers + m) * lanes;
      const double* __restrict rrow = res + e;
      double* __restrict qrow = qkm + e;
#pragma omp simd
      for (std::size_t w = 0; w < lanes; ++w) {
        const double next = xrow[w] * rrow[w];
        const double d = std::fabs(next - qrow[w]);
        const bool on = !kMasked || active[w] != 0;
        delta[w] = (on && d > delta[w]) ? d : delta[w];
        qrow[w] = on ? next : qrow[w];
      }
    }
  }
}

// Solves each lane with a scalar kernel on its own scalar_ws[w], copying the
// result into the batch outputs. Bit-identical by construction; used for one
// lane, where the scalar kernel beats the SoA sweep, and for mixed exact /
// Schweitzer batches. `solve(net, sw)` runs the kernel.
template <typename Solve>
bool SolveLanesScalar(const ClosedNetwork* const* nets, std::size_t lanes,
                      BatchMvaWorkspace* ws, Solve solve) {
  if (ws->scalar_ws.size() < lanes) ws->scalar_ws.resize(lanes);
  ws->solutions.resize(lanes);
  ws->iterations.resize(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    if (!solve(*nets[w], &ws->scalar_ws[w])) return false;
    ws->solutions[w] = ws->scalar_ws[w].solution;
    ws->iterations[w] = ws->scalar_ws[w].iterations;
  }
  return true;
}

template <std::size_t kW>
void SchweitzerIterate(const SchweitzerArgs& a, double tolerance,
                       int max_iterations, unsigned char* active,
                       int* iterations) {
  const std::size_t lanes = a.lanes;
  std::size_t remaining = lanes;
  for (int iter = 0; iter < max_iterations && remaining > 0; ++iter) {
    if (remaining == lanes) {
      SchweitzerSweep<kW, /*kMasked=*/false>(a);
    } else {
      SchweitzerSweep<kW, /*kMasked=*/true>(a);
    }
    for (std::size_t w = 0; w < lanes; ++w) {
      if (active[w] == 0) continue;
      ++iterations[w];
      if (a.delta[w] < tolerance) {
        active[w] = 0;
        --remaining;
      }
    }
  }
}

// True when every lane shares lane 0's joint population lattice and the SoA
// lattice (`states * queueing centers * lanes` doubles) stays under a cap;
// past it the scalar walk per lane is the better trade and keeps the batch
// memory footprint bounded.
bool SharedLatticeFits(const ClosedNetwork* const* nets, std::size_t lanes,
                       std::size_t exact_state_limit) {
  for (std::size_t w = 1; w < lanes; ++w) {
    if (nets[w]->chains.size() != nets[0]->chains.size()) return false;
    for (std::size_t k = 0; k < nets[0]->chains.size(); ++k) {
      if (nets[w]->chains[k].population != nets[0]->chains[k].population) {
        return false;
      }
    }
  }
  constexpr std::size_t kExactBatchSoaDoubles = std::size_t{1} << 23;
  std::size_t num_queueing = 0;
  for (const Center& center : nets[0]->centers) {
    if (center.kind == CenterKind::kQueueing) ++num_queueing;
  }
  std::size_t states = 0;
  return JointLatticeStates(*nets[0], exact_state_limit, &states) &&
         states * num_queueing <= kExactBatchSoaDoubles / lanes;
}

}  // namespace

void BatchMvaWorkspace::InvalidateWarm(std::size_t lane) {
  if (lane < qkm_valid.size()) qkm_valid[lane] = 0;
  if (lane < scalar_ws.size()) scalar_ws[lane].qkm.clear();
}

bool SameMvaShape(const ClosedNetwork& a, const ClosedNetwork& b) {
  if (a.centers.size() != b.centers.size()) return false;
  if (a.chains.size() != b.chains.size()) return false;
  for (std::size_t m = 0; m < a.centers.size(); ++m) {
    if (a.centers[m].kind != b.centers[m].kind) return false;
  }
  return true;
}

std::size_t MvaCompiledSimdDoubleLanes() {
#if defined(__AVX512F__)
  return 8;
#elif defined(__AVX__)
  return 4;
#elif defined(__SSE2__) || defined(__x86_64__) || defined(__aarch64__) || \
    defined(__ARM_NEON)
  return 2;
#else
  return 1;
#endif
}

bool SchweitzerMvaBatchInPlace(const ClosedNetwork* const* nets,
                               std::size_t lanes, BatchMvaWorkspace* ws,
                               double tolerance, int max_iterations,
                               bool warm_start, std::string* error) {
  if (lanes == 1) {
    return SolveLanesScalar(
        nets, 1, ws, [&](const ClosedNetwork& net, MvaWorkspace* sw) {
          return SchweitzerMvaInPlace(net, sw, tolerance, max_iterations,
                                      warm_start, error);
        });
  }
  if (!CheckBatch(nets, lanes, error)) return false;
  const std::size_t num_chains = nets[0]->chains.size();
  const std::size_t num_centers = nets[0]->centers.size();
  const std::size_t kmw = num_chains * num_centers * lanes;

  internal::FillQueueingMask(*nets[0], &ws->qmul);
  LoadChainSoA(nets, lanes, num_chains, num_centers, ws);

  // Retained queue lengths: a lane resumes from its own qkm column exactly
  // when the caller asked for a warm start, the buffer still matches this
  // (shape, lane count), and the lane was not invalidated; otherwise that
  // lane re-inits to the scalar kernel's even-spread guess.
  const bool reusable =
      warm_start && ws->qkm.size() == kmw && ws->warm_lanes == lanes;
  if (!reusable) ws->qkm.assign(kmw, 0.0);
  ws->qkm_valid.resize(lanes, 0);
  for (std::size_t w = 0; w < lanes; ++w) {
    if (reusable && ws->qkm_valid[w]) continue;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const Chain& chain = nets[w]->chains[k];
      std::size_t visited = 0;
      for (std::size_t m = 0; m < num_centers; ++m)
        if (chain.demands[m] > 0.0) ++visited;
      for (std::size_t m = 0; m < num_centers; ++m) {
        ws->qkm[(k * num_centers + m) * lanes + w] =
            (visited != 0 && chain.demands[m] > 0.0)
                ? static_cast<double>(chain.population) / visited
                : 0.0;
      }
    }
  }
  ws->warm_lanes = lanes;
  ws->qkm_valid.assign(lanes, 1);

  ws->x.assign(num_chains * lanes, 0.0);
  ws->residence.assign(kmw, 0.0);
  ws->qsum.resize(num_centers * lanes);
  ws->total.resize(lanes);
  ws->delta.resize(lanes);
  ws->active.assign(lanes, 1);
  ws->iterations.assign(lanes, 0);

  SchweitzerArgs a;
  a.num_chains = num_chains;
  a.num_centers = num_centers;
  a.lanes = lanes;
  a.qkm = ws->qkm.data();
  a.x = ws->x.data();
  a.res = ws->residence.data();
  a.qsum = ws->qsum.data();
  a.total = ws->total.data();
  a.delta = ws->delta.data();
  a.dem = ws->demands.data();
  a.think = ws->think.data();
  a.nk = ws->nk.data();
  a.invn = ws->invn.data();
  a.qmul = ws->qmul.data();
  a.active = ws->active.data();

  // Fixed-width instantiations for the lane counts the callers actually use
  // (the serving layer blocks to kMvaBatchLaneWidth); everything else runs
  // the runtime-width code. All instantiations are bit-identical — the width
  // only pins trip counts for the vectorizer.
  switch (lanes) {
    case kMvaBatchLaneWidth:
      SchweitzerIterate<kMvaBatchLaneWidth>(a, tolerance, max_iterations,
                                            ws->active.data(),
                                            ws->iterations.data());
      break;
    case 4:
      SchweitzerIterate<4>(a, tolerance, max_iterations, ws->active.data(),
                           ws->iterations.data());
      break;
    case 2:
      SchweitzerIterate<2>(a, tolerance, max_iterations, ws->active.data(),
                           ws->iterations.data());
      break;
    default:
      SchweitzerIterate<0>(a, tolerance, max_iterations, ws->active.data(),
                           ws->iterations.data());
      break;
  }

  ws->solutions.resize(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    FinishLane(*nets[w], lanes, w, num_chains, num_centers, ws);
  }
  return true;
}

bool ExactMvaBatchInPlace(const ClosedNetwork* const* nets, std::size_t lanes,
                          BatchMvaWorkspace* ws, std::size_t max_states,
                          std::string* error) {
  if (!CheckBatch(nets, lanes, error)) return false;
  const std::size_t num_chains = nets[0]->chains.size();
  const std::size_t num_centers = nets[0]->centers.size();
  for (std::size_t w = 1; w < lanes; ++w) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (nets[w]->chains[k].population != nets[0]->chains[k].population) {
        SetError(error, "exact batch lanes differ in chain populations");
        return false;
      }
    }
  }
  std::size_t num_states = 0;
  if (!JointLatticeStates(*nets[0], max_states, &num_states)) {
    SetError(error, "joint population lattice exceeds max_states");
    return false;
  }

  // Mixed-radix layout of the (shared) joint population lattice.
  ws->dims.resize(num_chains);
  ws->strides.resize(num_chains);
  {
    std::size_t stride = 1;
    for (std::size_t k = 0; k < num_chains; ++k) {
      ws->dims[k] =
          static_cast<std::size_t>(nets[0]->chains[k].population) + 1;
      ws->strides[k] = stride;
      stride *= ws->dims[k];
    }
  }
  internal::FillQueueingCenters(*nets[0], &ws->qcenters);
  LoadChainSoA(nets, lanes, num_chains, num_centers, ws);

  // The lattice holds the queueing centers' queue lengths only (see
  // ExactMvaInPlace), (state, queueing center, lane)-major. Only state 0's
  // row needs zeroing: every other row is written before it is read.
  const std::size_t num_queueing = ws->qcenters.size();
  const std::size_t qw = num_queueing * lanes;
  ws->q.resize(num_states * qw);
  std::fill_n(ws->q.begin(), qw, 0.0);
  ws->n.assign(num_chains, 0);
  ws->x.assign(num_chains * lanes, 0.0);
  // A delay center's residence is its demand at every population, so its
  // rows are written once here; chain_step writes only the queueing rows.
  ws->residence.assign(ws->demands.begin(), ws->demands.end());
  ws->total.resize(lanes);

  double* __restrict q = ws->q.data();
  double* __restrict x = ws->x.data();
  double* __restrict res = ws->residence.data();
  double* __restrict total = ws->total.data();
  const double* __restrict dem = ws->demands.data();
  const double* __restrict think = ws->think.data();
  const std::size_t* __restrict qc = ws->qcenters.data();
  std::size_t* __restrict n = ws->n.data();

  // Residences of chain k in every lane given the lattice row `qprev` of
  // population n - e_k, then the lanes' throughputs at population `pop`.
  // Centers ascending, accumulating each lane's total sequentially in the
  // scalar kernel's order; a delay center's residence is its demand.
  const auto chain_step = [&](std::size_t k, const double* __restrict qprev,
                              double pop) {
#pragma omp simd
    for (std::size_t w = 0; w < lanes; ++w) total[w] = 0.0;
    std::size_t j = 0;
    for (std::size_t m = 0; m < num_centers; ++m) {
      const std::size_t e = (k * num_centers + m) * lanes;
      const double* __restrict drow = dem + e;
      double* __restrict rrow = res + e;
      if (j < num_queueing && qc[j] == m) {
        const double* __restrict prow = qprev + j * lanes;
        ++j;
#pragma omp simd
        for (std::size_t w = 0; w < lanes; ++w) {
          const double r = drow[w] * (1.0 + prow[w]);
          rrow[w] = r;
          total[w] += r;
        }
      } else {
#pragma omp simd
        for (std::size_t w = 0; w < lanes; ++w) total[w] += drow[w];
      }
    }
    const double* __restrict zrow = think + k * lanes;
    double* __restrict xrow = x + k * lanes;
#pragma omp simd
    for (std::size_t w = 0; w < lanes; ++w) {
      const double denom = zrow[w] + total[w];
      // Chains with zero total demand and zero think contribute nothing.
      xrow[w] = denom > 0.0 ? pop / denom : 0.0;
    }
  };

  for (std::size_t state = 1; state < num_states; ++state) {
    // Increment the mixed-radix counter.
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (++n[k] < ws->dims[k]) break;
      n[k] = 0;
    }

    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      chain_step(k, q + (state - ws->strides[k]) * qw,
                 static_cast<double>(n[k]));
    }

    // Accumulate chain by chain (unit-stride over lanes) exactly like the
    // scalar kernel's chain-by-chain accumulation.
    double* __restrict qhere = q + state * qw;
#pragma omp simd
    for (std::size_t s = 0; s < qw; ++s) qhere[s] = 0.0;
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      const double* __restrict xrow = x + k * lanes;
      for (std::size_t j = 0; j < num_queueing; ++j) {
        const double* __restrict rrow = res + (k * num_centers + qc[j]) * lanes;
        double* __restrict hrow = qhere + j * lanes;
#pragma omp simd
        for (std::size_t w = 0; w < lanes; ++w) hrow[w] += xrow[w] * rrow[w];
      }
    }
  }

  // Recompute residence at the full population (mirrors the scalar kernel,
  // including the trivial empty-lattice case).
  if (num_states == 1) {
    for (std::size_t c = 0; c < num_chains * lanes; ++c) x[c] = 0.0;
    for (std::size_t e = 0; e < num_chains * num_centers * lanes; ++e)
      res[e] = 0.0;
  } else {
    const std::size_t full = num_states - 1;
    for (std::size_t k = 0; k < num_chains; ++k) {
      const int population = nets[0]->chains[k].population;
      if (population == 0) {
        double* __restrict xrow = x + k * lanes;
        for (std::size_t w = 0; w < lanes; ++w) xrow[w] = 0.0;
        for (std::size_t m = 0; m < num_centers; ++m) {
          double* __restrict rrow = res + (k * num_centers + m) * lanes;
          for (std::size_t w = 0; w < lanes; ++w) rrow[w] = 0.0;
        }
        continue;
      }
      chain_step(k, q + (full - ws->strides[k]) * qw, population);
    }
  }

  ws->solutions.resize(lanes);
  ws->iterations.assign(lanes, 0);
  for (std::size_t w = 0; w < lanes; ++w) {
    FinishLane(*nets[w], lanes, w, num_chains, num_centers, ws);
  }
  return true;
}

bool SolveMvaBatchInPlace(const ClosedNetwork* const* nets, std::size_t lanes,
                          BatchMvaWorkspace* ws,
                          std::size_t exact_state_limit, bool warm_start,
                          std::string* error) {
  if (lanes == 0) {
    SetError(error, "batch solve needs at least one lane");
    return false;
  }
  // One lane runs the scalar kernel (see SolveLanesScalar). Otherwise the
  // per-lane exact/Schweitzer decision is SolveMvaInPlace's rule, so lane w's
  // result matches a scalar solve of lane w's network bit for bit whichever
  // implementation runs below.
  if (lanes > 1) {
    bool all_exact = true, any_exact = false;
    for (std::size_t w = 0; w < lanes; ++w) {
      const bool exact = JointLatticeStates(*nets[w], exact_state_limit);
      all_exact = all_exact && exact;
      any_exact = any_exact || exact;
    }
    if (!any_exact) {
      return SchweitzerMvaBatchInPlace(nets, lanes, ws, /*tolerance=*/1e-9,
                                       /*max_iterations=*/10000, warm_start,
                                       error);
    }
    if (all_exact && SharedLatticeFits(nets, lanes, exact_state_limit)) {
      return ExactMvaBatchInPlace(nets, lanes, ws, exact_state_limit, error);
    }
  }
  // One lane, a mixed batch, or exact lanes without a shared lattice: the
  // scalar kernels per lane. Warm Schweitzer state for this path lives in
  // scalar_ws[w].qkm (cleared by InvalidateWarm), matching the scalar
  // solver's retained-workspace semantics.
  return SolveLanesScalar(
      nets, lanes, ws, [&](const ClosedNetwork& net, MvaWorkspace* sw) {
        return SolveMvaInPlace(net, sw, exact_state_limit, warm_start, error);
      });
}

}  // namespace carat::qn
