#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "mb8_site_network.h"
#include "qn/bounds.h"
#include "qn/ethernet.h"
#include "qn/mva.h"
#include "qn/network.h"
#include "util/random.h"

// ---- Global allocation counter ----------------------------------------------
// Every operator new in the process bumps it; the plan tests read deltas
// around warm solves. The hooks are not inlined, so GCC never pairs an
// inlined malloc() or free() with an operator new or delete call
// (-Wmismatched-new-delete).

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace carat::qn {
namespace {

// Single-chain machine-repairman (M/M/1//N with think time): closed-form
// check via the recursive MVA identity computed independently here.
double MachineRepairmanThroughput(int population, double demand, double think) {
  double q = 0.0, x = 0.0;
  for (int n = 1; n <= population; ++n) {
    const double r = demand * (1.0 + q);
    x = n / (think + r);
    q = x * r;
  }
  return x;
}

TEST(ExactMva, MatchesMachineRepairman) {
  for (int pop : {1, 2, 5, 20}) {
    ClosedNetwork net;
    const std::size_t c = net.AddCenter("cpu", CenterKind::kQueueing);
    const std::size_t k = net.AddChain("jobs", pop, /*think_time=*/50.0);
    net.chains[k].demands[c] = 10.0;
    MvaResult res = ExactMva(net);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(res.solution.throughput[k],
                MachineRepairmanThroughput(pop, 10.0, 50.0), 1e-12);
  }
}

TEST(ExactMva, DelayOnlyNetworkIsPopulationOverDemand) {
  ClosedNetwork net;
  const std::size_t d = net.AddCenter("delay", CenterKind::kDelay);
  const std::size_t k = net.AddChain("jobs", 7, 3.0);
  net.chains[k].demands[d] = 11.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.solution.throughput[k], 7.0 / (3.0 + 11.0), 1e-12);
  EXPECT_NEAR(res.solution.response_time[k], 11.0, 1e-12);
}

TEST(ExactMva, SingleCustomerSeesNoQueueing) {
  // With population 1 the response time is just the total demand.
  ClosedNetwork net;
  const std::size_t c1 = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t c2 = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t k = net.AddChain("jobs", 1, 0.0);
  net.chains[k].demands[c1] = 4.0;
  net.chains[k].demands[c2] = 6.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.solution.response_time[k], 10.0, 1e-12);
  EXPECT_NEAR(res.solution.throughput[k], 0.1, 1e-12);
}

TEST(ExactMva, UtilizationLawHolds) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t a = net.AddChain("a", 3, 10.0);
  const std::size_t b = net.AddChain("b", 2, 5.0);
  net.chains[a].demands[cpu] = 2.0;
  net.chains[a].demands[disk] = 8.0;
  net.chains[b].demands[cpu] = 5.0;
  net.chains[b].demands[disk] = 1.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  const auto& s = res.solution;
  EXPECT_NEAR(s.utilization[cpu],
              s.throughput[a] * 2.0 + s.throughput[b] * 5.0, 1e-12);
  EXPECT_NEAR(s.utilization[disk],
              s.throughput[a] * 8.0 + s.throughput[b] * 1.0, 1e-12);
  EXPECT_LE(s.utilization[cpu], 1.0 + 1e-12);
  EXPECT_LE(s.utilization[disk], 1.0 + 1e-12);
}

TEST(ExactMva, LittleLawAtEachCenter) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t dly = net.AddCenter("dly", CenterKind::kDelay);
  const std::size_t a = net.AddChain("a", 4, 0.0);
  const std::size_t b = net.AddChain("b", 3, 2.0);
  net.chains[a].demands[cpu] = 3.0;
  net.chains[a].demands[dly] = 7.0;
  net.chains[b].demands[cpu] = 1.0;
  net.chains[b].demands[dly] = 4.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  const auto& s = res.solution;
  for (std::size_t m = 0; m < net.centers.size(); ++m) {
    double expect = 0.0;
    for (std::size_t k = 0; k < net.chains.size(); ++k)
      expect += s.throughput[k] * s.residence[k][m];
    EXPECT_NEAR(s.queue_length[m], expect, 1e-12);
  }
  // Total customers in network + in think must equal the populations.
  double total = 0.0;
  for (std::size_t m = 0; m < net.centers.size(); ++m)
    total += s.queue_length[m];
  total += s.throughput[a] * net.chains[a].think_time;
  total += s.throughput[b] * net.chains[b].think_time;
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(ExactMva, ThroughputMonotonicInPopulation) {
  double prev = 0.0;
  for (int pop = 1; pop <= 12; ++pop) {
    ClosedNetwork net;
    const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
    const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
    const std::size_t k = net.AddChain("jobs", pop, 4.0);
    net.chains[k].demands[cpu] = 2.0;
    net.chains[k].demands[disk] = 3.0;
    MvaResult res = ExactMva(net);
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.solution.throughput[k], prev);
    // Bounded by the bottleneck: X <= 1 / D_max.
    EXPECT_LE(res.solution.throughput[k], 1.0 / 3.0 + 1e-12);
    prev = res.solution.throughput[k];
  }
}

TEST(ExactMva, ZeroPopulationChainContributesNothing) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t a = net.AddChain("a", 0, 0.0);
  const std::size_t b = net.AddChain("b", 2, 1.0);
  net.chains[a].demands[cpu] = 100.0;
  net.chains[b].demands[cpu] = 2.0;
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok);
  EXPECT_DOUBLE_EQ(res.solution.throughput[a], 0.0);
  EXPECT_GT(res.solution.throughput[b], 0.0);
}

TEST(ExactMva, RejectsOversizedLattice) {
  ClosedNetwork net;
  net.AddCenter("cpu", CenterKind::kQueueing);
  for (int k = 0; k < 12; ++k) {
    const std::size_t c = net.AddChain("k", 9, 0.0);
    net.chains[c].demands[0] = 1.0;
  }
  MvaResult res = ExactMva(net, /*max_states=*/1000);
  EXPECT_FALSE(res.ok);
}

TEST(SchweitzerMva, CloseToExactOnMultichainNetwork) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t a = net.AddChain("a", 6, 10.0);
  const std::size_t b = net.AddChain("b", 4, 20.0);
  net.chains[a].demands[cpu] = 3.0;
  net.chains[a].demands[disk] = 5.0;
  net.chains[b].demands[cpu] = 6.0;
  net.chains[b].demands[disk] = 2.0;
  MvaResult exact = ExactMva(net);
  MvaResult approx = SchweitzerMva(net);
  ASSERT_TRUE(exact.ok);
  ASSERT_TRUE(approx.ok);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_NEAR(approx.solution.throughput[k], exact.solution.throughput[k],
                0.05 * exact.solution.throughput[k]);
  }
}

// A contended multi-chain network in the Schweitzer regime: large enough
// populations that the fixed point takes a meaningful number of iterations.
ClosedNetwork MakeContendedNetwork(int population) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t log = net.AddCenter("log", CenterKind::kQueueing);
  const double demands[4][3] = {
      {3.0, 5.0, 1.0}, {6.0, 2.0, 2.5}, {1.5, 7.5, 0.5}, {4.0, 4.0, 3.0}};
  for (int k = 0; k < 4; ++k) {
    const std::size_t c =
        net.AddChain("k" + std::to_string(k), population, 25.0 * (k + 1));
    net.chains[c].demands[cpu] = demands[k][0];
    net.chains[c].demands[disk] = demands[k][1];
    net.chains[c].demands[log] = demands[k][2];
  }
  return net;
}

TEST(SchweitzerMva, InitialQkmWarmStartReachesSameFixedPointFaster) {
  const ClosedNetwork net = MakeContendedNetwork(/*population=*/32);

  // Cold solve through the workspace API, which retains the converged
  // per-(chain, center) queue lengths.
  MvaWorkspace ws;
  ASSERT_TRUE(SchweitzerMvaInPlace(net, &ws));
  const MvaResult cold = SchweitzerMva(net);
  ASSERT_TRUE(cold.ok);
  ASSERT_GT(cold.iterations, 3);  // the warm start must have room to help

  // Re-solving seeded with the converged queue lengths must land on the
  // same fixed point in strictly fewer iterations.
  const std::vector<double> converged_qkm = ws.qkm;
  const MvaResult warm = SchweitzerMva(net, /*tolerance=*/1e-9,
                                       /*max_iterations=*/10000,
                                       &converged_qkm);
  ASSERT_TRUE(warm.ok);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_NEAR(warm.solution.throughput[k], cold.solution.throughput[k],
                1e-7 * cold.solution.throughput[k]);
    EXPECT_NEAR(warm.solution.response_time[k], cold.solution.response_time[k],
                1e-6 * cold.solution.response_time[k]);
  }
}

TEST(SchweitzerMva, NeighborQkmSeedHelpsAcrossParameterPoints) {
  // Seed population-34's solve with population-32's converged state — the
  // cross-sweep-point pattern the serving layer uses.
  MvaWorkspace ws;
  ASSERT_TRUE(SchweitzerMvaInPlace(MakeContendedNetwork(32), &ws));
  const std::vector<double> neighbor_qkm = ws.qkm;

  const ClosedNetwork target = MakeContendedNetwork(34);
  const MvaResult cold = SchweitzerMva(target);
  const MvaResult warm = SchweitzerMva(target, /*tolerance=*/1e-9,
                                       /*max_iterations=*/10000,
                                       &neighbor_qkm);
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warm.ok);
  EXPECT_LT(warm.iterations, cold.iterations);
  for (std::size_t k = 0; k < target.chains.size(); ++k) {
    EXPECT_NEAR(warm.solution.throughput[k], cold.solution.throughput[k],
                1e-7 * cold.solution.throughput[k]);
  }
}

TEST(SchweitzerMva, MismatchedInitialQkmFallsBackToColdStart) {
  const ClosedNetwork net = MakeContendedNetwork(32);
  const MvaResult cold = SchweitzerMva(net);
  ASSERT_TRUE(cold.ok);
  const std::vector<double> wrong_size(3, 0.5);  // needs chains x centers
  const MvaResult fallback = SchweitzerMva(net, /*tolerance=*/1e-9,
                                           /*max_iterations=*/10000,
                                           &wrong_size);
  ASSERT_TRUE(fallback.ok);
  // Identical to a cold solve: same iteration count, same results.
  EXPECT_EQ(fallback.iterations, cold.iterations);
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_EQ(fallback.solution.throughput[k], cold.solution.throughput[k]);
  }
}

TEST(SolveMva, FallsBackToSchweitzerAboveLimit) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  for (int k = 0; k < 10; ++k) {
    const std::size_t c = net.AddChain("k" + std::to_string(k), 8, 5.0);
    net.chains[c].demands[cpu] = 1.0 + k * 0.1;
  }
  MvaResult res = SolveMva(net, /*exact_state_limit=*/1000);
  ASSERT_TRUE(res.ok);
  for (double x : res.solution.throughput) EXPECT_GT(x, 0.0);
  EXPECT_LE(res.solution.utilization[cpu], 1.0 + 1e-9);
}

// Property sweep: random small networks must satisfy the invariants.
class MvaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MvaPropertyTest, InvariantsOnRandomNetworks) {
  util::Rng rng(GetParam());
  ClosedNetwork net;
  const int num_centers = 1 + static_cast<int>(rng.NextBounded(4));
  const int num_chains = 1 + static_cast<int>(rng.NextBounded(4));
  for (int m = 0; m < num_centers; ++m) {
    net.AddCenter("c" + std::to_string(m), rng.NextDouble() < 0.3
                                               ? CenterKind::kDelay
                                               : CenterKind::kQueueing);
  }
  for (int k = 0; k < num_chains; ++k) {
    const std::size_t c = net.AddChain("k" + std::to_string(k),
                                       1 + static_cast<int>(rng.NextBounded(4)),
                                       rng.NextDouble() * 10);
    for (int m = 0; m < num_centers; ++m)
      net.chains[c].demands[m] = rng.NextDouble() * 5;
  }
  MvaResult res = ExactMva(net);
  ASSERT_TRUE(res.ok) << res.error;
  const auto& s = res.solution;
  double total_customers = 0.0;
  for (std::size_t k = 0; k < net.chains.size(); ++k) {
    EXPECT_GE(s.throughput[k], 0.0);
    EXPECT_GE(s.response_time[k], 0.0);
    total_customers += s.throughput[k] * net.chains[k].think_time;
    // Residence at least the demand at every center.
    for (std::size_t m = 0; m < net.centers.size(); ++m)
      EXPECT_GE(s.residence[k][m], net.chains[k].demands[m] - 1e-12);
  }
  for (std::size_t m = 0; m < net.centers.size(); ++m) {
    total_customers += s.queue_length[m];
    if (net.centers[m].kind == CenterKind::kQueueing)
      EXPECT_LE(s.utilization[m], 1.0 + 1e-9);
  }
  double expected_population = 0.0;
  for (const Chain& chain : net.chains) expected_population += chain.population;
  EXPECT_NEAR(total_customers, expected_population, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, MvaPropertyTest,
                         ::testing::Range(1, 33));

// ---- Reference: the full-lattice exact recursion. ---------------------------
// The exact kernels keep queue lengths for queueing centers only. This is the
// recursion they replaced, kept test-local as the bit-level reference: the
// lattice holds every center's queue length and each residence is
// d * (1 + qmul * q) with qmul = 1 at queueing and 0 at delay centers. For
// finite queue lengths both give the same bits (1.0 * q == q, and
// d * (1.0 + 0.0 * q) == d), so the kernels must match it exactly. The test
// target is built with -ffp-contract=off like carat_qn, so no FMA
// contraction can differ between the two translation units.
Solution ReferenceExactMva(const ClosedNetwork& net) {
  const std::size_t num_chains = net.chains.size();
  const std::size_t num_centers = net.centers.size();
  std::vector<std::size_t> dims(num_chains), strides(num_chains);
  std::size_t num_states = 1;
  for (std::size_t k = 0; k < num_chains; ++k) {
    dims[k] = static_cast<std::size_t>(net.chains[k].population) + 1;
    strides[k] = num_states;
    num_states *= dims[k];
  }
  std::vector<double> qmul(num_centers);
  for (std::size_t m = 0; m < num_centers; ++m)
    qmul[m] = net.centers[m].kind == CenterKind::kQueueing ? 1.0 : 0.0;
  std::vector<double> q(num_states * num_centers, 0.0);
  std::vector<double> x(num_chains, 0.0);
  std::vector<double> residence(num_chains * num_centers, 0.0);
  std::vector<std::size_t> n(num_chains, 0);

  const auto chain_step = [&](std::size_t k, std::size_t prev, double pop) {
    const Chain& chain = net.chains[k];
    double total = 0.0;
    for (std::size_t m = 0; m < num_centers; ++m) {
      const double r =
          chain.demands[m] * (1.0 + qmul[m] * q[prev * num_centers + m]);
      residence[k * num_centers + m] = r;
      total += r;
    }
    const double denom = chain.think_time + total;
    x[k] = denom > 0.0 ? pop / denom : 0.0;
  };
  for (std::size_t state = 1; state < num_states; ++state) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (++n[k] < dims[k]) break;
      n[k] = 0;
    }
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] != 0) chain_step(k, state - strides[k], static_cast<double>(n[k]));
    }
    for (std::size_t k = 0; k < num_chains; ++k) {
      if (n[k] == 0) continue;
      for (std::size_t m = 0; m < num_centers; ++m)
        q[state * num_centers + m] += x[k] * residence[k * num_centers + m];
    }
  }
  for (std::size_t k = 0; k < num_chains; ++k) {
    const int pop = net.chains[k].population;
    if (num_states == 1 || pop == 0) {
      x[k] = 0.0;
      for (std::size_t m = 0; m < num_centers; ++m)
        residence[k * num_centers + m] = 0.0;
    } else {
      chain_step(k, num_states - 1 - strides[k], pop);
    }
  }
  // The derived fields, each sum from 0.0 in index order like the kernels.
  Solution sol;
  sol.throughput = x;
  sol.residence.resize(num_chains);
  sol.response_time.assign(num_chains, 0.0);
  for (std::size_t k = 0; k < num_chains; ++k) {
    sol.residence[k].assign(residence.begin() + k * num_centers,
                            residence.begin() + (k + 1) * num_centers);
    for (std::size_t m = 0; m < num_centers; ++m)
      sol.response_time[k] += residence[k * num_centers + m];
  }
  sol.queue_length.assign(num_centers, 0.0);
  sol.utilization.assign(num_centers, 0.0);
  for (std::size_t m = 0; m < num_centers; ++m) {
    for (std::size_t k = 0; k < num_chains; ++k) {
      sol.queue_length[m] += x[k] * residence[k * num_centers + m];
      sol.utilization[m] += x[k] * net.chains[k].demands[m];
    }
  }
  return sol;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!SameBits(a[i], b[i])) return false;
  return true;
}

::testing::AssertionResult SameSolutionBits(const Solution& got,
                                            const Solution& want) {
  if (!SameBits(got.throughput, want.throughput))
    return ::testing::AssertionFailure() << "throughput differs";
  if (!SameBits(got.response_time, want.response_time))
    return ::testing::AssertionFailure() << "response_time differs";
  if (!SameBits(got.queue_length, want.queue_length))
    return ::testing::AssertionFailure() << "queue_length differs";
  if (!SameBits(got.utilization, want.utilization))
    return ::testing::AssertionFailure() << "utilization differs";
  if (got.residence.size() != want.residence.size())
    return ::testing::AssertionFailure() << "residence size differs";
  for (std::size_t k = 0; k < want.residence.size(); ++k) {
    if (!SameBits(got.residence[k], want.residence[k]))
      return ::testing::AssertionFailure() << "residence[" << k << "] differs";
  }
  return ::testing::AssertionSuccess();
}

// How a random network lays out its center kinds.
enum class KindLayout { kInterleaved, kDelayFirst, kDelayOnly };

struct RandomShape {
  std::vector<CenterKind> kinds;
  std::vector<int> populations;
};

RandomShape MakeRandomShape(util::Rng* rng, KindLayout layout,
                            std::size_t max_states) {
  RandomShape shape;
  const std::size_t num_centers = 1 + rng->NextBounded(7);
  const std::size_t num_delay =
      layout == KindLayout::kDelayOnly ? num_centers
                                       : rng->NextBounded(num_centers + 1);
  for (std::size_t m = 0; m < num_centers; ++m) {
    bool delay = false;
    switch (layout) {
      case KindLayout::kInterleaved:
        delay = rng->NextDouble() < 0.5;
        break;
      case KindLayout::kDelayFirst:
        delay = m < num_delay;
        break;
      case KindLayout::kDelayOnly:
        delay = true;
        break;
    }
    shape.kinds.push_back(delay ? CenterKind::kDelay : CenterKind::kQueueing);
  }
  const std::size_t num_chains = 1 + rng->NextBounded(6);
  std::size_t states = 1;
  for (std::size_t k = 0; k < num_chains; ++k) {
    // Some chains are empty; the rest grow the lattice up to max_states.
    int pop = rng->NextDouble() < 0.15 ? 0
                                       : static_cast<int>(rng->NextBounded(10));
    while (states * static_cast<std::size_t>(pop + 1) > max_states) --pop;
    states *= static_cast<std::size_t>(pop + 1);
    shape.populations.push_back(pop);
  }
  return shape;
}

// A network of `shape` with random demands (some exactly zero) and think
// times (some exactly zero).
ClosedNetwork MakeRandomNetwork(const RandomShape& shape, util::Rng* rng) {
  ClosedNetwork net;
  for (std::size_t m = 0; m < shape.kinds.size(); ++m)
    net.AddCenter("c" + std::to_string(m), shape.kinds[m]);
  for (std::size_t k = 0; k < shape.populations.size(); ++k) {
    const double think = rng->NextDouble() < 0.3 ? 0.0 : rng->NextDouble() * 50;
    const std::size_t c =
        net.AddChain("k" + std::to_string(k), shape.populations[k], think);
    for (double& d : net.chains[c].demands)
      d = rng->NextDouble() < 0.2 ? 0.0 : rng->NextLogUniform(0.01, 100.0);
  }
  return net;
}

constexpr KindLayout kLayouts[] = {KindLayout::kInterleaved,
                                   KindLayout::kDelayFirst,
                                   KindLayout::kDelayOnly};

TEST(ExactMvaReference, ScalarKernelMatchesFullLatticeBitForBit) {
  util::Rng rng(20240601);
  // One workspace across every shape: a reused, larger lattice buffer holds
  // stale rows, which the kernel must never read.
  MvaWorkspace ws;
  std::size_t largest = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const KindLayout layout = kLayouts[trial % 3];
    const std::size_t max_states = trial % 40 == 0 ? 10000 : 600;
    const RandomShape shape = MakeRandomShape(&rng, layout, max_states);
    const ClosedNetwork net = MakeRandomNetwork(shape, &rng);
    std::size_t states = 0;
    ASSERT_TRUE(JointLatticeStates(net, 1u << 22, &states));
    largest = std::max(largest, states);
    std::string err;
    ASSERT_TRUE(ExactMvaInPlace(net, &ws, 1u << 22, &err)) << err;
    EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(net)))
        << "trial " << trial << " (" << states << " states)";
  }
  EXPECT_GE(largest, 5000u);
}

// Where a network puts its queueing centers.
enum class QueueingPlace { kFirst, kLast, kAlternating, kRandom };

// `num_centers` centers, `num_queueing` of them queueing, placed by `place`.
std::vector<CenterKind> MakeKinds(std::size_t num_centers,
                                  std::size_t num_queueing, QueueingPlace place,
                                  util::Rng* rng) {
  std::vector<CenterKind> kinds(num_centers, CenterKind::kDelay);
  std::vector<std::size_t> slots;
  switch (place) {
    case QueueingPlace::kFirst:
      for (std::size_t j = 0; j < num_queueing; ++j) slots.push_back(j);
      break;
    case QueueingPlace::kLast:
      for (std::size_t j = 0; j < num_queueing; ++j)
        slots.push_back(num_centers - 1 - j);
      break;
    case QueueingPlace::kAlternating:
      for (std::size_t j = 0; j < num_queueing; ++j) slots.push_back(2 * j + 1);
      break;
    case QueueingPlace::kRandom:
      while (slots.size() < num_queueing) {
        const std::size_t m = rng->NextBounded(num_centers);
        if (std::find(slots.begin(), slots.end(), m) == slots.end())
          slots.push_back(m);
      }
      break;
  }
  for (std::size_t m : slots) kinds[m] = CenterKind::kQueueing;
  return kinds;
}

TEST(ExactMvaReference, CompiledSweepMatchesFullLatticeBitForBit) {
  struct Shape {
    std::size_t centers, queueing;
    ExactSweep sweep;
  };
  // The compiled site shape, and same-size shapes that must take the
  // runtime-sized sweep: (7, 3) is a site with a separate log disk.
  const Shape shapes[] = {{6, 2, ExactSweep::kCompiled6x2},
                          {6, 3, ExactSweep::kRuntime},
                          {7, 2, ExactSweep::kRuntime},
                          {7, 3, ExactSweep::kRuntime}};
  constexpr QueueingPlace kPlaces[] = {
      QueueingPlace::kFirst, QueueingPlace::kLast, QueueingPlace::kAlternating,
      QueueingPlace::kRandom};
  util::Rng rng(20261017);
  // One workspace across every network: blocks and lattice rows left by a
  // larger or differently shaped solve must never be read.
  MvaWorkspace ws;
  int runs[3] = {0, 0, 0};  // indexed by ExactSweep
  for (const Shape& shape : shapes) {
    for (QueueingPlace place : kPlaces) {
      for (std::size_t chains = 1; chains <= 6; ++chains) {
        for (int rep = 0; rep < 3; ++rep) {
          RandomShape rs;
          rs.kinds = MakeKinds(shape.centers, shape.queueing, place, &rng);
          // Populations 0..4 at random; rep 1 gives every chain
          // chains % 5, so 5 chains are all empty (a one-state lattice).
          for (std::size_t k = 0; k < chains; ++k) {
            rs.populations.push_back(
                rep == 1 ? static_cast<int>(chains % 5)
                         : static_cast<int>(rng.NextBounded(5)));
          }
          ClosedNetwork net = MakeRandomNetwork(rs, &rng);
          // A chain with zero demand everywhere and zero think time.
          if (rep == 2) {
            Chain& idle = net.chains[rng.NextBounded(chains)];
            idle.think_time = 0.0;
            std::fill(idle.demands.begin(), idle.demands.end(), 0.0);
          }
          std::string err;
          ASSERT_TRUE(ExactMvaInPlace(net, &ws, 1u << 22, &err)) << err;
          EXPECT_EQ(ws.exact_sweep, shape.sweep);
          ++runs[static_cast<int>(ws.exact_sweep)];
          EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(net)))
              << shape.centers << " centers, " << shape.queueing
              << " queueing, " << chains << " chains, rep " << rep;
        }
      }
    }
  }
  // Both paths ran: 4 placements x 6 chain counts x 3 reps per shape.
  EXPECT_EQ(runs[static_cast<int>(ExactSweep::kCompiled6x2)], 72);
  EXPECT_EQ(runs[static_cast<int>(ExactSweep::kRuntime)], 216);
}

TEST(ExactMvaReference, ZeroPopulationNetworkMatches) {
  // Every chain empty: the one-state lattice path.
  ClosedNetwork net;
  net.AddCenter("d", CenterKind::kDelay);
  net.AddCenter("q", CenterKind::kQueueing);
  const std::size_t k = net.AddChain("k", 0, 0.0);
  net.chains[k].demands = {3.0, 4.0};
  MvaWorkspace ws;
  ASSERT_TRUE(ExactMvaInPlace(net, &ws));
  EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(net)));
}

// ---- Lattice plans. ---------------------------------------------------------

constexpr CenterKind kQ = CenterKind::kQueueing;
constexpr CenterKind kD = CenterKind::kDelay;

// Population vectors that give the walk's edge cases: groups of odd length
// (a padded last pair) and one-item groups, which every single-chain
// lattice and every last level has; chains of population 0 between
// populated ones, which have no groups; and the paper's site shapes.
const std::vector<std::vector<int>> kWalkPopulations = {
    {1},          {5},       {3, 0, 2, 0, 1}, {0, 2, 0, 0, 3},
    {4, 4},       {2, 2, 2}, {1, 1, 1, 1, 1, 1}, {2, 2, 1, 1, 1, 1},
    {0, 0, 1, 0}, {3, 1, 0, 2}};

TEST(ExactMvaReference, ChainMajorWalkMatchesFullLatticeOnEveryLayout) {
  struct Shape {
    std::vector<CenterKind> kinds;
    ExactSweep sweep;
  };
  // The 15 placements of 2 queueing centers among 6, each compiled, and
  // runtime-sized shapes: (6, 3), (7, 2), (3, 2) and (4, 1).
  std::vector<Shape> shapes;
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) {
      std::vector<CenterKind> kinds(6, CenterKind::kDelay);
      kinds[a] = kinds[b] = CenterKind::kQueueing;
      shapes.push_back({kinds, ExactSweep::kCompiled6x2});
    }
  }
  ASSERT_EQ(shapes.size(), 15u);
  shapes.push_back({{kQ, kD, kQ, kD, kQ, kD}, ExactSweep::kRuntime});
  shapes.push_back({{kD, kQ, kD, kD, kQ, kD, kD}, ExactSweep::kRuntime});
  shapes.push_back({{kQ, kQ, kD}, ExactSweep::kRuntime});
  shapes.push_back({{kD, kD, kQ, kD}, ExactSweep::kRuntime});

  util::Rng rng(20261020);
  MvaWorkspace ws;
  std::size_t odd_groups = 0, one_item_groups = 0, runs = 0;
  for (const Shape& shape : shapes) {
    for (const std::vector<int>& populations : kWalkPopulations) {
      for (int variant = 0; variant < 3; ++variant) {
        ClosedNetwork net = MakeRandomNetwork({shape.kinds, populations}, &rng);
        if (variant != 0) {
          // The last populated chain gets zero demand everywhere and zero
          // think time: every quotient of its groups is masked to +0.0.
          // Variant 2 uses -0.0, which Validate accepts: its totals and
          // denominators are zeros of either sign.
          const double zero = variant == 1 ? 0.0 : -0.0;
          for (std::size_t k = net.chains.size(); k-- > 0;) {
            if (net.chains[k].population == 0) continue;
            net.chains[k].think_time = zero;
            std::fill(net.chains[k].demands.begin(),
                      net.chains[k].demands.end(), zero);
            break;
          }
        }
        std::string err;
        ASSERT_TRUE(ExactMvaInPlace(net, &ws, 1u << 22, &err)) << err;
        EXPECT_EQ(ws.exact_sweep, shape.sweep);
        EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(net)))
            << "shape " << runs / (3 * kWalkPopulations.size())
            << ", populations " << testing::PrintToString(populations)
            << ", variant " << variant;
        ++runs;
        std::uint32_t begin = 0;
        const std::uint32_t scratch =
            static_cast<std::uint32_t>(ws.q.size() - ws.qcenters.size());
        for (const LatticePlan::Group& g : ws.plan->groups) {
          const bool padded = ws.plan->pairs[g.end - 1].row[1] == scratch;
          odd_groups += padded;
          one_item_groups += padded && g.end - begin == 1;
          begin = g.end;
        }
      }
    }
  }
  EXPECT_GT(odd_groups, 0u);
  EXPECT_GT(one_item_groups, 0u);
}

TEST(ExactMvaPlan, SwitchingShapesMatchesReference) {
  // (6, 2) takes the compiled sweep, (6, 3) the runtime one.
  const std::vector<CenterKind> q2 = {kQ, kQ, kD, kD, kD, kD};
  const std::vector<CenterKind> q3 = {kQ, kQ, kD, kD, kQ, kD};
  const std::vector<int> a = {2, 1, 3};
  const std::vector<int> b = {1, 3, 2};  // A's lattice size, other rows
  struct Step {
    const std::vector<CenterKind>* kinds;
    std::vector<int> populations;
  };
  const Step steps[] = {
      {&q2, a},         {&q2, b},       {&q2, a},          // A -> B -> A
      {&q3, a},         {&q2, a},                          // Q 2 -> 3 -> 2
      {&q2, {0, 0, 0}}, {&q2, a},                          // empty, then not
      {&q2, {2, 1, 3, 0}}, {&q2, {2, 1}},                  // chain count moves
  };
  util::Rng rng(20261019);
  MvaWorkspace ws;
  for (int lap = 0; lap < 2; ++lap) {
    for (std::size_t i = 0; i < std::size(steps); ++i) {
      const ClosedNetwork net =
          MakeRandomNetwork({*steps[i].kinds, steps[i].populations}, &rng);
      std::string err;
      ASSERT_TRUE(ExactMvaInPlace(net, &ws, 1u << 22, &err)) << err;
      EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(net)))
          << "lap " << lap << ", step " << i;
      // New demands on the same shape keep the plan.
      const LatticePlan* plan = ws.plan.get();
      const ClosedNetwork again =
          MakeRandomNetwork({*steps[i].kinds, steps[i].populations}, &rng);
      ASSERT_TRUE(ExactMvaInPlace(again, &ws, 1u << 22, &err)) << err;
      EXPECT_EQ(ws.plan.get(), plan);
      EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(again)))
          << "lap " << lap << ", step " << i << " again";
    }
  }
}

TEST(ExactMvaPlan, PlanIsFreedWithItsLastWorkspace) {
  const ClosedNetwork net = bench::MakeMb8SiteNetwork();
  std::weak_ptr<const LatticePlan> plan;
  {
    MvaWorkspace first, second;
    ASSERT_TRUE(ExactMvaInPlace(net, &first));
    ASSERT_TRUE(ExactMvaInPlace(net, &second));
    EXPECT_EQ(first.plan, second.plan);  // one plan per shape
    plan = first.plan;
    first = MvaWorkspace{};
    EXPECT_FALSE(plan.expired());  // `second` still holds it
  }
  EXPECT_TRUE(plan.expired());

  // One workspace through 40 lattice shapes: each lets the last plan go, and
  // the registry holds no more entries than live plans.
  MvaWorkspace ws;
  for (int pop = 1; pop <= 40; ++pop) {
    const ClosedNetwork shape = bench::MakeSiteShapeNetwork({pop, 1});
    ASSERT_TRUE(ExactMvaInPlace(shape, &ws));
    EXPECT_LE(LatticePlanRegistrySize(), 1u) << "population " << pop;
  }
}

TEST(ExactMvaPlan, LatticeBeyondPlanIndicesFailsWithError) {
  constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();
  MvaWorkspace ws;
  std::string err;
  // 65537^2 states: more than 32-bit row indices can name.
  ClosedNetwork rows;
  rows.AddCenter("cpu", kQ);
  for (int k = 0; k < 2; ++k) {
    const std::size_t c = rows.AddChain("k", 65536, 1.0);
    rows.chains[c].demands[0] = 1.0;
  }
  EXPECT_FALSE(ExactMvaInPlace(rows, &ws, kNoLimit, &err));
  EXPECT_NE(err.find("32-bit"), std::string::npos) << err;
  // 2^31 states fit, but not their 3-column lattice's offsets.
  ClosedNetwork columns;
  for (int m = 0; m < 3; ++m) columns.AddCenter("q", kQ);
  const std::size_t c =
      columns.AddChain("k", std::numeric_limits<int>::max(), 1.0);
  columns.chains[c].demands = {1.0, 1.0, 1.0};
  err.clear();
  EXPECT_FALSE(ExactMvaInPlace(columns, &ws, kNoLimit, &err));
  EXPECT_NE(err.find("32-bit"), std::string::npos) << err;
  // The workspace still solves what fits.
  const ClosedNetwork fits = bench::MakeMb8SiteNetwork();
  ASSERT_TRUE(ExactMvaInPlace(fits, &ws));
  EXPECT_TRUE(SameSolutionBits(ws.solution, ReferenceExactMva(fits)));
}

TEST(ExactMvaPlan, ConcurrentWorkspacesShareOnePlanPerShape) {
  // Three shapes, the compiled site shape, a ub6 site and a runtime-sized
  // (7, 3) network, each solved on 4 workspaces at once. Every task steps
  // through the shapes, so plans are looked up, shared and freed while
  // other threads solve.
  util::Rng rng(20261020);
  std::vector<ClosedNetwork> nets = {
      bench::MakeMb8SiteNetwork(),
      bench::MakeSiteShapeNetwork({2, 2, 1, 1, 1, 1}),
      MakeRandomNetwork({{kQ, kD, kQ, kD, kD, kQ, kD}, {2, 3, 1, 2}}, &rng)};
  std::vector<Solution> want;
  for (const ClosedNetwork& net : nets) want.push_back(ReferenceExactMva(net));

  constexpr std::size_t kTasks = 12;
  constexpr int kReps = 30;
  std::vector<MvaWorkspace> ws(kTasks);
  std::vector<int> mismatches(kTasks, 0);
  exec::ThreadPool pool(4);
  exec::ParallelFor(&pool, 0, kTasks, [&](std::size_t i) {
    for (int rep = 0; rep < kReps; ++rep) {
      const std::size_t s = (i + static_cast<std::size_t>(rep / 3)) % 3;
      if (!ExactMvaInPlace(nets[s], &ws[i]) ||
          !SameSolutionBits(ws[i].solution, want[s]))
        ++mismatches[i];
    }
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "task " << i;
    // Tasks i and i % 3 ended on the same shape, so on the same plan.
    EXPECT_EQ(ws[i].plan, ws[i % 3].plan) << "task " << i;
  }
  EXPECT_NE(ws[0].plan, ws[1].plan);
}

TEST(ExactMvaPlan, WarmSolvesOfPaperSiteShapesAllocateNothing) {
  for (const bench::PaperSiteShape& shape : bench::PaperSiteShapes()) {
    const ClosedNetwork net = bench::MakeSiteShapeNetwork(shape.populations);
    std::size_t states = 0;
    ASSERT_TRUE(JointLatticeStates(net, 1u << 22, &states));
    EXPECT_EQ(states, shape.states) << shape.name;

    MvaWorkspace ws;
    ASSERT_TRUE(ExactMvaInPlace(net, &ws));  // cold: builds the plan
    ASSERT_TRUE(ExactMvaInPlace(net, &ws));
    std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
    for (int i = 0; i < 20; ++i) ExactMvaInPlace(net, &ws);
    EXPECT_EQ(g_alloc_calls.load(std::memory_order_relaxed) - before, 0u)
        << shape.name;

    // A second workspace adopts the built plan; once its own buffers have
    // grown, it allocates nothing either.
    MvaWorkspace adopter;
    ASSERT_TRUE(ExactMvaInPlace(net, &adopter));
    EXPECT_EQ(adopter.plan, ws.plan) << shape.name;
    before = g_alloc_calls.load(std::memory_order_relaxed);
    for (int i = 0; i < 20; ++i) ExactMvaInPlace(net, &adopter);
    EXPECT_EQ(g_alloc_calls.load(std::memory_order_relaxed) - before, 0u)
        << shape.name << " (adopted plan)";
    EXPECT_EQ(adopter.exact_sweep, ExactSweep::kCompiled6x2) << shape.name;
    EXPECT_TRUE(SameSolutionBits(adopter.solution, ReferenceExactMva(net)))
        << shape.name;
  }
}

// Rebuilds every state from the plan alone: row 0 is the empty population,
// and an item of chain k with predecessor row p names the state of p plus
// e_k. Checks that every (state, stepping chain) pair appears in exactly one
// group, with its n_k, at the level its group stands for; that the groups
// go level by level, chain ascending; that a level's rows are contiguous
// and lexicographic; and that only a group's last item may be padding.
::testing::AssertionResult PlanCoversEveryStepOnce(const LatticePlan& plan,
                                                   std::size_t num_states) {
  const std::size_t num_chains = plan.populations.size();
  const std::size_t q = plan.num_queueing;
  std::vector<std::uint32_t> stepping;  // chains with n_k > 0
  std::size_t max_level = 0;
  for (std::size_t k = 0; k < num_chains; ++k) {
    if (plan.populations[k] == 0) continue;
    stepping.push_back(static_cast<std::uint32_t>(k));
    max_level += static_cast<std::size_t>(plan.populations[k]);
  }
  if (plan.groups.size() != max_level * stepping.size())
    return ::testing::AssertionFailure() << "group count";
  const std::uint32_t scratch = static_cast<std::uint32_t>(num_states * q);
  // state[row] and level[row]; row 0 is known, the others are found.
  std::vector<std::vector<int>> state(num_states);
  std::vector<int> level(num_states, -1);
  state[0].assign(num_chains, 0);
  level[0] = 0;
  std::vector<std::vector<bool>> seen(num_states,
                                      std::vector<bool>(num_chains, false));
  std::size_t steps = 0;
  std::uint32_t begin = 0;
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const LatticePlan::Group& group = plan.groups[g];
    const int group_level = static_cast<int>(g / stepping.size()) + 1;
    const std::uint32_t k = group.chain;
    if (k != stepping[g % stepping.size()])
      return ::testing::AssertionFailure() << "group " << g << " chain " << k;
    if (group.end <= begin)
      return ::testing::AssertionFailure() << "group " << g << " is empty";
    for (std::uint32_t p = begin; p < group.end; ++p) {
      for (int lane = 0; lane < 2; ++lane) {
        const std::uint32_t row = plan.pairs[p].row[lane];
        const std::uint32_t pred = plan.pairs[p].pred[lane];
        const double count = plan.pairs[p].count[lane];
        if (row == scratch) {
          if (lane != 1 || p + 1 != group.end ||
              pred != plan.pairs[p].pred[0] || count != plan.pairs[p].count[0])
            return ::testing::AssertionFailure()
                   << "group " << g << ": misplaced padding";
          continue;
        }
        if (row % q != 0 || pred % q != 0 || row / q >= num_states ||
            pred / q >= num_states)
          return ::testing::AssertionFailure() << "group " << g << ": offset";
        const std::size_t r = row / q, rp = pred / q;
        if (level[rp] != group_level - 1)
          return ::testing::AssertionFailure()
                 << "group " << g << ": predecessor not one level below";
        std::vector<int> n = state[rp];
        ++n[k];
        if (n[k] > plan.populations[k] || count != n[k])
          return ::testing::AssertionFailure() << "group " << g << ": n_k";
        if (level[r] == -1) {
          state[r] = n;
          level[r] = group_level;
        } else if (state[r] != n) {
          return ::testing::AssertionFailure()
                 << "row " << r << " names two states";
        }
        if (seen[r][k])
          return ::testing::AssertionFailure()
                 << "row " << r << " steps chain " << k << " twice";
        seen[r][k] = true;
        ++steps;
      }
    }
    begin = group.end;
  }
  if (begin != plan.pairs.size())
    return ::testing::AssertionFailure() << "pairs past the last group";
  // Every state appears once, with all its nonzero chains, level by level
  // and lexicographic (last chain most significant) within a level.
  std::size_t want_steps = 0;
  for (std::size_t r = 1; r < num_states; ++r) {
    if (level[r] == -1)
      return ::testing::AssertionFailure() << "row " << r << " never written";
    if (level[r] < level[r - 1])
      return ::testing::AssertionFailure() << "row " << r << " out of level";
    if (level[r] == level[r - 1] &&
        !std::lexicographical_compare(state[r - 1].rbegin(),
                                      state[r - 1].rend(), state[r].rbegin(),
                                      state[r].rend()))
      return ::testing::AssertionFailure() << "row " << r << " out of order";
    for (std::size_t k = 0; k < num_chains; ++k) {
      if ((state[r][k] > 0) != seen[r][k])
        return ::testing::AssertionFailure()
               << "row " << r << " chain " << k << " missing or extra";
      want_steps += state[r][k] > 0;
    }
  }
  if (steps != want_steps)
    return ::testing::AssertionFailure() << "step count";
  return ::testing::AssertionSuccess();
}

TEST(ExactMvaPlan, EveryStepAppearsInExactlyOneGroup) {
  util::Rng rng(20261021);
  std::vector<std::vector<int>> populations = kWalkPopulations;
  populations.push_back({0, 0});  // one state: no groups at all
  populations.push_back({6, 1, 3});
  for (const std::vector<CenterKind>& kinds :
       {std::vector<CenterKind>{kQ, kQ, kD, kD, kD, kD},
        std::vector<CenterKind>{kQ, kD, kQ, kQ}}) {
    for (const std::vector<int>& pops : populations) {
      MvaWorkspace ws;
      const ClosedNetwork net = MakeRandomNetwork({kinds, pops}, &rng);
      ASSERT_TRUE(ExactMvaInPlace(net, &ws));
      std::size_t states = 0;
      ASSERT_TRUE(JointLatticeStates(net, 1u << 22, &states));
      EXPECT_TRUE(PlanCoversEveryStepOnce(*ws.plan, states))
          << testing::PrintToString(pops) << ", Q = " << ws.qcenters.size();
    }
  }
}

TEST(ClosedNetwork, RejectsNonFiniteDemandsAndThinkTimes) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double v : bad) {
    ClosedNetwork net;
    const std::size_t c = net.AddCenter("cpu", CenterKind::kQueueing);
    const std::size_t d = net.AddCenter("lw", CenterKind::kDelay);
    const std::size_t k = net.AddChain("k", 2, 1.0);
    net.chains[k].demands[c] = 1.0;
    ASSERT_TRUE(net.Validate());
    net.chains[k].demands[d] = v;
    std::string err;
    EXPECT_FALSE(net.Validate(&err)) << v;
    EXPECT_NE(err.find("demand"), std::string::npos) << err;
    EXPECT_FALSE(ExactMva(net).ok);
    EXPECT_FALSE(SchweitzerMva(net).ok);
    net.chains[k].demands[d] = 0.0;
    net.chains[k].think_time = v;
    EXPECT_FALSE(net.Validate(&err)) << v;
    EXPECT_NE(err.find("think"), std::string::npos) << err;
  }
}

TEST(Bounds, SingleChainValues) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t disk = net.AddCenter("disk", CenterKind::kQueueing);
  const std::size_t dly = net.AddCenter("dly", CenterKind::kDelay);
  const std::size_t k = net.AddChain("jobs", 10, 5.0);
  net.chains[k].demands[cpu] = 2.0;
  net.chains[k].demands[disk] = 4.0;
  net.chains[k].demands[dly] = 3.0;
  const auto bounds = AsymptoticBounds(net);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_DOUBLE_EQ(bounds[0].total_demand, 9.0);
  EXPECT_DOUBLE_EQ(bounds[0].bottleneck_demand, 4.0);  // delay center excluded
  EXPECT_DOUBLE_EQ(bounds[0].max_throughput, 0.25);    // saturated: 1/D_max
  EXPECT_DOUBLE_EQ(bounds[0].min_response, 10 * 4.0 - 5.0);
}

TEST(Bounds, LightLoadRegimeUsesPopulationBound) {
  ClosedNetwork net;
  const std::size_t cpu = net.AddCenter("cpu", CenterKind::kQueueing);
  const std::size_t k = net.AddChain("jobs", 1, 95.0);
  net.chains[k].demands[cpu] = 5.0;
  const auto bounds = AsymptoticBounds(net);
  EXPECT_DOUBLE_EQ(bounds[0].max_throughput, 1.0 / 100.0);  // N/(D+Z)
  EXPECT_DOUBLE_EQ(bounds[0].min_response, 5.0);
}

TEST(Bounds, ExactMvaRespectsBoundsOnRandomNetworks) {
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    ClosedNetwork net;
    const int num_centers = 1 + static_cast<int>(rng.NextBounded(4));
    const int num_chains = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < num_centers; ++m) {
      net.AddCenter("c", rng.NextDouble() < 0.3 ? CenterKind::kDelay
                                                : CenterKind::kQueueing);
    }
    for (int k = 0; k < num_chains; ++k) {
      const std::size_t c =
          net.AddChain("k", 1 + static_cast<int>(rng.NextBounded(5)),
                       rng.NextDouble() * 20);
      for (int m = 0; m < num_centers; ++m)
        net.chains[c].demands[m] = rng.NextDouble() * 8;
    }
    const MvaResult res = ExactMva(net);
    ASSERT_TRUE(res.ok);
    const auto bounds = AsymptoticBounds(net);
    for (std::size_t k = 0; k < net.chains.size(); ++k) {
      EXPECT_LE(res.solution.throughput[k], bounds[k].max_throughput + 1e-9);
      EXPECT_GE(res.solution.response_time[k],
                bounds[k].total_demand - 1e-9);
    }
  }
}

TEST(Ethernet, DelayGrowsWithLoadAndStaysFiniteNearSaturation) {
  EthernetParams params;
  const double frame = 8000.0;  // 1000-byte message
  const double idle = EthernetMeanDelayMs(params, frame, 0.0);
  const double busy = EthernetMeanDelayMs(params, frame, 0.8);
  const double hot = EthernetMeanDelayMs(params, frame, 10.0);
  EXPECT_GT(idle, 0.0);
  EXPECT_GT(busy, idle);
  EXPECT_GT(hot, busy);
  EXPECT_LT(hot, 1000.0);  // clamped, not infinite
  // Transmission of 8000 bits at 10 Mb/s is 0.8 ms; idle delay is close.
  EXPECT_NEAR(idle, 0.8 + params.propagation_ms, 0.05);
}

}  // namespace
}  // namespace carat::qn
