// Hierarchical site-class solving (DESIGN.md §14).
//
// The contract under test: the solver detects (or accepts) a partition of
// the sites into classes of byte-identical replicas, couples the sites
// through class-aggregated sums, and — with collapse_site_classes on — runs
// the fixed point over one representative per class. Collapsed and flat
// solves of the same input are bit-identical, explicit partitions behave
// like detected ones, the shape key separates different partitions, and the
// coupling storage is O(classes), not O(sites²) — pinned by counting heap
// allocations around cold solves at 512 vs 1024 sites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "carat/testbed.h"
#include "fuzz/generator.h"
#include "fuzz/scenario.h"
#include "model/solver.h"
#include "util/approx.h"
#include "util/random.h"
#include "workload/spec.h"

// ---- Global allocation counters --------------------------------------------
// Same hook as bench/perf_solver.cc: every operator-new in the process bumps
// the counters; tests read deltas around solve calls. The solver is
// deterministic, so the deltas are too.

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace carat::model {
namespace {

using carat::fuzz::ModelSolutionFingerprint;

ModelInput NodesInput(workload::WorkloadSpec (*make)(int, int), int requests,
                      int num_nodes) {
  return make(requests, num_nodes).ToModelInput();
}

ModelSolution SolveWith(const ModelInput& input, bool collapse,
                        bool exact = true,
                        const SiteClassSpec* spec = nullptr) {
  SolverOptions opts;
  opts.collapse_site_classes = collapse;
  opts.use_exact_mva = exact;
  opts.site_classes = spec;
  return CaratModel(input).Solve(opts);
}

// ------------------------------------------------- flat/hier bit-identity --

TEST(HierSolver, CollapsedBitIdenticalToFlatOnPaperWorkloads) {
  struct Case {
    workload::WorkloadSpec (*make)(int, int);
    int requests;
    int nodes;
    bool exact;
  };
  // Small node counts run exact MVA; large ones Schweitzer (their slave
  // populations are in the thousands). Every input here alternates two
  // block-I/O speeds, so the detected partition has exactly 2 classes.
  const Case cases[] = {
      {workload::MakeMB4, 4, 8, true},   {workload::MakeLB8, 8, 12, true},
      {workload::MakeUB6, 6, 12, true},  {workload::MakeMB4, 4, 64, false},
      {workload::MakeMB8, 8, 128, false}, {workload::MakeUB6, 6, 256, false},
  };
  for (const Case& c : cases) {
    const ModelInput input = NodesInput(c.make, c.requests, c.nodes);
    const ModelSolution flat = SolveWith(input, false, c.exact);
    const ModelSolution hier = SolveWith(input, true, c.exact);
    ASSERT_TRUE(flat.ok) << flat.error;
    ASSERT_TRUE(hier.ok) << hier.error;
    EXPECT_TRUE(flat.converged);
    EXPECT_EQ(flat.iterations, hier.iterations) << c.nodes << " nodes";
    EXPECT_EQ(ModelSolutionFingerprint(flat), ModelSolutionFingerprint(hier))
        << c.nodes << " nodes, exact=" << c.exact;
  }
}

TEST(HierSolver, CollapsedBitIdenticalToFlatOnGeneratedClassScenarios) {
  fuzz::GeneratorOptions gopts;
  gopts.min_sites = 24;
  gopts.max_sites = 40;
  gopts.site_classes = 6;
  util::Rng rng(20260808);
  for (int i = 0; i < 20; ++i) {
    const fuzz::Scenario s = fuzz::GenerateScenario(&rng, gopts);
    ASSERT_TRUE(s.input.Validate());
    const ModelSolution flat = SolveWith(s.input, false);
    const ModelSolution hier = SolveWith(s.input, true);
    ASSERT_TRUE(flat.ok) << flat.error;
    ASSERT_TRUE(hier.ok) << hier.error;
    EXPECT_EQ(ModelSolutionFingerprint(flat), ModelSolutionFingerprint(hier))
        << "seed draw " << i;
  }
}

// ----------------------------------------------------- explicit partitions --

TEST(HierSolver, ExplicitSpecMatchesDetectedPartition) {
  const ModelInput input = NodesInput(workload::MakeMB4, 4, 8);
  const ModelSolution detected = SolveWith(input, true);
  ASSERT_TRUE(detected.ok) << detected.error;

  // The true partition, spelled out: even sites run 28 ms disks, odd 40 ms.
  SiteClassSpec spec;
  for (std::size_t i = 0; i < input.sites.size(); ++i)
    spec.class_of_site.push_back(i % 2);
  const ModelSolution explicit_spec = SolveWith(input, true, true, &spec);
  ASSERT_TRUE(explicit_spec.ok) << explicit_spec.error;
  EXPECT_EQ(ModelSolutionFingerprint(detected),
            ModelSolutionFingerprint(explicit_spec));

  // Class ids are renumbered by first occurrence: {7,3,7,3,...} is the same
  // partition as {0,1,0,1,...}.
  SiteClassSpec sparse;
  for (std::size_t i = 0; i < input.sites.size(); ++i)
    sparse.class_of_site.push_back(i % 2 == 0 ? 7 : 3);
  const ModelSolution sparse_spec = SolveWith(input, true, true, &sparse);
  ASSERT_TRUE(sparse_spec.ok) << sparse_spec.error;
  EXPECT_EQ(ModelSolutionFingerprint(detected),
            ModelSolutionFingerprint(sparse_spec));

  // Collapse on/off under one explicit partition is the same bit-identity
  // as under the detected one.
  const ModelSolution flat_spec = SolveWith(input, false, true, &spec);
  ASSERT_TRUE(flat_spec.ok) << flat_spec.error;
  EXPECT_EQ(ModelSolutionFingerprint(detected),
            ModelSolutionFingerprint(flat_spec));
}

TEST(HierSolver, ExplicitSpecValidationFailures) {
  const ModelInput input = NodesInput(workload::MakeMB4, 4, 4);

  SiteClassSpec wrong_size;
  wrong_size.class_of_site = {0, 1, 0};  // 3 entries for 4 sites
  ModelSolution sol = SolveWith(input, true, true, &wrong_size);
  EXPECT_FALSE(sol.ok);
  EXPECT_NE(sol.error.find("size"), std::string::npos) << sol.error;
  EXPECT_TRUE(sol.sites.empty());

  // Grouping a log-disk site with a no-log-disk site: the coupling topology
  // differs, so the spec is rejected rather than approximated.
  ModelInput mixed = input;
  mixed.sites[0].separate_log_disk = true;
  ASSERT_TRUE(mixed.Validate());
  SiteClassSpec bad_group;
  bad_group.class_of_site = {0, 0, 1, 1};
  sol = SolveWith(mixed, true, true, &bad_group);
  EXPECT_FALSE(sol.ok);
  EXPECT_NE(sol.error.find("presence"), std::string::npos) << sol.error;
}

// ------------------------------------------------------------- shape keys --

TEST(HierSolver, ShapeKeyEncodesThePartition) {
  const ModelInput a = NodesInput(workload::MakeMB4, 4, 4);
  // Same presence pattern and site count, different request load: parameter
  // values are not part of the shape, and both partitions are {0,1,0,1}.
  const ModelInput b = NodesInput(workload::MakeMB4, 20, 4);
  EXPECT_EQ(SolveShapeKey(a), SolveShapeKey(b));

  // Perturbing one site's think time splits its class: {0,1,2,1} != {0,1,0,1}
  // even though chain presence is unchanged.
  ModelInput c = a;
  c.sites[0].think_time_ms += 1.0;
  ASSERT_TRUE(c.Validate());
  EXPECT_NE(SolveShapeKey(a), SolveShapeKey(c));

  // Different site counts never collide (the key length grows).
  EXPECT_NE(SolveShapeKey(a), SolveShapeKey(NodesInput(workload::MakeMB4, 4, 8)));
}

// --------------------------------------------- coupling storage regression --

// The flat coupling lists used to hold, for every site, the indices of every
// other site with a slave/coordinator chain: O(num_sites²) entries. The
// class-indexed lists hold one (class, count) entry per class: O(classes²)
// for the whole structure. Pinned by comparing heap bytes allocated by cold
// solves at 512 vs 1024 sites (2 classes each): every remaining allocation
// is linear in the site count, so doubling the sites must stay well under
// 3x the bytes — the quadratic lists alone would quadruple it (~33 MB at
// 1024 sites).
std::uint64_t ColdSolveBytes(const ModelInput& input, bool collapse) {
  CaratModel model(input);
  SolverOptions opts;
  opts.use_exact_mva = false;  // slave populations are in the thousands
  opts.collapse_site_classes = collapse;
  SolveArena arena;
  ModelSolution out;
  const std::uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  model.SolveInto(opts, &arena, nullptr, &out);
  const std::uint64_t after = g_alloc_bytes.load(std::memory_order_relaxed);
  EXPECT_TRUE(out.ok) << out.error;
  return after - before;
}

TEST(HierSolver, CouplingStorageIsClassBoundedNotSiteQuadratic) {
  const ModelInput half = NodesInput(workload::MakeMB4, 4, 512);
  const ModelInput full = NodesInput(workload::MakeMB4, 4, 1024);
  const std::uint64_t flat_half = ColdSolveBytes(half, false);
  const std::uint64_t flat_full = ColdSolveBytes(full, false);
  EXPECT_LT(flat_full, 3 * flat_half)
      << "flat cold-solve allocations grew quadratically: " << flat_half
      << " -> " << flat_full << " bytes";
  // Collapsed solves keep only per-site state (the class states plus the
  // expansion targets); they must not allocate more than the flat path.
  const std::uint64_t hier_full = ColdSolveBytes(full, true);
  EXPECT_LE(hier_full, flat_full);
}

TEST(HierSolver, WarmArenaSolveIsAllocationFree) {
  const ModelInput input = NodesInput(workload::MakeMB4, 4, 64);
  CaratModel model(input);
  SolverOptions opts;
  opts.use_exact_mva = false;
  for (const bool collapse : {true, false}) {
    opts.collapse_site_classes = collapse;
    SolveArena arena;
    ModelSolution out;
    model.SolveInto(opts, &arena, nullptr, &out);  // cold: allocates freely
    ASSERT_TRUE(out.ok) << out.error;
    const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
    model.SolveInto(opts, &arena, nullptr, &out);
    const std::uint64_t after = g_alloc_calls.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "warm solve allocated (collapse=" << collapse << ")";
  }
}

// ------------------------------------------------------------- batch lanes --

TEST(HierSolver, BatchCollapsedLanesMatchScalarSolves) {
  // Three lanes of one shape (think time is a value, not part of the shape);
  // each lane keeps the 2-class partition.
  std::vector<ModelInput> lanes;
  for (const double think : {0.0, 50.0, 200.0}) {
    ModelInput input = NodesInput(workload::MakeMB4, 4, 16);
    for (SiteParams& site : input.sites) site.think_time_ms = think;
    lanes.push_back(std::move(input));
  }
  SolverOptions opts;  // collapse on by default
  std::vector<const ModelInput*> inputs;
  std::vector<ModelSolution> outs(lanes.size());
  std::vector<ModelSolution*> out_ptrs;
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    inputs.push_back(&lanes[w]);
    out_ptrs.push_back(&outs[w]);
  }
  BatchSolveArena arena;
  CaratModel::SolveBatchInto(inputs.data(), lanes.size(), opts, &arena,
                             nullptr, out_ptrs.data());
  for (std::size_t w = 0; w < lanes.size(); ++w) {
    ASSERT_TRUE(outs[w].ok) << "lane " << w << ": " << outs[w].error;
    ModelSolution scalar;
    CaratModel(lanes[w]).SolveInto(opts, nullptr, nullptr, &scalar);
    EXPECT_EQ(ModelSolutionFingerprint(scalar),
              ModelSolutionFingerprint(outs[w]))
        << "lane " << w;
  }
}

// --------------------------------------------------------- large-N sweeps --

TEST(HierSolver, FourThousandSitesSolveCollapsesAndStaysClassUniform) {
  const ModelInput input = NodesInput(workload::MakeMB4, 4, 4096);
  const ModelSolution sol = SolveWith(input, true, /*exact=*/false);
  ASSERT_TRUE(sol.ok) << sol.error;
  EXPECT_TRUE(sol.converged);
  ASSERT_EQ(sol.sites.size(), 4096u);
  // Every site is a replica of site 0 or site 1; the expanded solution must
  // be bitwise uniform within each class.
  for (std::size_t i = 2; i < sol.sites.size(); ++i) {
    const SiteSolution& rep = sol.sites[i % 2];
    const SiteSolution& s = sol.sites[i];
    ASSERT_EQ(std::memcmp(&rep.classes, &s.classes, sizeof(rep.classes)), 0)
        << "site " << i;
    ASSERT_EQ(rep.txn_per_s, s.txn_per_s) << "site " << i;
    ASSERT_EQ(rep.cpu_utilization, s.cpu_utilization) << "site " << i;
  }
  EXPECT_GT(sol.TotalTxnPerSec(), 0.0);
}

TEST(HierSolver, FourThousandSitesGeneratedClassesSolve) {
  fuzz::GeneratorOptions gopts;
  gopts.min_sites = 4096;
  gopts.max_sites = 4096;
  gopts.site_classes = 8;
  util::Rng rng(4096);
  const fuzz::Scenario s = fuzz::GenerateScenario(&rng, gopts);
  ASSERT_TRUE(s.input.Validate());
  const ModelSolution sol = SolveWith(s.input, true, /*exact=*/false);
  ASSERT_TRUE(sol.ok) << sol.error;
  EXPECT_EQ(sol.sites.size(), 4096u);
}

// ------------------------------------------------- generator class mode ----

TEST(GeneratorClassMode, FiveThousandDrawsDeterministicAndValidAtN1024) {
  fuzz::GeneratorOptions gopts;
  gopts.min_sites = 1024;
  gopts.max_sites = 1024;
  gopts.site_classes = 8;
  const int slave_cap = 2 * std::max(1, gopts.max_population);
  util::Rng rng(77), replay(77);
  for (int i = 0; i < 5000; ++i) {
    const fuzz::Scenario s = fuzz::GenerateScenario(&rng, gopts);
    ASSERT_EQ(s.input.sites.size(), 1024u) << "draw " << i;
    ASSERT_TRUE(s.input.Validate()) << "draw " << i;
    // The large-N population convention: slave chains are capped so the
    // per-site MVA population does not grow with the site count.
    for (const SiteParams& site : s.input.sites) {
      ASSERT_LE(site.Class(TxnType::kDROS).population, slave_cap);
      ASSERT_LE(site.Class(TxnType::kDUS).population, slave_cap);
    }
    if (i % 100 == 0) {
      // Same seed, same bytes — and the solver recovers at most
      // `site_classes` classes from the replicated templates. The class ids
      // follow the presence bytes (width 2 at 1024 sites); a trailing byte
      // carries the CC backend id.
      const fuzz::Scenario r = fuzz::GenerateScenario(&replay, gopts);
      ASSERT_EQ(fuzz::Serialize(s), fuzz::Serialize(r)) << "draw " << i;
      const std::string key = SolveShapeKey(s.input);
      const std::size_t n = s.input.sites.size();
      ASSERT_EQ(key.size(), n * 3 + 1);
      std::size_t max_id = 0;
      for (std::size_t j = 0; j < n; ++j) {
        std::uint16_t id;
        std::memcpy(&id, key.data() + n + 2 * j, sizeof(id));
        max_id = std::max<std::size_t>(max_id, id);
      }
      EXPECT_LT(max_id, static_cast<std::size_t>(gopts.site_classes))
          << "draw " << i;
    } else {
      (void)fuzz::GenerateScenario(&replay, gopts);
    }
  }
}

// --------------------------------------------- model vs testbed, large N ---

// The validation suite pins the paper's 2-node design points; this pins the
// largest configuration the testbed reaches in the tier-1 budget. MB4 is
// distributed, so the shards = 0 request runs serially, and the model —
// solved hierarchically, 2 classes — must still track the simulation on
// aggregate throughput.
TEST(HierValidation, ModelTracksTestbedAtSixteenSites) {
  ModelInput input = NodesInput(workload::MakeMB4, 4, 16);
  // Large-N slave-population convention: WorkloadSpec::ToModelInput gives
  // every site one slave job per coordinator elsewhere — at 2 nodes (the
  // paper's testbed, where every remote request lands on the one other
  // node) that is exact, but at 16 nodes each coordinator's r_dist remote
  // requests spread over 15 sites, so the expected concurrent slaves per
  // site is elsewhere * r_dist / other_nodes, not elsewhere. Without the
  // rescale the model sees ~7x the real slave load and under-predicts
  // throughput by half (the same break the generator's slave cap fixes).
  const int other_nodes = static_cast<int>(input.sites.size()) - 1;
  const int r_dist = input.sites[0].Class(TxnType::kDROC).remote_requests;
  for (SiteParams& site : input.sites) {
    for (TxnType t : {TxnType::kDROS, TxnType::kDUS}) {
      ClassParams& slave = site.Class(t);
      if (slave.population <= 0) continue;
      slave.population =
          std::max(1, slave.population * r_dist / other_nodes);
    }
  }
  ASSERT_TRUE(input.Validate());
  const ModelSolution model = SolveWith(input, true);
  ASSERT_TRUE(model.ok) << model.error;
  ASSERT_TRUE(model.converged);

  carat::TestbedOptions topts;
  topts.seed = 16;
  topts.shards = 0;
  topts.warmup_ms = 20'000;
  topts.measure_ms = 200'000;
  const carat::TestbedResult sim = carat::RunTestbed(input, topts);
  ASSERT_TRUE(sim.ok) << sim.error;
  ASSERT_TRUE(sim.database_consistent);
  ASSERT_EQ(sim.nodes.size(), 16u);

  EXPECT_LT(util::RelDiff(model.TotalTxnPerSec(), sim.TotalTxnPerSec()), 0.25)
      << "XPUT model=" << model.TotalTxnPerSec()
      << " sim=" << sim.TotalTxnPerSec();
  // Class members are symmetric in the model; the simulation only differs
  // by sampling noise, so per-node throughputs stay near their class mean.
  for (std::size_t i = 0; i < sim.nodes.size(); ++i) {
    EXPECT_LT(
        util::RelDiff(model.sites[i].txn_per_s, sim.nodes[i].txn_per_s), 0.35)
        << "node " << i;
  }
}

}  // namespace
}  // namespace carat::model
