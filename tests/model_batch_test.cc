// Lockstep batch solving at the model layer: CaratModel::SolveBatchInto must
// produce per-lane ModelSolutions bit-identical to one-lane SolveInto runs
// of the same inputs. Every lane runs the scalar MVA kernels on its own
// workspaces; these tests prove the fixed-point loop keeps the lanes
// apart — per-lane acceleration history and damping decay, per-lane
// freezing, exact and Schweitzer sites side by side, warm seeding, arena
// reuse and the Ethernet coupling all included.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/solver.h"
#include "workload/spec.h"

namespace carat::model {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectBitIdentical(const ModelSolution& got, const ModelSolution& want,
                        const std::string& tag) {
  SCOPED_TRACE(tag);
  ASSERT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.accelerated_steps, want.accelerated_steps);
  EXPECT_EQ(got.fallback_steps, want.fallback_steps);
  EXPECT_EQ(got.warm_started, want.warm_started);
  EXPECT_EQ(got.error, want.error);
  EXPECT_TRUE(SameBits(got.comm_delay_ms, want.comm_delay_ms));
  ASSERT_EQ(got.sites.size(), want.sites.size());
  for (std::size_t i = 0; i < got.sites.size(); ++i) {
    const SiteSolution& g = got.sites[i];
    const SiteSolution& w = want.sites[i];
    EXPECT_EQ(g.name, w.name);
    EXPECT_TRUE(SameBits(g.cpu_utilization, w.cpu_utilization));
    EXPECT_TRUE(SameBits(g.db_disk_utilization, w.db_disk_utilization));
    EXPECT_TRUE(SameBits(g.log_disk_utilization, w.log_disk_utilization));
    EXPECT_TRUE(SameBits(g.dio_per_s, w.dio_per_s));
    EXPECT_TRUE(SameBits(g.txn_per_s, w.txn_per_s));
    EXPECT_TRUE(SameBits(g.records_per_s, w.records_per_s));
    for (TxnType t : kAllTxnTypes) {
      const ClassSolution& gc = g.Class(t);
      const ClassSolution& wc = w.Class(t);
      EXPECT_EQ(gc.present, wc.present);
      EXPECT_TRUE(SameBits(gc.throughput_per_s, wc.throughput_per_s));
      EXPECT_TRUE(SameBits(gc.response_ms, wc.response_ms));
      EXPECT_TRUE(SameBits(gc.pa, wc.pa));
      EXPECT_TRUE(SameBits(gc.ns, wc.ns));
      EXPECT_TRUE(SameBits(gc.pb, wc.pb));
      EXPECT_TRUE(SameBits(gc.pd, wc.pd));
      EXPECT_TRUE(SameBits(gc.plw, wc.plw));
      EXPECT_TRUE(SameBits(gc.lh, wc.lh));
      EXPECT_TRUE(SameBits(gc.nlk, wc.nlk));
      EXPECT_TRUE(SameBits(gc.sigma, wc.sigma));
      EXPECT_TRUE(SameBits(gc.r_lw_ms, wc.r_lw_ms));
      EXPECT_TRUE(SameBits(gc.r_rw_ms, wc.r_rw_ms));
      EXPECT_TRUE(SameBits(gc.r_cw_ms, wc.r_cw_ms));
      EXPECT_TRUE(SameBits(gc.d_lw_ms, wc.d_lw_ms));
      EXPECT_TRUE(SameBits(gc.d_rw_ms, wc.d_rw_ms));
      EXPECT_TRUE(SameBits(gc.d_cw_ms, wc.d_cw_ms));
    }
  }
}

// A request-size sweep of one workload family: same shape (chain presence),
// different demands per lane — the serving layer's common batch pattern.
std::vector<ModelInput> SweepInputs(const char* family,
                                    const std::vector<int>& ns) {
  std::vector<ModelInput> inputs;
  for (int n : ns) {
    workload::WorkloadSpec wl;
    const std::string f(family);
    if (f == "lb8") wl = workload::MakeLB8(n);
    else if (f == "mb4") wl = workload::MakeMB4(n);
    else if (f == "mb8") wl = workload::MakeMB8(n);
    else wl = workload::MakeUB6(n);
    inputs.push_back(wl.ToModelInput());
  }
  return inputs;
}

// One mb-shaped input per node mix (both nodes alike, so every lane has all
// six chains at both sites and the same shape key): lanes that differ only
// in chain populations.
std::vector<ModelInput> MixInputs(const std::vector<workload::NodeMix>& mixes) {
  std::vector<ModelInput> inputs;
  for (const workload::NodeMix& mix : mixes) {
    workload::WorkloadSpec wl = workload::MakeMB4(8);
    for (workload::NodeMix& node : wl.nodes) node = mix;
    inputs.push_back(wl.ToModelInput());
  }
  return inputs;
}

struct BatchRun {
  std::vector<ModelSolution> outs;
  std::vector<WarmStart> warms;
};

BatchRun RunBatch(const std::vector<ModelInput>& inputs,
                  const SolverOptions& options,
                  const std::vector<const WarmStart*>* seeds = nullptr) {
  const std::size_t lanes = inputs.size();
  BatchRun run;
  run.outs.resize(lanes);
  run.warms.resize(lanes);
  std::vector<const ModelInput*> in_ptrs(lanes);
  std::vector<ModelSolution*> out_ptrs(lanes);
  std::vector<WarmStart*> warm_ptrs(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    in_ptrs[w] = &inputs[w];
    out_ptrs[w] = &run.outs[w];
    warm_ptrs[w] = &run.warms[w];
  }
  BatchSolveArena arena;
  CaratModel::SolveBatchInto(in_ptrs.data(), lanes, options, &arena,
                             seeds != nullptr ? seeds->data() : nullptr,
                             out_ptrs.data(), warm_ptrs.data());
  return run;
}

ModelSolution RunScalar(const ModelInput& input, const SolverOptions& options,
                        const WarmStart* seed = nullptr,
                        WarmStart* warm_out = nullptr) {
  ModelSolution out;
  SolveArena arena;
  CaratModel(input).SolveInto(options, &arena, seed, &out, warm_out);
  return out;
}

TEST(ModelBatch, BitIdenticalToScalarAcrossWorkloadSweeps) {
  std::vector<std::pair<std::string, std::vector<ModelInput>>> blocks;
  for (const char* family : {"lb8", "mb4", "mb8", "ub6"})
    blocks.emplace_back(family, SweepInputs(family, {4, 6, 8, 12, 16, 20}));
  // Each lane has its own population lattice (2x2x2x2x2x2 up to 4^6 states).
  blocks.emplace_back("lattices", MixInputs({{1, 1, 1, 1},
                                             {2, 1, 1, 1},
                                             {1, 2, 3, 1},
                                             {3, 3, 3, 3}}));
  // Lanes 1 and 3 have 11^6 and 13^6 lattice states, above the 1 << 20
  // exact-state limit, so their sites fall back to Schweitzer while lanes 0
  // and 2 solve exact.
  blocks.emplace_back("exact+fallback", MixInputs({{2, 2, 2, 2},
                                                   {10, 10, 10, 10},
                                                   {1, 2, 2, 1},
                                                   {12, 12, 12, 12}}));
  const SolverOptions options;
  for (const auto& [tag, inputs] : blocks) {
    const BatchRun batch = RunBatch(inputs, options);
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      ExpectBitIdentical(batch.outs[w], RunScalar(inputs[w], options),
                         tag + " lane " + std::to_string(w));
    }
  }
}

TEST(ModelBatch, SchweitzerOnlyOptionTakesLockstepPath) {
  // use_exact_mva = false forces SchweitzerMvaInPlace at every site, each
  // lane warm-starting from its own retained queue lengths.
  SolverOptions options;
  options.use_exact_mva = false;
  const std::vector<ModelInput> inputs = SweepInputs("mb8", {4, 8, 12, 20});
  const BatchRun batch = RunBatch(inputs, options);
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    ExpectBitIdentical(batch.outs[w], RunScalar(inputs[w], options),
                       "schweitzer lane " + std::to_string(w));
  }
}

TEST(ModelBatch, LanesFreezeAtDifferentIterationCounts) {
  // Request sizes 4 vs 20 converge after different iteration counts; each
  // frozen lane must report exactly its scalar twin's count.
  const std::vector<ModelInput> inputs = SweepInputs("ub6", {4, 8, 20});
  const SolverOptions options;
  const BatchRun batch = RunBatch(inputs, options);
  std::vector<int> iters;
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    const ModelSolution scalar = RunScalar(inputs[w], options);
    EXPECT_TRUE(batch.outs[w].converged);
    EXPECT_EQ(batch.outs[w].iterations, scalar.iterations);
    iters.push_back(batch.outs[w].iterations);
  }
  EXPECT_NE(iters.front(), iters.back());
}

TEST(ModelBatch, WarmSeededBatchMatchesWarmSeededScalar) {
  // Converge a sweep, then re-solve a shifted sweep seeded from it. Fresh
  // arenas on both sides keep the retained-MVA state equal (empty), so the
  // seeded trajectories must coincide bitwise.
  const SolverOptions options;
  const std::vector<ModelInput> first = SweepInputs("mb4", {4, 8, 12, 16});
  const std::vector<ModelInput> second = SweepInputs("mb4", {6, 10, 14, 18});
  const BatchRun cold = RunBatch(first, options);
  std::vector<const WarmStart*> seeds;
  for (const WarmStart& w : cold.warms) seeds.push_back(&w);
  const BatchRun warm = RunBatch(second, options, &seeds);
  for (std::size_t w = 0; w < second.size(); ++w) {
    const ModelSolution scalar =
        RunScalar(second[w], options, &cold.warms[w]);
    EXPECT_TRUE(warm.outs[w].warm_started);
    ExpectBitIdentical(warm.outs[w], scalar,
                       "warm lane " + std::to_string(w));
  }
}

TEST(ModelBatch, EthernetCouplingStaysBitIdentical) {
  SolverOptions options;
  options.ethernet = qn::EthernetParams{};
  const std::vector<ModelInput> inputs = SweepInputs("mb8", {4, 8, 16});
  const BatchRun batch = RunBatch(inputs, options);
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    ExpectBitIdentical(batch.outs[w], RunScalar(inputs[w], options),
                       "ethernet lane " + std::to_string(w));
  }
}

TEST(ModelBatch, InvalidLaneRidesAlongWithoutDisturbingNeighbors) {
  std::vector<ModelInput> inputs = SweepInputs("mb4", {4, 8, 12});
  inputs[1].sites[0].classes[0].population = -1;  // fails validation
  const SolverOptions options;
  const BatchRun batch = RunBatch(inputs, options);
  EXPECT_FALSE(batch.outs[1].ok);
  EXPECT_EQ(batch.outs[1].error, "negative population");
  for (std::size_t w : {std::size_t{0}, std::size_t{2}}) {
    ExpectBitIdentical(batch.outs[w], RunScalar(inputs[w], options),
                       "neighbor lane " + std::to_string(w));
  }
}

TEST(ModelBatch, MixedShapeLaneFailsWithoutDisturbingNeighbors) {
  std::vector<ModelInput> inputs = SweepInputs("mb4", {4, 8, 12});
  inputs[2] = SweepInputs("lb8", {8})[0];  // different chain presence
  const SolverOptions options;
  const BatchRun batch = RunBatch(inputs, options);
  EXPECT_FALSE(batch.outs[2].ok);
  EXPECT_EQ(batch.outs[2].error, "batch lanes differ in model shape");
  for (std::size_t w : {std::size_t{0}, std::size_t{1}}) {
    ExpectBitIdentical(batch.outs[w], RunScalar(inputs[w], options),
                       "neighbor lane " + std::to_string(w));
  }
}

TEST(ModelBatch, OverflowingLaneFailsAloneNamingTheSite) {
  // A finite but huge communication delay overflows the RW demand to inf
  // mid-solve. That lane must fail on its own, naming the site, while the
  // other seven lanes of the block match their one-lane solves bit for bit,
  // with exact and with Schweitzer site solves.
  std::vector<ModelInput> inputs;
  for (int w = 0; w < 8; ++w) {
    inputs.push_back(workload::MakeMB8(4).ToModelInput());
    for (SiteParams& site : inputs.back().sites)
      site.think_time_ms = 150.0 * w;
  }
  constexpr std::size_t kBad = 3;
  inputs[kBad].comm_delay_ms = 1e308;
  ASSERT_TRUE(inputs[kBad].Validate());
  for (const bool exact : {true, false}) {
    SolverOptions options;
    options.use_exact_mva = exact;
    const BatchRun batch = RunBatch(inputs, options);
    const std::string tag = exact ? "exact" : "approx";
    EXPECT_FALSE(batch.outs[kBad].ok) << tag;
    EXPECT_NE(batch.outs[kBad].error.find(
                  "site " + inputs[kBad].sites[0].name + ":"),
              std::string::npos)
        << tag << ": " << batch.outs[kBad].error;
    EXPECT_TRUE(batch.outs[kBad].sites.empty());
    const ModelSolution alone = RunScalar(inputs[kBad], options);
    EXPECT_FALSE(alone.ok);
    EXPECT_EQ(alone.error, batch.outs[kBad].error);
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      if (w == kBad) continue;
      const ModelSolution scalar = RunScalar(inputs[w], options);
      EXPECT_TRUE(scalar.ok && scalar.converged) << scalar.error;
      ExpectBitIdentical(batch.outs[w], scalar,
                         tag + " neighbor lane " + std::to_string(w));
    }
  }
}

TEST(ModelBatch, ReusedArenaSolvesColdBlocksBitIdentically) {
  // Back-to-back unseeded blocks through one arena must each match fresh
  // one-lane solves: a cold lane drops its retained Schweitzer queue
  // lengths exactly like a one-lane arena does.
  const SolverOptions options;
  const std::vector<ModelInput> first = SweepInputs("mb8", {4, 8, 12, 16});
  const std::vector<ModelInput> second = SweepInputs("mb8", {20, 6, 10, 14});
  BatchSolveArena arena;
  for (const std::vector<ModelInput>* block : {&first, &second}) {
    const std::size_t lanes = block->size();
    std::vector<ModelSolution> outs(lanes);
    std::vector<const ModelInput*> in_ptrs(lanes);
    std::vector<ModelSolution*> out_ptrs(lanes);
    for (std::size_t w = 0; w < lanes; ++w) {
      in_ptrs[w] = &(*block)[w];
      out_ptrs[w] = &outs[w];
    }
    CaratModel::SolveBatchInto(in_ptrs.data(), lanes, options, &arena,
                               nullptr, out_ptrs.data());
    for (std::size_t w = 0; w < lanes; ++w) {
      ExpectBitIdentical(outs[w], RunScalar((*block)[w], options),
                         "reused-arena lane " + std::to_string(w));
    }
  }
}

TEST(ModelBatch, ReusedArenaSeededResolveMatchesOneLane) {
  // A cold block, then the same block re-solved seeded from its own warm
  // outputs, through one reused arena; against the same two solves per lane
  // through that lane's own one-lane arena. The lanes freeze at different
  // iterations, and a frozen lane must leave exactly the retained
  // Schweitzer queue lengths of its one-lane twin, so the seeded re-solve,
  // which resumes from them, matches bit for bit.
  SolverOptions options;
  options.use_exact_mva = false;
  const std::vector<ModelInput> inputs = SweepInputs("ub6", {4, 8, 20});
  const std::size_t lanes = inputs.size();

  BatchSolveArena arena;
  std::vector<ModelSolution> cold(lanes), warm(lanes);
  std::vector<WarmStart> cold_warms(lanes);
  std::vector<const ModelInput*> in_ptrs(lanes);
  std::vector<ModelSolution*> out_ptrs(lanes);
  std::vector<WarmStart*> warm_ptrs(lanes);
  std::vector<const WarmStart*> seeds(lanes);
  for (std::size_t w = 0; w < lanes; ++w) {
    in_ptrs[w] = &inputs[w];
    out_ptrs[w] = &cold[w];
    warm_ptrs[w] = &cold_warms[w];
    seeds[w] = &cold_warms[w];
  }
  CaratModel::SolveBatchInto(in_ptrs.data(), lanes, options, &arena, nullptr,
                             out_ptrs.data(), warm_ptrs.data());
  for (std::size_t w = 0; w < lanes; ++w) out_ptrs[w] = &warm[w];
  CaratModel::SolveBatchInto(in_ptrs.data(), lanes, options, &arena,
                             seeds.data(), out_ptrs.data());

  for (std::size_t w = 0; w < lanes; ++w) {
    SolveArena lane_arena;
    ModelSolution lane_cold, lane_warm;
    WarmStart lane_warms;
    const CaratModel model(inputs[w]);
    model.SolveInto(options, &lane_arena, nullptr, &lane_cold, &lane_warms);
    model.SolveInto(options, &lane_arena, &lane_warms, &lane_warm);
    ExpectBitIdentical(cold[w], lane_cold, "cold lane " + std::to_string(w));
    EXPECT_TRUE(warm[w].warm_started);
    ExpectBitIdentical(warm[w], lane_warm, "seeded lane " + std::to_string(w));
  }
  EXPECT_NE(cold.front().iterations, cold.back().iterations);
}

}  // namespace
}  // namespace carat::model
