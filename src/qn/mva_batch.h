// Lockstep structure-of-arrays batch MVA solving: one SIMD lane per scenario.
//
// The validation workflow is batch-shaped — every figure/table sweep and the
// serving layer solve dozens of *same-shape* network variants (same centers,
// same center kinds, same chain count; different demands, think times and
// populations). The scalar kernels in mva.h vectorize only *within* one
// solve, across the handful of centers; these kernels instead lay W networks
// out structure-of-arrays (`param[chain][center][lane]`) and advance all W
// through the recursion in lockstep, so the innermost loop is always a
// unit-stride pass over lanes and the SIMD width is filled regardless of how
// small one network is. The speedup is data-parallel, not thread-parallel:
// it does not depend on core count.
//
// Bit-identity contract: lane w of a batch solve produces *bit-identical*
// results to a scalar solve of the same network. Three properties pin this:
//   1. each lane executes exactly the scalar op sequence — the scalar
//      kernels sum residence times sequentially over centers (mva.cc), and
//      the lane-inner batch loops preserve that per-lane order because
//      vectorizing *across* lanes never reassociates *within* a lane;
//   2. converged lanes retire behind a select mask (`x = active ? new : x`),
//      never a blended arithmetic update, so frozen state is preserved
//      exactly while the remaining lanes keep iterating without divergent
//      control flow;
//   3. the carat_qn target is compiled with -ffp-contract=off (see
//      src/qn/CMakeLists.txt), so no fused-multiply-add contraction can
//      differ between the scalar and batch translation units.
// The derived Solution fields are produced by the *same* compiled
// internal::FinishSolution call per lane.

#ifndef CARAT_QN_MVA_BATCH_H_
#define CARAT_QN_MVA_BATCH_H_

#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "qn/mva.h"
#include "qn/network.h"

namespace carat::qn {

/// Minimal cache-line-aligning allocator for the lockstep SoA buffers. At
/// the preferred lane width a lane row is exactly one cache line (8 doubles
/// = 64 bytes), so whether a row straddles two lines is decided entirely by
/// the allocation's base address. The default allocator only guarantees 16
/// bytes; after enough heap churn the rows land mid-line and every SIMD
/// load/store in the sweep becomes a line-split access, which measurably
/// halves batch throughput. Pinning the base to 64 bytes makes row accesses
/// single-line deterministically, independent of allocation history.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }
  friend bool operator==(const CacheAlignedAllocator&,
                         const CacheAlignedAllocator&) {
    return true;
  }
};

/// SoA lane buffer: all hot per-lane arrays use this so lane rows start on
/// cache-line boundaries (see CacheAlignedAllocator).
using LaneVector = std::vector<double, CacheAlignedAllocator<double>>;

/// Preferred number of scenarios per lockstep block. Eight doubles fill an
/// AVX-512 register once and narrower ISAs several times over; the extra
/// unroll also hides the FP add latency of the per-lane accumulators. Any
/// width >= 1 works; callers blocking work (serve::SolverService) default to
/// a lane width derived from this.
inline constexpr std::size_t kMvaBatchLaneWidth = 8;

/// Number of double lanes the kernels were *compiled* for (from the target
/// ISA: AVX-512 -> 8, AVX -> 4, SSE2/NEON -> 2, else 1). Reported by the
/// benches so BENCH_solver.json records the effective vector width.
std::size_t MvaCompiledSimdDoubleLanes();

/// Reusable buffers for the batch solvers. All vectors grow to the largest
/// (shape, lane count) seen and are then reused; repeated batch solves of
/// the same shape allocate nothing once warm.
struct BatchMvaWorkspace {
  /// Per-lane outputs of the most recent successful batch solve.
  std::vector<Solution> solutions;
  /// Per-lane Schweitzer-Bard iteration counts (0 after an exact solve).
  std::vector<int> iterations;

  /// Retained per-lane Schweitzer queue lengths, structure-of-arrays:
  /// qkm[(chain * centers + center) * lanes + lane]. With `warm_start` the
  /// fixed point resumes per lane from these, exactly like the scalar
  /// MvaWorkspace::qkm.
  LaneVector qkm;
  /// Lane count `qkm` was written for (a warm start requires a match).
  std::size_t warm_lanes = 0;
  /// Per-lane validity of the retained `qkm` column. InvalidateWarm() clears
  /// one lane (that lane re-inits from the even-spread guess, i.e. a cold
  /// start) without disturbing its neighbors.
  std::vector<unsigned char> qkm_valid;

  void InvalidateWarm(std::size_t lane);

  // Scratch (all structure-of-arrays over lanes): demands/residence are
  // (chain, center)-major, x/think/nk/invn are chain-major, qsum is
  // center-major; total/delta/active are per-lane; q is the shared exact-MVA
  // joint-population lattice (state, queueing center)-major, with qcenters
  // listing its columns' center indices; lane_x/lane_res are the per-lane
  // gather buffers handed to internal::FinishSolution (plain vectors — they
  // are touched once per solve, not per sweep).
  LaneVector demands, residence, x, think, nk, invn, qsum;
  LaneVector total, delta, qmul, q;
  std::vector<double> lane_x, lane_res;
  std::vector<unsigned char> active;
  std::vector<std::size_t> qcenters, dims, strides, n;
  /// Per-lane scalar workspaces for the lanes that run the scalar kernels:
  /// every one-lane call (scalar_ws[0]), and the mixed-path fallback of
  /// SolveMvaBatchInPlace (lanes that must solve exact at different lattice
  /// shapes). Bit-identical by construction.
  std::vector<MvaWorkspace> scalar_ws;
};

/// True when `a` and `b` can share a lockstep batch: same center count and
/// kinds, same chain count. Populations, think times and demands may differ.
bool SameMvaShape(const ClosedNetwork& a, const ClosedNetwork& b);

/// Schweitzer-Bard fixed point over W same-shape networks in lockstep, one
/// lane per network, into `ws->solutions[w]` / `ws->iterations[w]`. Lanes
/// whose fixed point converges retire behind the active-lane mask and keep
/// their converged state bit-exactly while the rest continue. With
/// `warm_start`, lanes whose retained `qkm` column is valid resume from it.
/// A one-lane call runs SchweitzerMvaInPlace on `ws->scalar_ws[0]` instead
/// (the SoA sweep costs more than it saves at width 1; DESIGN.md §11), so its
/// retained queue lengths live in `scalar_ws[0].qkm`.
/// Returns false (error set) on a shape mismatch between lanes or a
/// validation failure of any lane's network.
bool SchweitzerMvaBatchInPlace(const ClosedNetwork* const* nets,
                               std::size_t lanes, BatchMvaWorkspace* ws,
                               double tolerance = 1e-9,
                               int max_iterations = 10000,
                               bool warm_start = false,
                               std::string* error = nullptr);

/// Lane-blocked exact MVA: requires the lanes to share the joint population
/// lattice (same per-chain populations) in addition to the shape, so one
/// mixed-radix walk serves all lanes. Demands and think times may differ.
/// Returns false when the lattice exceeds `max_states`, on a lattice-shape
/// mismatch, or on validation failure.
bool ExactMvaBatchInPlace(const ClosedNetwork* const* nets, std::size_t lanes,
                          BatchMvaWorkspace* ws,
                          std::size_t max_states = 1u << 22,
                          std::string* error = nullptr);

/// Batch counterpart of SolveMvaInPlace: each lane takes the exact path iff
/// its own lattice fits in `exact_state_limit` (the same per-network rule as
/// the scalar solver, so lane w's result is bit-identical to
/// SolveMvaInPlace on lane w's network). All-Schweitzer batches and
/// all-exact batches with a shared lattice run lockstep; one-lane calls,
/// mixed batches and exact lanes with differing lattices run the scalar
/// kernels per lane, preserving the results while losing only the speedup.
bool SolveMvaBatchInPlace(const ClosedNetwork* const* nets, std::size_t lanes,
                          BatchMvaWorkspace* ws,
                          std::size_t exact_state_limit = 1u << 20,
                          bool warm_start = false,
                          std::string* error = nullptr);

}  // namespace carat::qn

#endif  // CARAT_QN_MVA_BATCH_H_
