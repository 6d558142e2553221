// The CARAT queueing network model solver (Section 6 of the paper).
//
// The model is a set of interacting per-site closed queueing networks. The
// synchronization delays (lock wait LW, remote wait RW, two-phase-commit
// wait CW) and the deadlock probabilities depend on the networks' own
// performance measures, so the solver iterates: solve each Site Processing
// Model by MVA, recompute the lock/remote/commit submodel quantities from
// the solutions, and mix the new estimates with the old ones by a
// safeguarded Anderson step until they reach a fixed point (DESIGN.md §16).

#ifndef CARAT_MODEL_SOLVER_H_
#define CARAT_MODEL_SOLVER_H_

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/params.h"
#include "model/types.h"
#include "qn/ethernet.h"

namespace carat::exec {
class ThreadPool;
}  // namespace carat::exec

namespace carat::model {

/// Converged per-(type, site) quantities.
struct ClassSolution {
  bool present = false;         ///< population > 0
  double throughput_per_s = 0;  ///< commits per second, X(t,i)
  double response_ms = 0;       ///< per-commit cycle time R(t,i) (excl. Z)
  double pa = 0;                ///< per-submission abort probability (Eq. 3)
  double ns = 1;                ///< mean submissions per commit (Eq. 4)
  double pb = 0;                ///< per-lock-request blocking prob (Eq. 15)
  double pd = 0;                ///< deadlock-victim prob per block
  double plw = 0;               ///< blocks at least once per execution (Eq.16)
  double lh = 0;                ///< time-average locks held (Eq. 14)
  double nlk = 0;               ///< lock requests per execution (Eq. 2)
  double sigma = 1;             ///< abort progress fraction E[Y]/N_lk
  double io_per_request = 0;    ///< q(t), from Yao's formula
  double r_lw_ms = 0;           ///< per-visit lock wait delay (Eq. 20)
  double r_rw_ms = 0;           ///< per-visit remote wait delay (Eqs. 21-24)
  double r_cw_ms = 0;           ///< per-visit 2PC wait delay, commit path
  double d_lw_ms = 0;           ///< per-commit LW demand, D_LW (Eq. 7)
  double d_rw_ms = 0;           ///< per-commit RW demand, D_RW (Eq. 8)
  double d_cw_ms = 0;           ///< per-commit CW demand, D_CW (Eq. 9)
};

/// Converged per-site quantities.
struct SiteSolution {
  std::string name;
  double cpu_utilization = 0;
  double db_disk_utilization = 0;
  double log_disk_utilization = 0;  ///< 0 unless separate_log_disk
  double dio_per_s = 0;             ///< block I/Os per second (all disks)
  double txn_per_s = 0;             ///< commits/s of locally-homed txns
  double records_per_s = 0;         ///< normalized record throughput
  std::array<ClassSolution, kNumTxnTypes> classes;

  const ClassSolution& Class(TxnType t) const { return classes[Index(t)]; }
};

struct ModelSolution {
  bool ok = false;
  bool converged = false;
  int iterations = 0;
  /// True when this solve was seeded from a compatible WarmStart (the seed
  /// shifts the fixed-point trajectory, not the fixed point itself).
  bool warm_started = false;
  /// How the iterations stepped: Anderson steps extrapolated from stored
  /// history, and damped fallback steps taken by the safeguard. The first
  /// iteration, which has no history, is neither.
  int accelerated_steps = 0;
  int fallback_steps = 0;
  std::string error;
  std::vector<SiteSolution> sites;

  /// The inter-site delay used at convergence: ModelInput::comm_delay_ms,
  /// or the Ethernet model's output when SolverOptions::ethernet is set.
  double comm_delay_ms = 0.0;

  /// System-wide commits per second (locals + coordinators).
  double TotalTxnPerSec() const;
  /// System-wide normalized record throughput.
  double TotalRecordsPerSec() const;
};

/// An explicit site-class partition for hierarchical solving: sites mapped
/// to the same class are treated as replicas of one representative site
/// (Thomasian's flow-equivalent aggregation). The solver validates that all
/// members of a class share the representative's chain-presence pattern and
/// log-disk layout (the coupling topology depends on those); members whose
/// *other* parameters differ from the representative's are solved as if they
/// were the representative — an approximation the caller opts into
/// (DESIGN.md §14 states the tolerance class). Class ids need not be dense
/// or ordered; the solver renumbers them by first occurrence.
struct SiteClassSpec {
  std::vector<std::size_t> class_of_site;  ///< one entry per site
};

/// Solver options.
struct SolverOptions {
  int max_iterations = 500;
  double tolerance = 1e-9;   ///< relative change threshold on throughputs
  /// Weight of the newly computed estimates in the damped fallback step
  /// x + damping * (T(x) - x), taken when the accelerated iteration's
  /// residual rises (halved every 100 iterations, floored at 0.02).
  double damping = 0.5;
  double max_abort_prob = 0.95;  ///< clamp on P_a to keep N_s finite
  bool use_exact_mva = true; ///< false forces Schweitzer-Bard at every site

  /// Fraction of a blocker's own lock-wait time counted in the blocking time
  /// RLT (Eq. 18). The paper's derivation effectively uses the full response
  /// time (fraction 1), but that makes the LW fixed point non-contractive at
  /// high contention; 0 uses only active execution time. The default models
  /// convoys partially while keeping the iteration stable (DESIGN.md §4).
  double blocker_wait_fraction = 0.5;

  /// Hierarchical site-class solving (DESIGN.md §14). The solver always
  /// groups byte-identical sites into classes and couples them through
  /// class-aggregated sums (the flat per-site-pair coupling lists were
  /// quadratic in the site count); with this flag set it additionally runs
  /// the fixed point and the per-site MVA solves over one *representative*
  /// site per class and expands the class solution to the members, making
  /// each iteration O(classes) instead of O(sites). Collapsed and flat
  /// solves of the same input are bit-identical (identical sites have
  /// identical trajectories either way) except under a warm seed whose
  /// values differ *within* a class — there the flat trajectory, though not
  /// the fixed point, can deviate; turn the flag off to reproduce such a
  /// flat trajectory exactly.
  bool collapse_site_classes = true;

  /// Optional explicit partition overriding byte-identity class detection.
  /// Borrowed, not owned; must outlive the solve. When set, its size must
  /// match the input's site count and every class must be presence-uniform,
  /// else the solve fails with ok = false.
  const SiteClassSpec* site_classes = nullptr;

  /// Worker pool for solving the per-site MVA networks concurrently inside
  /// each fixed-point iteration. The sites are independent given the
  /// previous iteration's delays, so the solution is bit-identical whether
  /// this is null (serial) or any pool size. The pool is borrowed, not
  /// owned, and may be shared across concurrent Solve() calls.
  exec::ThreadPool* pool = nullptr;

  /// Communication Network Model (Section 3): when set, the solver derives
  /// the inter-site delay alpha from the model's own message rate through
  /// the Ethernet contention model each iteration (instead of using the
  /// fixed ModelInput::comm_delay_ms), closing the low-level/high-level
  /// loop the paper describes.
  std::optional<qn::EthernetParams> ethernet;
  /// Mean message size in bits for the Ethernet model (CARAT requests fit
  /// one message; 1000 bytes is a generous envelope).
  double message_bits = 8000.0;
};

/// Converged fixed-point state of a previous solve, usable to seed a new
/// solve of a *nearby* input (same shape, slightly different populations or
/// request counts). Seeding starts the iteration from the neighbor's
/// blocking probabilities and synchronization delays instead of zero, which
/// cuts the iteration count on sweep-shaped query streams; the converged
/// answer is the same fixed point either way (within the solver tolerance).
struct WarmStart {
  struct ClassSeed {
    bool present = false;
    double pb = 0.0;        ///< blocking probability per lock request
    double pd = 0.0;        ///< deadlock-victim probability per block
    double pra = 0.0;       ///< abort probability per remote-wait visit
    double r_lw_ms = 0.0;   ///< per-visit lock wait delay
    double r_rw_ms = 0.0;   ///< per-visit remote wait delay
    double r_cwc_ms = 0.0;  ///< per-visit 2PC wait delay, commit path
    double r_cwa_ms = 0.0;  ///< per-visit 2PC wait delay, abort path
  };
  std::vector<std::array<ClassSeed, kNumTxnTypes>> sites;
  double comm_delay_ms = 0.0;

  /// A seed applies only to inputs with the same site count and per-site
  /// chain presence pattern; Solve() silently starts cold otherwise.
  bool CompatibleWith(const ModelInput& input) const;
};

/// Reusable cross-solve state of CaratModel::SolveBatchInto (and so of
/// SolveInto, its one-lane call): per-lane solve state plus the per-site MVA
/// networks and workspaces. Keyed to the input's *shape* (SolveShapeKey) and
/// the lane count; consecutive solves of same-shape inputs at the same lane
/// count through one arena perform zero heap allocations once warm. An arena
/// must not be used by two solves concurrently.
class SolveArena {
 public:
  SolveArena();
  ~SolveArena();
  SolveArena(SolveArena&&) noexcept;
  SolveArena& operator=(SolveArena&&) noexcept;

 private:
  friend class CaratModel;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// SolveArena under the name some batch callers use.
using BatchSolveArena = SolveArena;

/// Canonical key of the solve-relevant *shape* of an input: site count,
/// per-site chain presence and log-disk layout, plus the detected site-class
/// partition (byte-identical sites grouped by first occurrence), so a
/// collapsed 2-class input never shares arenas, warm seeds or batch lanes
/// with an all-distinct input of the same presence pattern. Inputs with
/// equal shape keys can share a SolveArena and are candidates for
/// warm-start seeding.
std::string SolveShapeKey(const ModelInput& input);

/// The model. Construct with a validated ModelInput and call Solve().
class CaratModel {
 public:
  explicit CaratModel(ModelInput input);

  /// Runs the fixed-point iteration. On input validation failure returns
  /// ok = false with an error message; otherwise ok = true and `converged`
  /// reports whether the tolerance was met within max_iterations.
  ModelSolution Solve(const SolverOptions& options = {}) const;

  /// Warm-start entry point: `warm`, when non-null and compatible, seeds the
  /// fixed point from a neighbor's converged state; `warm_out`, when
  /// non-null, receives this solve's converged state for seeding future
  /// solves. A cold solve (warm == nullptr) is bit-identical to Solve().
  ModelSolution Solve(const SolverOptions& options, const WarmStart* warm,
                      WarmStart* warm_out = nullptr) const;

  /// Allocation-free core: solves into caller-owned `out` reusing `arena`
  /// (nullptr uses a throwaway arena). With a warm arena of matching shape
  /// and a reused `out`, the whole solve performs zero heap allocations.
  /// This is the one-lane call of SolveBatchInto.
  void SolveInto(const SolverOptions& options, SolveArena* arena,
                 const WarmStart* warm, ModelSolution* out,
                 WarmStart* warm_out = nullptr) const;

  /// The fixed-point driver. Advances `lanes` same-shape scenarios through
  /// the fixed point together; each lane solves its site networks with the
  /// scalar MVA kernels (qn/mva.h) on its own workspaces in the arena.
  /// Lane w's ModelSolution is bit-identical to
  /// `CaratModel(*inputs[w]).SolveInto(...)` with the same options and seed:
  /// each lane executes exactly the one-lane step sequence. A lane that
  /// converges or fails drops out while the others continue, and does no
  /// further work, so the MVA state it leaves in the arena is exactly what a
  /// one-lane solve leaves.
  ///
  /// `inputs` and `outs` are arrays of `lanes` pointers; `seeds` and
  /// `warm_outs` may be nullptr (or hold per-lane nullptrs). All lanes must
  /// share a SolveShapeKey — a mismatched lane fails with an error and does
  /// not disturb its neighbors. `arena` may be nullptr for a throwaway.
  static void SolveBatchInto(const ModelInput* const* inputs,
                             std::size_t lanes, const SolverOptions& options,
                             SolveArena* arena,
                             const WarmStart* const* seeds,
                             ModelSolution* const* outs,
                             WarmStart* const* warm_outs = nullptr);

  const ModelInput& input() const { return input_; }

 private:
  ModelInput input_;
};

}  // namespace carat::model

#endif  // CARAT_MODEL_SOLVER_H_
