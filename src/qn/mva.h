// Mean Value Analysis solvers for closed multi-chain product-form networks.
//
// ExactMva implements the multi-chain exact MVA recursion over the full joint
// population lattice (Reiser & Lavenberg). A delay center's residence is its
// demand at every population, so the lattice keeps queue lengths only for
// the Q queueing centers: it holds Q * prod_k (N_k + 1) doubles, and its
// queue-length work is O(K * Q * prod_k (N_k + 1)) for K chains, plus the
// per-chain residence sums over all M centers. The CARAT site models have
// at most six chains with populations <= 4 and Q <= 3, so this is tiny.
// The sweep walks the lattice level by level (|n| = 1, 2, ...) and, within
// a level, chain by chain: chain k's group is the level's states with
// n_k > 0, whose rows it adds chain k's term to. It follows an immutable
// plan shared by every workspace solving the same population vector and Q.
// It is compiled for the shape model::BuildSiteNetworks builds, M = 6
// centers with Q = 2 queueing (CPU, DISK), wherever the queueing centers
// sit, and takes a group's states two at a time, one per lane of a 16-byte
// vector (GCC/Clang vector extensions: SSE2 on x86-64, NEON on aarch64).
// Every other network, a site with a separate log disk included, runs the
// same walk one state at a time, sized at run time. Each lane performs the
// scalar operations in the scalar order and no sum is reordered, so both
// paths give the same bits.
// SchweitzerMva implements the Schweitzer-Bard fixed-point approximation for
// larger populations; the model solver falls back to it automatically above
// a state-count threshold.
//
// Two call styles are provided:
//  - the MvaResult-returning functions allocate a fresh Solution per call
//    (convenient for one-shot use and tests);
//  - the *InPlace functions write into a caller-owned MvaWorkspace and
//    perform zero heap allocation once the workspace has warmed up to the
//    network's shape. The model solver calls them once per site per
//    fixed-point iteration (a cold solve takes about 14 iterations), so the
//    hot path reuses one workspace per site.

#ifndef CARAT_QN_MVA_H_
#define CARAT_QN_MVA_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "qn/network.h"

namespace carat::qn {

/// Result wrapper: `ok` is false when the network failed validation or the
/// solver could not proceed (e.g. state space too large for exact MVA).
struct MvaResult {
  bool ok = false;
  std::string error;
  Solution solution;
  /// Schweitzer-Bard fixed-point iterations performed (0 for exact MVA);
  /// exposes how much a warm start saved.
  int iterations = 0;
};

/// The lattice sweep an exact solve ran (see the file comment).
enum class ExactSweep {
  kNone,         ///< no exact solve yet
  kRuntime,      ///< sized at run time: any network
  kCompiled6x2,  ///< compiled: 6 centers, 2 of them queueing
};

/// The exact kernel's walk over one joint population lattice of the chains'
/// populations and Q queueing centers. Immutable once built, and shared by
/// every workspace solving a lattice of the same population vector and Q.
/// Only ExactMvaInPlace builds one; it is public so tests can check it.
///
/// The lattice rows are the states in level order (level |n| = 0, 1, ...,
/// lexicographic within a level): row 0 is the empty population, the last
/// row the full one, and one scratch row follows it. Level L >= 1 holds one
/// group per chain with a nonzero population, chain ascending, and the
/// groups are stored level by level. Chain k's group lists the level's
/// states n with n_k > 0, lexicographic, each as an item: n's row, the row
/// of n - e_k (a row of level L - 1) and n_k. The items are stored two to a
/// pair, the walk's unit; a group of odd length ends with a padding item, a
/// copy of its last item whose row is the scratch row.
struct LatticePlan {
  struct Group {
    std::uint32_t chain;  ///< k
    std::uint32_t end;    ///< one past the group's last pair
  };
  struct ItemPair {
    std::uint32_t row[2];   ///< lattice offsets of the rows of n (row * Q)
    std::uint32_t pred[2];  ///< lattice offsets of the rows of n - e_k
    double count[2];        ///< n_k
  };
  /// The key: the chains' populations and the queueing-center count.
  std::vector<int> populations;
  std::size_t num_queueing = 0;
  /// A group's pairs start at the previous group's end (0 for the first).
  std::vector<Group> groups;
  std::vector<ItemPair> pairs;
};

/// Reusable buffers for the in-place solvers. All vectors grow to the
/// largest network shape seen and are then reused; repeated solves of
/// same-shaped networks allocate nothing. (An exact solve of another
/// lattice shape, smaller ones included, looks up or builds its plan.)
struct MvaWorkspace {
  /// Output of the most recent successful *InPlace solve.
  Solution solution;

  /// Schweitzer-Bard iterations of the most recent *InPlace solve (0 after
  /// an exact solve).
  int iterations = 0;

  /// The lattice sweep of the most recent exact solve; Schweitzer solves
  /// leave it alone. Lets tests and benchmarks check a network's path.
  ExactSweep exact_sweep = ExactSweep::kNone;

  /// The lattice plan of the most recent exact solve. An exact solve whose
  /// population vector and queueing-center count match it reuses it without
  /// a lock or an allocation; any other looks its plan up in a process-wide
  /// registry of weak references (building it on a miss), and lets this one
  /// go. A plan is freed with the last workspace holding it.
  std::shared_ptr<const LatticePlan> plan;

  /// Per-(chain, center) mean queue lengths from the last Schweitzer solve,
  /// flattened as `chain * num_centers + center`. Retained across calls so
  /// `warm_start = true` resumes the fixed point from the previous solution
  /// instead of the even-spread initial guess.
  std::vector<double> qkm;

  // Scratch: exact-MVA joint-population lattice (queueing centers only, one
  // row per state in the plan's level order, then the scratch row the
  // padding items write), per-chain throughputs,
  // flattened per-(chain, center) residence times, the per-center queueing
  // multiplier mask of the Schweitzer sweep (1.0 for queueing centers, 0.0
  // for delay centers, which hoists the CenterKind branch out of the inner
  // loops), per-center queue totals, and the indices of the queueing
  // centers (the exact lattice's columns).
  std::vector<double> q, x, residence, qmul, qsum;
  std::vector<std::size_t> qcenters;
};

/// Number of lattice plans the process-wide registry tracks. A lookup drops
/// the entries of freed plans it passes, and an insertion follows a full
/// pass, so this never exceeds the number of plans alive at the last
/// insertion. For tests and diagnostics.
std::size_t LatticePlanRegistrySize();

/// Number of points in the joint population lattice, prod_k (N_k + 1).
/// Returns false when the count would exceed `limit` (the product is never
/// materialized, so there is no overflow); on success stores the count in
/// `*states` when non-null. Shared by ExactMva and SolveMva.
bool JointLatticeStates(const ClosedNetwork& net, std::size_t limit,
                        std::size_t* states = nullptr);

/// Exact multi-chain MVA into `ws->solution`. Zero heap allocation when `ws`
/// is warm. Returns false (with `*error` set when non-null) on validation
/// failure, when the lattice exceeds `max_states`, or when it is too large
/// for the plan's 32-bit indices.
bool ExactMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t max_states = 1u << 22,
                     std::string* error = nullptr);

/// Schweitzer-Bard approximate MVA into `ws->solution`. With
/// `warm_start = true` and a `ws->qkm` of matching size, iteration starts
/// from the retained queue lengths (fast convergence across nearby parameter
/// points); otherwise from the even-spread guess.
bool SchweitzerMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                          double tolerance = 1e-9, int max_iterations = 10000,
                          bool warm_start = false, std::string* error = nullptr);

/// Exact if the lattice fits in `exact_state_limit` states, Schweitzer-Bard
/// (optionally warm-started) otherwise.
bool SolveMvaInPlace(const ClosedNetwork& net, MvaWorkspace* ws,
                     std::size_t exact_state_limit = 1u << 20,
                     bool warm_start = false, std::string* error = nullptr);

/// Exact multi-chain MVA.
/// `max_states` bounds the joint population lattice size; exceeding it fails
/// (callers may then use SchweitzerMva).
MvaResult ExactMva(const ClosedNetwork& net, std::size_t max_states = 1u << 22);

/// Schweitzer-Bard approximate MVA (fixed point on per-chain queue lengths).
/// `initial_qkm`, when non-null, seeds the iteration with per-(chain, center)
/// queue lengths flattened as `chain * num_centers + center` (size must be
/// chains x centers; mismatched sizes fall back to the default guess).
MvaResult SchweitzerMva(const ClosedNetwork& net, double tolerance = 1e-9,
                        int max_iterations = 10000,
                        const std::vector<double>* initial_qkm = nullptr);

/// Convenience: exact if the lattice fits in `exact_state_limit` states,
/// Schweitzer-Bard otherwise.
MvaResult SolveMva(const ClosedNetwork& net,
                   std::size_t exact_state_limit = 1u << 20);

}  // namespace carat::qn

#endif  // CARAT_QN_MVA_H_
