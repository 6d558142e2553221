// Batch what-if solving service.
//
// A SolverService accepts ModelInputs — one at a time (Submit) or in batches
// (SolveBatch) — and schedules solves on a shared exec::ThreadPool. On top of
// the bare solver it layers the three things a serving workload wants:
//
//   1. a keyed LRU solution cache (serve::CanonicalKey): repeated identical
//      queries replay the stored solution without solving, and identical
//      queries in flight at the same time are coalesced into one solve;
//   2. SolveArena pools keyed by shape and lane count: repeated same-shape
//      queries reuse the MVA networks/workspaces, so the warm steady state
//      allocates nothing in the solver hot path;
//   3. a nearest-neighbor warm-start index (serve::WarmStartIndex): each new
//      solve is seeded from the converged state of the cached neighbor with
//      the closest parameters, cutting the fixed-point iteration count on
//      sweep-shaped query streams.
//
// Every solve is a block of same-shape fresh queries, one lane each, solved
// by CaratModel::SolveBatchInto: SubmitBatch cuts full lane blocks, and the
// ragged remainder, Submit and SolveSync run one-lane blocks.
//
// Thread safety: every public method may be called concurrently. One mutex
// guards the cache, warm index, arena pools, pending (coalescing) map and
// stats; solves themselves run unlocked on checked-out arena slots. See
// DESIGN.md §8 for the invariants.

#ifndef CARAT_SERVE_SOLVER_SERVICE_H_
#define CARAT_SERVE_SOLVER_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/thread_pool.h"
#include "model/params.h"
#include "model/solver.h"
#include "serve/solution_cache.h"
#include "serve/warm_index.h"

namespace carat::serve {

/// Monotonic counters; a snapshot is returned by SolverService::stats().
struct ServiceStats {
  std::uint64_t submitted = 0;         ///< queries accepted (Submit calls)
  std::uint64_t cache_hits = 0;        ///< answered from the solution cache
  std::uint64_t coalesced = 0;         ///< attached to an in-flight solve
  std::uint64_t solved = 0;            ///< solves actually executed
  std::uint64_t warm_started = 0;      ///< solves seeded from a neighbor
  std::uint64_t total_iterations = 0;  ///< fixed-point iterations, summed
  std::uint64_t cache_evictions = 0;   ///< dropped for the entry/byte bound
  std::uint64_t cache_expirations = 0; ///< dropped past the cache ttl
  std::uint64_t batched = 0;       ///< queries solved in multi-lane blocks
  std::uint64_t batch_blocks = 0;  ///< multi-lane blocks executed
  /// Submit/SubmitBatch queries that missed the cache but solved as one-lane
  /// blocks because their shape group's remainder was smaller than a full
  /// lane block (0 while batching is off).
  std::uint64_t batch_scalar_tail = 0;
};

class SolverService {
 public:
  struct Options {
    /// Worker pool for solves. Borrowed, must outlive the service; when
    /// null the service owns a pool of `threads` workers.
    exec::ThreadPool* pool = nullptr;
    /// Owned-pool size when `pool` is null; 0 = hardware_concurrency.
    std::size_t threads = 0;
    /// Solution cache capacity (entries); 0 disables caching and coalescing
    /// still applies only to literally concurrent identical queries.
    std::size_t cache_capacity = 1024;
    /// Approximate byte bound on cached keys + solutions; 0 = unbounded.
    std::size_t cache_max_bytes = 0;
    /// Cached solutions older than this answer as misses; 0 = never expire.
    std::chrono::milliseconds cache_ttl{0};
    /// Warm-start seeds retained per shape family; 0 disables warm starts.
    std::size_t warm_index_capacity = 64;
    bool use_cache = true;
    /// Seed solves from the nearest converged neighbor. Off, every solve is
    /// cold and therefore bit-identical to CaratModel::Solve().
    bool warm_start = true;
    /// Lane width for lockstep batch solving (SubmitBatch/SolveBatch): fresh
    /// same-shape queries are grouped into blocks of exactly this many lanes
    /// and advanced through the fixed point together by
    /// CaratModel::SolveBatchInto, one arena per block; the ragged remainder
    /// of each shape group solves in one-lane blocks. 0 or 1 disables
    /// batching. Per-lane results are bit-identical either way, so this is
    /// purely a throughput knob.
    std::size_t batch_lane_width = 4;
    /// Solver options applied to every query (also folded into cache keys).
    model::SolverOptions solver;
  };

  SolverService();
  explicit SolverService(Options options);

  /// Waits for all in-flight solves, then releases the owned pool (if any).
  /// Outstanding futures are always fulfilled before destruction returns.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Schedules one query: a one-element SubmitBatch. The future is
  /// fulfilled with the solution (cached, coalesced or freshly solved);
  /// solver-level failures are reported inside ModelSolution (ok = false),
  /// not as exceptions.
  std::future<model::ModelSolution> Submit(model::ModelInput input);

  /// Per-query override of Options::solver. The override is folded into the
  /// cache key, so identical inputs solved under different options never
  /// alias in the cache or coalesce onto each other.
  std::future<model::ModelSolution> Submit(model::ModelInput input,
                                           const model::SolverOptions& solver);

  /// Solves on the calling thread instead of the worker pool (a one-lane
  /// block), with the same cache / coalescing / warm-start treatment as
  /// Submit. Built for serving front-ends whose own workers execute requests
  /// (src/rpc): the caller's thread is the solver thread, so no pool hop. A
  /// null `solver` uses Options::solver. Blocks if an identical query is
  /// already solving elsewhere (coalesces onto it).
  model::ModelSolution SolveSync(model::ModelInput input,
                                 const model::SolverOptions* solver = nullptr);

  /// Schedules a batch of queries, returning one future per input in input
  /// order. Each query still gets the full cache / coalescing / warm-start
  /// treatment; the fresh (cache-missing, non-coalesced) queries are grouped
  /// by solve shape and solved in lockstep blocks of
  /// Options::batch_lane_width lanes through CaratModel::SolveBatchInto.
  /// Shapes never mix within a block; ragged group remainders solve one
  /// lane each.
  std::vector<std::future<model::ModelSolution>> SubmitBatch(
      std::vector<model::ModelInput> inputs);
  std::vector<std::future<model::ModelSolution>> SubmitBatch(
      std::vector<model::ModelInput> inputs,
      const model::SolverOptions& solver);

  /// Solves a batch, returning solutions in input order. Blocks until every
  /// query in the batch has an answer; queries are scheduled concurrently
  /// (via SubmitBatch, so same-shape queries solve in lockstep).
  std::vector<model::ModelSolution> SolveBatch(
      std::vector<model::ModelInput> inputs);

  /// Blocks until no solve is in flight (queued or running).
  void Drain();

  /// Forgets all cached solutions and warm-start seeds (arena pools are
  /// kept; they hold no query-dependent state).
  void ClearCache();

  ServiceStats stats() const;

  /// The configuration this service was built with (front-ends use
  /// options().solver as the base for per-query overrides).
  const Options& options() const { return options_; }

  /// The pool solves run on (owned or borrowed) — callers may schedule
  /// adjacent work (e.g. testbed replays) on the same workers.
  exec::ThreadPool* pool() { return pool_; }

 private:
  /// A fresh query: its canonical key and input.
  struct Fresh {
    std::string key;
    model::ModelInput input;
  };

  /// An arena plus reusable per-lane buffers, checked out per block so the
  /// warm steady state allocates nothing in the solver. Pooled per (shape,
  /// lane count), so one-lane solves never rebuild a full block's arena or
  /// drop its warm state.
  struct Slot {
    model::SolveArena arena;
    std::vector<model::ModelSolution> outs;
    std::vector<model::WarmStart> seeds;
    std::vector<model::WarmStart> warm_outs;
    std::vector<double> features;
    std::vector<const model::ModelInput*> in_ptrs;
    std::vector<const model::WarmStart*> seed_ptrs;
    std::vector<model::ModelSolution*> out_ptrs;
    std::vector<model::WarmStart*> warm_ptrs;
  };

  /// Admission, under mu_: counts the query, then answers `promise` from the
  /// cache, or attaches it to the in-flight solve of `key`, or files it as
  /// the first waiter of a new solve of `key`. Returns true only in the last
  /// case: the caller must run that solve (RunBlock).
  bool AdmitLocked(const std::string& key,
                   std::promise<model::ModelSolution>* promise);

  /// Solves one block of same-shape fresh queries (one lane each) on the
  /// calling thread, fills the cache and warm index, and fulfills every
  /// waiter of every lane's key — with the exception if the solve throws.
  /// Never throws itself.
  void RunBlock(const std::string& shape, std::vector<Fresh> block,
                const model::SolverOptions& solver);

  std::unique_ptr<Slot> CheckOutSlot(const std::string& pool_key);
  void ReturnSlot(const std::string& pool_key, std::unique_ptr<Slot> slot);

  Options options_;
  std::unique_ptr<exec::ThreadPool> owned_pool_;
  exec::ThreadPool* pool_;  ///< owned_pool_.get() or options_.pool

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  SolutionCache cache_;
  WarmStartIndex warm_index_;
  /// Shape key + lane count -> free slots. Checked-out slots are owned by
  /// the running task; a slot is never shared between concurrent solves.
  std::unordered_map<std::string, std::vector<std::unique_ptr<Slot>>> slots_;
  /// Canonical key -> waiters for the solve currently computing that key.
  std::unordered_map<std::string,
                     std::vector<std::promise<model::ModelSolution>>>
      pending_;
  ServiceStats stats_;
};

}  // namespace carat::serve

#endif  // CARAT_SERVE_SOLVER_SERVICE_H_
