#include "serve/solver_service.h"

#include <exception>
#include <iterator>
#include <utility>

#include "serve/key.h"

namespace carat::serve {

SolverService::SolverService() : SolverService(Options()) {}

SolverService::SolverService(Options options)
    : options_(std::move(options)),
      cache_(SolutionCache::Config{
          options_.use_cache ? options_.cache_capacity : 0,
          options_.cache_max_bytes, options_.cache_ttl}),
      warm_index_(options_.warm_start ? options_.warm_index_capacity : 0) {
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<exec::ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

SolverService::~SolverService() {
  // ThreadPool discards still-queued tasks at destruction, which would leave
  // broken promises behind; every accepted solve must finish first. Borrowed
  // pools get the same treatment so futures never outlive their answers.
  Drain();
}

std::future<model::ModelSolution> SolverService::Submit(
    model::ModelInput input) {
  return Submit(std::move(input), options_.solver);
}

std::future<model::ModelSolution> SolverService::Submit(
    model::ModelInput input, const model::SolverOptions& solver) {
  std::vector<model::ModelInput> one;
  one.push_back(std::move(input));
  return std::move(SubmitBatch(std::move(one), solver).front());
}

bool SolverService::AdmitLocked(const std::string& key,
                                std::promise<model::ModelSolution>* promise) {
  ++stats_.submitted;
  if (const model::ModelSolution* hit = cache_.Get(key)) {
    ++stats_.cache_hits;
    promise->set_value(*hit);
    return false;
  }
  const auto it = pending_.find(key);
  if (it != pending_.end()) {
    // Coalesces onto the in-flight solve — including onto an earlier
    // identical query of the same batch.
    ++stats_.coalesced;
    it->second.push_back(std::move(*promise));
    return false;
  }
  pending_[key].push_back(std::move(*promise));
  ++in_flight_;
  return true;
}

model::ModelSolution SolverService::SolveSync(
    model::ModelInput input, const model::SolverOptions* solver) {
  const model::SolverOptions& effective =
      solver != nullptr ? *solver : options_.solver;
  std::string key = CanonicalKey(input, effective);
  std::promise<model::ModelSolution> promise;
  std::future<model::ModelSolution> future = promise.get_future();
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fresh = AdmitLocked(key, &promise);
  }
  if (fresh) {
    const std::string shape = model::SolveShapeKey(input);
    std::vector<Fresh> block;
    block.push_back(Fresh{std::move(key), std::move(input)});
    RunBlock(shape, std::move(block), effective);
  }
  // A cache hit is already set; a coalesced query waits for the solve
  // running elsewhere.
  return future.get();
}

std::vector<std::future<model::ModelSolution>> SolverService::SubmitBatch(
    std::vector<model::ModelInput> inputs) {
  return SubmitBatch(std::move(inputs), options_.solver);
}

std::vector<std::future<model::ModelSolution>> SolverService::SubmitBatch(
    std::vector<model::ModelInput> inputs,
    const model::SolverOptions& solver) {
  std::vector<std::future<model::ModelSolution>> futures;
  futures.reserve(inputs.size());
  constexpr std::size_t width = Options::batch_lane_width;

  // Fresh queries (cache miss, not coalesced) grouped by solve shape,
  // preserving submission order within each group.
  std::unordered_map<std::string, std::vector<Fresh>> groups;
  std::vector<const std::string*> group_order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (model::ModelInput& input : inputs) {
      std::string key = CanonicalKey(input, solver);
      std::promise<model::ModelSolution> promise;
      futures.push_back(promise.get_future());
      if (!AdmitLocked(key, &promise)) continue;
      std::string shape = model::SolveShapeKey(input);
      std::vector<Fresh>& group = groups[shape];
      if (group.empty()) group_order.push_back(&groups.find(shape)->first);
      group.push_back(Fresh{std::move(key), std::move(input)});
    }
    for (const std::string* shape : group_order) {
      stats_.batch_scalar_tail += groups[*shape].size() % width;
    }
  }

  // Cut each shape group into full blocks; the ragged remainder solves one
  // query per block. Scheduling happens outside the lock.
  for (const std::string* shape : group_order) {
    std::vector<Fresh>& group = groups[*shape];
    for (std::size_t pos = 0; pos < group.size();) {
      const std::size_t size = group.size() - pos >= width ? width : 1;
      std::vector<Fresh> block(
          std::make_move_iterator(group.begin() + pos),
          std::make_move_iterator(group.begin() + pos + size));
      pos += size;
      pool_->Submit([this, shape = *shape, block = std::move(block),
                     solver]() mutable {
        RunBlock(shape, std::move(block), solver);
      });
    }
  }
  return futures;
}

std::vector<model::ModelSolution> SolverService::SolveBatch(
    std::vector<model::ModelInput> inputs) {
  std::vector<std::future<model::ModelSolution>> futures =
      SubmitBatch(std::move(inputs));
  std::vector<model::ModelSolution> solutions;
  solutions.reserve(futures.size());
  for (std::future<model::ModelSolution>& f : futures) {
    solutions.push_back(f.get());
  }
  return solutions;
}

void SolverService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void SolverService::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
  warm_index_.Clear();
}

ServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = stats_;
  snapshot.cache_evictions = cache_.evictions();
  snapshot.cache_expirations = cache_.expirations();
  return snapshot;
}

void SolverService::RunBlock(const std::string& shape,
                             std::vector<Fresh> block,
                             const model::SolverOptions& solver) {
  const std::size_t count = block.size();
  std::size_t done = 0;  // queries published and no longer in flight
  try {
    std::unique_lock<std::mutex> lock(mu_);
    std::unique_ptr<Slot> slot;
    std::vector<std::unique_ptr<Slot>>& free = slots_[shape];
    if (free.empty()) {
      slot = std::make_unique<Slot>();
    } else {
      slot = std::move(free.back());
      free.pop_back();
    }
    if (count > 1) {
      ++stats_.batch_blocks;
      stats_.batched += count;
    }
    while (done < count) {
      Fresh& query = block[done];
      // Looked up just before the solve, so the seed can come from an
      // earlier query of the block.
      const double feature = WarmFeature(query.input);
      const bool seeded = warm_index_.Nearest(shape, feature, &slot->seed);
      lock.unlock();
      model::CaratModel(std::move(query.input))
          .SolveInto(solver, &slot->arena, seeded ? &slot->seed : nullptr,
                     &slot->out, &slot->warm_out);
      lock.lock();

      const model::ModelSolution& out = slot->out;
      if (out.ok) {
        cache_.Put(query.key, out);
        if (out.converged) warm_index_.Insert(shape, feature, slot->warm_out);
      }
      ++stats_.solved;
      if (out.warm_started) ++stats_.warm_started;
      stats_.total_iterations += static_cast<std::uint64_t>(out.iterations);
      const auto it = pending_.find(query.key);
      std::vector<std::promise<model::ModelSolution>> waiters =
          std::move(it->second);
      pending_.erase(it);
      for (std::promise<model::ModelSolution>& p : waiters) p.set_value(out);

      if (done + 1 == count) slots_[shape].push_back(std::move(slot));
      ++done;
      // Last touch of shared state: once in_flight_ hits zero the destructor
      // may run, so nothing after the last query's decrement may use `this`.
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t k = done; k < count; ++k) {
      const auto it = pending_.find(block[k].key);
      if (it == pending_.end()) continue;  // published before the throw
      for (std::promise<model::ModelSolution>& p : it->second) {
        p.set_exception(error);
      }
      pending_.erase(it);
    }
    in_flight_ -= count - done;
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace carat::serve
