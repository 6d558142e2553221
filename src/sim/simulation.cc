#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>
#include <utility>

namespace carat::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Which kernel/site the current thread is executing an event for. Stamps
// the origin of Schedule() calls; {nullptr, -1} outside event execution
// (setup code on the driving thread schedules with the destination's clock
// and sequence counter, which is deterministic because setup runs in
// program order before any shard thread exists).
struct ExecContext {
  ShardedKernel* kernel = nullptr;
  int site = -1;
};
thread_local ExecContext tls_exec;

// Kernels alive on this thread, in construction order. A Process spawned
// outside event execution (setup code) belongs to the newest one.
thread_local std::vector<ShardedKernel*> tls_live_kernels;

}  // namespace

ShardedKernel::ShardedKernel(int num_sites, int num_shards, double lookahead_ms)
    : num_sites_(num_sites),
      num_shards_(num_shards),
      lookahead_ms_(lookahead_ms) {
  assert(num_sites_ >= 1);
  assert(num_shards_ >= 1 && num_shards_ <= num_sites_);
  assert(lookahead_ms_ >= 0.0 && "lookahead must be >= 0 and non-NaN");
  // A zero lookahead admits zero-delay cross-site messages, for which no
  // conservative window exists: the kernel must run serially.
  assert((lookahead_ms_ > 0.0 || num_shards_ == 1) &&
         "zero lookahead requires a single shard");
  per_site_ = std::make_unique<PerSite[]>(static_cast<std::size_t>(num_sites_));
  shards_ = std::make_unique<Shard[]>(static_cast<std::size_t>(num_shards_));
  processes_.prev = processes_.next = &processes_;
  tls_live_kernels.push_back(this);
}

ShardedKernel::~ShardedKernel() {
  DestroyProcesses();
  const auto it =
      std::find(tls_live_kernels.begin(), tls_live_kernels.end(), this);
  if (it != tls_live_kernels.end()) tls_live_kernels.erase(it);
}

void ShardedKernel::DestroyProcesses() {
  for (;;) {
    internal::ProcessLink* link = nullptr;
    {
      const std::scoped_lock lock(processes_mu_);
      if (processes_.next == &processes_) return;
      link = processes_.next;
      link->prev->next = link->next;
      link->next->prev = link->prev;
      link->kernel = nullptr;  // the promise destructor must not unlink again
    }
    link->frame.destroy();
  }
}

namespace internal {

void AttachProcess(ProcessLink* link) {
  ShardedKernel* kernel = tls_exec.kernel;
  if (kernel == nullptr) {
    if (tls_live_kernels.empty()) return;
    kernel = tls_live_kernels.back();
  }
  const std::scoped_lock lock(kernel->processes_mu_);
  link->kernel = kernel;
  link->prev = &kernel->processes_;
  link->next = kernel->processes_.next;
  link->next->prev = link;
  kernel->processes_.next = link;
}

void DetachProcess(ProcessLink* link) {
  ShardedKernel* kernel = link->kernel;
  if (kernel == nullptr) return;
  const std::scoped_lock lock(kernel->processes_mu_);
  link->prev->next = link->next;
  link->next->prev = link->prev;
  link->kernel = nullptr;
}

}  // namespace internal

int ShardedKernel::current_site() const {
  return tls_exec.kernel == this ? tls_exec.site : -1;
}

void ShardedKernel::PushLocal(Shard& shard, Event ev) {
  shard.heap.push_back(std::move(ev));
  std::push_heap(shard.heap.begin(), shard.heap.end(), After);
}

void ShardedKernel::Schedule(int site, double delay, SmallFn fn) {
  assert(site >= 0 && site < num_sites_);
  assert(delay >= 0.0 && "negative or NaN event delay");  // NaN fails >=
  const bool inside = tls_exec.kernel == this && tls_exec.site >= 0;
  const int origin = inside ? tls_exec.site : site;
  if (origin != site) {
    // Conservative sync soundness: every cross-site message must arrive at
    // or beyond the lookahead horizon. The check depends only on workload
    // configuration, so it trips (or not) identically at every shard count.
    assert(delay >= lookahead_ms_ && "cross-site delay below lookahead");
  }
  PerSite& ps = per_site_[origin];
  Event ev{ps.clock + delay, site, origin, ps.next_seq++, std::move(fn)};
  Shard& dest = shards_[site % num_shards_];
  if (!inside || origin % num_shards_ == site % num_shards_) {
    // Same shard (or setup time, when no shard threads exist): the calling
    // thread owns the destination heap.
    PushLocal(dest, std::move(ev));
  } else {
    const std::scoped_lock lock(dest.inbox_mu);
    dest.inbox.push_back(std::move(ev));
  }
}

void ShardedKernel::ExecuteOne(Shard& shard) {
  std::pop_heap(shard.heap.begin(), shard.heap.end(), After);
  Event ev = std::move(shard.heap.back());
  shard.heap.pop_back();
  PerSite& ps = per_site_[ev.site];
  ps.clock = ev.time;
  ++ps.executed;
  tls_exec = ExecContext{this, ev.site};
  ev.fn();
}

void ShardedKernel::RunSerial(double until) {
  const ExecContext saved = tls_exec;
  Shard& shard = shards_[0];
  while (!shard.heap.empty() && shard.heap.front().time <= until) {
    ExecuteOne(shard);
  }
  tls_exec = saved;
}

void ShardedKernel::ComputeHorizon(double until) noexcept {
  double gvt = kInf;
  for (int s = 0; s < num_shards_; ++s) gvt = std::min(gvt, shards_[s].head);
  done_ = !(gvt <= until);  // all heaps empty or strictly beyond the run
  horizon_ = gvt + lookahead_ms_;
}

void ShardedKernel::RunShard(int shard_index, double until, Barrier& barrier) {
  const ExecContext saved = tls_exec;
  Shard& shard = shards_[shard_index];
  for (;;) {
    // Drain cross-shard arrivals into the heap. Arrival order in the inbox
    // is thread-dependent, but the heap re-orders by the total
    // (time, origin_site, origin_seq) key, so the pop sequence is not.
    {
      const std::scoped_lock lock(shard.inbox_mu);
      for (Event& ev : shard.inbox) PushLocal(shard, std::move(ev));
      shard.inbox.clear();
    }
    shard.head = shard.heap.empty() ? kInf : shard.heap.front().time;
    barrier.arrive_and_wait();  // completion computes GVT -> horizon_/done_
    if (done_) break;
    while (!shard.heap.empty() && shard.heap.front().time <= until &&
           shard.heap.front().time < horizon_) {
      ExecuteOne(shard);
    }
    // Quiesce sends before the next drain so a round observes either all or
    // none of a peer's traffic; the recomputed horizon from pre-execution
    // heads is overwritten at the top of the next round before anyone reads
    // it.
    barrier.arrive_and_wait();
  }
  tls_exec = saved;
}

void ShardedKernel::RunUntil(double until) {
  if (num_shards_ == 1) {
    RunSerial(until);
  } else {
    Barrier barrier(num_shards_, Completion{this, until});
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(num_shards_ - 1));
    for (int s = 1; s < num_shards_; ++s) {
      workers.emplace_back(
          [this, s, until, &barrier]() { RunShard(s, until, barrier); });
    }
    RunShard(0, until, barrier);
    for (std::thread& t : workers) t.join();
  }
  for (int s = 0; s < num_sites_; ++s) {
    if (per_site_[s].clock < until) per_site_[s].clock = until;
  }
}

std::uint64_t ShardedKernel::events_executed() const {
  std::uint64_t total = 0;
  for (int s = 0; s < num_sites_; ++s) total += per_site_[s].executed;
  return total;
}

}  // namespace carat::sim
